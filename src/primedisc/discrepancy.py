"""Exact star-discrepancy engines under the closed-interval counting convention.

The empirical count A(r) is the number of points x with x <= r, i.e. the
interval [0, r] is closed on the right. For a sorted multiset
x_(1) <= ... <= x_(N) the star discrepancy over thresholds 0 < r <= 1 is

    D_N* = max_i max( i/N - x_(i),  x_(i) - (i-1)/N ),

the first term being the deviation attained at r = x_(i), the second the
deviation approached as r -> x_(i) from below. Results are exact rationals:
floats only locate candidate maxima (faithful while denominators stay below
2^26), and every near-maximal candidate is re-checked with arbitrary
precision integers before it may win.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .primes import PrimeTable, _integer, is_prime
from .sequences import BlockSpec, Frac, SequenceFamily, _prefix_plan, block_numerators

DEFAULT_SWEEP_LIMIT = 30_000

# float order of a/b vs c/d is faithful while b*d < 2^52; stay well inside
_FLOAT_SAFE_DEN = 1 << 26

# float candidates sit within ~1e-15 of their exact values, so anything this
# close to the float maximum is confirmed exactly
_FILTER_MARGIN = 1e-12


@dataclass(frozen=True)
class DiscrepancyValue:
    """Exact star discrepancy plus the threshold where it is realized.

    num/den is the reduced exact value. witness_num/witness_den give the
    critical threshold r (reduced); side is "at" when the supremum is
    attained at r itself (closed count) and "left" when it is approached
    as r' -> r from below. Either way |count(side)/N - r| reproduces the
    exact value.
    """

    num: int
    den: int
    witness_num: int
    witness_den: int
    side: str

    @property
    def exact(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def approx(self) -> float:
        return self.num / self.den

    @property
    def witness(self) -> Fraction:
        return Fraction(self.witness_num, self.witness_den)


@dataclass(frozen=True)
class ScanRecord:
    """Discrepancy of one prefix: k, D_k*, and the weighted value k * D_k*."""

    k: int
    disc: DiscrepancyValue
    weighted_num: int
    weighted_den: int

    @property
    def weighted(self) -> Fraction:
        return Fraction(self.weighted_num, self.weighted_den)


def _point_pairs(points: Iterable) -> list[tuple[int, int]]:
    """Normalize Frac objects or (num, den) pairs, each validated by Frac."""
    fracs = [x if isinstance(x, Frac) else Frac(*x) for x in points]
    if not fracs:
        raise ValueError("points must be nonempty")
    return [(x.num, x.den) for x in fracs]


def _checked_arrays(num, den) -> tuple[np.ndarray, np.ndarray]:
    """The one input check of the array engines: equal-shape int64 (num, den).

    Integer dtypes only (floats, bools and ints beyond int64 are refused, not
    truncated); num is 1-D, a scalar den is shared, every num/den is in (0, 1).
    """
    num = np.asarray(num)
    den = np.asarray(den)
    if num.dtype.kind not in "iu" or den.dtype.kind not in "iu":
        raise ValueError(f"expected integer arrays, got {num.dtype} and {den.dtype}")
    if num.ndim != 1:
        raise ValueError(f"expected a 1-D numerator array, got shape {num.shape}")
    if num.size == 0:
        raise ValueError("points must be nonempty")
    if den.ndim and num.shape != den.shape:
        raise ValueError("num and den must have equal length")
    # uint64 values beyond int64 wrap negative here and fail the range check
    num = num.astype(np.int64, copy=False)
    den = den.astype(np.int64, copy=False)
    if not den.ndim:
        den = np.full(num.shape, den)
    if not ((num >= 1) & (num < den)).all():
        raise ValueError("every fraction must lie strictly inside (0, 1)")
    return num, den


def _reduced_value(vnum: int, vden: int, wn: int, wd: int, side: str) -> DiscrepancyValue:
    g = gcd(vnum, vden)
    gw = gcd(wn, wd)
    return DiscrepancyValue(vnum // g, vden // g, wn // gw, wd // gw, side)


def _confirm(cand: list[tuple[int, int, int, str]], n: int) -> DiscrepancyValue:
    # exact winner among candidates (a, b, count, side): "at" is the deviation
    # count/n - a/b at r = a/b, "left" is a/b - count/n as r -> a/b from below.
    # The one tie rule of every engine: the largest value wins, then the
    # smallest threshold, then "at" before "left", as in the oracle and the
    # grid sweep. One pass of integer cross-multiplication, in any order
    best: tuple[int, int, int, str] | None = None
    for a, b, count, side in cand:
        v = count * b - a * n if side == "at" else a * n - count * b
        if v < 0:
            continue
        if best is not None:
            bv, ba, bb, bside = best
            # > 0 when v / (b n) beats bv / (bb n), or ties it from a smaller
            # threshold a/b, or from the same threshold "at" against "left"
            beats = v * bb - bv * b or ba * b - a * bb or (side, bside) == ("at", "left")
            if beats <= 0:
                continue
        best = (v, a, b, side)
    if best is None:
        raise ArithmeticError("no nonnegative candidate; engine inconsistency")
    v, a, b, side = best
    return _reduced_value(v, b * n, a, b, side)


# slice length of the passes that would otherwise hold a second n-length
# array; their few 128 KiB temporaries stay small next to 8 B per point
_SLICE = 1 << 14


def _deviation(val: np.ndarray, n: int, lo: int) -> np.ndarray:
    """u = n x_(i) - i for i = lo, lo + 1, ... over the slice of val at lo.

    val holds sorted values and n the size of the whole multiset. Over a
    whole multiset u is n times the "left" deviation at x_(i) and 1 - u is n
    times the "at" deviation there. The boundary store passes its distinct
    values of (0, 1/2] with n counting both halves, so i = #{y < x_(i)}
    still. Callers go slice by slice: no n-length deviation array is held.
    """
    u = val[lo : lo + _SLICE] * n
    u -= np.arange(lo, lo + u.size)
    return u


# no steps, no indices, no cut points
_EMPTY = np.empty(0, dtype=np.int64)


def _series(
    u: np.ndarray, lo: int, steps: Sequence[np.ndarray]
) -> Iterator[tuple[int, np.ndarray | None]]:
    # (shift, w) per series on the slice u = _deviation(val, n, lo): w = u minus
    # #{p in steps : p <= l}, or None when no step falls inside the slice and
    # w is u - shift
    for st in steps:
        i0, i1 = np.searchsorted(st, (lo, lo + u.size - 1), "right").tolist()
        if i0 == i1:
            yield i0, None
        else:
            # the count is i0 up to the first step inside, then one more per step
            runs = np.diff(st[i0:i1], prepend=lo, append=lo + u.size)
            w = np.repeat(np.arange(i0, i1 + 1, dtype=np.float64), runs)
            yield i0, np.subtract(u, w, out=w)


def _near_maximal(
    val: np.ndarray, n: int, steps: Sequence[np.ndarray], threshold: Callable[[float], float]
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """The points of a sorted store near the maximum of max(w, 1 - w).

    Series s is w(l) = n val[l] - l - #{p in steps[s] : p <= l}, for sorted
    positions steps[s]: u of _deviation shifted by a step count. One float
    pass keeps each slice's max and min of every series, and a series with
    no step inside a slice shifts the slice's extremes of u instead of being
    made. top is the maximum of max(w, 1 - w) over every series and point,
    and with t = threshold(top) only the slices whose extremes reach t or
    1 - t are made again. Returns top and, per series, the sorted indices
    with w >= t and those with w <= 1 - t. The one float pass of the sorted
    evaluators: star_discrepancy_arrays, prefix_discrepancy and every
    rebuild of the boundary sweep.
    """
    extremes = []
    for lo in range(0, val.size, _SLICE):
        u = _deviation(val, n, lo)
        hi, low = float(u.max()), float(u.min())
        row = [
            (hi - shift, low - shift) if w is None else (float(w.max()), float(w.min()))
            for shift, w in _series(u, lo, steps)
        ]
        extremes.append((lo, row))
    top = max((max(hi, 1.0 - low) for _, row in extremes for hi, low in row), default=-math.inf)
    t = threshold(top)
    high, low = [[_EMPTY] for _ in steps], [[_EMPTY] for _ in steps]
    for lo, row in extremes:
        if all(hi < t and lw > 1.0 - t for hi, lw in row):
            continue
        u = _deviation(val, n, lo)
        for s, (shift, w) in enumerate(_series(u, lo, steps)):
            w = u - shift if w is None else w
            high[s].append(lo + np.flatnonzero(w >= t))
            low[s].append(lo + np.flatnonzero(w <= 1.0 - t))
    return top, [(np.concatenate(h), np.concatenate(lw)) for h, lw in zip(high, low)]


def _representatives(values: np.ndarray, max_den: int) -> tuple[np.ndarray, np.ndarray]:
    # the reduced pair (a, b) with a / b == x for each float x in values, all
    # values of fractions with denominators <= max_den <= _FLOAT_SAFE_DEN.
    # Such an x lies within 2^-54 of a/b and xi = rint(x 2^62) / 2^62 within
    # 2^-63 of x, so |xi - a/b| < 2^-53 <= 1 / (2 b^2) and a/b is a convergent
    # of xi (Legendre). Distinct fractions with denominators <= 2^26 round to
    # distinct floats, so a/b is the one convergent h/k with k <= max_den and
    # h / k == x. One Euclid loop over the distinct targets finds it; the
    # convergents of xi have denominators <= 2^62, so int64 lanes never overflow
    targets, where = np.unique(values, return_inverse=True)
    a = np.zeros(targets.size, dtype=np.int64)
    b = np.zeros_like(a)
    lanes = np.arange(targets.size)
    x = targets
    # xi = 0 + r / r_prev: the convergent before the loop is h / k = 0 / 1
    r_prev = np.full(x.size, 1 << 62, dtype=np.int64)
    r = np.rint(x * float(1 << 62)).astype(np.int64)
    h_prev, h = np.ones_like(r), np.zeros_like(r)
    k_prev, k = np.zeros_like(r), np.ones_like(r)
    while lanes.size:
        q, rem = np.divmod(r_prev, r)
        r_prev, r = r, rem
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        near = k <= max_den
        hit = near & (h / k == x)
        a[lanes[hit]] = h[hit]
        b[lanes[hit]] = k[hit]
        live = ~hit
        # a lane past max_den, or at xi itself, without a hit names no value
        if (live & (~near | (r == 0))).any():
            raise ArithmeticError("candidate value missing from its multiset; engine inconsistency")
        lanes, x, r_prev, r, h_prev, h, k_prev, k = (
            v[live] for v in (lanes, x, r_prev, r, h_prev, h, k_prev, k)
        )
    return a[where], b[where]


def _star_discrepancy_exact(pairs: list[tuple[int, int]]) -> DiscrepancyValue:
    # arbitrary-precision fallback: exact sort, every candidate confirmed
    ordered = sorted(pairs, key=lambda ab: Fraction(ab[0], ab[1]))
    cand = [(a, b, i + 1, "at") for i, (a, b) in enumerate(ordered)]
    cand += [(a, b, i, "left") for i, (a, b) in enumerate(ordered)]
    return _confirm(cand, len(ordered))


def star_discrepancy_arrays(num: np.ndarray, den: np.ndarray) -> DiscrepancyValue:
    """Exact D_N* from parallel integer numerator/denominator arrays.

    The sorted-multiset evaluator of arbitrary points (star_discrepancy,
    disc --input, triangle_bound and BlockAccumulator feed it) and the one
    place that chooses floats or exact sorting for them. Up to a largest
    denominator of 2^26 it divides once, sorts the values alone, runs the
    float pass (_near_maximal) of every sorted evaluator and names each
    near-maximal point from its own float (_representatives): num and den
    are read only for the check, the divide and the maximum denominator.
    Larger denominators, which floats could misorder, take the exact sort.
    Non-integer arrays are rejected rather than truncated.
    """
    num, den = _checked_arrays(num, den)
    max_den = int(den.max())
    if max_den > _FLOAT_SAFE_DEN:
        return _star_discrepancy_exact(list(zip(num.tolist(), den.tolist())))
    val = num / den
    val.sort()
    n = val.size
    # a repeated value has "left" at its first index and "at" at its last;
    # its other indices undercount and never win
    _, [(left, at)] = _near_maximal(val, n, [_EMPTY], lambda top: top - n * _FILTER_MARGIN)
    a, b = _representatives(val[np.concatenate([at, left])], max_den)
    count = np.concatenate([at + 1, left])
    side = ["at"] * at.size + ["left"] * left.size
    return _confirm(list(zip(a.tolist(), b.tolist(), count.tolist(), side)), n)


def prefix_discrepancy(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> DiscrepancyValue:
    """star_discrepancy_arrays(*prefix_arrays(family, n, table)), 4 B per point.

    Same checks, errors, value, witness and side. The prefix is whole
    blocks, a multiset that does not depend on the order inside each block
    and is symmetric under x -> 1 - x, then one cut block: the whole blocks
    are stored as their sorted lower halves, about n / 2 floats, and only
    the cut block is generated in family order. Every check, a denominator
    beyond 2^26 included, comes before anything of size n is allocated.
    """
    ordering, whole, cut = _prefix_plan(family, n, table)
    # every family's denominators increase: q is the largest
    q, k = cut or (whole[-1], 0)
    if q > _FLOAT_SAFE_DEN:
        raise ValueError(f"denominator {q} too large for the float-sorted engine")
    nums = block_numerators(q, ordering)[:k] if k else _EMPTY
    return _blocks_discrepancy(whole, nums, q)


def _blocks_discrepancy(whole: Sequence[int], cut: np.ndarray, q: int) -> DiscrepancyValue:
    """Exact D_N* of the whole blocks {j/d : 1 <= j < d, d in whole} and the points cut / q.

    With N_W whole points, k = cut.size and n = N_W + k, order the multiset
    with cut points after equal whole ones. L is the sorted lower-half store
    (_merge_lower_halves), one value per whole point <= 1/2, and with K =
    cut / q and K' = (q - cut) / q (both correctly rounded quotients):

    * stored L[l] has index l + #{K < L[l]};
    * its mirror 1 - L[l] has index n - 1 - l - #{K' <= L[l]}, so with
      v = n L[l] - l - #{K' <= L[l]} its u is 1 - v (a mirrored 1/2 is
      another copy of 1/2 at a true index, so it needs no exception);
    * cut point K_t (sorted, t = 0, 1, ...) has index #{whole <= K_t} + t,
      read off L, through K' when K_t > 1/2.

    Both step counts are positions of K and K' in L, so one _near_maximal
    pass over L evaluates every stored point and its mirror; the k cut
    points are evaluated directly and named as (cut, q).
    """
    n_whole = sum(d - 1 for d in whole)
    k = cut.size
    n = n_whole + k
    store = np.empty(sum(d // 2 for d in whole))
    _merge_lower_halves(store, 0, whole)
    c = np.sort(cut)
    kappa = c / q
    # #{L <= K_t}, and #{L < K'_t} (descending in t)
    below = np.searchsorted(store, kappa, "right")
    above = np.searchsorted(store, (q - c) / q, "left")
    idx = np.where(2 * c > q, n_whole - above, below) + np.arange(k)
    u = n * kappa - idx
    cut_top = float(np.maximum(u, 1.0 - u).max()) if k else -math.inf

    def threshold(top: float) -> float:
        return max(top, cut_top) - n * _FILTER_MARGIN

    upto = above[::-1]
    top, [(left, at), (mirror_at, mirror_left)] = _near_maximal(
        store, n, [below, upto], threshold
    )
    t = threshold(top)
    # stored "left" (u >= t) and "at", then mirrored "at" (v >= t) and "left"
    pos = np.concatenate([left, at, mirror_at, mirror_left])
    a, b = _representatives(store[pos], max(whole, default=1))
    i = pos + np.searchsorted(below, pos, "right")
    j = (n - 1) - pos - np.searchsorted(upto, pos, "right")
    split = np.cumsum([left.size, at.size, mirror_at.size])
    a, b, i, j = (np.split(x, split) for x in (a, b, i, j))
    hi, lo = u >= t, u <= 1.0 - t
    groups = [
        (a[0], b[0], i[0], "left"),
        (a[1], b[1], i[1] + 1, "at"),
        (b[2] - a[2], b[2], j[2] + 1, "at"),
        (b[3] - a[3], b[3], j[3], "left"),
        (c[hi], np.full(hi.sum(), q), idx[hi], "left"),
        (c[lo], np.full(lo.sum(), q), idx[lo] + 1, "at"),
    ]
    cand = [
        (x, y, z, side)
        for num, den, count, side in groups
        for x, y, z in zip(num.tolist(), den.tolist(), count.tolist())
    ]
    return _confirm(cand, n)


def star_discrepancy(points: Sequence) -> DiscrepancyValue:
    """Exact D_N* of a nonempty multiset of fractions in (0, 1).

    List front end of star_discrepancy_arrays. Input order is irrelevant
    (order matters only to prefixes, see prefix_scan). Accepts Frac objects
    or (num, den) pairs.
    """
    pairs = _point_pairs(points)
    # beyond int64 the exact path; star_discrepancy_arrays routes the rest
    if max(b for _, b in pairs) >= 1 << 63:
        return _star_discrepancy_exact(pairs)
    return star_discrepancy_arrays(*np.array(pairs, dtype=np.int64).T)


def star_discrepancy_oracle(points: Sequence) -> DiscrepancyValue:
    """Independent D_N* by direct enumeration of critical thresholds.

    For every distinct value v the deviation is checked both at r = v
    (count of points <= v) and as r -> v from below (count of points < v);
    the supremum over (0, 1] is attained at one of these. Pure Fraction
    arithmetic, sharing no code with star_discrepancy, kept as a slow
    reference implementation.
    """
    pairs = _point_pairs(points)
    n = len(pairs)
    values = sorted(Fraction(a, b) for a, b in pairs)
    best: Fraction | None = None
    best_w: Fraction | None = None
    best_side = ""
    i = 0
    while i < n:
        j = i
        while j < n and values[j] == values[i]:
            j += 1
        v = values[i]
        for side, count in (("at", j), ("left", i)):
            dev = abs(Fraction(count, n) - v)
            if best is None or dev > best:
                best, best_w, best_side = dev, v, side
        i = j
    assert best is not None and best_w is not None
    return DiscrepancyValue(
        best.numerator, best.denominator, best_w.numerator, best_w.denominator, best_side
    )


# slots per row block of the grid sweep: 512 KiB of int32 lanes stay in L2
_CELLS = 1 << 17


def _grid_sweep(nums: Sequence[int], p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per prefix k: p * k * D_k*, its witness numerator j and whether side is "at".

    All points sit on the grid j/p. With c(s) the running count of numerators
    <= s, grid point s holds x(s) = p c(s) - k s: p k times the "at"
    deviation at v is x(v), and at "left" v it is x(v - 1) - k. Between
    consecutive prefix values c is constant and x falls strictly in s, so
    max x sits at a prefix value and min x just below one, and no other grid
    point reaches either. Hence p k D_k* is the larger of max x ("at" s) and
    k - min x ("left" s + 1); a positive "left" or negative "at" deviation
    is always strictly smaller. The sweep holds only the half grid
    S = {v - 1, v : v a distinct numerator}, one slot per point of S, at
    most 2 x (distinct numerators) and p for a whole block. Every slot lies
    in (-p N, p N], N = len(nums): int32 lanes while p N < 2^31, int64
    above. A prefix is the last one plus one window of a fixed array, one
    numpy call; rows of consecutive prefixes, up to _CELLS slots, hold
    p c(s) - k0 s with k0 fixed per row block, so the k s ramp comes off
    once per block, before one argmax and one argmin.
    """
    nums = np.asarray(nums)
    n = nums.size
    # grid[where[n + i]] == nums[i]
    grid, where = np.unique(np.concatenate([nums - 1, nums]), return_inverse=True)
    w = grid.size
    lane = np.int32 if p * n < 1 << 31 else np.int64
    rows = max(1, min(n, _CELLS // w))
    # inserting v adds p to every slot from v on: window[w - t:][:w] with t
    # the index of v in grid
    window = np.zeros(2 * w, dtype=lane)
    window[w:] = p
    starts = (w - where[n:]).tolist()
    del where
    ramp = np.multiply.outer(np.arange(1, rows + 1, dtype=lane), grid.astype(lane))
    block = np.zeros((rows, w), dtype=lane)
    flat, offsets = block.reshape(-1), np.arange(0, rows * w, w)
    lines, add = list(block), np.add
    ends = []
    for k in range(0, n, rows):
        # each row follows the one before, row 0 the last row of the block before
        part, prev = block[: n - k], lines[-1]
        for line, s in zip(lines, starts[k : k + rows]):
            add(prev, window[s : s + w], line)
            prev = line
        part -= ramp[: len(part)]
        idx = np.stack([part.argmax(axis=1), part.argmin(axis=1)])
        ends.append((idx, flat.take(idx + offsets[: len(part)])))
    # the row buffers and every view of them go before the decode
    del block, ramp, lines, flat, part, prev, line, starts
    (hi, lo), (top, bottom) = (np.hstack(x).astype(np.int64) for x in zip(*ends))
    # the first maximum and minimum are the smallest thresholds; "at" s
    # against "left" s' + 1: the larger value, then the smaller threshold,
    # then "at" before "left"
    at, left = grid[hi], grid[lo] + 1
    neg = np.arange(1, n + 1) - bottom
    low = (neg > top) | ((neg == top) & (left < at))
    return np.where(low, neg, top), np.where(low, left, at), ~low


def _rank_sweep(pairs: list[tuple[int, int]]) -> Iterator[DiscrepancyValue]:
    """D_k* for k = 1..N of any points, from one ranking of their distinct values.

    Ranks come from floats while every denominator is at most _FLOAT_SAFE_DEN,
    else from one exact sort. As in _grid_sweep, count holds #{y <= v_t} ("at")
    and #{y < v_t} ("left") at each distinct value v_t. It is constant between
    consecutive distinct values, where |c - k x| is below its value at one end,
    so a value not yet in the prefix never beats or ties one that is. Floats
    |count - k v_t| (error about k 2^-52) only pick the candidates of _confirm.
    """
    if max(b for _, b in pairs) <= _FLOAT_SAFE_DEN:
        values = np.divide(*np.array(pairs, dtype=np.int64).T)
    else:
        values = np.array([Fraction(a, b) for a, b in pairs])
    values, first, slots = np.unique(values, return_index=True, return_inverse=True)
    reps = [pairs[i] for i in first.tolist()]
    step = np.repeat(values.astype(np.float64), 2)
    count = np.zeros_like(step)  # integers, exact in float64 below 2^53
    dev = np.empty_like(step)
    for k, t in enumerate(slots.tolist(), 1):
        count[2 * t :] += 1
        count[2 * t + 1] -= 1
        np.abs(np.subtract(count, np.multiply(step, k, out=dev), out=dev), out=dev)
        near = (dev >= dev.max() - k * _FILTER_MARGIN).nonzero()[0].tolist()
        cand = [(*reps[i >> 1], int(count[i]), "left" if i & 1 else "at") for i in near]
        yield _confirm(cand, k)


def _grid_records(nums: list[int], p: int) -> list[ScanRecord]:
    # D_k* = m / (k p), witness j / p and k D_k* = m / p from the grid sweep,
    # reduced by gcds of int64 arrays (the caller keeps every k p < 2^63);
    # the arrays go before the records are made
    m, j, at_side = _grid_sweep(nums, p)
    kp = np.arange(1, len(nums) + 1) * p
    g, gj, gm = np.gcd(m, kp), np.gcd(j, p), np.gcd(m, p)
    fractions = ((m, g), (kp, g), (j, gj), (p, gj), (m, gm), (p, gm))
    columns = [(x // y).tolist() for x, y in fractions] + [at_side.tolist()]
    del m, j, at_side, kp, g, gj, gm, fractions
    return [
        ScanRecord(k, DiscrepancyValue(a, b, c, d, "at" if at else "left"), e, f)
        for k, a, b, c, d, e, f, at in zip(range(1, len(nums) + 1), *columns)
    ]


def prefix_scan(points: Sequence) -> list[ScanRecord]:
    """Exact D_k* for every prefix k = 1..N, in input order.

    A shared denominator p takes the integer sweep over the distinct
    numerators while p * N < 2^63 keeps it exact; any other input takes the
    rank sweep over its distinct values. Neither sorts per prefix: both cost
    O(distinct values) per prefix. Each record satisfies weighted == k *
    disc.exact identically.
    """
    pairs = _point_pairs(points)
    n = len(pairs)
    dens = {b for _, b in pairs}
    p = max(dens)
    if len(dens) == 1 and p * n < 1 << 63:
        return _grid_records([a for a, _ in pairs], p)
    records: list[ScanRecord] = []
    for k, dv in enumerate(_rank_sweep(pairs), 1):
        g = gcd(dv.num * k, dv.den)
        records.append(ScanRecord(k, dv, dv.num * k // g, dv.den // g))
    return records


def weighted_prefix_maxima(nums: Sequence[int], p: int) -> np.ndarray:
    """p * k * D_k* for k = 1..len(nums) as an int64 array (common denominator p).

    The grid sweep behind prefix_scan's common-denominator path, returning
    only the scaled integer maxima; meant for whole-block bound checks. Each
    prefix costs one slot per point of the half grid {v - 1, v : v a
    distinct numerator}, p slots for a whole block, in int32 lanes while
    p * len(nums) < 2^31. Refuses p * len(nums) >= 2^63, where int64 lanes
    would overflow.
    """
    nums, _ = _checked_arrays(nums, p)
    if int(p) * nums.size >= 1 << 63:
        raise OverflowError(f"p * N = {int(p) * nums.size} reaches 2^63; the sweep needs int64")
    return _grid_sweep(nums, int(p))[0]


def block_max_weighted(
    spec: BlockSpec, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> tuple[Fraction, int]:
    """(max over k of k * D_k*, smallest k attaining it) for one block.

    The sweep costs O(p^2); denominators above sweep_limit are refused so a
    huge block cannot be requested by accident.
    """
    if spec.p > sweep_limit:
        raise ValueError(
            f"p={spec.p} exceeds the sweep limit {sweep_limit} (quadratic cost); "
            "raise sweep_limit explicitly to proceed"
        )
    maxima = weighted_prefix_maxima(block_numerators(spec.p, spec.ordering), spec.p)
    m = int(maxima.max())
    k = int(maxima.argmax()) + 1
    return Fraction(m, spec.p), k


def nw_bound(p: int, k: int) -> float:
    """(2 sqrt(p) + 1)(ln p + 1/3)^2 + k/p, the inversive-block budget for k * D_k*."""
    k = _integer(k)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k={k} outside [1, {p - 1}]")
    return (2.0 * math.sqrt(p) + 1.0) * (math.log(p) + 1.0 / 3.0) ** 2 + k / p


def triangle_bound(blocks: Sequence[tuple]) -> tuple[Fraction, DiscrepancyValue]:
    """Concatenation bound sum_j N_j D*(block_j) / N next to the exact D_N*.

    Each block is a (numerators, den) tuple under the star_discrepancy_arrays
    contract, den one integer or one per numerator; any other block (a list
    of (num, den) pairs among them) is refused. Returns (bound, exact);
    raises ArithmeticError if exact ever exceeded the bound, which a correct
    engine makes impossible.
    """
    if not blocks:
        raise ValueError("blocks must be nonempty")
    checked = []
    for j, block in enumerate(blocks):
        try:
            # a list of two (num, den) pairs must not pass for one block
            if not (isinstance(block, tuple) and len(block) == 2):
                raise ValueError("expected a (numerators, den) tuple of integer arrays")
            checked.append(_checked_arrays(*block))
        except ValueError as e:
            raise ValueError(f"block {j} {reprlib.repr(block)}: {e}") from None
    weighted_sum = sum(num.size * star_discrepancy_arrays(num, den).exact for num, den in checked)
    exact = star_discrepancy_arrays(*(np.concatenate(parts) for parts in zip(*checked)))
    bound = weighted_sum / sum(num.size for num, _ in checked)
    if exact.exact > bound:
        raise ArithmeticError("triangle inequality violated; engine inconsistency")
    return bound, exact


class BlockAccumulator:
    """Growing multiset of whole blocks with on-demand exact D_N*.

    add_block validates a batch and keeps it as given, in O(batch);
    star_discrepancy evaluates the concatenation of every batch with
    star_discrepancy_arrays, in O(N log N). This is the plain
    merge-and-evaluate path against which the tests check the boundary
    sweep. It accepts denominators up to 2^26 only, the domain of the
    boundary sweep it is the reference for.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self.n = 0

    def add_block(self, numerators: np.ndarray, den: int) -> None:
        """Add the multiset {a/den : a in numerators}; order inside is irrelevant."""
        new_num, new_den = _checked_arrays(numerators, den)
        if new_den.max() > _FLOAT_SAFE_DEN:
            raise ValueError(f"denominator {den} too large for the float-sorted engine")
        # copies: a caller reusing its arrays must not change the multiset
        self._blocks.append((new_num.copy(), new_den.copy()))
        self.n += new_num.size

    def star_discrepancy(self) -> DiscrepancyValue:
        """Exact D_N* of everything added so far."""
        if self.n == 0:
            raise ValueError("empty multiset")
        num, den = (np.concatenate(parts) for parts in zip(*self._blocks))
        return star_discrepancy_arrays(num, den)


# a rebuild tracks every point whose u lies within this many units of the
# maximum; the band lasts until the drift bound overtakes the maximum, about
# two blocks per unit of width
_BAND_WIDTH = 12

# the bucket filter's value buckets hold about this many stored points each
_BUCKET_POINTS = 8


def _merge_lower_halves(store: np.ndarray, size: int, dens: Sequence[int]) -> int:
    # writes the values j / q, 1 <= j <= q / 2, of each block q in dens
    # after the sorted run store[:size], sorts the filled prefix in place and
    # returns its length. Into an empty store the default sort takes any
    # number of runs with no buffer; after that timsort ("stable") merges the
    # one long held run with the short new ones in about one pass
    j = np.arange(1, max(dens, default=0) // 2 + 1, dtype=np.float64)
    at = size
    for q in dens:
        np.divide(j[: q // 2], q, out=store[at : at + q // 2])
        at += q // 2
    store[:at].sort(kind="stable" if size else None)
    return at


def _band_maximum(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, w: np.ndarray, n: int
) -> DiscrepancyValue:
    # exact max of max(u, 1 - u) over the tracked points a/b <= 1/2 with counts
    # c = #{y < a/b} and w = b u = n a - c b, floats picking the near-maximal
    # ones: u / n is the "left" deviation at a/b and the "at" one at its
    # mirror 1 - a/b, and (1 - u) / n the "at" deviation at a/b and the "left"
    # one at 1 - a/b
    u = w / b
    cut = max(float(u.max()), 1.0 - float(u.min())) - n * 2.0**-30
    cand: list[tuple[int, int, int, str]] = []
    hi = u >= cut
    for ai, bi, ci in zip(a[hi].tolist(), b[hi].tolist(), c[hi].tolist()):
        cand += [(ai, bi, ci, "left"), (bi - ai, bi, n - ci, "at")]
    lo = u <= 1.0 - cut
    for ai, bi, ci in zip(a[lo].tolist(), b[lo].tolist(), c[lo].tolist()):
        cand += [(ai, bi, ci + 1, "at"), (bi - ai, bi, n - ci - 1, "left")]
    return _confirm(cand, n)


def _bands(w: np.ndarray, b: np.ndarray, floor: int) -> np.ndarray:
    # the exact band test of points with denominators b and w = b u: the mask
    # of the points in the high band u >= floor or the low band u <= 1 - floor
    return (w >= floor * b) | (b - w >= floor * b)


def _boundary_discrepancies(
    primes: Sequence[int], m_lo: int, m_hi: int
) -> Iterator[DiscrepancyValue]:
    """Exact D_N* of the whole blocks {j/p : 1 <= j < p, p in primes[:m]}, m = m_lo..m_hi.

    Certified lazy sweep over distinct primes. All values are distinct and
    the multiset is symmetric under x -> 1 - x, so u(x) = N x - #{y < x}
    has u(1 - x) = 1 - u(x), and N D_N* is the maximum of max(u, 1 - u) over
    the lower half (0, 1/2] alone; 1/2 is its own mirror. A block p moves
    u(x) by p x - ceil(p x) + 1 - x, in (-x, 1 - x] with x <= 1/2, so it
    moves max(u, 1 - u) by less than 1.

    The store is one float64 array of the lower-half values, 8 bytes per
    point, sized once for every block the sweep will merge. A rebuild writes
    the pending blocks' values after the held run and sorts in place
    (_merge_lower_halves). One float pass then keeps each slice's max u, min
    u and bucket counts and picks an integer floor below the maximum by the
    band width; only the slices whose extremes reach it are scanned again.
    The sweep tracks exactly the two bands: the high band u >= floor and the
    low band u <= ceil = 1 - floor. Each block raises the floor and lowers
    the ceiling by 1, so every untracked point stays strictly between them;
    once tracked points that leave both bands are dropped, any survivor
    holds the maximum and every point tying it, and the sweep rebuilds when
    both bands are empty. A tracked point's count c is its store index and
    its a/b is named from its float by continued fractions
    (_representatives), with the largest prime merged so far as the bound
    on b, since blocks may come in any order. A new point j/p gets its exact
    count from the stale store plus the closed form floor(j q / p) for each
    pending block q, but only when its u can reach a band: at each rebuild a
    bucket filter records the stale count at the edges of equal value
    buckets, which brackets u(j/p) in integers. Floats only choose what to
    track; values, witnesses and the certification test are exact.
    """
    primes = [int(p) for p in primes[:m_hi]]
    p_max = max(primes)
    if p_max > _FLOAT_SAFE_DEN:
        raise ValueError(f"denominator {p_max} too large for the float-sorted engine")
    if sum(p - 1 for p in primes) * p_max >= 1 << 63:
        raise OverflowError("N * p_m reaches 2^63; the exact counts need int64")
    store = np.empty(sum(p // 2 for p in primes))
    size = max_den = 0
    pending: list[int] = []
    n = 0
    # tracked points a/b <= 1/2 with exact counts c, each in a band
    a = b = c = None
    floor = 0
    for m, p in enumerate(primes, 1):
        n += p - 1
        pending.append(p)
        if m < m_lo:
            continue
        if a is not None:
            floor += 1
            c += a * p // b
            j = np.arange(1, p // 2 + 1, dtype=np.int64)
            x = j / p
            # p u(j/p) = n j - p (j - 1) - p #{stale y < j/p} - p sum_q floor(j q / p)
            # over the r earlier pending blocks q, and with Q = sum q the last
            # term lies in [j Q - r (p - 1), j Q - r]: p does not divide j q
            q = np.array(pending[:-1], dtype=np.int64)
            r = q.size
            base = n * j - p * (j - 1) - j * int(q.sum())
            k = (x * scale).astype(np.int64)
            reach = (base + r * (p - 1) - p * edge_count[k] >= floor * p) | (
                base + r - p * edge_count[k + 1] <= (1 - floor) * p
            )
            j, x = j[reach], x[reach]
            cj = np.searchsorted(val, x) + (j - 1)
            cj += (np.multiply.outer(j, q) // p).sum(axis=1)
            a = np.concatenate([a, j])
            b = np.concatenate([b, np.full(j.size, p, dtype=np.int64)])
            c = np.concatenate([c, cj])
            w = n * a - c * b
            keep = _bands(w, b, floor)
        if a is None or not keep.any():
            size = _merge_lower_halves(store, size, pending)
            max_den = max(max_den, *pending)
            pending.clear()
            val = store[:size]
            margin = n * 2.0**-30  # far above the float error of u, about n 2^-52

            def floor_below(top: float) -> int:
                return math.floor(top - margin) - _BAND_WIDTH

            top, [near] = _near_maximal(
                val, n, [_EMPTY], lambda top: floor_below(top) - margin
            )
            floor = floor_below(top)
            # the two bands are disjoint, or overlap and hold every point
            c = np.concatenate(near) if floor - margin > 0.5 else np.arange(size)
            # bucket k = floor(x scale) holds [k / scale, (k + 1) / scale): a
            # power of two keeps x * scale and the edges exact, so the stale
            # count of an x in bucket k lies in [edge_count[k], edge_count[k + 1]]
            scale = 2 << max(size // _BUCKET_POINTS, 1).bit_length()
            edge_count = np.zeros(scale // 2 + 2, dtype=np.int64)
            for lo in range(0, size, _SLICE):
                k = (val[lo : lo + _SLICE] * scale).astype(np.int64)
                edge_count[k[0] + 1 : k[-1] + 2] += np.bincount(k - k[0])
            np.cumsum(edge_count, out=edge_count)
            a, b = _representatives(val[c], max_den)
            w = n * a - c * b
            keep = _bands(w, b, floor)
        a, b, c, w = a[keep], b[keep], c[keep], w[keep]
        yield _band_maximum(a, b, c, w, n)
