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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .primes import _integer, is_prime
from .sequences import BlockSpec, Frac, block_numerators

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


# slice length of the passes that would otherwise hold a second n-length array
_SLICE = 1 << 16


def _deviations(val: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, u) slice by slice, u = n x_(i) - i for i = i0, i0 + 1, ...

    val holds sorted values and n the size of the whole multiset. Over a
    whole multiset u is n times the "left" deviation at x_(i) and 1 - u is n
    times the "at" deviation there. The boundary store passes its distinct
    values of (0, 1/2] with n counting both halves, so i = #{y < x_(i)}
    still. No n-length deviation array is ever held.
    """
    for lo in range(0, val.size, _SLICE):
        u = val[lo : lo + _SLICE] * n
        u -= np.arange(lo, lo + u.size)
        yield lo, u


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

    The one sorted-multiset evaluator: star_discrepancy, triangle_bound and
    BlockAccumulator feed it. It sorts the values num / den, finds the
    maximum deviation in one float pass and the near-maximal indices in a
    second, which revisits only the slices whose extremes reach the cut, and
    confirms those exactly. Each candidate value is named from its own float
    by continued fractions, so num and den are read only for the input
    check, the divide and the maximum denominator. Falls back to exact
    sorting when a denominator is too large for faithful float order.
    Non-integer arrays are rejected rather than truncated.
    """
    num, den = _checked_arrays(num, den)
    max_den = int(den.max())
    if max_den > _FLOAT_SAFE_DEN:
        return _star_discrepancy_exact(list(zip(num.tolist(), den.tolist())))
    val = num / den
    val.sort()
    n = val.size
    # (i0, max u, min u) per slice: only slices whose extremes reach the cut
    # can hold a candidate, and only those are made again
    extremes = [(lo, float(u.max()), float(u.min())) for lo, u in _deviations(val, n)]
    top = max(max(hi, 1.0 - low) for _, hi, low in extremes)
    cut = top - n * _FILTER_MARGIN
    # a repeated value has "left" at its first index and "at" at its last;
    # its other indices undercount and never win
    at, left = [], []
    for lo, hi, low in extremes:
        if hi < cut and low > 1.0 - cut:
            continue
        u = val[lo : lo + _SLICE] * n
        u -= np.arange(lo, lo + u.size)
        at.append(lo + np.flatnonzero(u <= 1.0 - cut))
        left.append(lo + np.flatnonzero(u >= cut))
    at, left = np.concatenate(at), np.concatenate(left)
    a, b = _representatives(val[np.concatenate([at, left])], max_den)
    count = np.concatenate([at + 1, left])
    side = ["at"] * at.size + ["left"] * left.size
    return _confirm(list(zip(a.tolist(), b.tolist(), count.tolist(), side)), n)


def star_discrepancy(points: Sequence) -> DiscrepancyValue:
    """Exact D_N* of a nonempty multiset of fractions in (0, 1).

    List front end of star_discrepancy_arrays. Input order is irrelevant
    (order matters only to prefixes, see prefix_scan). Accepts Frac objects
    or (num, den) pairs.
    """
    pairs = _point_pairs(points)
    # a denominator beyond float safety, even beyond int64, takes the exact path
    if max(b for _, b in pairs) > _FLOAT_SAFE_DEN:
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
    sweep. Only float-safe denominators are accepted so the float order
    stays exact.
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


# the first merge places the lower half in this many value ranges
_FIRST_RANGES = 16


def _block_points(ranges: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    # the values j / q and int32 denominators q, j = lo..hi, of each (q, lo, hi)
    sizes = [hi - lo + 1 for _, lo, hi in ranges]
    val = np.empty(sum(sizes))
    at = 0
    for (q, lo, hi), h in zip(ranges, sizes):
        np.divide(np.arange(lo, hi + 1), q, out=val[at : at + h])
        at += h
    return val, np.repeat(np.array([q for q, _, _ in ranges], dtype=np.int32), sizes)


class _LowerHalfStore:
    """Sorted values x = j/q <= 1/2 of whole blocks q, with int32 denominators.

    The boundary sweep's store: by the symmetry x -> 1 - x of whole blocks
    it holds half of the points, 12 bytes each, and the numerator of x is
    rint(x q), exact while q < 2^26. Merges move the held points in place
    within arrays sized once for every block the sweep will merge.
    """

    def __init__(self, capacity: int) -> None:
        self._val = np.empty(capacity, dtype=np.float64)
        self._den = np.empty(capacity, dtype=np.int32)
        self.size = 0

    @property
    def val(self) -> np.ndarray:
        return self._val[: self.size]

    @property
    def den(self) -> np.ndarray:
        return self._den[: self.size]

    def merge(self, primes: Sequence[int]) -> None:
        """Merge the lower halves of the blocks q in primes, distinct from those held.

        Into an empty store the points go straight into place, one value
        range (b / 2K, (b + 1) / 2K] at a time, b = 0..K-1, K = _FIRST_RANGES:
        each range is gathered from every block and sorted, so no sort or
        order array spans the whole run.
        """
        if not self.size:
            k = 2 * _FIRST_RANGES
            for b in range(_FIRST_RANGES):
                val, den = _block_points([(q, b * q // k + 1, (b + 1) * q // k) for q in primes])
                order = np.argsort(val)  # the values are distinct: stability is moot
                # the indices are in range, and mode="clip" makes take unbuffered
                lo, self.size = self.size, self.size + val.size
                np.take(val, order, out=self._val[lo : self.size], mode="clip")
                np.take(den, order, out=self._den[lo : self.size], mode="clip")
            return
        val, den = _block_points([(q, 1, q // 2) for q in primes])
        order = np.argsort(val)
        val = val[order]
        den = den[order]
        del order
        # new point t lands at pos[t] + t: the held points of a slice [lo, hi)
        # shift right by the t_lo new points below them, and going down from
        # the last slice each window covers only points already moved
        pos = np.searchsorted(self.val, val)
        hi, t_hi = self.size, val.size
        for lo in range((self.size - 1) // _SLICE * _SLICE, -1, -_SLICE):
            t_lo = int(np.searchsorted(pos, lo))
            ins = pos[t_lo:t_hi] - lo + np.arange(t_hi - t_lo)
            held = np.ones(hi - lo + t_hi - t_lo, dtype=bool)
            held[ins] = False
            for store, new in ((self._val, val), (self._den, den)):
                window = np.empty(held.size, dtype=store.dtype)
                window[ins] = new[t_lo:t_hi]
                window[held] = store[lo:hi]
                store[lo + t_lo : hi + t_hi] = window
            hi, t_hi = lo, t_lo
        self.size += val.size


def _band_maximum(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int) -> DiscrepancyValue:
    # exact max of max(u, 1 - u) over the tracked points a/b <= 1/2 with counts
    # c = #{y < a/b}, floats picking the near-maximal ones: u / n is the "left"
    # deviation at a/b and the "at" one at its mirror 1 - a/b, and (1 - u) / n
    # the "at" deviation at a/b and the "left" one at 1 - a/b
    u = (n * a - c * b) / b
    cut = max(float(u.max()), 1.0 - float(u.min())) - n * 2.0**-30
    cand: list[tuple[int, int, int, str]] = []
    hi = u >= cut
    for ai, bi, ci in zip(a[hi].tolist(), b[hi].tolist(), c[hi].tolist()):
        cand += [(ai, bi, ci, "left"), (bi - ai, bi, n - ci, "at")]
    lo = u <= 1.0 - cut
    for ai, bi, ci in zip(a[lo].tolist(), b[lo].tolist(), c[lo].tolist()):
        cand += [(ai, bi, ci + 1, "at"), (bi - ai, bi, n - ci - 1, "left")]
    return _confirm(cand, n)


def _bands(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int, floor: int) -> np.ndarray:
    # the exact band test of points a/b with counts c, b u = n a - c b: the
    # mask of the points in the high band u >= floor or the low band u <= 1 - floor
    w = n * a - c * b
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

    A rebuild merges the pending blocks into a _LowerHalfStore, picks an
    integer floor below the maximum by the band width in one float pass, and
    tracks exactly the two bands: the high band u >= floor and the low band
    u <= ceil = 1 - floor. Each block raises the floor and lowers the ceiling
    by 1, so every untracked point stays strictly between them; once tracked
    points that leave both bands are dropped, any survivor holds the maximum
    and every point tying it, and the sweep rebuilds when both bands are
    empty. A new point j/p gets its exact count from the stale store plus
    the closed form floor(j q / p) for each pending block q, but only when
    its u can reach a band: at each rebuild a bucket filter records the
    stale count at the edges of equal value buckets, which brackets u(j/p)
    in integers. Floats only choose what to track; values, witnesses and
    the certification test are exact.
    """
    primes = [int(p) for p in primes[:m_hi]]
    p_max = max(primes)
    if p_max > _FLOAT_SAFE_DEN:
        raise ValueError(f"denominator {p_max} too large for the float-sorted engine")
    if sum(p - 1 for p in primes) * p_max >= 1 << 63:
        raise OverflowError("N * p_m reaches 2^63; the exact counts need int64")
    store = _LowerHalfStore(sum(p // 2 for p in primes))
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
            r = len(pending) - 1
            base = n * j - p * (j - 1) - j * sum(pending[:-1])
            k = (x * scale).astype(np.int64)
            reach = (base + r * (p - 1) - p * edge_count[k] >= floor * p) | (
                base + r - p * edge_count[k + 1] <= (1 - floor) * p
            )
            j, x = j[reach], x[reach]
            cj = np.searchsorted(store.val, x) + (j - 1)
            for q in pending[:-1]:
                cj += j * q // p
            a = np.concatenate([a, j])
            b = np.concatenate([b, np.full(j.size, p, dtype=np.int64)])
            c = np.concatenate([c, cj])
            keep = _bands(a, b, c, n, floor)
        if a is None or not keep.any():
            store.merge(pending)
            pending.clear()
            margin = n * 2.0**-30  # far above the float error of u, about n 2^-52
            top = max(max(u.max(), 1.0 - u.min()) for _, u in _deviations(store.val, n))
            floor = math.floor(top - margin) - _BAND_WIDTH
            # bucket k = floor(x scale) holds [k / scale, (k + 1) / scale): a
            # power of two keeps x * scale and the edges exact, so the stale
            # count of an x in bucket k lies in [edge_count[k], edge_count[k + 1]]
            scale = 2 << max(store.size // _BUCKET_POINTS, 1).bit_length()
            edge_count = np.zeros(scale // 2 + 2, dtype=np.int64)
            tracked = []
            for lo, u in _deviations(store.val, n):
                near = (u >= floor - margin) | (u <= 1 - floor + margin)
                tracked.append(lo + np.flatnonzero(near))
                k = (store.val[lo : lo + u.size] * scale).astype(np.int64)
                edge_count[k[0] + 1 : k[-1] + 2] += np.bincount(k - k[0])
            np.cumsum(edge_count, out=edge_count)
            c = np.concatenate(tracked)
            b = store.den[c].astype(np.int64)
            a = np.rint(store.val[c] * b).astype(np.int64)
            keep = _bands(a, b, c, n, floor)
        a, b, c = a[keep], b[keep], c[keep]
        yield _band_maximum(a, b, c, n)
