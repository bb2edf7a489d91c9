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
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .primes import PrimeTable, _integer, is_prime
from .sequences import BlockSpec, SequenceFamily, _prefix_plan, block_numerators

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
    """The one check of the list engines: each point a (num, den) pair of
    integers with 1 <= num < den, as Python ints; floats are never truncated."""
    pairs = []
    for x in points:
        try:
            num, den = x
        except (TypeError, ValueError):
            raise ValueError(f"point {reprlib.repr(x)} is not a (num, den) pair") from None
        try:
            num = index(num)
            den = index(den)
        except TypeError:
            raise ValueError(f"{num!r}/{den!r} is not a fraction of integers") from None
        if not 1 <= num < den:
            raise ValueError(f"{num}/{den} is not strictly inside (0, 1)")
        pairs.append((num, den))
    if not pairs:
        raise ValueError("points must be nonempty")
    return pairs


def _checked_arrays(num, den) -> tuple[np.ndarray, np.ndarray]:
    """The one input check of the array engines: equal-shape int64 (num, den).

    Integer dtypes only (floats, bools and ints beyond int64 are refused, not
    truncated); num is 1-D, a scalar den is shared, every num/den is in (0, 1).
    """
    num = np.asarray(num)
    den = np.asarray(den)
    # an empty list becomes float64, so emptiness is named before the dtype
    if num.size == 0:
        raise ValueError("points must be nonempty")
    if num.dtype.kind not in "iu" or den.dtype.kind not in "iu":
        raise ValueError(f"expected integer arrays, got {num.dtype} and {den.dtype}")
    if num.ndim != 1:
        raise ValueError(f"expected a 1-D numerator array, got shape {num.shape}")
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
    g = gcd(v, b * n)
    gw = gcd(a, b)
    return DiscrepancyValue(v // g, b * n // g, a // gw, b // gw, side)


# slice length of the passes that would otherwise hold a second n-length
# array; their few 128 KiB temporaries stay small next to 8 B per point
_SLICE = 1 << 14

# values per chunk of a generated lower half, on average: its O(m) bounds
# stay small next to its own sort, and its few 512 KiB temporaries fit in
# a fixed few MiB
_CHUNK = 1 << 16


def _deviation(val: np.ndarray, n: int, lo: int) -> np.ndarray:
    """u = n x_(i) - i for i = lo, lo + 1, ... over the chunk val at index lo.

    val holds sorted values and n the size of the whole multiset. Over a
    whole multiset u is n times the "left" deviation at x_(i) and 1 - u is n
    times the "at" deviation there. The boundary store passes its distinct
    values of (0, 1/2] with n counting both halves, so i = #{y < x_(i)}
    still. Callers go chunk by chunk: no n-length deviation array is held.
    """
    u = val * n
    u -= np.arange(lo, lo + u.size, dtype=np.float64)
    return u


# no steps, no indices, no cut points
_EMPTY = np.empty(0, dtype=np.int64)

# the one series of a plain multiset: u itself
_NO_STEPS = (np.empty(0), "left")

# a chunk with no step inside is one run
_FIRST_RUN = np.zeros(1, dtype=np.int64)


def _slices(val: np.ndarray) -> tuple[Callable[[int], np.ndarray], int]:
    # the chunk source of a sorted array: slice i of _SLICE values
    return (lambda i: val[i * _SLICE : (i + 1) * _SLICE]), -(-val.size // _SLICE)


def _lower_half_chunks(whole: Sequence[int]) -> tuple[Callable[[int], np.ndarray], int]:
    """The chunk source of the sorted values j / d, 1 <= j <= d / 2, d in whole.

    With T chunks of about _CHUNK values, chunk t holds the values in
    (t / 2T, (t + 1) / 2T]: floor(d t / 2T) < j <= floor(d (t + 1) / 2T)
    for every d, exact integer edges, so each value lands in exactly one
    chunk and the sorted chunks in order are the sorted lower half. Chunk t
    costs O(m) for its bounds, m = len(whole), and a sort of its own values;
    it is made again on demand, and nothing of the half's size is held.
    With every d <= 2^26 the half holds under 2^50 values, so while _CHUNK
    >= 2^14 every d (t + 1) stays below 2^63.
    """
    d = np.array(whole, dtype=np.int64)
    dens = d.astype(np.float64)
    count = -(-int((d // 2).sum()) // _CHUNK)

    def chunk(t: int) -> np.ndarray:
        first = d * t // (2 * count)
        size = d * (t + 1) // (2 * count) - first
        # in floats, exact below 2^53: the run of each d counts up from
        # first + 1, then one correctly rounded divide
        val = np.arange(size.sum(), dtype=np.float64)
        val -= np.repeat((np.cumsum(size) - size - first - 1).astype(np.float64), size)
        val /= np.repeat(dens, size)
        val.sort()
        return val

    return chunk, count


def _series(
    val: np.ndarray, steps: Sequence[tuple[np.ndarray, str]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    # per series (s, side) on one chunk of sorted values: the step count is
    # searchsorted(s, x, side), #{s < x} for "left" and #{s <= x} for
    # "right". Yields (pos, starts, counts): the steps inside the chunk
    # start to count at the chunk positions pos, and the count is constant
    # on the runs of the chunk that start at starts, counts[r] on run r.
    # Only the steps inside the chunk are searched into it
    for s, side in steps:
        i0, i1 = np.searchsorted(s, (val[0], val[-1]), side).tolist() if s.size else (0, 0)
        if i0 == i1:
            yield _EMPTY, _FIRST_RUN, np.array([i0])
            continue
        # every pos lies in [1, val.size - 1]; equal ones start one run
        pos = np.searchsorted(val, s[i0:i1], "right" if side == "left" else "left")
        starts = np.concatenate([[0], pos])
        last = np.flatnonzero(np.diff(starts, append=val.size))
        yield pos, starts[last], i0 + last


def _near_maximal(
    chunk: Callable[[int], np.ndarray],
    count: int,
    n: int,
    steps: Sequence[tuple[np.ndarray, str]],
    threshold: Callable[[float], float],
) -> tuple[float, list[tuple[np.ndarray, ...]], list[np.ndarray], list[tuple[int, int]]]:
    """The points of a sorted store near the maximum of max(w, 1 - w).

    The store is read chunk by chunk: chunk(i), i < count, makes the sorted
    values of chunk i (a slice of an array, or a generated lower half), and
    the chunks in order are the store. Series s is w(l) = n x_l - l -
    searchsorted(v, x_l, side) for (v, side) = steps[s], sorted step values:
    u of _deviation shifted by a step count. One float pass keeps each
    chunk's max and min of every series without making it: the count is
    constant on the runs between the steps inside the chunk, so the runs'
    extremes of u, each shifted by its count, give them. top is the maximum
    of max(w, 1 - w) over every series and point, and with t =
    threshold(top) only the chunks whose extremes reach t or 1 - t are made
    again. Returns top; per series the store indices and the values with w
    >= t, then those with w <= 1 - t, in store order; and per series the
    store index from which each step counts, searchsorted(store, v, the
    other side), placed as the first pass meets the steps; and the store
    index range [lo, hi) of each chunk made again, in order. The one float
    pass of the sorted evaluators: star_discrepancy_arrays,
    prefix_discrepancy and every rebuild of the boundary sweep, which alone
    reads the ranges.
    """
    extremes = []
    counted_from = [np.empty(v.size, dtype=np.int64) for v, _ in steps]
    placed = [0] * len(steps)
    lo = 0
    for i in range(count):
        val = chunk(i)
        if not val.size:
            continue
        u = _deviation(val, n, lo)
        row = []
        for s, (pos, starts, counts) in enumerate(_series(val, steps)):
            # steps between the last chunk and this one count from lo on
            counted_from[s][placed[s] : counts[0]] = lo
            placed[s] = counts[0] + pos.size
            counted_from[s][counts[0] : placed[s]] = lo + pos
            if pos.size:
                hi = (np.maximum.reduceat(u, starts) - counts).max()
                low = (np.minimum.reduceat(u, starts) - counts).min()
            else:
                # no step inside: the chunk's extremes of u, shifted
                hi, low = u.max() - counts[0], u.min() - counts[0]
            row.append((float(hi), float(low)))
        extremes.append((i, lo, row))
        lo += val.size
    for s in range(len(steps)):
        counted_from[s][placed[s] :] = lo
    top = max((max(hi, 1.0 - low) for *_, row in extremes for hi, low in row), default=-math.inf)
    t = threshold(top)
    # per series: indices and values with w >= t, then with w <= 1 - t
    found = [[[_EMPTY], [np.empty(0)], [_EMPTY], [np.empty(0)]] for _ in steps]
    rescanned = []
    for i, lo, row in extremes:
        if all(hi < t and lw > 1.0 - t for hi, lw in row):
            continue
        val = chunk(i)
        rescanned.append((lo, lo + val.size))
        u = _deviation(val, n, lo)
        for s, (_, starts, counts) in enumerate(_series(val, steps)):
            w = u - np.repeat(counts.astype(np.float64), np.diff(starts, append=val.size))
            high, low = np.flatnonzero(w >= t), np.flatnonzero(w <= 1.0 - t)
            for part, x in zip(found[s], (lo + high, val[high], lo + low, val[low])):
                part.append(x)
    found = [tuple(map(np.concatenate, parts)) for parts in found]
    return top, found, counted_from, rescanned


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
    _, [(left, left_val, at, at_val)], *_ = _near_maximal(
        *_slices(val), n, [_NO_STEPS], lambda top: top - n * _FILTER_MARGIN
    )
    a, b = _representatives(np.concatenate([at_val, left_val]), max_den)
    count = np.concatenate([at + 1, left])
    side = ["at"] * at.size + ["left"] * left.size
    return _confirm(list(zip(a.tolist(), b.tolist(), count.tolist(), side)), n)


def prefix_discrepancy(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> DiscrepancyValue:
    """star_discrepancy_arrays(*prefix_arrays(family, n, table)) in a few MiB.

    Same checks, errors, value, witness and side. The prefix is whole
    blocks, a multiset that does not depend on the order inside each block
    and is symmetric under x -> 1 - x, then one cut block: the whole blocks
    are read as their sorted lower halves, one generated chunk of about
    _CHUNK values at a time, and only the cut block is generated in family
    order. Memory is O(_CHUNK + m + p) for m whole blocks and a cut block p,
    not O(n). Every check, a denominator beyond 2^26 included, comes before
    any block is generated.
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
    with cut points after equal whole ones. L is the sorted lower half of
    the whole blocks, one value per whole point <= 1/2, read in generated
    chunks (_lower_half_chunks), and with K = cut / q and K' = (q - cut) / q
    (both correctly rounded quotients):

    * L[l] has index l + #{K < L[l]};
    * its mirror 1 - L[l] has index n - 1 - l - #{K' <= L[l]}, so with
      v = n L[l] - l - #{K' <= L[l]} its u is 1 - v (a mirrored 1/2 is
      another copy of 1/2 at a true index, so it needs no exception);
    * cut point K_t (sorted, t = 0, 1, ...) has index #{whole <= K_t} + t,
      read off L, through K' when K_t > 1/2.

    Both step counts are value series of _near_maximal, so one pass over
    the chunks evaluates every point of L and its mirror; the same pass
    places each K in L (#{L <= K}) and each K' (#{L < K'}), which gives
    the k cut points' indices, and they are evaluated directly and named as
    (cut, q). Nothing of size N_W is allocated.
    """
    n_whole = sum(d - 1 for d in whole)
    k = cut.size
    n = n_whole + k
    c = np.sort(cut)
    kappa = c / q
    # below[t] = #{L <= K_t}, and upto = #{L < K'} over the ascending K'
    top, [stored, mirrored], [below, upto], _ = _near_maximal(
        *_lower_half_chunks(whole),
        n,
        [(kappa, "left"), ((q - c[::-1]) / q, "right")],
        lambda top: top - n * _FILTER_MARGIN,
    )
    idx = np.where(2 * c > q, n_whole - upto[::-1], below) + np.arange(k)
    u = n * kappa - idx
    # the store's candidates were picked below its own top, which is no
    # higher than the overall one
    t = max(top, float(np.maximum(u, 1.0 - u).max()) if k else -math.inf) - n * _FILTER_MARGIN
    # stored "left" (u >= t) and "at", then mirrored "at" (v >= t) and "left"
    pos = stored[0::2] + mirrored[0::2]
    split = np.cumsum([x.size for x in pos[:-1]])
    pos = np.concatenate(pos)
    a, b = _representatives(np.concatenate(stored[1::2] + mirrored[1::2]), max(whole, default=1))
    i = pos + np.searchsorted(below, pos, "right")
    j = (n - 1) - pos - np.searchsorted(upto, pos, "right")
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
    (order matters only to prefixes, see prefix_scan). Takes (num, den)
    integer pairs.
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


def _grid_sweeps(
    seqs: Sequence[tuple[Sequence[int], int]],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sequence (nums, p) of a group and per prefix k: p * k * D_k*, its
    witness numerator j and whether side is "at".

    All points of one sequence sit on the grid j/p. With c(s) the running
    count of numerators <= s, grid point s holds x(s) = p c(s) - k s: p k
    times the "at" deviation at v is x(v), and at "left" v it is x(v - 1) -
    k. Between consecutive prefix values c is constant and x falls strictly
    in s, so max x sits at a prefix value and min x just below one, and no
    other grid point reaches either. Hence p k D_k* is the larger of max x
    ("at" s) and k - min x ("left" s + 1); a positive "left" or negative
    "at" deviation is always strictly smaller. The sweep holds only the half
    grid S = {v - 1, v : v a distinct numerator}, one slot per point of S,
    at most 2 x (distinct numerators) and p for a whole block.

    Inserting v adds p to every slot from v on: the window of W slots that
    starts at W - t in a fixed row [0]*W + [p]*W, t the index of v. One
    sequence steps by a plain slice of its row, one numpy call per prefix.
    A group of G steps together: one index into a sliding-window view
    gathers the G windows of step k and one add puts them on the (G, W)
    row of step k - 1, so the per-call overhead is paid once per step, not
    once per sequence. W is the widest half grid of the group. A narrower
    grid's padded slots copy its last slot, both its grid value and the +p
    of every insert, so each equals that last slot and the first argmax or
    argmin never picks one. A sequence that has ended steps at start 0,
    where the window adds nothing, and its rows past the end are never
    decoded. Every slot lies in (-P N, P N], with P the group's largest p
    and N its longest sequence: int32 lanes while P N < 2^31, int64 above,
    and P N >= 2^63, where int64 lanes would overflow, is refused before
    any work. Rows of consecutive steps, up to _CELLS slots, hold p c(s) -
    k0 s with k0 fixed per row block, so the k s ramp comes off once per
    block, before one argmax and one argmin over the slots of every row. The
    caller forms the groups: _block_maxima takes consecutive blocks while
    (G + 1) W <= _CELLS // 8, so a row block still holds at least 8 steps.
    """
    nums = [np.asarray(x) for x, _ in seqs]
    n = max(x.size for x in nums)
    pn = max(int(p) for _, p in seqs) * n
    if pn >= 1 << 63:
        raise OverflowError(f"p * N = {pn} reaches 2^63; the sweep needs int64")
    grids, wheres = zip(
        *(np.unique(np.concatenate([x - 1, x]), return_inverse=True) for x in nums)
    )
    size, w = len(seqs), max(grid.size for grid in grids)
    lane = np.int32 if pn < 1 << 31 else np.int64
    rows = max(1, min(n, _CELLS // (size * w)))
    window = np.zeros((size, 2 * w), dtype=lane)
    window[:, w:] = [[p] for _, p in seqs]
    # window[g, w - t:][:w] inserts the value at index t of grid g; a
    # sequence past its end takes window[g, :w], all zeros
    starts = np.zeros((n, size), dtype=np.intp)
    for g, (x, where) in enumerate(zip(nums, wheres)):
        starts[: x.size, g] = w - where[x.size :]
    del wheres
    padded = np.stack([np.pad(grid, (0, w - grid.size), "edge") for grid in grids])
    ramp = np.multiply.outer(np.arange(1, rows + 1, dtype=lane), padded.astype(lane))
    block = np.zeros((rows, size, w), dtype=lane)
    flat, offsets = block.reshape(-1), np.arange(0, rows * size * w, w).reshape(rows, size)
    if size == 1:
        lines, starts, window = list(block[:, 0]), starts[:, 0].tolist(), window[0]
    else:
        lines, starts = list(block), list(starts)
        window = np.lib.stride_tricks.sliding_window_view(window, w, axis=1)
    seq, add = np.arange(size), np.add
    ends = []
    for k in range(0, n, rows):
        # each row follows the one before, row 0 the last row of the block before
        part, prev = block[: n - k], lines[-1]
        for line, s in zip(lines, starts[k : k + rows]):
            # one sequence steps by a plain slice, the cheapest call there
            # is; a group gathers the window of each sequence at its start
            add(prev, window[s : s + w] if size == 1 else window[seq, s], line)
            prev = line
        part -= ramp[: len(part)]
        idx = np.stack([part.argmax(axis=2), part.argmin(axis=2)])
        ends.append((idx, flat.take(idx + offsets[: len(part)])))
    # the row buffers and every view of them go before the decode
    del block, ramp, lines, flat, part, prev, line, starts, window
    (hi, lo), (top, bottom) = (np.concatenate(x, axis=1).astype(np.int64) for x in zip(*ends))
    out = []
    for g, (x, grid) in enumerate(zip(nums, grids)):
        # the first maximum and minimum are the smallest thresholds; "at" s
        # against "left" s' + 1: the larger value, then the smaller
        # threshold, then "at" before "left"
        at, left = grid[hi[: x.size, g]], grid[lo[: x.size, g]] + 1
        best, neg = top[: x.size, g], np.arange(1, x.size + 1) - bottom[: x.size, g]
        low = (neg > best) | ((neg == best) & (left < at))
        out.append((np.where(low, neg, best), np.where(low, left, at), ~low))
    return out


def _rank_sweep(pairs: list[tuple[int, int]]) -> Iterator[DiscrepancyValue]:
    """D_k* for k = 1..N of any points, from one ranking of their distinct values.

    Ranks come from floats while every denominator is at most _FLOAT_SAFE_DEN,
    else from one exact sort. As in _grid_sweeps, count holds #{y <= v_t} ("at")
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


def _grid_columns(nums: Sequence[int], p: int) -> list[np.ndarray]:
    """The reduced columns of the grid sweep over one sequence, per prefix k:
    disc num, disc den, witness num, witness den, weighted num, weighted den
    and whether side is "at".

    D_k* = m / (k p), witness j / p and k D_k* = m / p, each reduced by gcds
    of int64 arrays, every k p < 2^63 as the sweep refuses p N beyond. The
    one reduction of prefix_scan's grid path and of scan --prime, which
    writes its CSV from these columns without a record per prefix.
    """
    m, j, at_side = _grid_sweeps([(nums, p)])[0]
    kp = np.arange(1, m.size + 1) * p
    g, gj, gm = np.gcd(m, kp), np.gcd(j, p), np.gcd(m, p)
    return [m // g, kp // g, j // gj, p // gj, m // gm, p // gm, at_side]


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
        # the columns go before the records are made
        columns = [x.tolist() for x in _grid_columns([a for a, _ in pairs], p)]
        return [
            ScanRecord(k, DiscrepancyValue(a, b, c, d, "at" if at else "left"), e, f)
            for k, a, b, c, d, e, f, at in zip(range(1, n + 1), *columns)
        ]
    records: list[ScanRecord] = []
    for k, dv in enumerate(_rank_sweep(pairs), 1):
        g = gcd(dv.num * k, dv.den)
        records.append(ScanRecord(k, dv, dv.num * k // g, dv.den // g))
    return records


def weighted_prefix_maxima(nums: Sequence[int], p: int) -> np.ndarray:
    """p * k * D_k* for k = 1..len(nums) as an int64 array (common denominator p).

    The grid sweep (_grid_sweeps) of the one sequence, the kernel behind
    prefix_scan's common-denominator path and scan --prime, returning only
    the scaled integer maxima. Each prefix costs one slot per point of the
    half grid {v - 1, v : v a distinct numerator}, p slots for a whole
    block, in int32 lanes while p * len(nums) < 2^31. The sweep refuses p *
    len(nums) >= 2^63, where int64 lanes would overflow.
    """
    nums, _ = _checked_arrays(nums, p)
    return _grid_sweeps([(nums, int(p))])[0][0]


def _block_maxima(
    specs: Sequence[BlockSpec], sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> Iterator[tuple[Fraction, int]]:
    # (max over k of k D_k*, smallest k attaining it) per whole block, in
    # order. Consecutive blocks share one _grid_sweeps group while
    # (G + 1) W <= _CELLS // 8, W the widest p (a whole block's half grid is
    # {0, ..., p - 1}), so a row block still holds at least 8 steps; a block
    # wider than that goes alone. Every spec is checked and grouped before
    # the first sweep
    groups: list[list[BlockSpec]] = []
    width = 0
    for spec in specs:
        if spec.p > sweep_limit:
            raise ValueError(
                f"p={spec.p} exceeds the sweep limit {sweep_limit} (quadratic cost); "
                "raise sweep_limit explicitly to proceed"
            )
        width = max(width, spec.p)
        if groups and (len(groups[-1]) + 1) * width <= _CELLS // 8:
            groups[-1].append(spec)
        else:
            groups.append([spec])
            width = spec.p
    for group in groups:
        sweeps = _grid_sweeps([(block_numerators(s.p, s.ordering), s.p) for s in group])
        for spec, (maxima, _, _) in zip(group, sweeps):
            k = int(maxima.argmax())
            yield Fraction(int(maxima[k]), spec.p), k + 1


def block_max_weighted(
    spec: BlockSpec, sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> tuple[Fraction, int]:
    """(max over k of k * D_k*, smallest k attaining it) for one block.

    The one-block case of the iterator that bounds runs over all its
    blocks, which sweeps consecutive small blocks as one group of the grid
    sweep; value and k do not depend on the grouping. The sweep costs
    O(p^2); denominators above sweep_limit are refused so a huge block
    cannot be requested by accident.
    """
    return next(_block_maxima([spec], sweep_limit))


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


def _merge_lower_halves(store: np.ndarray, size: int, dens: Sequence[int]) -> int:
    # writes the sorted lower halves of the blocks in dens (_lower_half_chunks)
    # after the sorted run store[:size], chunk by chunk, and returns the
    # filled length. Into an empty store the chunks alone are the sorted
    # run; after that timsort ("stable") merges the two runs in one pass,
    # with a buffer the size of the short new one
    chunk, count = _lower_half_chunks(dens)
    at = size
    for t in range(count):
        val = chunk(t)
        store[at : at + val.size] = val
        at += val.size
    if size:
        store[:at].sort(kind="stable")
    return at


def _band_maximum(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, w: np.ndarray, n: int
) -> DiscrepancyValue:
    # exact max of max(u, 1 - u) over the tracked points a/b <= 1/2 with counts
    # c = #{y < a/b} and w = b u = n a - c b, floats picking the near-maximal
    # ones: u / n is the "left" deviation at a/b and (1 - u) / n the "at" one.
    # Its mirror 1 - a/b ties both at a larger threshold, so by _confirm's tie
    # rule it never wins; 1/2, its own mirror, has u = 1/2 and is in both picks
    u = w / b
    cut = max(float(u.max()), 1.0 - float(u.min())) - n * _FILTER_MARGIN
    hi = u >= cut
    lo = u <= 1.0 - cut
    cand = [(ai, bi, ci, "left") for ai, bi, ci in zip(*(v[hi].tolist() for v in (a, b, c)))]
    cand += [(ai, bi, ci + 1, "at") for ai, bi, ci in zip(*(v[lo].tolist() for v in (a, b, c)))]
    return _confirm(cand, n)


def _bands(w: np.ndarray, b: np.ndarray, floor: int) -> np.ndarray:
    # the exact band test of points with denominators b and w = b u: the mask
    # of the points in the high band u >= floor or the low band u <= 1 - floor
    return (w >= floor * b) | (b - w >= floor * b)


def _beside(near: list[tuple[float, float]], p: int) -> np.ndarray:
    # the j in [1, p // 2] with j / p inside some interval (lo, hi) of near,
    # ends ascending, each j once. An end is 0, 1 or the float x of a stored
    # a/b, b != p: p a / b lies at least 1 / b from an integer and the float
    # error of p x is below p 2^-53 < 1 / b (b, p <= 2^26), so floor and
    # ceil of p x are exact
    runs, first = [_EMPTY], 1
    for lo, hi in near:
        first = max(first, math.floor(lo * p) + 1)
        stop = min(math.ceil(hi * p), p // 2 + 1)
        if stop > first:
            runs.append(np.arange(first, stop))
            first = stop
    return np.concatenate(runs)


def _boundary_discrepancies(
    primes: Sequence[int], m_lo: int, m_hi: int
) -> Iterator[DiscrepancyValue]:
    """Exact D_N* of the whole blocks {j/p : 1 <= j < p, p in primes[:m]}, m = m_lo..m_hi.

    Certified lazy sweep over distinct primes. All values are distinct and
    the multiset is symmetric under x -> 1 - x, so u(x) = N x - #{y < x}
    has u(1 - x) = 1 - u(x), and N D_N* is the maximum of max(u, 1 - u) over
    the lower half (0, 1/2] alone; 1/2 is its own mirror. So is the witness:
    a deviation at 1 - x > 1/2 ties one at x, from a larger threshold, so
    only "left" (u / N) and "at" ((1 - u) / N) at each tracked x are
    confirmed, as star_discrepancy_arrays confirms them. A block p moves
    u(x) by p x - ceil(p x) + 1 - x, in (-x, 1 - x] with x <= 1/2, so it
    moves max(u, 1 - u) by less than 1.

    The store is one float64 array of the lower-half values, 8 bytes per
    point, sized once for every block the sweep will merge. A rebuild writes
    the pending blocks' sorted lower halves after the held run, one
    generated chunk at a time (_lower_half_chunks), and merges the two runs
    (_merge_lower_halves). One float pass (_near_maximal) then keeps each
    slice's max and min of u and picks an integer floor F0 below the maximum
    by the band width; only the slices whose extremes reach it are scanned
    again. The sweep tracks exactly the two bands: the high band u >= floor
    and the low band u <= ceil = 1 - floor. Each block raises the floor and
    lowers the ceiling by 1, so every untracked point stays strictly between
    them; once tracked points that leave both bands are dropped, any
    survivor holds the maximum and every point tying it, and the sweep
    rebuilds when both bands are empty; the first row tracks nothing, so it
    rebuilds on the same path. A tracked point's count c is its
    store index and its a/b is named from its float by continued fractions
    (_representatives), with the largest prime merged so far as the bound
    on b, since blocks may come in any order.

    A new point x = j/p of the s-th block after a rebuild at size N0 has
    u(x) < u0(y+) + s and u(x) > u0(y-) - s/2, with y+ and y- its stored
    successor and predecessor and u0 their u at the rebuild: each earlier
    pending block q adds frac(q x) - x and block p adds 1 - x. As the floor
    is then F0 + s, x can reach the high band only if u0(y+) > F0 and the
    low band only if u0(y-) < 1 - F0, so only beside a slice scanned again.
    Each rescanned slice of store indices [lo, hi) gives the values in
    (val[lo - 1], val[hi]), from 0 for the first slice and past 1/2 for the
    last, and only the j/p inside those intervals (_beside) get an exact
    count: the stale store's, plus the closed form floor(j q / p) for each
    earlier pending block q, plus j - 1. Floats only choose what to track;
    values, witnesses and the certification test are exact.
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
    n = floor = 0
    val, near = store[:0], []
    # tracked points a/b <= 1/2 with exact counts c, each in a band
    a, b, c = (np.empty(0, dtype=np.int64) for _ in range(3))
    for m, p in enumerate(primes, 1):
        n += p - 1
        pending.append(p)
        if m < m_lo:
            continue
        floor += 1
        c += a * p // b
        j = _beside(near, p)
        q = np.array(pending[:-1], dtype=np.int64)
        cj = np.searchsorted(val, j / p) + (j - 1) + (np.multiply.outer(j, q) // p).sum(axis=1)
        a = np.concatenate([a, j])
        b = np.concatenate([b, np.full(j.size, p, dtype=np.int64)])
        c = np.concatenate([c, cj])
        w = n * a - c * b
        keep = _bands(w, b, floor)
        if not keep.any():
            size = _merge_lower_halves(store, size, pending)
            max_den = max(max_den, *pending)
            pending.clear()
            val = store[:size]
            margin = n * _FILTER_MARGIN

            def floor_below(top: float) -> int:
                return math.floor(top - margin) - _BAND_WIDTH

            top, [(high, _, low, _)], _, rescanned = _near_maximal(
                *_slices(val), n, [_NO_STEPS], lambda top: floor_below(top) - margin
            )
            floor = floor_below(top)
            near = [
                (float(val[lo - 1]) if lo else 0.0, float(val[hi]) if hi < size else 1.0)
                for lo, hi in rescanned
            ]
            # the two bands are disjoint, or overlap and hold every point
            c = np.concatenate([high, low]) if floor - margin > 0.5 else np.arange(size)
            a, b = _representatives(val[c], max_den)
            w = n * a - c * b
            keep = _bands(w, b, floor)
        kept = np.flatnonzero(keep)
        a, b, c, w = (v.take(kept) for v in (a, b, c, w))
        yield _band_maximum(a, b, c, w, n)
