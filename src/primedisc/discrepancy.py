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

import functools
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

# P(pi(2^26)), the points of the prime blocks up to 67108859, the last
# prime below 2^26: a longer prime-family prefix reaches a larger block
_FLOAT_SAFE_PRIME_N = 128_615_910_681_815

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
    # an empty list becomes float64, so size and shape are named before the dtype
    if num.size == 0:
        raise ValueError("points must be nonempty")
    if num.ndim != 1:
        raise ValueError(f"expected a 1-D numerator array, got shape {num.shape}")
    if den.ndim and num.shape != den.shape:
        raise ValueError("num and den must have equal length")
    if num.dtype.kind not in "iu" or den.dtype.kind not in "iu":
        raise ValueError(f"expected integer arrays, got {num.dtype} and {den.dtype}")
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
# array, whose few 128 KiB temporaries stay small next to 8 B per point,
# and the mean size of the boundary sweep's chunks at its last block
_SLICE = 1 << 14

# values per chunk of a generated lower half, on average: its O(m) bounds
# stay small next to its own sort, and its few 512 KiB temporaries fit in
# a fixed few MiB
_CHUNK = 1 << 16


@functools.cache
def _ramp(size: int = _SLICE) -> np.ndarray:
    # 0, 1, 2, ... in float64, one default slice long, made at first use and
    # shared: the index ramp of every _deviation slice
    return np.arange(float(size))


def _deviation(val: np.ndarray, n: int, lo: int | np.ndarray) -> np.ndarray:
    """u = n x_(i) - i for i = lo, lo + 1, ... over the chunk val at index lo.

    val holds sorted values and n the size of the whole multiset. Over a
    whole multiset u is n times the "left" deviation at x_(i) and 1 - u is n
    times the "at" deviation there. The boundary sweep passes its distinct
    values of (0, 1/2] with n counting both halves, so i = #{y < x_(i)}
    still, and for a batch of its chunks lo is one float per value, so that
    value k has index lo[k] + k. Callers go chunk by chunk: no n-length
    deviation array is held. The indices come from slices of one shared
    ramp, exact below 2^53, and each u is one correctly rounded subtraction;
    the temporaries are one ramp slice long.
    """
    ramp = _ramp()
    u = np.empty_like(val)
    for k in range(0, val.size, ramp.size):
        part = u[k : k + ramp.size]
        np.add(ramp[: part.size], (lo[k : k + part.size] if np.ndim(lo) else lo) + k, out=part)
        np.subtract(val[k : k + part.size] * n, part, out=part)
    return u


# no steps, no indices, no cut points
_EMPTY = np.empty(0, dtype=np.int64)

# the one series of a plain multiset: u itself
_NO_STEPS = (np.empty(0), "left")

# a chunk with no step inside is one run
_FIRST_RUN = np.zeros(1, dtype=np.int64)


def _chunk_bounds(d, t, count: int) -> tuple[np.ndarray, np.ndarray]:
    # the one edge arithmetic of the lower-half chunks: of count = T chunks,
    # chunk t holds the values j / d in (t / 2T, (t + 1) / 2T], first < j <=
    # first + size with first = floor(d t / 2T). A value on an edge belongs
    # to the lower chunk, so first also counts the values j / d <= t / 2T.
    # Either d or t may be an array
    first = d * t // (2 * count)
    return first, d * (t + 1) // (2 * count) - first


def _chunk_values(
    d: np.ndarray, ts: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # the values j / d, d in the int64 array d, of the chunks ts, unsorted,
    # one run per chunk and d, chunk by chunk: with ts ascending, one sort
    # of them sorts each chunk in place, as the chunks' intervals are
    # disjoint and in order. Also each run's first and offset in the
    # values, and each chunk's size and start index, the closed form
    # sum_d floor(d t / 2T). In floats, exact below 2^53: each run counts
    # up from first + 1, then one correctly rounded divide by float(d)
    first, size = _chunk_bounds(d, ts[:, None], count)
    runs = size.ravel()
    val = np.arange(runs.sum(), dtype=np.float64)
    offsets = np.cumsum(runs) - runs
    val -= np.repeat((offsets - first.ravel() - 1).astype(np.float64), runs)
    val /= np.repeat(np.tile(d.astype(np.float64), ts.size), runs)
    return val, first.ravel(), offsets, size.sum(axis=1), first.sum(axis=1)


def _lower_half_chunks(whole: Sequence[int]) -> tuple[Callable[[int], np.ndarray], int]:
    """The chunk source of the sorted values j / d, 1 <= j <= d / 2, d in whole.

    With T chunks of about _CHUNK values, chunk t holds the values in
    (t / 2T, (t + 1) / 2T]: floor(d t / 2T) < j <= floor(d (t + 1) / 2T)
    for every d, exact integer edges (_chunk_bounds), so each value lands
    in exactly one chunk and the sorted chunks in order are the sorted
    lower half. Chunk t costs O(m) for its bounds, m = len(whole), and a
    sort of its own values; it is made again on demand, and nothing of the
    half's size is held. With every d <= 2^26 the half holds under 2^50
    values, so while _CHUNK >= 2^14 every d (t + 1) stays below 2^63.
    """
    d = np.array(whole, dtype=np.int64)
    count = -(-int((d // 2).sum()) // _CHUNK)

    def chunk(t: int) -> np.ndarray:
        val = _chunk_values(d, np.array([t]), count)[0]
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
) -> tuple[list[tuple[np.ndarray, ...]], list[np.ndarray]]:
    """The points of a sorted multiset x near the maximum of max(w, 1 - w).

    x is read chunk by chunk: chunk(i), i < count, makes the sorted values
    of chunk i (a slice of an array, or a generated lower half), and the
    chunks in order are x. Series s is w(l) = n x_l - l -
    searchsorted(v, x_l, side) for (v, side) = steps[s], sorted step values:
    u of _deviation shifted by a step count. One float pass keeps each
    chunk's max and min of every series without making it: the count is
    constant on the runs between the steps inside the chunk, so the runs'
    extremes of u, each shifted by its count, give them. top is the maximum
    of max(w, 1 - w) over every series and point, and the one filter
    margin gives the threshold t = top - n _FILTER_MARGIN; only the chunks
    whose extremes reach t or 1 - t are made again. Returns per series one
    pick set, the index in x, value and w of every point with w >= t or w
    <= 1 - t, in sorted order; and per series the index in x from which
    each step counts, searchsorted(x, v, the other side), placed as the
    first pass meets the steps. The one float pass of the sorted evaluators
    star_discrepancy_arrays and prefix_discrepancy; their picks go to
    _picked_maximum.
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
    t = top - n * _FILTER_MARGIN
    # per series: the indices, values and w with w >= t or w <= 1 - t
    found = [[[_EMPTY], [np.empty(0)], [np.empty(0)]] for _ in steps]
    for i, lo, row in extremes:
        if all(hi < t and lw > 1.0 - t for hi, lw in row):
            continue
        val = chunk(i)
        u = _deviation(val, n, lo)
        for s, (_, starts, counts) in enumerate(_series(val, steps)):
            w = u - np.repeat(counts.astype(np.float64), np.diff(starts, append=val.size))
            pick = np.flatnonzero((w >= t) | (w <= 1.0 - t))
            for part, x in zip(found[s], (lo + pick, val[pick], w[pick])):
                part.append(x)
    found = [tuple(map(np.concatenate, parts)) for parts in found]
    return found, counted_from


def _picked_maximum(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, u: np.ndarray, n: int
) -> DiscrepancyValue:
    # the exact maximum over picked points a/b at sorted index c, with float
    # u = n a / b - c: u / n is the "left" deviation at count c and (1 - u) / n
    # the "at" one at count c + 1. Floats keep the picks within the filter
    # margin of the largest, and _confirm decides among them. The one step
    # from float picks to exact candidates of every sorted evaluator
    cut = max(float(u.max()), 1.0 - float(u.min())) - n * _FILTER_MARGIN
    hi = u >= cut
    lo = u <= 1.0 - cut
    cand = [(ai, bi, ci, "left") for ai, bi, ci in zip(*(v[hi].tolist() for v in (a, b, c)))]
    cand += [(ai, bi, ci + 1, "at") for ai, bi, ci in zip(*(v[lo].tolist() for v in (a, b, c)))]
    return _confirm(cand, n)


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
    denominator of 2^26 it divides once, sorts the values alone, picks
    with _near_maximal, names each pick from its own float (_representatives)
    and confirms with _picked_maximum: num and den are read only for the
    check, the divide and the maximum denominator.
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
    [(i, x, u)], _ = _near_maximal(
        lambda i: val[i * _SLICE : (i + 1) * _SLICE], -(-n // _SLICE), n, [_NO_STEPS]
    )
    return _picked_maximum(*_representatives(x, max_den), i, u, n)


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
    any block is generated. A prime-family prefix past _FLOAT_SAFE_PRIME_N
    is refused from n alone, before the table that would cover it (time and
    memory in proportion to its largest prime) is built or read.
    """
    n = _integer(n)
    if family is not SequenceFamily.OMEGA and n > _FLOAT_SAFE_PRIME_N:
        raise ValueError(
            f"N={n} > {_FLOAT_SAFE_PRIME_N}: the prefix reaches a prime block "
            f"past {_FLOAT_SAFE_DEN}, the denominator limit"
        )
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
    the chunks picks points of L and of its mirror and places each K in L
    (#{L <= K}) and each K' (#{L < K'}), which gives the k cut points'
    indices. One _picked_maximum confirms the picks of L, (a, b, index, u),
    of the mirror, (b - a, b, index, 1 - v), and every cut point, (cut, q,
    index, n K - index). Nothing of size N_W is allocated.
    """
    n_whole = sum(d - 1 for d in whole)
    k = cut.size
    n = n_whole + k
    c = np.sort(cut)
    kappa = c / q
    # below[t] = #{L <= K_t}, and upto = #{L < K'} over the ascending K'
    [(i, x, u), (j, y, v)], [below, upto] = _near_maximal(
        *_lower_half_chunks(whole), n, [(kappa, "left"), ((q - c[::-1]) / q, "right")]
    )
    idx = np.where(2 * c > q, n_whole - upto[::-1], below) + np.arange(k)
    a, b = _representatives(x, max(whole, default=1))
    e, f = _representatives(y, max(whole, default=1))
    points = [
        (a, b, i + np.searchsorted(below, i, "right"), u),
        (f - e, f, (n - 1) - j - np.searchsorted(upto, j, "right"), 1.0 - v),
        (c, np.full(k, q), idx, n * kappa - idx),
    ]
    return _picked_maximum(*map(np.concatenate, zip(*points)), n)


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
    where the window adds nothing, and its rows past the end are cut off
    after the decode. Every slot lies in (-P N, P N], with P the group's largest p
    and N its longest sequence: int32 lanes while P N < 2^31, int64 above,
    and P N >= 2^63, where int64 lanes would overflow, is refused before
    any work. Rows of consecutive steps, up to _CELLS slots, hold p c(s) -
    k0 s with k0 fixed per row block, so the k s ramp comes off once per
    block, before one argmax and one argmin over the slots of every row,
    whose indices and values are kept per row and decoded for the whole
    group at the end. The caller forms the groups: block_max_weighted takes
    consecutive blocks while (G + 1) W <= _CELLS // 8, so a row block still
    holds at least 8 steps.

    A whole block of a prime p is anti-symmetric: nums[::-1] == p - nums,
    as (p - j)^-1 = -j^-1 (mod p), so its suffix after k points mirrors its
    prefix of k' = p - 1 - k. On its half grid s = 0..p - 1, with
    s' = p - 1 - s, this gives x_k(s) = z_k'(s') + k, where
    z_k'(s') = p c_k'(s') - (k' + 1) s'. When every member of the group is
    such a block, the rows sweep only the prefixes 0..h, h the largest
    (p - 1) // 2, from the empty prefix, whose slots are all 0. After the
    argmax and argmin of the x rows, one more subtraction of the grid turns
    the row block into its z rows for one more argmax and argmin, and the
    next block continues from the last z row. Prefix k > (p - 1) / 2 reads
    max z_k' + k at "at" s = p - 1 - argmax, and -min z_k' at "left"
    s = p - argmin. The first argmax in s' is the last in s, but no row of
    such a block ties: x(s1) = x(s2) needs p (c1 - c2) = k (s1 - s2) with
    0 < k < p and 0 < |s1 - s2| < p, which p prime forbids; padded slots
    still come after the real ones. A composite p can tie, so the mirror
    needs p prime, nums sorting to 1..p - 1 and nums[::-1] == p - nums:
    O(p) checks against O(p^2) sweep work. Any other group sweeps every
    prefix.
    """
    nums, ps = [np.asarray(x) for x, _ in seqs], [int(p) for _, p in seqs]
    n = max(x.size for x in nums)
    pn = max(ps) * n
    if pn >= 1 << 63:
        raise OverflowError(f"p * N = {pn} reaches 2^63; the sweep needs int64")
    mirror = all(
        x.size == p - 1
        and is_prime(p)
        and np.array_equal(np.sort(x), np.arange(1, p))
        and np.array_equal(x[::-1], p - x)
        for x, p in zip(nums, ps)
    )
    if mirror:
        # a whole block's half grid is 0..p - 1, value t at index t
        grids, wheres = [np.arange(p) for p in ps], nums
    else:
        grids, wheres = zip(
            *(np.unique(np.concatenate([x - 1, x]), return_inverse=True) for x in nums)
        )
        wheres = [where[x.size :] for x, where in zip(nums, wheres)]
    # rows hold the prefixes 1..n, or 0..h of a mirror
    first = 0 if mirror else 1
    steps = (max(ps) - 1) // 2 + 1 if mirror else n
    size, w = len(seqs), max(grid.size for grid in grids)
    lane = np.int32 if pn < 1 << 31 else np.int64
    rows = max(1, min(steps, _CELLS // (size * w)))
    window = np.zeros((size, 2 * w), dtype=lane)
    window[:, w:] = [[p] for p in ps]
    # window[g, w - t:][:w] inserts the value at index t of grid g; a
    # sequence past its end, or at the empty prefix, takes window[g, :w],
    # all zeros
    starts = np.zeros((n + 1, size), dtype=np.intp)
    padded = np.empty((size, w), dtype=np.int64)
    for g, (grid, where) in enumerate(zip(grids, wheres)):
        starts[1 : where.size + 1, g] = w - where
        padded[g], padded[g, : grid.size] = grid[-1], grid
    starts = starts[first : first + steps]
    del wheres
    # the k s ramp of one row block; a mirror's z rows take one more slope off
    slope = padded.astype(lane)
    ramp = np.multiply.outer(np.arange(first, rows + first, dtype=lane), slope)
    block = np.zeros((rows, size, w), dtype=lane)
    flat, offsets = block.reshape(-1), np.arange(0, rows * size * w, w).reshape(rows, size)
    if size == 1:
        lines, starts, window = list(block[:, 0]), starts[:, 0].tolist(), window[0]
    else:
        lines, starts = list(block), list(starts)
        window = np.lib.stride_tricks.sliding_window_view(window, w, axis=1)
    seq, add = np.arange(size), np.add
    # per row: the first argmax and argmin of its x row, then of a mirror's z
    # row, and the values there
    idx = np.empty((4 if mirror else 2, steps, size), dtype=np.intp)
    val = np.empty(idx.shape, dtype=lane)

    def extremes(part: np.ndarray, k: int, e: int) -> None:
        i, v = idx[e : e + 2, k : k + len(part)], val[e : e + 2, k : k + len(part)]
        part.argmax(axis=2, out=i[0])
        part.argmin(axis=2, out=i[1])
        flat.take(i + offsets[: len(part)], out=v)

    for k in range(0, steps, rows):
        # each row follows the one before, row 0 the last row of the block before
        part, prev = block[: steps - k], lines[-1]
        for line, s in zip(lines, starts[k : k + rows]):
            # one sequence steps by a plain slice, the cheapest call there
            # is; a group gathers the window of each sequence at its start
            add(prev, window[s : s + w] if size == 1 else window[seq, s], line)
            prev = line
        part -= ramp[: len(part)]
        extremes(part, k, 0)
        if mirror:
            # the z rows p c(s) - (k + 1) s, the last of which the next block continues
            part -= slope
            extremes(part, k, 2)
    # the row buffers and every view of them go before the decode
    del block, ramp, slope, lines, flat, part, prev, line, starts, window
    k, val, ps = np.arange(1, n + 1)[:, None], val.astype(np.int64), np.array(ps)
    if mirror:
        # row r holds prefix r; prefix k > (p - 1) / 2 reads z row p - 1 - k
        # (the rows a member never reaches read row 0)
        r = np.clip(ps - 1 - k, 0, k)
        back = r < k
        # one flat take per extreme: entry [e, r, g] of idx and val, with
        # e = 2, 3 (z rows) for a prefix read back and 0, 1 (x rows) else
        at = (r + 2 * steps * back) * size + seq
        pick = np.stack([at, at + steps * size])
        idx, val = idx.take(pick), val.take(pick)
        idx = np.where(back, ps - 1 - idx, idx)
        val = np.where(back, val + k, val)
    # the first maximum and minimum are the smallest thresholds; "at" s
    # against "left" s' + 1: the larger value, then the smaller threshold,
    # then "at" before "left"
    at, left = padded[seq, idx[0]], padded[seq, idx[1]] + 1
    best, neg = val[0], k - val[1]
    low = (neg > best) | ((neg == best) & (left < at))
    m, j = np.where(low, neg, best), np.where(low, left, at)
    return [(m[: x.size, g], j[: x.size, g], ~low[: x.size, g]) for g, x in enumerate(nums)]


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


def _maxima_columns(m: np.ndarray, p: int) -> list[np.ndarray]:
    """The reduced columns of the grid sweep's maxima m over one sequence,
    per prefix k: disc num, disc den, weighted num and weighted den.

    D_k* = m / (k p) and k D_k* = m / p, each reduced by gcds of int64
    arrays, every k p < 2^63 as the sweep refuses p N beyond. The one
    reduction of prefix_scan's grid path and of scan --prime, which writes
    its CSV from these columns without a record per prefix.
    """
    kp = np.arange(1, m.size + 1) * p
    g, gm = np.gcd(m, kp), np.gcd(m, p)
    return [m // g, kp // g, m // gm, p // gm]


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
        m, j, at_side = _grid_sweeps([([a for a, _ in pairs], p)])[0]
        g = np.gcd(j, p)
        # the columns go before the records are made
        columns = [x.tolist() for x in (*_maxima_columns(m, p), j // g, p // g, at_side)]
        return [
            ScanRecord(k, DiscrepancyValue(a, b, c, d, "at" if at else "left"), e, f)
            for k, a, b, e, f, c, d, at in zip(range(1, n + 1), *columns)
        ]
    records: list[ScanRecord] = []
    for k, dv in enumerate(_rank_sweep(pairs), 1):
        g = gcd(dv.num * k, dv.den)
        records.append(ScanRecord(k, dv, dv.num * k // g, dv.den // g))
    return records


def weighted_prefix_maxima(nums: Sequence[int], p: int) -> np.ndarray:
    """p * k * D_k* for k = 1..len(nums) as an int64 array (common denominator p).

    The grid sweep (_grid_sweeps) of the one sequence, the kernel behind
    prefix_scan's common-denominator path, returning only the scaled
    integer maxima; scan --prime runs it and reduces them with
    _maxima_columns. Each prefix costs one slot per point of the half grid
    {v - 1, v : v a distinct numerator}, in int32 lanes while p *
    len(nums) < 2^31; a whole block of a prime p, whose prefixes past (p -
    1) / 2 mirror earlier ones, costs about p^2 / 2 slots in all. The sweep
    refuses p * len(nums) >= 2^63, where int64 lanes would overflow.
    """
    nums, _ = _checked_arrays(nums, p)
    return _grid_sweeps([(nums, int(p))])[0][0]


def block_max_weighted(
    specs: Sequence[BlockSpec], sweep_limit: int = DEFAULT_SWEEP_LIMIT
) -> list[tuple[Fraction, int]]:
    """(max over k of k * D_k*, smallest k attaining it) per whole block, in
    order; bounds runs it over all its blocks.

    Every spec is checked before the first sweep: denominators above
    sweep_limit are refused so a huge block cannot be requested by
    accident. Consecutive blocks share one _grid_sweeps group while
    (G + 1) W <= _CELLS // 8, W the widest p (a whole block's half grid is
    {0, ..., p - 1}), so a row block still holds at least 8 steps; a block
    wider than that goes alone. Value and k do not depend on the grouping.
    A block costs about p^2 / 2 slots, as its prefixes past (p - 1) / 2
    mirror earlier ones.
    """
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
    peaks = []
    for group in groups:
        sweeps = _grid_sweeps([(block_numerators(s.p, s.ordering), s.p) for s in group])
        for spec, (maxima, _, _) in zip(group, sweeps):
            k = int(maxima.argmax())
            peaks.append((Fraction(int(maxima[k]), spec.p), k + 1))
    return peaks


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


def _bands(w: np.ndarray, b: np.ndarray, floor: int) -> np.ndarray:
    # the exact band test of points with denominators b and w = b u: the mask
    # of the points in the high band u >= floor or the low band u <= 1 - floor
    return (w >= floor * b) | (b - w >= floor * b)


def _beside(held: np.ndarray, count: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    # the j in [1, p // 2] with j / p in a held chunk t of count, (t / 2T,
    # (t + 1) / 2T], ascending, and the position in held of each one's chunk.
    # Exact integer ranges: the edges of _chunk_bounds
    first, size = _chunk_bounds(p, held, count)
    j = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - first - 1, size)
    return j, np.repeat(np.arange(held.size), size)


def _rebuild(
    d: np.ndarray,
    count: int,
    n: int,
    cert: np.ndarray,
    made: np.ndarray,
    carry: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """The new floor and tracked points of the boundary sweep at m = d.size blocks.

    cert holds per chunk its certificate (hi, lo) and made the block count
    it was made at, 0 for never (then cert is (inf, -inf)); both are
    updated in place for every chunk made here. After s blocks a chunk's
    points have max(u, 1 - u) < key = max(hi, 1 - lo) + s, so the chunks
    are made in decreasing key, sorted once for their extremes, until the
    key falls below the threshold floor_below(top) - margin of the best top
    so far: no chunk left can hold a point that reaches it, so top is the
    maximum over every point. From the held chunks, made here with a
    certificate that reaches the final threshold, the points with u >=
    threshold or u <= 1 - threshold are picked, each named a = j, b = d,
    with count c its start index plus its sorted position; a held chunk
    not carried is made again with an argsort for its d. Chunks are made a
    batch at a time, one sort per batch: one chunk once chunks are full,
    many while they are small.

    carry = (held, val, den, ends) holds chunks the sweep already has at m:
    val their sorted values end to end, den each value's int32
    denominator, chunk i at ends[i]:ends[i + 1]. It must equal what a
    fresh make gives, bit for bit (np.sort of _chunk_values for val, its
    d for den); both compute the same correctly rounded j / d. A carried
    chunk is read where key order reaches it, with no generation and no
    sort, and when held again its picks are named from it (a = rint(x b),
    exact as b < 2^26) with no argsort; so the floor, the chunks made and
    held, the picks, the values and the shift are those of a fresh make,
    the empty carry. Returns the floor, the picks (a, b, c), the held
    chunks as the next carry, and per held chunk its start index less its
    offset in val.
    """
    m = d.size
    margin = n * _FILTER_MARGIN
    # chunks per batch: at most _CHUNK run edges, and no more values than
    # the batch's edges or a full chunk (_SLICE), whichever is more; the
    # first rebuild makes every chunk, so there _CHUNK values
    half, edges = int((d // 2).sum()), _CHUNK // m
    per = _SLICE if made.any() else _CHUNK
    batch = max(1, edges if half <= m * count else min(edges, per * count // half))
    carried, cval, cden, cends = carry
    where = np.full(count, -1)
    where[carried] = np.arange(carried.size)

    def floor_below(top: float) -> int:
        return math.floor(top - margin) - _BAND_WIDTH

    def parts(ks: np.ndarray, of: np.ndarray) -> list[np.ndarray]:
        # the slices of the carried chunks ks in an array of the carry
        return [of[cends[k] : cends[k + 1]] for k in ks]

    key = np.maximum(cert[:, 0], 1.0 - cert[:, 1]) + (m - made)
    by_key = np.argsort(-key)
    sizes = np.zeros(count, dtype=np.int64)
    starts = np.zeros(count, dtype=np.int64)
    top = -math.inf
    for i in range(0, count, batch):
        if top > -math.inf and key[by_key[i]] < floor_below(top) - margin:
            break
        ts = np.sort(by_key[i : i + batch])
        # the fresh chunks made and sorted, then the carried ones as they stand
        new, old = ts[where[ts] < 0], ts[where[ts] >= 0]
        ts = np.concatenate([new, old])
        val, size, start = np.empty(0), _EMPTY, _EMPTY
        if new.size:
            val, _, _, size, start = _chunk_values(d, new, count)
            val.sort()
        if old.size:
            ks = where[old]
            val = np.concatenate([val, *parts(ks, cval)])
            size = np.concatenate([size, np.diff(cends)[ks]])
            start = np.concatenate([start, _chunk_bounds(d, old[:, None], count)[0].sum(axis=1)])
        offset = np.cumsum(size) - size
        # the value at index i of the sorted batch has count i + step
        step = start - offset
        u = _deviation(val, n, np.repeat(step.astype(np.float64), size))
        # U(e) = n e - #{y <= e} at the chunks' edges e = t / 2T, (t + 1) / 2T
        hi = n * (ts + 1.0) / (2 * count) - (start + size)
        lo = n * (ts + 0.0) / (2 * count) - start
        full = np.flatnonzero(size)
        if full.size:
            hi[full] = np.maximum(hi[full], np.maximum.reduceat(u, offset[full]))
            lo[full] = np.minimum(lo[full], np.minimum.reduceat(u, offset[full]))
            top = max(top, float(u.max()), 1.0 - float(u.min()))
        cert[ts, 0], cert[ts, 1] = hi, lo
        made[ts], sizes[ts], starts[ts] = m, size, start
    floor = floor_below(top)
    t_min = floor - margin
    held = np.flatnonzero((made == m) & ((cert[:, 0] >= t_min) | (cert[:, 1] <= 1.0 - t_min)))
    size = sizes[held]
    ends = np.concatenate([[0], np.cumsum(size)])
    shift = starts[held] - ends[:-1]
    values = np.empty(int(ends[-1]))
    dens = np.empty(values.size, dtype=np.int32)
    d32 = d.astype(np.int32)
    src = where[held]
    # groups of consecutive held chunks, all fresh or all carried, a batch
    # at a time; a fresh batch's argsort gives each value the d of its run
    groups = np.split(np.arange(held.size), np.flatnonzero(np.diff(src >= 0)) + 1)
    picks = []
    for ks in (group[i : i + batch] for group in groups for i in range(0, group.size, batch)):
        begin, end = ends[ks[0]], ends[ks[-1] + 1]
        val, den = values[begin:end], dens[begin:end]
        if src[ks[0]] < 0:
            new, _, offsets, _, _ = _chunk_values(d, held[ks], count)
            order = new.argsort()
            np.take(new, order, out=val)
            runs = np.diff(offsets, append=new.size)
            np.take(np.repeat(np.tile(d32, ks.size), runs), order, out=den)
        else:
            np.concatenate(parts(src[ks], cval), out=val)
            np.concatenate(parts(src[ks], cden), out=den)
        steps = np.repeat((shift[ks] + begin).astype(np.float64), size[ks])
        u = _deviation(val, n, steps)
        pick = np.flatnonzero((u >= t_min) | (u <= 1.0 - t_min))
        b = den[pick].astype(np.int64)
        a = np.rint(val[pick] * b).astype(np.int64)
        picks.append((a, b, (pick + steps[pick]).astype(np.int64)))
    abc = tuple(map(np.concatenate, zip(*picks)))
    return floor, abc, (held, values, dens, ends), shift


def _merge_carry(
    carry: tuple[np.ndarray, ...], new: list[tuple[np.ndarray, ...]]
) -> tuple[np.ndarray, ...]:
    # the boundary sweep's carry (held chunks, their sorted values and int32
    # denominators end to end, chunk ends) with the new points of each row
    # since merged in: per row their values j / p, p, the position of each
    # one's held chunk and its insertion point in the old values. The new
    # values are all distinct from the old ones, so one sort of them and
    # one scatter place them
    held, val, den, ends = carry
    x, q, k, pos = (np.concatenate(v) for v in zip(*new))
    order = x.argsort()
    at = pos[order] + np.arange(x.size)
    old = np.ones(val.size + x.size, dtype=bool)
    old[at] = False
    merged = []
    for was, add in ((val, x), (den, q)):
        out = np.empty(old.size, dtype=was.dtype)
        out[at], out[old] = add[order], was
        merged.append(out)
    per_chunk = np.bincount(k, minlength=held.size)
    return held, *merged, ends + np.concatenate([[0], np.cumsum(per_chunk)])


# the empty carry of _rebuild: no chunk, no value, one chunk end
_NO_CARRY = (_EMPTY, np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64))


# the last m whose first m primes pass the sweep's int64 check below, P(m)
# p_m < 2^63; p_m = 6542843 < 2^26 there, so this limit binds verify first
_SWEEP_MAX_M = 447_499


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
    confirmed, by _picked_maximum as in every sorted evaluator. A block q
    moves u(x) by q x - ceil(q x) + 1 - x, in (-x, 1 - x] with x <= 1/2,
    so it moves max(u, 1 - u) by less than 1.

    Nothing of the half's size is held. The half is cut once into T chunks
    of about _SLICE values at m_hi, chunk t the values in (e_t, e_{t+1}],
    e_t = t / 2T (_chunk_bounds); at any m chunk t is made from primes[:m]
    in O(m) for its edges plus a sort of its own values, and its start
    index is the closed form S_t = #{y <= e_t} = sum_d floor(d t / 2T). A
    chunk made at m_t carries a certificate: hi = max(max u, U(e_{t+1}))
    and lo = min(min u, U(e_t)) over its points, with U(e) = n e - #{y <=
    e} at the edges, all at m_t. s >= 1 blocks later every lower-half point
    x of the chunk, old or new, has lo - s < u(x) < hi + s. Proof: write
    C(z) for #{y < z} at a point z and #{y <= e} at an edge e, all at m_t,
    so that u_t(z) = n_t z - C(z) is u at a point and U at an edge. Above,
    let z be the smallest point present at m_t with z >= x in the chunk,
    or e_{t+1} if there is none. Then C(z) = #{y < x} at m_t, so u(x) -
    u_t(z) is the sum over the s blocks q since of (q x - ceil(q x) + 1 -
    x), each at most 1 - x, less n_t (z - x) >= 0; with u_t(z) <= hi and
    x > 0, u(x) < hi + s. Below, let z be x itself if x is old, else the
    largest point present at m_t with z < x in the chunk, or e_t. Then
    #{y < x} at m_t is C(z) + 1 for a point z < x and C(z) otherwise, and
    u(x) - u_t(z) is n_t (x - z) >= 0, less that 1, plus the s block terms,
    each above -x, where a new x's own block adds 1 - x and pays the 1 (and
    n_t (x - z) > 0 keeps it strict): u(x) > lo - s x >= lo - s/2. The
    edge pseudo-values make each bound depend on its own chunk and its age
    alone.

    The sweep tracks exactly two bands, the high band u >= floor and the
    low band u <= ceil = 1 - floor. Each block raises the floor and lowers
    the ceiling by 1, so every untracked point stays strictly between them;
    once tracked points that leave both bands are dropped, any survivor
    holds the maximum and every point tying it. When both bands are empty
    (at the first row they hold nothing yet) _rebuild makes the chunks
    whose certificates can reach the new floor, every chunk the first
    time, and picks the next bands from the held chunks, whose certificates
    reach its threshold. Every point of a chunk not held has max(u, 1 - u)
    < F0 + s, s blocks after a rebuild with floor F0, as its key was below
    the threshold F0 - margin then; the floor has risen to F0 + s, so a new
    point j/p can reach a band only inside a held chunk: only the j of
    those chunks' integer ranges (_beside) get an exact count, a
    binary search into the held chunk's sorted values plus its start index,
    plus the closed form floor(j q / p) for each block q since the rebuild,
    plus j - 1. Floats only choose what to track; values, witnesses and the
    certification test are exact.

    The held chunks are carried to the next rebuild: their sorted values
    with an int32 denominator each, 12 B per held value. The new points
    that _beside names are exactly the held chunks' new points, so each
    row's go into a buffer, with the binary search's insertion points, and
    the next rebuild first merges the buffer into the carry once
    (_merge_carry). The merged carry is bit for bit what a fresh make of
    each of those chunks at m gives, as both divide the same j by the same
    d once. _rebuild reads a carried chunk as it stands, with no
    generation, sort or argsort, and returns what it would from no carry.
    """
    primes = [int(p) for p in primes[:m_hi]]
    p_max = max(primes)
    if p_max > _FLOAT_SAFE_DEN:
        raise ValueError(f"denominator {p_max} too large for the float-sorted engine")
    # bounds the counts and every chunk edge d (t + 1) < p_max N alike
    if sum(p - 1 for p in primes) * p_max >= 1 << 63:
        raise OverflowError("N * p_m reaches 2^63; the exact counts need int64")
    d = np.array(primes, dtype=np.int64)
    count = -(-sum(p // 2 for p in primes) // _SLICE)
    cert = np.tile([math.inf, -math.inf], (count, 1))
    made = np.zeros(count, dtype=np.int64)
    # the held chunks as of the last rebuild (_rebuild's carry), and per
    # held chunk its start index less its offset there
    carry = _NO_CARRY
    shift = _EMPTY
    # the new points j / p inside held chunks since the last rebuild, per row,
    # merged into the carry at the next one (_merge_carry)
    new = []
    # m0: the block count at the last rebuild
    m0 = n = floor = 0
    # tracked points a/b <= 1/2 with exact counts c, each in a band
    a, b, c = (np.empty(0, dtype=np.int64) for _ in range(3))
    for m, p in enumerate(primes, 1):
        n += p - 1
        if m < m_lo:
            continue
        floor += 1
        c += a * p // b
        j, k = _beside(carry[0], count, p)
        x = j / p
        at = np.searchsorted(carry[1], x)
        new.append((x, np.full(j.size, p, dtype=np.int32), k, at))
        cj = at + shift[k] + (j - 1)
        cj += (np.multiply.outer(j, d[m0 : m - 1]) // p).sum(axis=1)
        a = np.concatenate([a, j])
        b = np.concatenate([b, np.full(j.size, p, dtype=np.int64)])
        c = np.concatenate([c, cj])
        w = n * a - c * b
        keep = _bands(w, b, floor)
        if not keep.any():
            carry, new, m0 = _merge_carry(carry, new), [], m
            floor, (a, b, c), carry, shift = _rebuild(d[:m], count, n, cert, made, carry)
            w = n * a - c * b
            keep = _bands(w, b, floor)
        kept = np.flatnonzero(keep)
        a, b, c, w = (v.take(kept) for v in (a, b, c, w))
        yield _picked_maximum(a, b, c, w / b, n)
