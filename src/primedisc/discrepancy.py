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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .primes import is_prime
from .sequences import BlockSpec, Frac, block_numerators

DEFAULT_SWEEP_LIMIT = 30_000

# float order of a/b vs c/d is faithful while b*d < 2^52; stay well inside
_FLOAT_SAFE_DEN = 1 << 26

# float candidates sit within ~1e-15 of their exact values, so anything this
# close to the float maximum is confirmed exactly
_FILTER_MARGIN = 1e-12

SCAN_CSV_HEADER = "k,disc_num,disc_den,disc_float,weighted_num,weighted_den"


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

    def __str__(self) -> str:
        return f"{self.num}/{self.den} (~{self.approx:.6g})"


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
    # The one tie rule of every engine: the smallest threshold wins, "at"
    # before "left", as in the oracle and the grid sweep
    best: tuple[int, int, int, int, str] | None = None
    for a, b, count, side in sorted(cand, key=lambda t: (Fraction(t[0], t[1]), t[3])):
        vnum = count * b - a * n if side == "at" else a * n - count * b
        if vnum < 0:
            continue
        vden = b * n
        if best is None or vnum * best[1] > best[0] * vden:
            best = (vnum, vden, a, b, side)
    if best is None:
        raise ArithmeticError("no nonnegative candidate; engine inconsistency")
    return _reduced_value(*best)


# slice length of the passes that would otherwise hold a second n-length array
_SLICE = 1 << 16


def _deviations(val: np.ndarray) -> np.ndarray:
    # u_i = n x_(i) - i over sorted values: u is n times the "left" deviation
    # at x_(i) and 1 - u is n times the "at" deviation there; i is subtracted
    # in slices, so no second n-length array is ever held
    u = val * val.size
    for lo in range(0, val.size, _SLICE):
        u[lo : lo + _SLICE] -= np.arange(lo, min(lo + _SLICE, val.size))
    return u


def _representatives(
    values: np.ndarray, num: np.ndarray, den: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # a pair (a, b) with a / b == x for each float x in values, found by
    # recomputing num / den slice by slice: below _FLOAT_SAFE_DEN equal floats
    # are equal rationals, so any match (1/2 or 2/4) names the same value
    targets, where = np.unique(values, return_inverse=True)
    a = np.zeros(targets.size, dtype=np.int64)  # 0 until found: numerators are >= 1
    b = np.zeros_like(a)
    for lo in range(0, num.size, _SLICE):
        v = num[lo : lo + _SLICE] / den[lo : lo + _SLICE]
        pos = np.searchsorted(targets, v).clip(max=targets.size - 1)
        hit = np.flatnonzero(targets[pos] == v)
        a[pos[hit]] = num[lo + hit]
        b[pos[hit]] = den[lo + hit]
        if a.all():
            return a[where], b[where]
    raise ArithmeticError("candidate value missing from its multiset; engine inconsistency")


def _eval_sorted(val: np.ndarray, num: np.ndarray, den: np.ndarray) -> DiscrepancyValue:
    """Sorted-multiset formula: float scan of u, then exact confirmation.

    val holds the values num / den sorted; num and den, in any order, are
    read only to name each candidate value exactly.
    """
    n = val.size
    u = _deviations(val)
    cut = max(float(u.max()), 1.0 - float(u.min())) - n * _FILTER_MARGIN
    # a repeated value has "left" at its first index and "at" at its last;
    # its other indices undercount and never win
    at = np.flatnonzero(u <= 1.0 - cut)
    left = np.flatnonzero(u >= cut)
    del u
    a, b = _representatives(val[np.concatenate([at, left])], num, den)
    count = np.concatenate([at + 1, left])
    side = ["at"] * at.size + ["left"] * left.size
    return _confirm(list(zip(a.tolist(), b.tolist(), count.tolist(), side)), n)


def _star_discrepancy_exact(pairs: list[tuple[int, int]]) -> DiscrepancyValue:
    # arbitrary-precision fallback: exact sort, every candidate confirmed
    ordered = sorted(pairs, key=lambda ab: Fraction(ab[0], ab[1]))
    cand = [(a, b, i + 1, "at") for i, (a, b) in enumerate(ordered)]
    cand += [(a, b, i, "left") for i, (a, b) in enumerate(ordered)]
    return _confirm(cand, len(ordered))


def star_discrepancy_arrays(num: np.ndarray, den: np.ndarray) -> DiscrepancyValue:
    """Exact D_N* from parallel integer numerator/denominator arrays.

    The one sorted evaluator: star_discrepancy and prefix_scan feed it. Falls
    back to exact sorting when a denominator is too large for faithful float
    order. Non-integer arrays are rejected rather than truncated.
    """
    num, den = _checked_arrays(num, den)
    if int(den.max()) > _FLOAT_SAFE_DEN:
        return _star_discrepancy_exact(list(zip(num.tolist(), den.tolist())))
    val = num / den
    val.sort()
    return _eval_sorted(val, num, den)


def _evaluate(pairs: list[tuple[int, int]]) -> DiscrepancyValue:
    # validated pairs -> exact D_N*; a denominator beyond float safety (it
    # may not even fit in int64) takes the exact path before any array
    if max(b for _, b in pairs) > _FLOAT_SAFE_DEN:
        return _star_discrepancy_exact(pairs)
    return star_discrepancy_arrays(*np.array(pairs, dtype=np.int64).T)


def star_discrepancy(points: Sequence) -> DiscrepancyValue:
    """Exact D_N* of a nonempty multiset of fractions in (0, 1).

    List front end of star_discrepancy_arrays. Input order is irrelevant
    (order matters only to prefixes, see prefix_scan). Accepts Frac objects
    or (num, den) pairs.
    """
    return _evaluate(_point_pairs(points))


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


def _grid_sweep(nums: Sequence[int], p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per prefix k: p * k * D_k*, its witness numerator j and whether side is "at".

    All points sit on the grid j/p, so p * k * D_k* = max_j max(|p c_j - k j|,
    |p c_{j-1} - k j|) with c_j the running count of numerators <= j. Between
    two occupied numerators c is constant and |p c - k j| is convex in j, so
    the maximum and the smallest tied witness sit at an occupied numerator:
    the sweep visits only the distinct numerators v_t, O(distinct) per prefix.
    The int64 arithmetic is exact while p * len(nums) < 2^63.
    """
    values, slots = np.unique(nums, return_inverse=True)
    # dev[2t] = p c(v_t) - k v_t ("at" v_t), dev[2t + 1] = p c(v_{t-1}) - k v_t
    # ("left" v_t): the first maximum of |dev| is the smallest j, "at" before
    # "left", the tie rule of every engine
    step = np.repeat(values, 2)
    dev = np.zeros(step.size, dtype=np.int64)
    mag = np.empty_like(dev)
    maxima, best = np.empty((2, slots.size), dtype=np.int64)
    for k, t in enumerate(slots.tolist()):
        dev[2 * t :] += p
        dev[2 * t + 1] -= p
        dev -= step
        i = int(np.abs(dev, out=mag).argmax())
        maxima[k], best[k] = mag[i], i
    return maxima, values[best >> 1], best & 1 == 0


def prefix_scan(points: Sequence) -> list[ScanRecord]:
    """Exact D_k* for every prefix k = 1..N, in input order.

    A shared denominator p takes the integer sweep over the distinct
    numerators (O(distinct) per prefix) while p * N < 2^63 keeps it exact;
    otherwise, and for mixed denominators, each prefix gets one sorted
    evaluation (quadratic, meant for modest N). Each record satisfies
    weighted == k * disc.exact identically.
    """
    pairs = _point_pairs(points)
    n = len(pairs)
    ks = range(1, n + 1)
    dens = {b for _, b in pairs}
    p = max(dens)
    if len(dens) == 1 and p * n < 1 << 63:
        maxima, witness, at_side = _grid_sweep([a for a, _ in pairs], p)
        values = [
            _reduced_value(m, k * p, j, p, "at" if at else "left")
            for k, m, j, at in zip(ks, maxima.tolist(), witness.tolist(), at_side.tolist())
        ]
    elif p > _FLOAT_SAFE_DEN:
        values = [_star_discrepancy_exact(pairs[:k]) for k in ks]
    else:
        num, den = np.array(pairs, dtype=np.int64).T
        values = [star_discrepancy_arrays(num[:k], den[:k]) for k in ks]
    records: list[ScanRecord] = []
    for k, dv in zip(ks, values):
        g = gcd(dv.num * k, dv.den)
        records.append(ScanRecord(k, dv, dv.num * k // g, dv.den // g))
    return records


def weighted_prefix_maxima(nums: Sequence[int], p: int) -> np.ndarray:
    """p * k * D_k* for k = 1..len(nums) as an int64 array (common denominator p).

    The sweep behind prefix_scan's common-denominator path, returning only
    the scaled integer maxima; meant for whole-block bound checks. Refuses
    p * len(nums) >= 2^63, where the int64 sweep would overflow.
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
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k={k} outside [1, {p - 1}]")
    return (2.0 * math.sqrt(p) + 1.0) * (math.log(p) + 1.0 / 3.0) ** 2 + k / p


def triangle_bound(blocks: Sequence[Sequence]) -> tuple[Fraction, DiscrepancyValue]:
    """Concatenation bound sum_j N_j D*(block_j) / N next to the exact D_N*.

    Returns (bound, exact); raises ArithmeticError if exact ever exceeded
    the bound, which a correct engine makes impossible.
    """
    if not blocks:
        raise ValueError("blocks must be nonempty")
    weighted_sum = Fraction(0)
    pieces: list[tuple[int, int]] = []
    for block in blocks:
        pairs = _point_pairs(block)
        weighted_sum += len(pairs) * _evaluate(pairs).exact
        pieces.extend(pairs)
    bound = weighted_sum / len(pieces)
    exact = _evaluate(pieces)
    if exact.exact > bound:
        raise ArithmeticError("triangle inequality violated; engine inconsistency")
    return bound, exact


class BlockAccumulator:
    """Growing sorted multiset of whole blocks with on-demand exact D_N*.

    The sorted store behind the boundary sweep's rebuilds: a batch of
    points merges into the sorted arrays in O(N + batch) and the
    discrepancy of the current multiset is evaluated without regenerating
    the prefix. Only float-safe denominators are accepted so the float
    order stays exact.
    """

    def __init__(self) -> None:
        self._val = np.empty(0, dtype=np.float64)
        self._num = np.empty(0, dtype=np.int64)
        self._den = np.empty(0, dtype=np.int64)

    @property
    def n(self) -> int:
        return self._val.size

    def add_block(self, numerators: np.ndarray, den: int) -> None:
        """Merge the multiset {a/den : a in numerators}; order inside is irrelevant."""
        new_num, new_den = _checked_arrays(numerators, den)
        if new_den.max() > _FLOAT_SAFE_DEN:
            raise ValueError(f"denominator {den} too large for the float-sorted engine")
        new_val = new_num / new_den
        order = np.argsort(new_val, kind="stable")
        new_val = new_val[order]
        pos = np.searchsorted(self._val, new_val)
        self._val = np.insert(self._val, pos, new_val)
        self._num = np.insert(self._num, pos, new_num[order])
        self._den = np.insert(self._den, pos, new_den[order])

    def star_discrepancy(self) -> DiscrepancyValue:
        """Exact D_N* of everything merged so far."""
        if self.n == 0:
            raise ValueError("empty multiset")
        return _eval_sorted(self._val, self._num, self._den)


# a rebuild tracks every point whose u lies within this many units of the
# maximum; the band lasts until the drift bound overtakes the maximum, about
# two blocks per unit of width
_BAND_WIDTH = 12


def _band_maximum(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int) -> DiscrepancyValue:
    # exact max of u = (n a - c b) / b over the tracked points a/b with counts
    # c = #{y < a/b}, floats picking the near-maximal ones; u(x) / n is the
    # "left" deviation at x and, by the symmetry x -> 1 - x, the "at" one at 1 - x
    approx = (n * a - c * b) / b
    near = np.flatnonzero(approx >= approx.max() - n * 2.0**-30)
    cand: list[tuple[int, int, int, str]] = []
    for ai, bi, ci in zip(a[near].tolist(), b[near].tolist(), c[near].tolist()):
        cand += [(ai, bi, ci, "left"), (bi - ai, bi, n - ci, "at")]
    return _confirm(cand, n)


def _boundary_discrepancies(
    primes: Sequence[int], m_lo: int, m_hi: int
) -> Iterator[DiscrepancyValue]:
    """Exact D_N* of the whole blocks {j/p : 1 <= j < p, p in primes[:m]}, m = m_lo..m_hi.

    Certified lazy sweep over distinct primes. All values are distinct and
    the multiset is symmetric under x -> 1 - x, so D_N* = max u / N with
    u(x) = N x - #{y < x}, and _confirm picks the witness among the
    maximizers of u and their mirrors. A block p moves u(x) by
    p x - ceil(p x) + 1 - x, which lies in (-x, 1 - x].

    A rebuild merges the pending blocks into one BlockAccumulator, picks an
    integer floor T0 below max u by the band width in one float pass, and
    tracks every point with u >= T0 exactly. s blocks later every untracked
    point has u < T0 + s, so once tracked points below T0 + s are dropped,
    any survivor holds the maximum and every point tying it. New points get
    their exact counts from the stale merged array plus the closed form
    floor(j q / p) for each pending block q. Floats only choose what to
    track; values, witnesses and the certification test are exact.
    """
    primes = [int(p) for p in primes[:m_hi]]
    p_max = max(primes)
    if p_max > _FLOAT_SAFE_DEN:
        raise ValueError(f"denominator {p_max} too large for the float-sorted engine")
    if sum(p - 1 for p in primes) * p_max >= 1 << 63:
        raise OverflowError("N * p_m reaches 2^63; the exact counts need int64")
    acc = BlockAccumulator()
    pending: list[int] = []
    n = 0
    # tracked points a/b with exact counts c, all with u >= floor
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
            j = np.arange(1, p, dtype=np.int64)
            cj = np.searchsorted(acc._val, j / p) + (j - 1)
            for q in pending[:-1]:
                cj += j * q // p
            a = np.concatenate([a, j])
            b = np.concatenate([b, np.full(p - 1, p, dtype=np.int64)])
            c = np.concatenate([c, cj])
            keep = n * a - c * b >= floor * b
        if a is None or not keep.any():
            acc.add_block(
                np.concatenate([np.arange(1, q) for q in pending]),
                np.repeat(np.array(pending, dtype=np.int64), [q - 1 for q in pending]),
            )
            pending.clear()
            u = _deviations(acc._val)  # the values are distinct: #{y < x_(i)} = i
            margin = n * 2.0**-30  # far above the float error of u, about n 2^-52
            floor = math.floor(u.max() - margin) - _BAND_WIDTH
            c = np.flatnonzero(u >= floor - margin)
            del u  # the full-length float pass is not kept between rebuilds
            a, b = acc._num[c], acc._den[c]
            keep = n * a - c * b >= floor * b
        a, b, c = a[keep], b[keep], c[keep]
        yield _band_maximum(a, b, c, n)


def scan_csv_lines(records: Iterable[ScanRecord]) -> Iterator[str]:
    """Render scan records as CSV (17 significant digits for floats)."""
    yield SCAN_CSV_HEADER
    for r in records:
        yield (
            f"{r.k},{r.disc.num},{r.disc.den},{r.disc.approx:.17g},"
            f"{r.weighted_num},{r.weighted_den}"
        )
