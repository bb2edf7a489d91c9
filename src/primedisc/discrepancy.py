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
from typing import Callable, Iterable, Iterator, Sequence

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
    truncated); a scalar den is shared; every num/den lies inside (0, 1).
    """
    num = np.asarray(num)
    den = np.asarray(den)
    if num.dtype.kind not in "iu" or den.dtype.kind not in "iu":
        raise ValueError(f"expected integer arrays, got {num.dtype} and {den.dtype}")
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


def _confirm(
    cand: list[tuple[int, str]], num: Sequence[int], den: Sequence[int], n: int
) -> DiscrepancyValue:
    # exact winner among (sorted index, side) candidates; ties resolve to the
    # smallest threshold value, "at" before "left", as in the oracle and the
    # grid sweep (a repeated value has "left" at its first index, "at" at its last)
    def threshold_then_side(c: tuple[int, str]) -> tuple[Fraction, str]:
        return Fraction(int(num[c[0]]), int(den[c[0]])), c[1]

    best: tuple[int, int, int, str] | None = None
    for i, side in sorted(cand, key=threshold_then_side):
        a = int(num[i])
        b = int(den[i])
        if side == "at":
            vnum = (i + 1) * b - a * n
        else:
            vnum = a * n - i * b
        if vnum < 0:
            continue
        vden = b * n
        if best is None or vnum * best[1] > best[0] * vden:
            best = (vnum, vden, i, side)
    if best is None:
        raise ArithmeticError("no nonnegative candidate; engine inconsistency")
    vnum, vden, i, side = best
    return _reduced_value(vnum, vden, int(num[i]), int(den[i]), side)


def _eval_sorted(val: np.ndarray, num: np.ndarray, den: np.ndarray) -> DiscrepancyValue:
    """Sorted-multiset formula: float scan, then exact confirmation."""
    n = val.size
    inv_n = 1.0 / n
    grid = np.arange(1, n + 1, dtype=np.float64)
    grid *= inv_n
    d_at = grid - val
    d_left = val - grid
    d_left += inv_n
    cut = max(float(d_at.max()), float(d_left.max())) - _FILTER_MARGIN
    cand = [(int(i), "at") for i in np.flatnonzero(d_at >= cut)]
    cand += [(int(i), "left") for i in np.flatnonzero(d_left >= cut)]
    return _confirm(cand, num, den, n)


def _star_discrepancy_exact(pairs: list[tuple[int, int]]) -> DiscrepancyValue:
    # arbitrary-precision fallback: exact sort, every candidate confirmed
    ordered = sorted(pairs, key=lambda ab: Fraction(ab[0], ab[1]))
    nums = [a for a, _ in ordered]
    dens = [b for _, b in ordered]
    cand = [(i, side) for i in range(len(ordered)) for side in ("at", "left")]
    return _confirm(cand, nums, dens, len(ordered))


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
    order = np.argsort(val, kind="stable")
    return _eval_sorted(val[order], num[order], den[order])


def _prefix_evaluator(pairs: list[tuple[int, int]]) -> Callable[[int], DiscrepancyValue]:
    # k -> exact D_k* of pairs[:k]; the pairs become int64 arrays once, unless
    # a denominator needs the exact path (it may not even fit in int64)
    if max(b for _, b in pairs) > _FLOAT_SAFE_DEN:
        return lambda k: _star_discrepancy_exact(pairs[:k])
    num = np.array([a for a, _ in pairs], dtype=np.int64)
    den = np.array([b for _, b in pairs], dtype=np.int64)
    return lambda k: star_discrepancy_arrays(num[:k], den[:k])


def star_discrepancy(points: Sequence) -> DiscrepancyValue:
    """Exact D_N* of a nonempty multiset of fractions in (0, 1).

    List front end of star_discrepancy_arrays. Input order is irrelevant
    (order matters only to prefixes, see prefix_scan). Accepts Frac objects
    or (num, den) pairs.
    """
    pairs = _point_pairs(points)
    return _prefix_evaluator(pairs)(len(pairs))


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

    All points sit on the grid j/p, so each prefix is an O(p) integer sweep:
    p * k * D_k* = max_j max(|p c_j - k j|, |p c_{j-1} - k j|) with c_j the
    running count of numerators <= j. Ties go to the smallest j, "at" before
    "left", as in every other engine.
    """
    n = len(nums)
    pc = np.zeros(p, dtype=np.int64)  # p * c_j for j = 0..p-1 (c_0 = 0)
    j_grid = np.arange(1, p, dtype=np.int64)
    kj = np.zeros(p - 1, dtype=np.int64)
    maxima = np.empty(n, dtype=np.int64)
    witness = np.empty(n, dtype=np.int64)
    at_side = np.empty(n, dtype=bool)
    for k, v in enumerate(nums):
        pc[v:] += p
        kj += j_grid
        at = np.abs(pc[1:] - kj)
        left = np.abs(pc[:-1] - kj)
        i_at = int(at.argmax())
        i_left = int(left.argmax())
        m_at = int(at[i_at])
        m_left = int(left[i_left])
        if m_at > m_left or (m_at == m_left and i_at <= i_left):
            maxima[k], witness[k], at_side[k] = m_at, i_at + 1, True
        else:
            maxima[k], witness[k], at_side[k] = m_left, i_left + 1, False
    return maxima, witness, at_side


def prefix_scan(points: Sequence) -> list[ScanRecord]:
    """Exact D_k* for every prefix k = 1..N, in input order.

    A shared denominator p turns the scan into an O(p) integer sweep per
    prefix, used while p <= N^2 and p is float-safe; otherwise, and for
    mixed denominators, each prefix gets one sorted evaluation (quadratic,
    meant for modest N). Each record satisfies weighted == k * disc.exact
    identically.
    """
    pairs = _point_pairs(points)
    n = len(pairs)
    ks = range(1, n + 1)
    dens = {b for _, b in pairs}
    p = dens.pop() if len(dens) == 1 else None
    # the sweep allocates and scans O(p) per prefix, the sorted path O(k log k)
    if p is not None and p <= min(_FLOAT_SAFE_DEN, n * n):
        maxima, witness, at_side = _grid_sweep([a for a, _ in pairs], p)
        values = [
            _reduced_value(m, k * p, j, p, "at" if at else "left")
            for k, m, j, at in zip(ks, maxima.tolist(), witness.tolist(), at_side.tolist())
        ]
    else:
        evaluate = _prefix_evaluator(pairs)
        values = [evaluate(k) for k in ks]
    records: list[ScanRecord] = []
    for k, dv in zip(ks, values):
        g = gcd(dv.num * k, dv.den)
        records.append(ScanRecord(k, dv, dv.num * k // g, dv.den // g))
    return records


def weighted_prefix_maxima(nums: Sequence[int], p: int) -> np.ndarray:
    """p * k * D_k* for k = 1..len(nums) as an int64 array (common denominator p).

    The sweep behind prefix_scan's common-denominator path, returning only
    the scaled integer maxima; meant for whole-block bound checks.
    """
    nums, _ = _checked_arrays(nums, p)
    return _grid_sweep(nums, p)[0]


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
        dv = star_discrepancy(pairs)
        weighted_sum += len(pairs) * dv.exact
        pieces.extend(pairs)
    bound = weighted_sum / len(pieces)
    exact = star_discrepancy(pieces)
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
    # c = #{y < a/b}; floats only pick the near-maximal points
    u = n * a - c * b
    approx = u / b
    near = np.flatnonzero(approx >= approx.max() - n * 2.0**-30)
    exact = {int(i): Fraction(int(u[i]), int(b[i])) for i in near}
    best = max(exact.values())
    tied = [Fraction(int(a[i]), int(b[i])) for i, v in exact.items() if v == best]
    lo, hi = min(tied), max(tied)
    # u(x) / n is the "left" deviation at x and, by the symmetry x -> 1 - x,
    # the "at" deviation at 1 - x; the smaller threshold wins, "at" on a tie
    w, side = (1 - hi, "at") if 1 - hi <= lo else (lo, "left")
    vnum, vden = best.numerator, best.denominator * n
    return _reduced_value(vnum, vden, w.numerator, w.denominator, side)


def _boundary_discrepancies(
    primes: Sequence[int], m_lo: int, m_hi: int
) -> Iterator[DiscrepancyValue]:
    """Exact D_N* of the whole blocks {j/p : 1 <= j < p, p in primes[:m]}, m = m_lo..m_hi.

    Certified lazy sweep over distinct primes. All values are distinct and
    the multiset is symmetric under x -> 1 - x, so D_N* = max u / N with
    u(x) = N x - #{y < x}, and the witness follows from the maximizers of u
    as _confirm's rule would choose it. A block p moves u(x) by
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
            u = acc._val * n
            u -= np.arange(n)  # the sorted values are distinct, so #{y < x_i} = i
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
