"""Lambert W, the scaled discrepancy, and the theorem rows at block boundaries.

The block count m needed for N elements grows like 2 sqrt(N / ln N); the
inverse direction runs through the principal branch of Lambert W, which is
implemented here with a Halley iteration and verified against the defining
identity W e^W = x rather than against tabulated values. The boundary
sweep behind the rows lives in discrepancy.py and the prime-sum growth
ratios in primes.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discrepancy import DiscrepancyValue, _boundary_discrepancies
from .errors import TableTooSmallError
from .primes import PrimeTable, _integer

_RESIDUAL_TOL = 1e-12

# above 2^1000, near the float maximum, w e^w - x and the Halley step would
# overflow; they are taken at a scale of 2^-16, exact in binary, so no bit changes
_TOP, _TOP_SCALE = 2.0**1000, 2.0**-16


def _residual(w: float, x: float) -> float:
    """|w e^w - x|, finite for every finite x >= -1/e and its W."""
    s = _TOP_SCALE if x > _TOP else 1.0
    return abs(w * (math.exp(w) * s) - x * s) / s


def lambert_w(x: float) -> float:
    """Principal-branch W(x) for x >= -1/e by Halley iteration.

    Start values: ln x - ln ln x for x > e, a branch-point series for
    x < -1/4, and x itself in between. The result satisfies
    |W e^W - x| <= 1e-12 * max(1, |x|); ArithmeticError otherwise,
    ValueError outside the domain or for a non-finite x.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x={x} is not finite")
    t = math.e * x + 1.0  # scaled distance above the branch point -1/e
    if t < -1e-12:
        raise ValueError(f"x={x} is below -1/e, outside the principal branch")
    if x == 0.0:
        return 0.0
    if t < 1e-12:
        # so close to the branch point that w = -1 already meets the
        # residual contract; the iteration would stall here
        return -1.0
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x < -0.25:
        q = math.sqrt(2.0 * t)
        w = -1.0 + q * (1.0 + q * (-1.0 / 3.0 + q * (11.0 / 72.0)))
    else:
        w = x
    s = _TOP_SCALE if x > _TOP else 1.0
    for _ in range(50):
        ew = math.exp(w) * s
        f = w * ew - x * s
        if f == 0.0:
            break
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    if _residual(w, x) > _RESIDUAL_TOL * max(1.0, abs(x)):
        raise ArithmeticError(f"Halley iteration did not converge for x={x}")
    return w


def scaled_discrepancy(n: int, disc) -> float:
    """sqrt(n ln n) * D, the quantity that stays bounded for the eta family.

    disc may be a DiscrepancyValue or anything float() accepts.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    value = disc.approx if isinstance(disc, DiscrepancyValue) else float(disc)
    return math.sqrt(n * math.log(n)) * value


@dataclass(frozen=True)
class TheoremRow:
    """One boundary prefix N = P(m): exact D_N* next to the 1/(2 p_m) witness."""

    m: int
    n: int
    p: int
    disc: DiscrepancyValue
    scaled: float | None  # sqrt(N ln N) * D, None for N < 2
    lower_num: int
    lower_den: int


def verify_theorem(table: PrimeTable, m_lo: int, m_hi: int) -> list[TheoremRow]:
    """Exact D_N* at every block boundary N = P(m) for m in [m_lo, m_hi].

    At a boundary every block is complete, so the multiset {j/p_k : k <= m}
    alone determines D_N* and the inversive permutation never needs to be
    applied. The rows come from one certified lazy sweep over the blocks,
    which holds nothing of the multiset's size: the lower half (0, 1/2] of
    the symmetric multiset is cut once into chunks of fixed value intervals,
    each made from the blocks when needed and kept only as a certificate,
    bounds on its deviations that widen by 1 per block. When its two
    tracked bands run empty it makes again only the chunks whose
    certificates can reach the new bands, names their tracked points
    exactly from the (j, p) that generated them, and holds the few chunks
    near the maximum, the only place a later block's new points are
    counted. Each row is checked against its witness threshold r = 1 -
    1/(2 p_m), which forces D_N* >= 1/(2 p_m); a row below that raises
    ArithmeticError (engine inconsistency).
    """
    m_lo, m_hi = _integer(m_lo), _integer(m_hi)
    if m_lo < 1 or m_lo > m_hi:
        raise ValueError(f"need 1 <= m_lo <= m_hi, got {m_lo}..{m_hi}")
    if m_hi > len(table):
        raise TableTooSmallError(f"table has {len(table)} blocks, need {m_hi}")
    rows: list[TheoremRow] = []
    sweep = _boundary_discrepancies(table.primes, m_lo, m_hi)
    for m, dv in zip(range(m_lo, m_hi + 1), sweep):
        p = table.primes[m - 1]
        n = table.cumulative[m]
        if dv.num * 2 * p < dv.den:
            raise ArithmeticError(
                f"D_N* < 1/(2 p_m) at m={m}; discrepancy engine inconsistency"
            )
        scaled = scaled_discrepancy(n, dv) if n >= 2 else None
        rows.append(TheoremRow(m, n, p, dv, scaled, 1, 2 * p))
    return rows
