"""Prime tables with cumulative block sizes and prime-counting diagnostics.

A table holds the first M primes together with the running totals
P(m) = sum_{k<=m} (p_k - 1), the lengths of concatenated blocks of proper
fractions with prime denominators. Everything is precomputed once so that
index queries are binary searches, not regenerations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import index

import numpy as np

from .errors import CapacityError, TableTooSmallError

INT64_MAX = 2**63 - 1

# the last m with P(m) < 2^63, p_(m+1) = 20706267151; a larger table is
# refused before its sieve (discrepancy._SWEEP_MAX_M is the boundary
# sweep's tighter limit, P(m) p_m < 2^63)
_TABLE_MAX_M = 911_962_440


def _integer(value) -> int:
    """operator.index(value): numpy integers pass, floats and strings are refused."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    n = _integer(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit in ascending order (Eratosthenes, numpy flags)."""
    limit = _integer(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _nth_prime_limit(m: int) -> int:
    # Rosser: p_m < m (ln m + ln ln m) holds for m >= 6; a constant covers small m
    if m < 6:
        return 13
    x = float(m)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def m_asymptotic(n: int) -> float:
    """Leading-order block count 2 sqrt(n / ln n) for an n-element prefix."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2.0 * math.sqrt(n / math.log(n))


def required_blocks_estimate(n: int) -> int:
    """Rough number of blocks M needed for P(M) to exceed n (with headroom)."""
    if n < 4:
        return 4
    return int(m_asymptotic(n) * 1.3) + 8


@dataclass(frozen=True)
class PrimeTable:
    """First M primes plus cumulative block sizes.

    ``cumulative[m]`` is P(m) with P(0) = 0, so the tuple has M + 1 entries
    and is strictly increasing. Instances are immutable and safe to share
    across threads.
    """

    primes: tuple[int, ...]
    cumulative: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def coverage(self) -> int:
        """P(M): total length of every block the table can generate."""
        return self.cumulative[-1]


def build_prime_table(m_count: int) -> PrimeTable:
    """Sieve the first m_count primes and precompute their running totals."""
    m_count = _integer(m_count)
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    if m_count > _TABLE_MAX_M:
        raise CapacityError(
            f"{m_count} blocks exceed the 64-bit budget: P(m) < 2^63 only up to m = {_TABLE_MAX_M}"
        )
    # one sieve: _nth_prime_limit(m) >= p_m for every m
    primes = sieve_primes(_nth_prime_limit(m_count))[:m_count]
    cumulative = list(accumulate((primes - 1).tolist(), initial=0))
    # the totals increase: checking the last suffices, and the first past names P(m)
    if cumulative[-1] > INT64_MAX:
        m = bisect_right(cumulative, INT64_MAX)
        raise CapacityError(f"P({m}) = {cumulative[m]} exceeds the 64-bit budget")
    return PrimeTable(tuple(primes.tolist()), tuple(cumulative))


def table_covering(n: int) -> PrimeTable:
    """A table sized so that P(M) > n, grown from the asymptotic estimate."""
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = required_blocks_estimate(n)
    table = build_prime_table(m)
    while table.coverage <= n:
        m *= 2
        table = build_prime_table(m)
    return table


def block_index_of(table: PrimeTable, n: int) -> int:
    """The unique m with P(m) <= n < P(m+1), found by binary search."""
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= table.coverage:
        raise TableTooSmallError(
            f"n={n} is not bracketed by a table with M={len(table)} blocks "
            f"(P(M)={table.coverage}); about {required_blocks_estimate(n)} "
            "blocks are required"
        )
    return bisect_right(table.cumulative, n) - 1


def pnt_ratio(table: PrimeTable, m: int) -> float:
    """p_m / (m ln m), the prime-number-theorem ratio (tends to 1)."""
    m = _integer(m)
    if m < 2:
        raise ValueError("m must be >= 2 (ln m must be positive)")
    if m > len(table):
        raise TableTooSmallError(f"table has {len(table)} blocks, need {m}")
    return table.primes[m - 1] / (m * math.log(m))


def sum_ratio(table: PrimeTable, m: int) -> float:
    """P(m) / ((m^2 / 2) ln m), the cumulative-sum ratio (tends to 1)."""
    m = _integer(m)
    if m < 2:
        raise ValueError("m must be >= 2 (ln m must be positive)")
    if m > len(table):
        raise TableTooSmallError(f"table has {len(table)} blocks, need {m}")
    return table.cumulative[m] / ((m * m / 2.0) * math.log(m))
