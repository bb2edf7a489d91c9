"""Blocks of proper fractions and the sequences built by concatenating them.

A block with denominator q lists every fraction j/q for 1 <= j < q exactly
once, in a chosen order. Three concatenated families are provided:

* ``eta``: prime denominators p_1, p_2, ..., each block in inversive order
  (position j holds (j^-1 mod p) / p);
* ``prime-increasing``: the same prime blocks in increasing order;
* ``omega``: every integer denominator q = 2, 3, ..., increasing order,
  so repeated values such as 1/2 = 2/4 accumulate as a multiset.

Points are (numerator, denominator) integer pairs kept with their
construction denominator (2/4 stays 2/4, next to 1/2 in omega).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, count, repeat
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import TableTooSmallError
from .primes import PrimeTable, _integer, is_prime, required_blocks_estimate


class Ordering(Enum):
    INVERSIVE = "inversive"
    INCREASING = "increasing"


class SequenceFamily(Enum):
    ETA = "eta"
    OMEGA = "omega"
    PRIME_INCREASING = "prime-increasing"


@dataclass(frozen=True)
class BlockSpec:
    """One prime block: every j/p for 1 <= j < p, in the given order."""

    p: int
    ordering: Ordering

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"block denominator {self.p} is not prime")


def block_numerators(q: int, ordering: Ordering) -> np.ndarray:
    """Numerators of one block as an int64 array (position j-1 for j = 1..q-1).

    Inversive order requires a prime q with q^2 < 2^63; increasing order
    accepts any q >= 2 (omega uses composite denominators too).
    """
    q = _integer(q)
    if q < 2:
        raise ValueError("denominator must be >= 2")
    if ordering is Ordering.INCREASING:
        return np.arange(1, q, dtype=np.int64)
    # refused before any allocation: the power table multiplies residues in int64
    if q * q >= 1 << 63:
        raise ValueError(f"inversive block {q} too large: q^2 must stay below 2^63")
    if not is_prime(q):
        raise ValueError(f"inversive order needs a prime denominator, got {q}")
    # powers g^0 .. g^(q-2) of a primitive root g as g^(a s + b) = (g^s)^a g^b,
    # one outer product of giant and baby steps with s * s >= q - 1 and every
    # product below q^2; then inv[g^k] = g^((-k) mod (q-1))
    n = q - 1
    g = _primitive_root(q)
    s = isqrt(n - 1) + 1
    baby = list(accumulate(repeat(g, s - 1), lambda x, y: x * y % q, initial=1))
    giant = list(accumulate(repeat(baby[-1] * g % q, s - 1), lambda x, y: x * y % q, initial=1))
    pw = (np.multiply.outer(np.array(giant, dtype=np.int64), baby) % q).ravel()[:n]
    inv = np.empty(q, dtype=np.int64)
    inv[pw] = np.roll(pw[::-1], 1)
    return inv[1:]


def _primitive_root(q: int) -> int:
    """The smallest generator of the multiplicative group mod the prime q."""
    factors = []
    m, f = q - 1, 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    return next(g for g in count(1) if all(pow(g, (q - 1) // f, q) != 1 for f in factors))


def generate_prefix(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> list[tuple[int, int]]:
    """The first n elements of the family as a list of (num, den) pairs."""
    num, den = prefix_arrays(family, n, table)
    return list(zip(num.tolist(), den.tolist()))


def _prefix_plan(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> tuple[Ordering, Sequence[int], tuple[int, int] | None]:
    """(ordering, whole, cut) of the first n elements of the family.

    They are the whole blocks with the denominators in whole, in order, then
    the first k < q - 1 elements of block q when cut is (q, k); cut is None
    when n ends a block. The one place that decides which families need a
    prime table (all but omega) and whether it covers n elements: at the
    call, in O(1) or one binary search, before anything of size n exists.
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if family is SequenceFamily.OMEGA:
        # blocks q = 2..t hold t (t - 1) / 2 elements
        t = (isqrt(8 * n + 1) + 1) // 2
        k = n - t * (t - 1) // 2
        return Ordering.INCREASING, range(2, t + 1), (t + 1, k) if k else None
    if table is None:
        raise ValueError(f"family {family.value!r} requires a prime table")
    if table.coverage < n:
        raise TableTooSmallError(
            f"table covers {table.coverage} elements with M={len(table)} blocks; "
            f"a prefix of length {n} needs about {required_blocks_estimate(n)} blocks",
            required=required_blocks_estimate(n),
        )
    ordering = Ordering.INVERSIVE if family is SequenceFamily.ETA else Ordering.INCREASING
    m = bisect_right(table.cumulative, n) - 1
    k = n - table.cumulative[m]
    return ordering, table.primes[:m], (table.primes[m], k) if k else None


def _prefix_blocks(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> Iterator[tuple[np.ndarray, int]]:
    """(numerators, q) of each block of the first n elements, the last block cut.

    The one block loop of the prefix front ends; the checks of _prefix_plan
    run at the call, before the caller allocates or writes anything.
    """
    ordering, whole, cut = _prefix_plan(family, n, table)

    def blocks() -> Iterator[tuple[np.ndarray, int]]:
        for q in whole:
            yield block_numerators(q, ordering), q
        if cut:
            q, k = cut
            yield block_numerators(q, ordering)[:k], q

    return blocks()


def prefix_arrays(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of the first n elements as int64 arrays.

    The blocks of _prefix_blocks, checked before the arrays are allocated,
    in two arrays; generate_prefix is its list of (num, den) pairs, and the
    array discrepancy engines take its output directly. prefix_discrepancy
    needs neither: it reads the whole blocks' lower halves in generated
    chunks and generates only the cut block.
    """
    blocks = _prefix_blocks(family, n, table)
    # filled in place: a list of per-block pieces would hold the prefix twice
    num = np.empty(n, dtype=np.int64)
    den = np.empty(n, dtype=np.int64)
    got = 0
    for nums, q in blocks:
        num[got : got + nums.size] = nums
        den[got : got + nums.size] = q
        got += nums.size
    return num, den
