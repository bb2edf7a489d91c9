"""Blocks of proper fractions and the sequences built by concatenating them.

A block with denominator q lists every fraction j/q for 1 <= j < q exactly
once, in a chosen order. Three concatenated families are provided:

* ``eta``: prime denominators p_1, p_2, ..., each block in inversive order
  (position j holds (j^-1 mod p) / p);
* ``prime-increasing``: the same prime blocks in increasing order;
* ``omega``: every integer denominator q = 2, 3, ..., increasing order,
  so repeated values such as 1/2 = 2/4 accumulate as a multiset.

Fractions are kept with their construction denominator (2/4 stays 2/4);
value semantics are used for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from itertools import count
from math import gcd, isqrt
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .errors import TableTooSmallError
from .primes import PrimeTable, is_prime, required_blocks_estimate, smallest_block_covering


@total_ordering
class Frac:
    """A rational strictly inside (0, 1), unreduced.

    Equality, ordering and hashing go by value, so Frac(1, 2) == Frac(2, 4)
    and both hash alike; num/den keep whatever the constructor was given.
    Both must be integers (numpy integers included): floats and strings are
    refused, never truncated.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        try:
            num = index(num)
            den = index(den)
        except TypeError:
            raise ValueError(f"{num!r}/{den!r} is not a fraction of integers") from None
        if not 1 <= num < den:
            raise ValueError(f"{num}/{den} is not strictly inside (0, 1)")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Frac is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other) -> bool:
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __hash__(self) -> int:
        g = gcd(self.num, self.den)
        return hash((self.num // g, self.den // g))

    def __repr__(self) -> str:
        return f"Frac({self.num}, {self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @property
    def value(self) -> float:
        return self.num / self.den

    def reduced(self) -> tuple[int, int]:
        g = gcd(self.num, self.den)
        return self.num // g, self.den // g


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

    @property
    def size(self) -> int:
        return self.p - 1


def block_numerators(q: int, ordering: Ordering) -> np.ndarray:
    """Numerators of one block as an int64 array (position j-1 for j = 1..q-1).

    Inversive order requires a prime q; increasing order accepts any q >= 2
    (omega uses composite denominators too).
    """
    if q < 2:
        raise ValueError("denominator must be >= 2")
    if ordering is Ordering.INCREASING:
        return np.arange(1, q, dtype=np.int64)
    if not is_prime(q):
        raise ValueError(f"inversive order needs a prime denominator, got {q}")
    return np.fromiter(
        (pow(j, -1, q) for j in range(1, q)), dtype=np.int64, count=q - 1
    )


def generate_block(spec: BlockSpec) -> list[Frac]:
    """The block of spec as a list of fractions in sequence order."""
    return [Frac(v, spec.p) for v in block_numerators(spec.p, spec.ordering)]


def _block_ordering(
    family: SequenceFamily, table: PrimeTable | None, n: int = 1
) -> Ordering:
    """Each family's block ordering; the one place that decides which families
    need a prime table (all but omega) and whether it covers n elements.
    """
    if family is SequenceFamily.OMEGA:
        return Ordering.INCREASING
    if table is None:
        raise ValueError(f"family {family.value!r} requires a prime table")
    if table.coverage < n:
        raise TableTooSmallError(
            f"table covers {table.coverage} elements with M={len(table)} blocks; "
            f"a prefix of length {n} needs about {required_blocks_estimate(n)} blocks",
            required=required_blocks_estimate(n),
        )
    return Ordering.INVERSIVE if family is SequenceFamily.ETA else Ordering.INCREASING


def _family_blocks(
    family: SequenceFamily, table: PrimeTable | None, n: int = 1
) -> Iterator[tuple[int, Ordering]]:
    """Yield (denominator, ordering) in sequence order after the table check.

    Omega never stops; prime-backed families raise TableTooSmallError once
    the table is exhausted rather than ending silently.
    """
    ordering = _block_ordering(family, table, n)
    for q in count(2) if family is SequenceFamily.OMEGA else table.primes:
        yield q, ordering
    raise TableTooSmallError(
        f"prime table exhausted after M={len(table)} blocks "
        f"(P(M)={table.coverage}); build a larger table"
    )


def iter_family(
    family: SequenceFamily, table: PrimeTable | None = None
) -> Iterator[Frac]:
    """Stream the sequence one element at a time, resumable like any iterator."""
    for q, ordering in _family_blocks(family, table):
        for v in block_numerators(q, ordering):
            yield Frac(v, q)


def generate_prefix(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> list[Frac]:
    """The first n elements of the family as a list of fractions."""
    num, den = prefix_arrays(family, n, table)
    return [Frac(a, b) for a, b in zip(num.tolist(), den.tolist())]


def prefix_arrays(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of the first n elements as int64 arrays.

    The one prefix generator; generate_prefix is its list view, and the
    array discrepancy engines take its output directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nums: list[np.ndarray] = []
    dens: list[np.ndarray] = []
    got = 0
    for q, ordering in _family_blocks(family, table, n):
        take = min(q - 1, n - got)
        nums.append(block_numerators(q, ordering)[:take])
        dens.append(np.full(take, q, dtype=np.int64))
        got += take
        if got == n:
            break
    return np.concatenate(nums), np.concatenate(dens)


def locate(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> tuple[int, int]:
    """(block index, 1-based offset) of global position n.

    Inverse of the block layout: the element at position n is the offset-th
    entry of the named block. Binary search over the cumulative sizes for
    prime families, closed form for omega.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family is SequenceFamily.OMEGA:
        # block t has size t, so T(t) = t(t+1)/2 positions end with block t;
        # T(t-1) < n <= T(t) is exactly (2t-1)^2 <= 8n-7 < (2t+1)^2
        t = (isqrt(8 * n - 7) + 1) // 2
        return t, n - (t - 1) * t // 2
    _block_ordering(family, table, n)  # raises unless the table covers n
    m = smallest_block_covering(table, n)
    return m, n - table.cumulative[m - 1]


def element_at(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> Frac:
    """The n-th element (1-based) without generating the whole prefix."""
    m, offset = locate(family, n, table)
    q = m + 1 if family is SequenceFamily.OMEGA else table.primes[m - 1]
    if _block_ordering(family, table) is Ordering.INVERSIVE:
        return Frac(pow(offset, -1, q), q)
    return Frac(offset, q)


def dump_lines(
    fracs: Iterable,
    family: SequenceFamily | None = None,
    n: int | None = None,
    header: bool = False,
) -> Iterator[str]:
    """Render Frac objects or (num, den) pairs (written as given) as num/den lines."""
    if header:
        yield f"# family={family.value if family else '?'} N={n if n is not None else '?'}"
    for f in fracs:
        num, den = (f.num, f.den) if isinstance(f, Frac) else f
        yield f"{num}/{den}"


def parse_dump(lines: Iterable[str]) -> list[Frac]:
    """Parse num/den lines; blank lines and '#' comments are skipped.

    Raises ValueError naming the 1-based line number of the first bad line,
    including fractions outside (0, 1) or with a zero denominator.
    """
    out: list[Frac] = []
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        try:
            num_s, sep, den_s = s.partition("/")
            if not sep:
                raise ValueError("expected num/den")
            out.append(Frac(int(num_s), int(den_s)))
        except ValueError as exc:
            raise ValueError(f"line {i}: cannot parse fraction {s!r}: {exc}") from exc
    return out
