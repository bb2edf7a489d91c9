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
from math import gcd
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .errors import TableTooSmallError
from .primes import PrimeTable, is_prime, required_blocks_estimate


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
    q = index(q)
    if q < 2:
        raise ValueError("denominator must be >= 2")
    if ordering is Ordering.INCREASING:
        return np.arange(1, q, dtype=np.int64)
    # refused before any allocation: the power table multiplies residues in int64
    if q * q >= 1 << 63:
        raise ValueError(f"inversive block {q} too large: q^2 must stay below 2^63")
    if not is_prime(q):
        raise ValueError(f"inversive order needs a prime denominator, got {q}")
    # powers g^0 .. g^(q-2) of a primitive root g, doubling the table per
    # step with products below q^2; then inv[g^k] = g^((-k) mod (q-1))
    n = q - 1
    g = _primitive_root(q)
    pw = np.ones(1, dtype=np.int64)
    while pw.size < n:
        pw = np.concatenate([pw, pw[: n - pw.size] * pow(g, pw.size, q) % q])
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
) -> list[Frac]:
    """The first n elements of the family as a list of fractions."""
    num, den = prefix_arrays(family, n, table)
    return [Frac(a, b) for a, b in zip(num.tolist(), den.tolist())]


def prefix_arrays(
    family: SequenceFamily, n: int, table: PrimeTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of the first n elements as int64 arrays.

    The one prefix generator; generate_prefix is its list view, and the
    array discrepancy engines take its output directly. It is also the one
    place that decides which families need a prime table (all but omega)
    and whether it covers n elements.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family is SequenceFamily.OMEGA:
        ordering, denominators = Ordering.INCREASING, count(2)
    elif table is None:
        raise ValueError(f"family {family.value!r} requires a prime table")
    elif table.coverage < n:
        # raised before allocating: the arrays below are sized n
        raise TableTooSmallError(
            f"table covers {table.coverage} elements with M={len(table)} blocks; "
            f"a prefix of length {n} needs about {required_blocks_estimate(n)} blocks",
            required=required_blocks_estimate(n),
        )
    else:
        ordering = Ordering.INVERSIVE if family is SequenceFamily.ETA else Ordering.INCREASING
        denominators = table.primes
    # filled in place: a list of per-block pieces would hold the prefix twice
    num = np.empty(n, dtype=np.int64)
    den = np.empty(n, dtype=np.int64)
    got = 0
    for q in denominators:
        take = min(q - 1, n - got)
        num[got : got + take] = block_numerators(q, ordering)[:take]
        den[got : got + take] = q
        got += take
        if got == n:
            break
    return num, den


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
