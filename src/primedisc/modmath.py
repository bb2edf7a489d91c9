"""Modular inverses for the inversive block ordering."""

from __future__ import annotations


def mod_inverse(j: int, p: int) -> int:
    """The unique v in {1, ..., p-1} with j * v = 1 (mod p).

    The modulus is expected to be prime, which makes every j not divisible
    by p invertible; a composite modulus is tolerated as long as
    gcd(j, p) = 1. Raises ValueError for p < 2, for j divisible by p, and
    for non-invertible j.
    """
    if p < 2:
        raise ValueError("modulus must be >= 2")
    j %= p
    if j == 0:
        raise ValueError("j is divisible by the modulus")
    try:
        return pow(j, -1, p)
    except ValueError:
        raise ValueError(f"{j} is not invertible modulo {p}") from None
