"""Correctness checks on primedisc CLI outputs, independent of the program's engines.

The sequences are rebuilt here from their definitions (own sieve, own
modular inverses by Fermat powers) and every check uses exact integer or
Fraction arithmetic:

* disc: the reported witness r is recounted, #{x <= r} ("at") or
  #{x < r} ("left") by integer cross-multiplication, and |count/N - r|
  must equal the reported value;
* scan, bounds: sampled prefixes (every row for bounds) are recounted with
  an O(p) counting sweep or an exact sorted evaluation;
* verify: every row's N, p_m and 1/(2 p_m) lower bound are checked and a
  few seeded rows are recomputed exactly;
* small seeded instances (N <= 2000) are compared with
  primedisc's star_discrepancy_oracle, the slow reference enumerator.

Each function returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np


def sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def primes_covering(n: int) -> np.ndarray:
    """The first primes p_1..p_m with m minimal such that sum(p - 1) >= n."""
    limit = 64
    while True:
        primes = sieve(limit)
        total = np.cumsum(primes - 1)
        if total[-1] >= n:
            return primes[: int(np.searchsorted(total, n)) + 1]
        limit *= 2


def first_primes(m: int) -> np.ndarray:
    limit = 64
    while (primes := sieve(limit)).size < m:
        limit *= 2
    return primes[:m]


def inverses(j: np.ndarray, p: np.ndarray) -> np.ndarray:
    """j^(p-2) mod p elementwise (p prime, p < 2^26 keeps products in int64)."""
    result = np.ones_like(j)
    base = j % p
    e = p - 2
    while e.any():
        odd = (e & 1) == 1
        result = np.where(odd, result * base % p, result)
        base = base * base % p
        e = e >> 1
    return result


def _blocks(dens: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    den = np.repeat(dens, dens - 1)[:n]
    starts = np.cumsum(dens - 1) - (dens - 1)
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, dens - 1)[:n] + 1
    return pos, den


def family_arrays(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, denominators) of the first n elements of a family."""
    if family == "omega":
        t = 1
        while t * (t + 1) // 2 < n:
            t += 1
        return _blocks(np.arange(2, t + 2, dtype=np.int64), n)
    pos, den = _blocks(primes_covering(n), n)
    if family == "eta":
        return inverses(pos, den), den
    return pos, den


def block(p: int, ordering: str) -> np.ndarray:
    j = np.arange(1, p, dtype=np.int64)
    return inverses(j, np.full_like(j, p)) if ordering == "inversive" else j


def exact_disc(num: np.ndarray, den: np.ndarray) -> Fraction:
    """Exact D_N*: float sort (faithful for denominators < 2^26), exact confirmation."""
    val = num / den
    order = np.argsort(val, kind="stable")
    num, den, val = num[order], den[order], val[order]
    n = val.size
    i = np.arange(1, n + 1, dtype=np.float64)
    at = i / n - val
    left = val - (i - 1) / n
    cut = max(at.max(), left.max()) - 1e-9
    best = Fraction(0)
    for k in np.flatnonzero(at >= cut).tolist():
        best = max(best, Fraction(k + 1, n) - Fraction(int(num[k]), int(den[k])))
    for k in np.flatnonzero(left >= cut).tolist():
        best = max(best, Fraction(int(num[k]), int(den[k])) - Fraction(k, n))
    return best


def grid_weighted(nums: np.ndarray, p: int) -> int:
    """p * k * D_k* of the prefix nums (k = len(nums)) on the grid j/p."""
    k = nums.size
    c_at = np.cumsum(np.bincount(nums, minlength=p)[1:p])
    c_left = np.concatenate(([0], c_at[:-1]))
    kj = k * np.arange(1, p, dtype=np.int64)
    return int(max(np.abs(p * c_at - kj).max(), np.abs(p * c_left - kj).max()))


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_disc(argv: list[str], text: str) -> list[str]:
    family, n = _flag(argv, "--family"), int(_flag(argv, "--n"))
    out = json.loads(text)
    if out["n"] != n:
        return [f"reported n={out['n']}, asked {n}"]
    num, den = family_arrays(family, n)
    wn, wd = out["witness_num"], out["witness_den"]
    lhs, rhs = num * wd, wn * den
    count = int(np.count_nonzero(lhs <= rhs if out["side"] == "at" else lhs < rhs))
    if abs(Fraction(count, n) - Fraction(wn, wd)) != Fraction(out["disc_num"], out["disc_den"]):
        return [f"witness {wn}/{wd} ({out['side']}) recounts to {count} of {n}"]
    return []


def _check_verify(argv: list[str], text: str, rng: random.Random) -> list[str]:
    lo, hi = (int(x) for x in _flag(argv, "--m").split(".."))
    rows = _csv_rows(text)
    primes = first_primes(hi)
    cum = np.concatenate(([0], np.cumsum(primes - 1)))
    if [int(r["m"]) for r in rows] != list(range(lo, hi + 1)):
        return ["rows do not cover the requested block range"]
    fails = []
    for r in rows:
        m, p = int(r["m"]), int(primes[int(r["m"]) - 1])
        disc = Fraction(int(r["disc_num"]), int(r["disc_den"]))
        if int(r["N"]) != cum[m] or int(r["p_m"]) != p:
            fails.append(f"m={m}: N or p_m wrong")
        elif Fraction(int(r["lower_num"]), int(r["lower_den"])) != Fraction(1, 2 * p):
            fails.append(f"m={m}: lower bound is not 1/(2 p_m)")
        elif disc < Fraction(1, 2 * p):
            fails.append(f"m={m}: D_N* below 1/(2 p_m)")
    for r in rng.sample(rows, min(3, len(rows))):
        num, den = family_arrays("prime-increasing", int(r["N"]))
        if exact_disc(num, den) != Fraction(int(r["disc_num"]), int(r["disc_den"])):
            fails.append(f"m={r['m']}: exact recount differs")
    return fails


def _check_scan(argv: list[str], text: str, rng: random.Random) -> list[str]:
    rows = _csv_rows(text)
    if _flag(argv, "--prime") is not None:
        p = int(_flag(argv, "--prime"))
        nums = block(p, _flag(argv, "--ordering", "inversive"))
        recount = lambda k: Fraction(grid_weighted(nums[:k], p), k * p)  # noqa: E731
        size = p - 1
    else:
        size = int(_flag(argv, "--n"))
        num, den = family_arrays(_flag(argv, "--family"), size)
        recount = lambda k: exact_disc(num[:k], den[:k])  # noqa: E731
    if [int(r["k"]) for r in rows] != list(range(1, size + 1)):
        return ["rows do not cover every prefix"]
    fails = []
    for k in sorted(set(rng.sample(range(1, size + 1), min(24, size))) | {size}):
        r = rows[k - 1]
        disc = Fraction(int(r["disc_num"]), int(r["disc_den"]))
        if disc != recount(k) or Fraction(int(r["weighted_num"]), int(r["weighted_den"])) != k * disc:
            fails.append(f"k={k}: recount differs")
    return fails


def _check_bounds(argv: list[str], text: str) -> list[str]:
    pmin, pmax = int(_flag(argv, "--pmin", "2")), int(_flag(argv, "--pmax"))
    ordering = _flag(argv, "--ordering", "inversive")
    rows = _csv_rows(text)
    expected = [int(p) for p in sieve(pmax) if p >= pmin]
    if [int(r["p"]) for r in rows] != expected:
        return ["rows do not list every prime in range"]
    fails = []
    for r in rows:
        p, k = int(r["p"]), int(r["argmax_k"])
        if Fraction(grid_weighted(block(p, ordering)[:k], p), p) != Fraction(
            int(r["max_num"]), int(r["max_den"])
        ):
            fails.append(f"p={p}: k*D_k* at k={k} differs from the reported maximum")
    return fails


def check_output(argv: list[str], text: str, seed: int) -> list[str]:
    """Independent recount of one command's output."""
    rng = random.Random(seed)
    try:
        if argv[0] == "disc":
            return _check_disc(argv, text)
        if argv[0] == "verify":
            return _check_verify(argv, text, rng)
        if argv[0] == "scan":
            return _check_scan(argv, text, rng)
        if argv[0] == "bounds":
            return _check_bounds(argv, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"output cannot be parsed: {exc!r}"]
    return [f"no check for {argv[0]!r}"]


def check_against_oracle(argv: list[str], text: str, oracle) -> list[str]:
    """Compare a small instance's output with the oracle, value by value."""

    def disc_of(num, den) -> Fraction:
        return oracle(list(zip(num.tolist(), den.tolist()))).exact

    try:
        if argv[0] == "disc":
            num, den = family_arrays(_flag(argv, "--family"), int(_flag(argv, "--n")))
            out = json.loads(text)
            ok = disc_of(num, den) == Fraction(out["disc_num"], out["disc_den"])
            return [] if ok else ["value differs from the oracle"]
        rows = _csv_rows(text)
        if argv[0] == "verify":
            fails = []
            for r in rows:
                num, den = family_arrays("eta", int(r["N"]))
                if disc_of(num, den) != Fraction(int(r["disc_num"]), int(r["disc_den"])):
                    fails.append(f"m={r['m']}: value differs from the oracle")
            return fails
        if argv[0] == "scan":
            if _flag(argv, "--prime") is not None:
                p = int(_flag(argv, "--prime"))
                num = block(p, _flag(argv, "--ordering", "inversive"))
                den = np.full_like(num, p)
            else:
                num, den = family_arrays(_flag(argv, "--family"), int(_flag(argv, "--n")))
            return [
                f"k={r['k']}: value differs from the oracle"
                for k, r in enumerate(rows, start=1)
                if disc_of(num[:k], den[:k]) != Fraction(int(r["disc_num"]), int(r["disc_den"]))
            ]
        if argv[0] == "bounds":
            fails = []
            for r in rows:
                p = int(r["p"])
                nums = block(p, _flag(argv, "--ordering", "inversive"))
                den = np.full_like(nums, p)
                weighted = [k * disc_of(nums[:k], den[:k]) for k in range(1, p)]
                best = max(weighted)
                if best != Fraction(int(r["max_num"]), int(r["max_den"])) or int(
                    r["argmax_k"]
                ) != weighted.index(best) + 1:
                    fails.append(f"p={p}: maximum or its k differs from the oracle")
            return fails
    except (ValueError, KeyError, IndexError) as exc:
        return [f"output cannot be parsed: {exc!r}"]
    return [f"no oracle check for {argv[0]!r}"]
