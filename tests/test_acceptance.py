"""Acceptance gate: one check per contract criterion, one printed line each.

Run under pytest (use -s to see the lines as they pass) or standalone:

    python3 tests/test_acceptance.py

Criteria 5-7 carry two brackets: the contract bracket, and a tighter
regression window frozen from the first calibration run of this
implementation (exact arithmetic makes reruns bit-identical).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from primedisc.asymptotics import lambert_w, m_asymptotic, verify_theorem
from primedisc.discrepancy import (
    nw_bound,
    star_discrepancy,
    star_discrepancy_arrays,
    star_discrepancy_oracle,
    triangle_bound,
    weighted_prefix_maxima,
)
from primedisc.primes import (
    block_index_of,
    build_prime_table,
    pnt_ratio,
    sieve_primes,
    sum_ratio,
    table_covering,
)
from primedisc.sequences import (
    Ordering,
    SequenceFamily,
    block_numerators,
    prefix_arrays,
)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20260815)
    checked = 0
    ok = True
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        dens = rng.integers(2, 1001, size=size)
        nums = rng.integers(1, dens)
        pts = list(zip(nums.tolist(), dens.tolist()))
        engine = star_discrepancy(pts)
        oracle = star_discrepancy_oracle(pts)
        if (engine.num, engine.den) != (oracle.num, oracle.den):
            ok = False
            break
        checked += 1
    _report(
        "criterion 1 oracle equivalence",
        ok and checked == 1000,
        f"{checked}/1000 random multisets exact-equal in {time.time() - t0:.1f}s",
    )


def test_criterion_2_full_block_value():
    t0 = time.time()
    primes = [int(p) for p in sieve_primes(10**4)]
    ok = True
    for p in primes:
        inc = np.arange(1, p, dtype=np.int64)
        inv = block_numerators(p, Ordering.INVERSIVE)
        if np.bincount(inv, minlength=p).max() != 1 or int(inv.min()) < 1:
            ok = False  # inversive block must be a permutation
            break
        den = np.full(p - 1, p, dtype=np.int64)
        for nums in (inc, inv):
            dv = star_discrepancy_arrays(nums, den)
            if (dv.num, dv.den) != (1, p):
                ok = False
                break
            if dv.exact > Fraction(1, p - 1) and p > 2:
                ok = False  # the coarser 1/(N-1) upper bound must also hold
                break
        if not ok:
            break
    _report(
        "criterion 2 full-block value",
        ok,
        f"D* = 1/p exactly (and <= 1/(p-1)) for all {len(primes)} primes "
        f"p <= 10^4, both orderings, in {time.time() - t0:.1f}s",
    )


def test_criterion_3_nw_certificate():
    t0 = time.time()
    primes = [int(p) for p in sieve_primes(2000)] + [10007]
    ok = True
    for p in primes:
        nums = [int(v) for v in block_numerators(p, Ordering.INVERSIVE)]
        maxima = weighted_prefix_maxima(nums, p)
        ks = np.arange(1, p, dtype=np.float64)
        budget = (2.0 * math.sqrt(p) + 1.0) * (math.log(p) + 1.0 / 3.0) ** 2 + ks / p
        if not np.all(maxima / p <= budget - 1e-9):
            ok = False
            break
        if nw_bound(p, 1) != budget[0]:
            ok = False
            break
    _report(
        "criterion 3 NW certificate",
        ok,
        f"k*D_k* within budget for all k, all primes <= 2000 plus p=10007, "
        f"in {time.time() - t0:.1f}s",
    )


def test_criterion_4_increasing_lower_bound():
    t0 = time.time()
    primes = [int(p) for p in sieve_primes(2000) if p >= 3]
    ok = True
    for p in primes:
        maxima = weighted_prefix_maxima(list(range(1, p)), p)
        # max_k k*D_k* >= (p-1)/8, integer form 8*max >= p*(p-1)
        if 8 * int(maxima.max()) < p * (p - 1):
            ok = False
            break
        k_wit = (p - 1) // 2
        if 8 * int(maxima[k_wit - 1]) < p * (p - 1):
            ok = False  # the witness prefix alone must already reach (p-1)/8
            break
    _report(
        "criterion 4 increasing-order lower bound",
        ok,
        f"max k*D_k* >= (p-1)/8 exactly (witness k=(p-1)/2) for all "
        f"{len(primes)} primes 3 <= p <= 2000, in {time.time() - t0:.1f}s",
    )


@pytest.mark.slow
def test_criterion_5_boundary_sharpness():
    t0 = time.time()
    table = build_prime_table(2001)
    rows = verify_theorem(table, 50, 2000)
    ok = len(rows) == 1951
    lo, hi = float("inf"), float("-inf")
    for r in rows:
        if r.disc.num * 2 * r.p < r.disc.den:  # D >= 1/(2 p_m)
            ok = False
            break
        if r.disc.num * r.p < r.disc.den:  # D >= 1/p_m
            ok = False
            break
        assert r.scaled is not None
        lo = min(lo, r.scaled)
        hi = max(hi, r.scaled)
        if not 0.5 <= r.scaled <= 3.0:  # contract bracket
            ok = False
            break
        if not 1.01 <= r.scaled <= 1.07:  # frozen regression window (first run)
            ok = False
            break
    _report(
        "criterion 5 boundary sharpness",
        ok,
        f"D >= 1/p_m exactly and sqrt(N ln N)*D in [{lo:.4f}, {hi:.4f}] "
        f"for m=50..2000 (N up to {rows[-1].n}), in {time.time() - t0:.0f}s",
    )


def test_criterion_6_eta_upper_trend():
    t0 = time.time()
    n_max = 10**6
    table = table_covering(n_max)
    num, den = prefix_arrays(SequenceFamily.ETA, n_max, table)
    grid = np.unique(np.rint(np.geomspace(1e3, 1e6, 50)).astype(np.int64))
    ok = len(grid) == 50
    lo, hi = float("inf"), float("-inf")
    for n in grid.tolist():
        dv = star_discrepancy_arrays(num[:n], den[:n])
        scaled = math.sqrt(n * math.log(n)) * dv.approx
        lo = min(lo, scaled)
        hi = max(hi, scaled)
        if not scaled <= 3.0:  # contract bracket
            ok = False
            break
        if not 0.9 <= scaled <= 1.25:  # frozen regression window (first run)
            ok = False
            break
    _report(
        "criterion 6 eta upper-bound trend",
        ok,
        f"sqrt(N ln N)*D in [{lo:.4f}, {hi:.4f}] on 50-point geometric grid "
        f"N in [1e3, 1e6], in {time.time() - t0:.0f}s",
    )


def test_criterion_7_omega_rate():
    t0 = time.time()
    n_max = 10**6
    num, den = prefix_arrays(SequenceFamily.OMEGA, n_max)
    grid = np.unique(np.rint(np.geomspace(1e2, 1e6, 50)).astype(np.int64))
    ok = len(grid) == 50
    vals = []
    for n in grid.tolist():
        dv = star_discrepancy_arrays(num[:n], den[:n])
        vals.append(math.sqrt(n) * dv.approx)
    if not all(v <= 2.0 for v in vals):  # contract upper bound
        ok = False
    if sum(1 for v in vals if v >= 0.2) < 20:  # contract sharpness floor
        ok = False
    if not all(0.65 <= v <= 0.80 for v in vals):  # frozen regression window
        ok = False
    _report(
        "criterion 7 omega comparison",
        ok,
        f"sqrt(N)*D in [{min(vals):.4f}, {max(vals):.4f}] on 50-point grid "
        f"N in [1e2, 1e6] ({sum(1 for v in vals if v >= 0.2)}/50 above 0.2), "
        f"in {time.time() - t0:.0f}s",
    )


def test_criterion_8_lambert_w():
    t0 = time.time()
    shift = 1.0 / math.e
    xs = np.geomspace(1e-6, 1e10 + shift, 200) - shift
    ok = True
    worst = 0.0
    for x in xs.tolist():
        w = lambert_w(x)
        rel = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        worst = max(worst, rel)
        if rel > 1e-12:
            ok = False
            break
    anchors = (
        lambert_w(0.0) == 0.0
        and abs(lambert_w(math.e) - 1.0) <= 1e-10
        and abs(lambert_w(-shift) + 1.0) <= 1e-10
    )
    _report(
        "criterion 8 Lambert W",
        ok and anchors,
        f"fixed-point residual <= 1e-12 on 200-point log grid "
        f"(worst {worst:.2e}); W(0), W(e), W(-1/e) anchored, "
        f"in {time.time() - t0:.1f}s",
    )


def test_criterion_9_block_bracketing():
    t0 = time.time()
    table = build_prime_table(10**5)
    rng = np.random.default_rng(1315)
    ok = True
    for n in rng.integers(1, table.coverage, size=10**4).tolist():
        m = block_index_of(table, n)
        if not table.cumulative[m] <= n < table.cumulative[m + 1]:
            ok = False
            break
    m_at_1e7 = block_index_of(table, 10**7)
    ratio = m_at_1e7 / m_asymptotic(10**7)
    pr = pnt_ratio(table, 10**5)
    sr = sum_ratio(table, 10**5)
    ok = ok and 0.8 < ratio < 1.3 and 1.0 < pr < 1.3 and 0.95 < sr < 1.25
    _report(
        "criterion 9 block bracketing",
        ok,
        f"10^4 random brackets exact; m(1e7)/estimate = {ratio:.4f}, "
        f"pnt_ratio(1e5) = {pr:.4f}, sum_ratio(1e5) = {sr:.4f}, "
        f"in {time.time() - t0:.1f}s",
    )


def test_criterion_10_triangle_inequality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    primes = [int(p) for p in sieve_primes(500)]
    checked = 0
    ok = True
    for _ in range(1000):
        count = int(rng.integers(1, 11))
        blocks = []
        for _ in range(count):
            p = int(primes[rng.integers(len(primes))])
            ordering = Ordering.INVERSIVE if rng.integers(2) else Ordering.INCREASING
            blocks.append((block_numerators(p, ordering), p))
        bound, exact = triangle_bound(blocks)
        if exact.exact > bound:
            ok = False
            break
        checked += 1
    _report(
        "criterion 10 triangle inequality",
        ok and checked == 1000,
        f"{checked}/1000 random concatenations (1-10 blocks, primes <= 500) "
        f"exact <= bound, in {time.time() - t0:.1f}s",
    )


if __name__ == "__main__":
    for fn in sorted(
        (obj for name, obj in globals().items() if name.startswith("test_criterion")),
        key=lambda f: int(f.__name__.split("_")[2]),
    ):
        fn()
    print("all criteria passed")
