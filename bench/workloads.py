"""The primedisc CLI commands each benchmark workload runs, per seed.

A seed selects one of a fixed number of input variants per workload, so
every variant has a recorded reference output (reference.json). Variants
move only inputs that keep the work within about 1% of each other:

* boundary-sweep: the first reported block m_lo in 1..50 (every block up
  to 600 is merged either way; the skipped evaluations are tiny);
* long-prefix: each prefix length shifted by under 0.1%, so the prefix
  cuts a block in the middle;
* every-prefix: the scanned prime among the eight primes just above 10000
  and the omega scan length in 1992..2007; the bounds sweeps are fixed.
"""

from __future__ import annotations

WORKLOADS = ("boundary-sweep", "long-prefix", "every-prefix")

VARIANTS = {"boundary-sweep": 50, "long-prefix": 16, "every-prefix": 16}

BOUNDARY_M_HI = 600
SCAN_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)


def _shift(v: int, step: int, half: int) -> int:
    # a fixed scatter of v over [-half, half]
    return (v * step) % (2 * half + 1) - half


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for every command of one pass, in the order they run."""
    v = seed % VARIANTS[workload]
    if workload == "boundary-sweep":
        return [("verify", ["verify", "--m", f"{1 + v}..{BOUNDARY_M_HI}"])]
    if workload == "long-prefix":
        n_eta = 2_000_000 + _shift(v, 797, 1500)
        n_omega = 8_000_000 + _shift(v, 1801, 6000)
        n_incr = 8_000_000 + _shift(v, 2749, 6000)
        return [
            ("disc_eta", ["disc", "--family", "eta", "--n", str(n_eta)]),
            ("disc_omega", ["disc", "--family", "omega", "--n", str(n_omega)]),
            (
                "disc_increasing",
                ["disc", "--family", "prime-increasing", "--n", str(n_incr)],
            ),
        ]
    if workload == "every-prefix":
        return [
            ("bounds_inversive", ["bounds", "--pmax", "1200"]),
            ("bounds_increasing", ["bounds", "--pmax", "1200", "--ordering", "increasing"]),
            ("scan_prime", ["scan", "--prime", str(SCAN_PRIMES[v % len(SCAN_PRIMES)])]),
            ("scan_family", ["scan", "--family", "omega", "--n", str(1992 + v)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def small_commands(workload: str, seed: int) -> list[list[str]]:
    """Small seeded instances of the workload's commands (N <= 2000 each).

    Their outputs are compared against the slow exact oracle.
    """
    if workload == "boundary-sweep":
        return [["verify", "--m", f"1..{15 + seed % 10}"]]
    if workload == "long-prefix":
        n = 1000 + (seed * 389) % 1000
        return [
            ["disc", "--family", family, "--n", str(n)]
            for family in ("eta", "omega", "prime-increasing")
        ]
    if workload == "every-prefix":
        q = (101, 103, 107, 109, 113, 127, 131, 137)[seed % 8]
        return [
            ["scan", "--prime", str(q)],
            ["scan", "--family", "omega", "--n", str(120 + seed % 16)],
            ["bounds", "--pmax", "50"],
            ["bounds", "--pmax", "50", "--ordering", "increasing"],
        ]
    raise ValueError(f"unknown workload {workload!r}")
