"""Outside-in tracing of primedisc's public functions, from the benchmark side.

Each traced function object is replaced in every primedisc module namespace
that holds it: cli imports prefix_arrays into its own namespace, and
block_max_weighted looks up weighted_prefix_maxima as a discrepancy global,
so patching only the defining module would miss calls. BlockAccumulator
methods are patched on the class. Spans (name, start, end, parent span,
command id, work counts) stay in memory until the worker writes them out.

Work counts are read from the call's arguments before the call runs, so
they repeat exactly for the same inputs. Counts marked "computed" are
derived from array sizes, not counted inside the program:

* bytes_copied of add_block: 24 B (three 8-byte arrays) x (n_before + block),
  the bytes np.insert writes;
* cells of weighted_prefix_maxima and of the common-denominator prefix_scan:
  prefixes x p, the grid cells the O(p)-per-prefix sweep touches; for a
  mixed-denominator prefix_scan, sum of k over the prefixes (points sorted).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _prefix_scan_counts(points):
    n = len(points)
    dens = {x.den if hasattr(x, "den") else int(x[1]) for x in points}
    cells = n * dens.pop() if len(dens) == 1 else n * (n + 1) // 2
    return None, {"prefixes": n, "cells": cells}


# (module, function, counter); a counter takes the call's arguments and
# returns (span name suffix or None, counts or None)
FUNCTIONS = (
    ("primes", "sieve_primes", None),
    ("primes", "build_prime_table", None),
    ("primes", "table_covering", None),
    ("sequences", "block_numerators", lambda q, ordering: (ordering.value, {"points": q - 1})),
    ("sequences", "prefix_arrays", lambda family, n, table=None: (None, {"points": n})),
    ("sequences", "generate_prefix", lambda family, n, table=None: (None, {"points": n})),
    ("discrepancy", "star_discrepancy_arrays", lambda num, den: (None, {"points": len(num)})),
    ("discrepancy", "star_discrepancy", lambda points: (None, {"points": len(points)})),
    ("discrepancy", "prefix_scan", _prefix_scan_counts),
    (
        "discrepancy",
        "weighted_prefix_maxima",
        lambda nums, p: (None, {"prefixes": len(nums), "cells": len(nums) * p}),
    ),
    ("discrepancy", "block_max_weighted", None),
    ("asymptotics", "verify_theorem", lambda table, lo, hi: (None, {"rows": hi - lo + 1})),
    ("cli", "main", None),
)

METHODS = (
    (
        "discrepancy",
        "BlockAccumulator",
        "add_block",
        lambda acc, numerators, den: (
            None,
            {"points": len(numerators), "bytes_copied": 24 * (acc.n + len(numerators))},
        ),
    ),
    (
        "discrepancy",
        "BlockAccumulator",
        "star_discrepancy",
        lambda acc: (None, {"points_scanned": acc.n}),
    ),
)

# derived per-unit costs: metric -> (self-time span, count, scale)
RATES = {
    "discrepancy.star_discrepancy_arrays.ns_per_point": (
        "discrepancy.star_discrepancy_arrays", "points", 1e9
    ),
    "discrepancy.weighted_prefix_maxima.ns_per_cell": (
        "discrepancy.weighted_prefix_maxima", "cells", 1e9
    ),
}


def is_count(metric: str) -> bool:
    """Work counts repeat exactly for the same inputs; times and rates do not."""
    return not metric.endswith(("self_s", "ns_per_point", "ns_per_cell"))


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.command = -1
        self.counter_s = 0.0  # time spent computing counts, part of the overhead
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, counts = name, None
            if counter is not None:
                t = perf_counter()
                suffix, counts = counter(*args, **kwargs)
                self.counter_s += perf_counter() - t
                if suffix:
                    label = f"{name}.{suffix}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.command, counts)

        return traced

    def install(self) -> None:
        """Patch every traced function in all loaded primedisc modules."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "primedisc" or key.startswith("primedisc.")
        ]
        for mod_name, attr, counter in FUNCTIONS:
            orig = getattr(sys.modules[f"primedisc.{mod_name}"], attr)
            traced = self.wrap(f"{mod_name}.{attr}", orig, counter)
            patched = 0
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    setattr(m, key, traced)
                    patched += 1
            if not patched:
                raise RuntimeError(f"{mod_name}.{attr} was not found to patch")
        for mod_name, cls_name, attr, counter in METHODS:
            cls = getattr(sys.modules[f"primedisc.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", orig, counter))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call (no counter)."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop, None)
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


def layer_name(label: str) -> str:
    """Metric prefix of a span: primes functions share the layer name 'primes'."""
    return "primes" if label.startswith("primes.") else label


def aggregate(spans: list, lo: int, hi: int) -> tuple[dict, dict, float]:
    """Per-layer metrics of spans[lo:hi] (one pass).

    Returns (metrics, self seconds per command id and layer, covered seconds),
    where covered seconds is the time inside top-level spans.
    """
    child = defaultdict(float)
    for label, start, end, parent, _, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    metrics: dict[str, float] = defaultdict(int)
    by_command: dict = defaultdict(lambda: defaultdict(float))
    covered = 0.0
    for idx in range(lo, hi):
        label, start, end, parent, command, counts = spans[idx]
        self_s = (end - start) - child[idx]
        name = layer_name(label)
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += self_s
        by_command[command][name] += self_s
        for key, value in (counts or {}).items():
            metrics[f"{name}.{key}"] += value
        if parent < 0:
            covered += end - start
    for metric, (span, count, scale) in RATES.items():
        if metrics.get(f"{span}.{count}"):
            metrics[metric] = metrics[f"{span}.self_s"] / metrics[f"{span}.{count}"] * scale
    return dict(metrics), {k: dict(v) for k, v in by_command.items()}, covered
