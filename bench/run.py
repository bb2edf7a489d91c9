"""primedisc benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload boundary-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/primedisc. Each workload is
a closed loop: one client in one single-threaded worker process
(bench/worker.py) runs the workload's CLI commands one after another
through primedisc.cli.main until --seconds have elapsed, then the outputs
are checked (bench/check.py and reference.json).

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs two
traced workers on the same seed instead and prints the per-layer metrics;
their count metrics must repeat exactly. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from tracing import is_count  # noqa: E402
from workloads import WORKLOADS, commands, small_commands  # noqa: E402

SETUP_SAMPLES = 7
# typical time of the worker's Calibration on the 2-core Xeon VM where the
# first baseline was recorded; wall_ref_s is pass time in units of that host
CAL_REF_S = 0.08
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".bench_out"
NOISE_NOTE = (
    "run-to-run spread is host noise, not the program: on a 2-core VM single "
    "runs varied about +-15% (verify --m 1..600: 5.95-7.62 s; eta disc: "
    "1.94-3.11 s) with CPU time close to wall time, so only medians over many "
    "runs are meaningful"
)


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, worker crash, timeout)."""


def _worker(workload, seed, deadline, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), *extra]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, sample count."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.6g}"
    if n >= 11:
        text += f"  p{100 * (n - 10) // n} {s[n - 11]:.6g}"
    else:
        text += "  (no percentile with 10 samples beyond it)"
    return text + f"  n={n}"


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    names = {
        "ram_mb": ("SC_PHYS_PAGES", 1 << 20),
        "l1d_kb": ("SC_LEVEL1_DCACHE_SIZE", 1024),
        "l2_kb": ("SC_LEVEL2_CACHE_SIZE", 1024),
        "l3_kb": ("SC_LEVEL3_CACHE_SIZE", 1024),
    }
    for key, (name, scale) in names.items():
        try:
            value = os.sysconf(name)
            if key == "ram_mb":
                value *= os.sysconf("SC_PAGE_SIZE")
            env[key] = value // scale if value > 0 else "unknown"
        except (ValueError, OSError):
            env[key] = "unknown"
    return env


def check_run(workload, seed, cmds, workers, reference):
    """(attempted, failed, failure messages) over timed and small oracle ops."""
    from primedisc.cli import main as cli_main
    from primedisc.discrepancy import star_discrepancy_oracle

    attempted, failed, messages = 0, 0, []
    for w, result in enumerate(workers):
        for i, rec in enumerate(result["passes"]):
            for (label, argv), cmd in zip(cmds, rec["commands"]):
                attempted += 1
                ref = reference[" ".join(argv)]
                why = []
                if cmd["exit"] != 0:
                    why.append(f"exit {cmd['exit']}: {cmd['stderr'].strip()}")
                elif cmd["sha256"] != ref["sha256"]:
                    why.append("output bytes differ from the reference")
                elif w == 0 and i == 0:
                    why = check.check_output(argv, result["outputs"][label], seed)
                if why:
                    failed += 1
                    messages.append(f"{' '.join(argv)} (worker {w}, pass {i}): {why[0]}")
    for argv in small_commands(workload, seed):
        attempted += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        why = (
            [f"exit {code}"]
            if code != 0
            else check.check_against_oracle(argv, buf.getvalue(), star_discrepancy_oracle)
        )
        if why:
            failed += 1
            messages.append(f"{' '.join(argv)} (oracle): {why[0]}")
    return attempted, failed, messages


def timed_run(args, cmds, deadline):
    # warm-up import first (it may also write bytecode caches), then samples
    _worker(args.workload, args.seed, deadline, "--setup-only")
    setups = [
        _worker(args.workload, args.seed, deadline, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    main = _worker(args.workload, args.seed, deadline, "--seconds", str(args.seconds))
    setups.append(main["setup_s"])
    walls = [p["wall_s"] for p in main["passes"]]
    cal = main["calibration_s"]  # one before the first command and one after each
    times = [c["seconds"] for p in main["passes"] for c in p["commands"]]
    ref = [t * CAL_REF_S / ((a + b) / 2) for t, a, b in zip(times, cal, cal[1:])]
    ref_walls = [sum(ref[i : i + len(cmds)]) for i in range(0, len(ref), len(cmds))]
    metrics = {
        "wall_ref_s": statistics.median(ref_walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
    }
    lines = [
        f"wall_ref_s            s   {summary(ref_walls)}",
        f"wall_s                s   {summary(walls)}",
        f"calibration_s         s   {summary(cal)}",
        f"setup_s               s   {summary(setups)}",
        f"peak_rss_mb           MB  {metrics['peak_rss_mb']:.6g}  n=1",
    ]
    if len(cmds) > 1:  # per-command wall times, named <label>_s
        for label, _ in cmds:
            times = [
                c["seconds"] for p in main["passes"] for c in p["commands"] if c["label"] == label
            ]
            lines.append(f"{label + '_s':<22}s   {summary(times)}")
    return [main], metrics, lines


def traced_run(args, cmds, deadline):
    OUT_DIR.mkdir(exist_ok=True)
    workers = []
    for w in range(2):
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-w{w}.jsonl"
        workers.append(
            _worker(
                args.workload,
                args.seed,
                deadline,
                "--trace",
                "--seconds",
                str(args.seconds / 2),
                "--spans",
                str(spans),
            )
        )
    passes = [p for result in workers for p in result["passes"]]
    counts = [{k: v for k, v in p["layers"].items() if is_count(k)} for p in passes]
    diff = sorted(k for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1)
    if diff:
        raise BenchError(f"count metrics differ between traced passes: {diff[:5]}")
    names = set().union(*(p["layers"] for p in passes))
    metrics = {
        name: statistics.median(p["layers"].get(name, 0) for p in passes) for name in names
    }
    metrics.update(counts[0])
    cost = statistics.median(r["span_cost_s"] for r in workers)
    metrics["trace.covered_share"] = statistics.median(p["covered_s"] / p["wall_s"] for p in passes)
    metrics["trace.overhead_s"] = statistics.median(
        p["counter_s"] + p["spans"] * cost for p in passes
    )
    lines = [f"traced passes: {len(passes)} in 2 workers; spans written to {OUT_DIR.name}/"]
    for label, _ in cmds:
        by_layer = {}
        for p in passes:
            for layer, s in p["by_command"][label].items():
                by_layer.setdefault(layer, []).append(s)
        total = sum(statistics.median(v) for v in by_layer.values())
        parts = sorted(((statistics.median(v), k) for k, v in by_layer.items()), reverse=True)
        lines.append(
            f"{label}: "
            + ", ".join(f"{k} {s:.3f} s ({100 * s / total:.0f}%)" for s, k in parts[:4])
        )
    return workers, metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "primedisc" / "cli.py").is_file():
        print(f"error: no primedisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    cmds = commands(args.workload, args.seed)
    missing = [" ".join(argv) for _, argv in cmds if " ".join(argv) not in reference]
    if missing:
        print(f"error: no reference output for {missing}", file=sys.stderr)
        return 2

    try:
        run = traced_run if args.trace else timed_run
        workers, measured, lines = run(args, cmds, deadline)
        attempted, failed, messages = check_run(
            args.workload, args.seed, cmds, workers, reference
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    if not args.trace and set(measured) != set(metrics):
        print("error: measured and declared end-to-end metrics differ", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, 1 worker process")
    print("commands: " + " | ".join(" ".join(argv) for _, argv in cmds))
    print("env " + json.dumps(environment()))
    print("note " + NOISE_NOTE)
    for line in lines:
        print(line)
    print(f"error_rate            1   {failed / attempted:.6g}  ({failed} of {attempted} ops failed)")
    for message in messages[:20]:
        print(f"FAILED {message}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<58}{m['unit']:<7}{m['value']:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
