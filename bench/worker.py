"""One benchmark worker process: a single client running CLI commands in a closed loop.

Run by bench/run.py with PYTHONPATH pointing at the checkout's src/. The
worker times the import of primedisc.cli (set-up), then runs passes of the
workload's commands through primedisc.cli.main, one after another, until
--seconds have elapsed. It prints one JSON object on stdout: set-up time,
per-pass timings, exit codes and output digests, the first pass's output
text (checked by the parent), peak RSS, the calibration samples taken
between commands and, with --trace (no calibration), per-pass layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


class Calibration:
    """Fixed benchmark-side work that tracks the host's current speed.

    An interpreter loop and repeated sorts and inserts on small arrays
    (under 1 MB each, so the worker's peak RSS stays the program's). On a
    shared host whose speed drifts by up to 2x over minutes, a command's
    time divided by the calibration measured just before and after it is
    far steadier than the command time alone.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).random(100_000)
        self.pos = np.sort(np.random.default_rng(1).integers(0, self.x.size, 2_000))

    def __call__(self) -> float:
        t = perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        for _ in range(20):
            self.np.insert(self.np.sort(self.x), self.pos, 0.5)
        return perf_counter() - t


def _run_pass(cli, cmds, tracer, pass_index, calibrate, calibration):
    """Run every command once; returns (pass seconds excluding calibration, results)."""
    results = []
    cal_s = 0.0
    p0 = perf_counter()
    for i, (label, argv) in enumerate(cmds):
        if tracer is not None:
            tracer.command = pass_index * len(cmds) + i
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # a crash inside the program is a failed command
            code = -1
            err.write(traceback.format_exc())
        results.append((label, perf_counter() - t, code, out.getvalue(), err.getvalue()))
        if calibrate:
            calibration.append(calibrate())
            cal_s += calibration[-1]
    return perf_counter() - p0 - cal_s, results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write spans here as JSON lines")
    args = parser.parse_args()

    t0 = perf_counter()
    import primedisc.cli as cli

    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import commands

    cmds = commands(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer, aggregate, span_cost

        tracer = Tracer()
        tracer.install()

    calibrate = None if args.trace else Calibration()
    calibration = [calibrate()] if calibrate else []
    passes = []
    outputs = None
    start = perf_counter()
    while True:
        span_lo = len(tracer.spans) if tracer else 0
        counter_lo = tracer.counter_s if tracer else 0.0
        wall, results = _run_pass(cli, cmds, tracer, len(passes), calibrate, calibration)
        record = {
            "wall_s": wall,
            "commands": [
                {
                    "label": label,
                    "seconds": seconds,
                    "exit": code,
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "stderr": err[-2000:],
                }
                for label, seconds, code, text, err in results
            ],
        }
        if outputs is None:
            outputs = {label: text for label, _, _, text, _ in results}
            # peak RSS of one pass in a fresh process, as a CLI user sees it;
            # later passes can only add allocator fragmentation
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            hi = len(tracer.spans)
            layers, by_command, covered = aggregate(tracer.spans, span_lo, hi)
            base = len(passes) * len(cmds)
            record["layers"] = layers
            record["by_command"] = {
                label: by_command.get(base + i, {}) for i, (label, _) in enumerate(cmds)
            }
            record["covered_s"] = covered
            record["spans"] = hi - span_lo
            record["counter_s"] = tracer.counter_s - counter_lo
        passes.append(record)
        if perf_counter() - start >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "outputs": outputs,
        "peak_rss_kb": peak_rss_kb,
        "calibration_s": calibration,
    }
    if tracer is not None:
        result["span_cost_s"] = span_cost()
        if args.spans:
            with open(args.spans, "w") as fh:
                for idx, (label, s, e, parent, command, counts) in enumerate(tracer.spans):
                    fh.write(
                        json.dumps(
                            {
                                "id": idx,
                                "name": label,
                                "start": s - start,
                                "end": e - start,
                                "parent": parent,
                                "command": command,
                                "counts": counts,
                            }
                        )
                    )
                    fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
