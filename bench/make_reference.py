"""Record the reference output of every workload variant in reference.json.

    python3 bench/make_reference.py

Run from the root of a checkout at a commit whose outputs are trusted.
Every variant's command runs once through primedisc.cli.main; its output
must pass the independent checks of check.py, and each disc prefix must
cut a block in the middle. The benchmark then requires byte-identical
output from every later commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
from primedisc.cli import main as cli_main  # noqa: E402
from workloads import VARIANTS, WORKLOADS, commands  # noqa: E402


def _mid_block(family: str, n: int) -> bool:
    if family == "omega":
        t = 1
        while t * (t + 1) // 2 < n:
            t += 1
        return t * (t + 1) // 2 != n
    primes = check.primes_covering(n)
    return int((primes - 1).sum()) != n


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        for variant in range(VARIANTS[workload]):
            for _, argv in commands(workload, variant):
                key = " ".join(argv)
                if key in reference:
                    continue
                if argv[0] == "disc" and not _mid_block(argv[2], int(argv[4])):
                    raise SystemExit(f"{key}: the prefix ends on a block boundary")
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(list(argv))
                text = buf.getvalue()
                fails = check.check_output(argv, text, variant)
                if code != 0 or fails:
                    raise SystemExit(f"{key}: exit {code}, {fails[:3]}")
                data = text.encode()
                reference[key] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
                print(f"{key}: {len(data)} bytes", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
