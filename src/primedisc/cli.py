"""Command line interface.

Subcommands: gen (emit a sequence prefix), disc (exact discrepancy of a
prefix or a dump file), scan (per-prefix discrepancies as CSV), bounds
(whole-block weighted maxima against their budgets), verify (block-boundary
sweep), asym (Lambert W and growth-ratio tables).

Exit codes: 0 success, 1 runtime or data error, 2 usage error. All output
is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .asymptotics import _residual, lambert_w, verify_theorem
from .discrepancy import (
    _FLOAT_SAFE_DEN,
    _FLOAT_SAFE_PRIME_N,
    _SWEEP_MAX_M,
    DEFAULT_SWEEP_LIMIT,
    BlockSpec,
    _maxima_columns,
    block_max_weighted,
    nw_bound,
    prefix_discrepancy,
    prefix_scan,
    star_discrepancy,
    star_discrepancy_arrays,
    weighted_prefix_maxima,
)
from .primes import (
    build_prime_table,
    is_prime,
    m_asymptotic,
    pnt_ratio,
    sieve_primes,
    sum_ratio,
    table_covering,
)
from .sequences import Ordering, SequenceFamily, _prefix_blocks, block_numerators, prefix_arrays


class UsageError(Exception):
    """A post-parse flag validation failure (exit code 2)."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    if not sep:
        raise UsageError(f"range {text!r} must look like LO..HI")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"range {text!r} must contain integers") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"range {text!r} must satisfy 1 <= LO <= HI")
    return lo, hi


def _emit(lines: Iterable[str], out: str | None) -> None:
    if out is None:
        for line in lines:
            print(line)
        return
    with open(out, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _parse_dump(lines: Iterable[str]) -> tuple[list[int], list[int]]:
    """Parse num/den dump lines into numerator and denominator lists, skipping
    blanks and '#' comments; a bad line's ValueError names its 1-based number
    (a fraction outside (0, 1) included)."""
    nums: list[int] = []
    dens: list[int] = []
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        try:
            num_s, sep, den_s = s.partition("/")
            if not sep:
                raise ValueError("expected num/den")
            a, b = int(num_s), int(den_s)
            if not 1 <= a < b:
                raise ValueError(f"{a}/{b} is not strictly inside (0, 1)")
        except ValueError as exc:
            raise ValueError(f"line {i}: cannot parse fraction {s!r}: {exc}") from exc
        nums.append(a)
        dens.append(b)
    return nums, dens


def _utf8_lines(fh: Iterable[bytes], name: str) -> Iterator[str]:
    # decoded one line at a time, so an undecodable byte is named by its line
    for i, raw in enumerate(fh, start=1):
        try:
            yield raw.decode()
        except UnicodeDecodeError:
            raise ValueError(f"{name}: line {i}: not valid UTF-8") from None


def _family_table(family: SequenceFamily, n: int):
    if family is SequenceFamily.OMEGA:
        return None
    return table_covering(n)


_GROWTH_HEADER = "pnt_ratio,sum_ratio,m_est"


def _growth_cells(table, m: int) -> str:
    """The _GROWTH_HEADER cells of block m, blank for m = 1 (N = 1)."""
    if m < 2:
        return ",,"
    return (
        f"{pnt_ratio(table, m):.17g},{sum_ratio(table, m):.17g},"
        f"{m_asymptotic(table.cumulative[m]):.17g}"
    )


def _w_and_residual(x: float) -> tuple[float, float]:
    try:
        w = lambert_w(x)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return w, _residual(w, x)


def _check_sweep_limit(flag: str, p: int, limit: int) -> None:
    # every-prefix sweeps cost O(p^2) or more: refused before any point is built
    if p > limit:
        raise UsageError(
            f"{flag} {p} exceeds the sweep limit {limit}; raise --sweep-limit to proceed"
        )


# points per slice of the gen dump: lines are made a slice of a block at a time
_GEN_SLICE = 1 << 12


def _cmd_gen(args: argparse.Namespace) -> Iterator[str]:
    # _prefix_blocks checks at the call, so an error ends the command before
    # any output or --out file; the lines are streamed block by block
    family = SequenceFamily(args.family)
    blocks = _prefix_blocks(family, args.n, _family_table(family, args.n))
    header = [f"# family={family.value} N={args.n}"] if args.header else []
    lines = (
        f"{a}/{q}"
        for nums, q in blocks
        for lo in range(0, nums.size, _GEN_SLICE)
        for a in nums[lo : lo + _GEN_SLICE].tolist()
    )
    return chain(header, lines)


def _cmd_disc(args: argparse.Namespace) -> list[str]:
    if args.input is not None:
        if args.n is not None:
            raise UsageError("--n applies only with --family, not with --input")
        with open(args.input, "rb") as fh:
            nums, dens = _parse_dump(_utf8_lines(fh, args.input))
        if not nums:
            raise ValueError(f"{args.input}: no fractions found")
        n = len(nums)
        # only a denominator beyond int64 needs the list front end
        if max(dens) < 1 << 63:
            dv = star_discrepancy_arrays(np.array(nums), np.array(dens))
        else:
            dv = star_discrepancy(list(zip(nums, dens)))
    else:
        if args.n is None:
            raise UsageError("--family requires --n")
        family = SequenceFamily(args.family)
        n = args.n
        # refused from n alone: the table covering n costs time and memory in
        # proportion to its largest prime before any denominator is checked
        if family is not SequenceFamily.OMEGA and n > _FLOAT_SAFE_PRIME_N:
            raise ValueError(
                f"N={n} > {_FLOAT_SAFE_PRIME_N}: the prefix reaches a prime block "
                f"past {_FLOAT_SAFE_DEN}, the denominator limit"
            )
        dv = prefix_discrepancy(family, n, _family_table(family, n))
    fields = {
        "n": n,
        "disc_num": dv.num,
        "disc_den": dv.den,
        "disc_float": dv.approx,
        "witness_num": dv.witness_num,
        "witness_den": dv.witness_den,
        "side": dv.side,
    }
    if args.format == "csv":
        cells = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in fields.values())
        return [",".join(fields), ",".join(cells)]
    return [json.dumps(fields)]


def _cmd_scan(args: argparse.Namespace) -> list[str]:
    header = "k,disc_num,disc_den,disc_float,weighted_num,weighted_den"
    if args.prime is not None:
        p = args.prime
        if not is_prime(p):
            raise UsageError(f"--prime {p} is not a prime")
        _check_sweep_limit("--prime", p, args.sweep_limit)
        ordering = Ordering(args.ordering or "inversive")
        num = block_numerators(p, ordering)
        if args.n is not None and args.n > num.size:
            raise UsageError(f"--n {args.n} exceeds the block size {num.size}")
        # the sweep's maxima reduced to the CSV's columns, no witness and no
        # record per prefix; disc_float is the quotient of Python ints as in
        # DiscrepancyValue.approx
        maxima = weighted_prefix_maxima(num[: args.n], p)
        cells = zip(range(1, maxima.size + 1), *(x.tolist() for x in _maxima_columns(maxima, p)))
        return [header] + [f"{k},{a},{b},{a / b:.17g},{e},{f}" for k, a, b, e, f in cells]
    if args.n is None:
        raise UsageError("--family requires --n")
    if args.ordering is not None:
        raise UsageError("--ordering applies only with --prime, not with --family")
    # the rank sweep costs O(n * distinct values) plus one _confirm per prefix
    _check_sweep_limit("--n", args.n, args.sweep_limit)
    family = SequenceFamily(args.family)
    num, den = prefix_arrays(family, args.n, _family_table(family, args.n))
    records = prefix_scan(list(zip(num.tolist(), den.tolist())))
    return [header] + [
        f"{r.k},{r.disc.num},{r.disc.den},{r.disc.approx:.17g},{r.weighted_num},{r.weighted_den}"
        for r in records
    ]


def _cmd_bounds(args: argparse.Namespace) -> list[str]:
    if args.pmin < 2 or args.pmax < args.pmin:
        raise UsageError("need 2 <= pmin <= pmax")
    _check_sweep_limit("--pmax", args.pmax, args.sweep_limit)
    ordering = Ordering(args.ordering)
    primes = [int(p) for p in sieve_primes(args.pmax) if p >= args.pmin]
    if not primes:
        raise UsageError(f"no prime in [{args.pmin}, {args.pmax}]")
    if ordering is Ordering.INVERSIVE:
        lines = ["p,argmax_k,max_num,max_den,max_float,nw,within_nw"]
    else:
        lines = ["p,argmax_k,max_num,max_den,max_float,eighth_num,eighth_den,meets_eighth"]
    specs = [BlockSpec(p, ordering) for p in primes]
    for p, (max_frac, arg_k) in zip(primes, block_max_weighted(specs, args.sweep_limit)):
        head = f"{p},{arg_k},{max_frac.numerator},{max_frac.denominator},{float(max_frac):.17g}"
        if ordering is Ordering.INVERSIVE:
            nw = nw_bound(p, arg_k)
            ok = float(max_frac) <= nw
            lines.append(f"{head},{nw:.17g},{str(ok).lower()}")
        else:
            eighth = Fraction(p - 1, 8)
            ok = max_frac >= eighth
            lines.append(f"{head},{eighth.numerator},{eighth.denominator},{str(ok).lower()}")
    return lines


def _cmd_verify(args: argparse.Namespace) -> list[str]:
    m_lo, m_hi = _parse_range(args.m)
    # past _SWEEP_MAX_M the sweep's exact counts leave int64; refused before
    # the table, which costs about 115 B per prime
    if m_hi > _SWEEP_MAX_M:
        raise ValueError(
            f"HI={m_hi} > {_SWEEP_MAX_M}: N * p_HI reaches 2^63; the exact counts need int64"
        )
    table = build_prime_table(m_hi)
    lines = ["m,N,p_m,disc_num,disc_den,disc_float,scaled,lower_num,lower_den," + _GROWTH_HEADER]
    for r in verify_theorem(table, m_lo, m_hi):
        scaled = "" if r.scaled is None else f"{r.scaled:.17g}"
        lines.append(
            f"{r.m},{r.n},{r.p},{r.disc.num},{r.disc.den},{r.disc.approx:.17g},{scaled},"
            f"{r.lower_num},{r.lower_den},{_growth_cells(table, r.m)}"
        )
    return lines


def _cmd_asym(args: argparse.Namespace) -> list[str]:
    if args.x is not None:
        w, residual = _w_and_residual(args.x)
        return [json.dumps({"x": args.x, "w": w, "residual": residual})]
    if args.grid is not None:
        # a non-finite LO or HI yields a non-finite x, which lambert_w refuses
        lo, hi, count_f = args.grid
        if not count_f.is_integer() or count_f < 2 or hi <= lo:
            raise UsageError("--grid needs LO < HI and an integral COUNT >= 2")
        count = int(count_f)
        lines = ["x,w,residual"]
        for i in range(count):
            x = lo + (hi - lo) * i / (count - 1)
            if math.isinf(x):  # (hi - lo) * i overflowed near the float maximum
                x = lo + (hi - lo) * (i / (count - 1))
            w, residual = _w_and_residual(x)
            lines.append(f"{x:.17g},{w:.17g},{residual:.17g}")
        return lines
    m_lo, m_hi = _parse_range(args.m_range)
    table = build_prime_table(m_hi)
    lines = [f"m,p_m,P_m,{_GROWTH_HEADER}"]
    for m in range(m_lo, m_hi + 1):
        p = table.primes[m - 1]
        lines.append(f"{m},{p},{table.cumulative[m]},{_growth_cells(table, m)}")
    return lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primedisc",
        description="Exact star-discrepancy analysis of prime-block rational sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [f.value for f in SequenceFamily]
    orderings = [o.value for o in Ordering]

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to this file")

    p_gen = sub.add_parser("gen", help="emit the first N elements as num/den lines")
    p_gen.add_argument("--family", choices=families, required=True)
    p_gen.add_argument("--n", type=_positive_int, required=True)
    p_gen.add_argument("--header", action="store_true", help="prepend a # comment line")
    common(p_gen)
    p_gen.set_defaults(handler=_cmd_gen)

    p_disc = sub.add_parser("disc", help="exact star discrepancy of a prefix or dump")
    src = p_disc.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="dump file of num/den lines")
    src.add_argument("--family", choices=families)
    p_disc.add_argument("--n", type=_positive_int, default=None)
    p_disc.add_argument("--format", choices=["json", "csv"], default="json")
    common(p_disc)
    p_disc.set_defaults(handler=_cmd_disc)

    p_scan = sub.add_parser("scan", help="exact D_k* for every prefix, as CSV")
    src = p_scan.add_mutually_exclusive_group(required=True)
    src.add_argument("--prime", type=_positive_int)
    src.add_argument("--family", choices=families)
    p_scan.add_argument(
        "--ordering", choices=orderings, default=None, help="--prime only (default inversive)"
    )
    p_scan.add_argument("--n", type=_positive_int, default=None)
    p_scan.add_argument(
        "--sweep-limit",
        type=_positive_int,
        default=DEFAULT_SWEEP_LIMIT,
        help="largest --prime, or --n with --family, to scan",
    )
    common(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_bounds = sub.add_parser(
        "bounds", help="whole-block weighted maxima against their budgets"
    )
    p_bounds.add_argument("--pmin", type=_positive_int, default=2)
    p_bounds.add_argument("--pmax", type=_positive_int, required=True)
    p_bounds.add_argument("--ordering", choices=orderings, default="inversive")
    p_bounds.add_argument("--sweep-limit", type=_positive_int, default=DEFAULT_SWEEP_LIMIT)
    common(p_bounds)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_verify = sub.add_parser(
        "verify", help="exact boundary discrepancies for blocks LO..HI"
    )
    p_verify.add_argument("--m", required=True, help="block range LO..HI")
    common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_asym = sub.add_parser("asym", help="Lambert W values and growth ratios")
    mode = p_asym.add_mutually_exclusive_group(required=True)
    mode.add_argument("--x", type=float, default=None, help="single W(x) as JSON")
    mode.add_argument(
        "--grid",
        nargs=3,
        type=float,
        metavar=("LO", "HI", "COUNT"),
        default=None,
        help="evenly spaced W table as CSV",
    )
    mode.add_argument("--m-range", default=None, help="growth-ratio table for LO..HI")
    common(p_asym)
    p_asym.set_defaults(handler=_cmd_asym)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        _emit(args.handler(args), args.out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (ValueError, ArithmeticError, OSError, MemoryError, KeyboardInterrupt) as exc:
        # a bare MemoryError or KeyboardInterrupt has no message: name its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
