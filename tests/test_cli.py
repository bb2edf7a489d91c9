from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import primedisc.cli as cli
import primedisc.discrepancy as discrepancy
import primedisc.sequences as sequences
from primedisc.cli import main
from primedisc.discrepancy import DEFAULT_SWEEP_LIMIT, star_discrepancy_oracle
from primedisc.primes import _TABLE_MAX_M, build_prime_table, sieve_primes
from primedisc.sequences import SequenceFamily, generate_prefix, prefix_arrays

SRC = Path(__file__).resolve().parents[1] / "src"
ETA7 = ["1/2", "1/3", "2/3", "1/5", "3/5", "2/5", "4/5"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_eta_seven(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "eta", "--n", "7")
        assert code == 0
        assert out.splitlines() == ETA7

    def test_header_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "omega", "--n", "3", "--header")
        assert code == 0
        assert out.splitlines() == ["# family=omega N=3", "1/2", "1/3", "2/3"]

    def test_zero_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "eta", "--n", "0")
        assert code == 2
        assert "must be >= 1" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "zeta", "--n", "3")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dump.txt"
        code, out, _ = run(capsys, "gen", "--family", "eta", "--n", "7", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "\n".join(ETA7) + "\n"

    def test_error_comes_before_the_out_file(self, capsys, monkeypatch, tmp_path):
        def no_arrays(family, n, table=None):
            raise ValueError("no arrays")

        monkeypatch.setattr(cli, "_prefix_blocks", no_arrays)
        target = tmp_path / "dump.txt"
        code, out, err = run(capsys, "gen", "--family", "omega", "--n", "7", "--out", str(target))
        assert (code, out, err) == (1, "", "error: no arrays\n")
        assert not target.exists()

    def test_dump_is_streamed(self, tmp_path):
        # the lines are made a slice of a block at a time, never all at once
        n = 200_000
        target = tmp_path / "omega.txt"
        tracemalloc.start()
        try:
            code = main(["gen", "--family", "omega", "--n", str(n), "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        num, den = prefix_arrays(SequenceFamily.OMEGA, n)
        assert peak < 2 * (num.nbytes + den.nbytes)
        lines = target.read_text().splitlines()
        assert len(lines) == n and lines[-1] == f"{num[-1]}/{den[-1]}"

    def test_dump_peak_does_not_grow_with_n(self, tmp_path):
        # lines come block by block: ten times the points add under a byte
        # per point to the peak, where a (num, den) pair of int64 arrays
        # would add 16
        peaks = []
        for n in (10_000, 100_000):
            tracemalloc.start()
            try:
                code = main(["gen", "--family", "omega", "--n", str(n), "--out", str(tmp_path / "d")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] < 90_000


class TestDisc:
    def test_family_json(self, capsys):
        code, out, _ = run(capsys, "disc", "--family", "eta", "--n", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 7,
            "disc_num": 1,
            "disc_den": 5,
            "disc_float": 0.2,
            "witness_num": 1,
            "witness_den": 5,
            "side": "left",
        }

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "disc", "--family", "eta", "--n", "7", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,disc_num,disc_den,disc_float,witness_num,witness_den,side"
        assert lines[1].startswith("7,1,5,0.2")

    @pytest.mark.parametrize("family", [f.value for f in SequenceFamily])
    @pytest.mark.parametrize("header", [[], ["--header"]])
    def test_input_round_trip(self, capsys, tmp_path, family, header):
        # gen [--header] --out F, then disc --input F, equals disc --family
        dump = tmp_path / f"{family}.txt"
        argv = ["gen", "--family", family, "--n", "300", *header, "--out", str(dump)]
        assert run(capsys, *argv)[0] == 0
        via_file = run(capsys, "disc", "--input", str(dump))
        assert via_file[0] == 0
        assert via_file == run(capsys, "disc", "--family", family, "--n", "300")

    def test_malformed_line_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3/0\n")
        code, _, err = run(capsys, "disc", "--input", str(bad))
        assert code == 1
        assert "line 1" in err

    def test_input_denominator_beyond_int64(self, capsys, tmp_path):
        big = 10**30
        pts = [(1, big), (2, 3), (big - 1, big), (1, 2), (12345, big)]
        dump = tmp_path / "big.txt"
        dump.write_text("".join(f"{a}/{b}\n" for a, b in pts))
        code, out, _ = run(capsys, "disc", "--input", str(dump))
        assert code == 0
        payload = json.loads(out)
        want = star_discrepancy_oracle(pts)
        assert (payload["disc_num"], payload["disc_den"]) == (want.num, want.den)

    def test_input_is_parsed_into_integer_lists(self, capsys, tmp_path):
        # two int lists, then two int64 arrays: about 76 bytes per dump line
        # at the peak; one Python object per line would take about 190
        n = 100_000
        dump = tmp_path / "omega.txt"
        assert run(capsys, "gen", "--family", "omega", "--n", str(n), "--out", str(dump))[0] == 0
        tracemalloc.start()
        try:
            code = main(["disc", "--input", str(dump)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == run(capsys, "disc", "--family", "omega", "--n", str(n))[1]
        assert peak < 100 * n

    def test_family_holds_one_value_per_point(self, capsys):
        # at most one float64 per point: the whole blocks' lower halves take
        # 4 bytes per point, and the (num, den) int64 arrays next to the
        # values would take 24
        n = 400_000
        tracemalloc.start()
        try:
            code = main(["disc", "--family", "omega", "--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == n
        assert peak < 10 * n

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "disc", "--input", str(tmp_path / "nope.txt"))
        assert code == 1

    @pytest.mark.parametrize(
        "data,line",
        [(b"\xff1/2\n", 1), (b"1/2\n1/3\n\xfe\n", 3), (b"1/2\n" * 5000 + b"\xff", 5001)],
    )
    def test_undecodable_bytes_name_the_file(self, capsys, tmp_path, data, line):
        # the line, not a position within the decoder's buffer
        dump = tmp_path / "binary.txt"
        dump.write_bytes(data)
        code, out, err = run(capsys, "disc", "--input", str(dump))
        assert (code, out) == (1, "")
        assert err == f"error: {dump}: line {line}: not valid UTF-8\n"

    def test_family_requires_n(self, capsys):
        code, _, err = run(capsys, "disc", "--family", "eta")
        assert code == 2
        assert "requires --n" in err

    @pytest.mark.parametrize("family", ["eta", "prime-increasing"])
    @pytest.mark.parametrize(
        "n,refused",
        # P(pi(2^26)) points end the last prime block below 2^26; one more
        # reaches a block past it
        [
            (discrepancy._FLOAT_SAFE_PRIME_N, False),
            (discrepancy._FLOAT_SAFE_PRIME_N + 1, True),
            (10**20, True),
        ],
    )
    def test_prime_family_refused_before_the_table(
        self, capsys, monkeypatch, family, n, refused
    ):
        def no_table(n):
            raise ValueError("table built")

        monkeypatch.setattr(sequences, "table_covering", no_table)
        code, out, err = run(capsys, "disc", "--family", family, "--n", str(n))
        assert (code, out) == (1, "")
        if refused:
            assert f"N={n}" in err and str(1 << 26) in err
        else:
            assert err == "error: table built\n"

    @pytest.mark.slow
    def test_prime_prefix_limit_ends_the_last_block_below_the_limit(self):
        primes = sieve_primes(discrepancy._FLOAT_SAFE_DEN)
        assert (primes.size, int(primes[-1])) == (3_957_809, 67_108_859)
        assert int((primes - 1).sum()) == discrepancy._FLOAT_SAFE_PRIME_N

    def test_input_and_family_conflict(self, capsys):
        code, _, _ = run(capsys, "disc", "--input", "x", "--family", "eta")
        assert code == 2

    def test_input_with_n_is_usage_error(self, capsys, tmp_path):
        # --n sizes a --family prefix; a dump is read whole, so it is refused
        dump = tmp_path / "eta.txt"
        dump.write_text("".join(f"{x}\n" for x in ETA7))
        code, out, err = run(capsys, "disc", "--input", str(dump), "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")
        assert "--n" in err


class TestFamilyTable:
    """The prefix entry points build a prime family's table; omega needs none."""

    @pytest.mark.parametrize("command", ["gen", "disc", "scan"])
    def test_only_prime_families_build_a_table(self, capsys, monkeypatch, command):
        def no_table(n):
            raise ValueError("table built")

        want = run(capsys, command, "--family", "omega", "--n", "50")
        assert want[0] == 0
        monkeypatch.setattr(sequences, "table_covering", no_table)
        assert run(capsys, command, "--family", "omega", "--n", "50") == want
        got = run(capsys, command, "--family", "eta", "--n", "50")
        assert got == (1, "", "error: table built\n")


class TestDumpParse:
    """The dump format: gen writes it, disc --input reads it through _parse_dump."""

    def gen(self, capsys, family, n, *flags):
        code, out, _ = run(capsys, "gen", "--family", family, "--n", str(n), *flags)
        assert code == 0
        return out.splitlines()

    def test_round_trip(self, capsys):
        nums, dens = cli._parse_dump(self.gen(capsys, "eta", 13))
        want = generate_prefix(SequenceFamily.ETA, 13, build_prime_table(10))
        assert list(zip(nums, dens)) == want

    def test_header_line(self, capsys):
        assert self.gen(capsys, "omega", 1, "--header") == ["# family=omega N=1", "1/2"]

    def test_round_trip_preserves_duplicates(self, capsys):
        # 2/4 stays 2/4 next to 1/2: the dump keeps construction denominators
        lines = self.gen(capsys, "omega", 9, "--header")
        back = [f"{a}/{b}" for a, b in zip(*cli._parse_dump(lines))]
        assert back == lines[1:]
        assert back == [f"{a}/{b}" for a, b in generate_prefix(SequenceFamily.OMEGA, 9)]

    def test_skips_blanks_and_comments(self, capsys, tmp_path):
        assert cli._parse_dump(["# hi", "", "  1/2  ", "# bye"]) == ([1], [2])
        dump = tmp_path / "commented.txt"
        dump.write_text("# hi\n\n  1/2  \n# bye\n")
        code, out, _ = run(capsys, "disc", "--input", str(dump))
        assert code == 0
        assert json.loads(out)["n"] == 1

    @pytest.mark.parametrize(
        "bad", ["3/0", "abc", "1/2/3", "5/4", "0/4", "1:2", "/3", "1/"]
    )
    def test_rejects_malformed(self, capsys, tmp_path, bad):
        dump = tmp_path / "bad.txt"
        dump.write_text(bad + "\n")
        code, out, err = run(capsys, "disc", "--input", str(dump))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line 1: cannot parse fraction {bad!r}: ")

    @pytest.mark.parametrize(
        "bad", ["3/0", "abc", "1/2/3", "5/4", "0/4", "1:2", "/3", "1/", "-1/3", "2/2", " 7 / 5 "]
    )
    def test_reason_is_the_pair_reason(self, capsys, tmp_path, bad):
        # the parser checks the integers itself; its reason stays the one the
        # list engines' pair check gives for them
        num_s, sep, den_s = bad.strip().partition("/")
        try:
            if not sep:
                raise ValueError("expected num/den")
            discrepancy._point_pairs([(int(num_s), int(den_s))])
        except ValueError as exc:
            reason = str(exc)
        dump = tmp_path / "bad.txt"
        dump.write_text(f"1/2\n{bad}\n")
        code, out, err = run(capsys, "disc", "--input", str(dump))
        assert (code, out) == (1, "")
        assert err == f"error: line 2: cannot parse fraction {bad.strip()!r}: {reason}\n"

    def test_first_bad_line_is_named(self, capsys, tmp_path):
        # a fraction outside (0, 1) before an unparsable line is the error
        dump = tmp_path / "bad.txt"
        dump.write_text("1/2\n4/3\nabc\n")
        code, _, err = run(capsys, "disc", "--input", str(dump))
        assert code == 1
        assert err == "error: line 2: cannot parse fraction '4/3': 4/3 is not strictly inside (0, 1)\n"

    def test_no_fractions(self, capsys, tmp_path):
        dump = tmp_path / "empty.txt"
        dump.write_text("# only a comment\n\n")
        code, out, err = run(capsys, "disc", "--input", str(dump))
        assert (code, out) == (1, "")
        assert err == f"error: {dump}: no fractions found\n"

    @pytest.mark.parametrize(
        "den", [(1 << 26) + 1, (1 << 40) + 15, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 10**30]
    )
    def test_exact_path_above_float_safety(self, capsys, tmp_path, den):
        # one denominator above 2^26 sends the whole dump to the exact path
        pts = [(1, den), (2, 3), (den - 1, den), (1, 2), (12345, den), (1, 3)]
        dump = tmp_path / "big.txt"
        dump.write_text("".join(f"{a}/{b}\n" for a, b in pts))
        code, out, _ = run(capsys, "disc", "--input", str(dump))
        assert code == 0
        payload = json.loads(out)
        want = star_discrepancy_oracle(pts)
        got = (payload["disc_num"], payload["disc_den"], payload["witness_num"])
        assert got == (want.num, want.den, want.witness_num)
        assert (payload["witness_den"], payload["side"]) == (want.witness_den, want.side)

    def test_error_counts_raw_lines(self, capsys, tmp_path):
        dump = tmp_path / "bad.txt"
        dump.write_text("# c\n\n1/2\n9/8\n")
        code, _, err = run(capsys, "disc", "--input", str(dump))
        assert code == 1
        assert err == "error: line 4: cannot parse fraction '9/8': 9/8 is not strictly inside (0, 1)\n"


class TestScan:
    def test_prime_block(self, capsys):
        code, out, _ = run(capsys, "scan", "--prime", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,disc_num,disc_den,disc_float,weighted_num,weighted_den"
        got = [tuple(line.split(",")) for line in lines[1:]]
        assert [(g[0], g[4], g[5]) for g in got] == [
            ("1", "4", "5"), ("2", "4", "5"), ("3", "6", "5"), ("4", "4", "5")
        ]

    def test_nonprime_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--prime", "4")
        assert code == 2
        assert "not a prime" in err

    def test_family_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "omega", "--n", "6")
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_family_requires_n(self, capsys):
        code, out, err = run(capsys, "scan", "--family", "omega")
        assert (code, out, err) == (2, "", "usage error: --family requires --n\n")

    @pytest.mark.parametrize(
        "argv", [["--prime", "abc"], ["--family", "omega", "--n", "abc"]], ids=["prime", "n"]
    )
    def test_non_integer_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "scan", *argv)
        assert (code, out) == (2, "")
        assert "'abc' is not an integer" in err

    def test_prefix_of_block(self, capsys):
        code, out, _ = run(capsys, "scan", "--prime", "7", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("ordering", ["increasing", "inversive"])
    def test_family_with_ordering_is_usage_error(self, capsys, ordering):
        # --ordering orders a --prime block; a family fixes its own order
        argv = ["scan", "--family", "eta", "--n", "6", "--ordering", ordering]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")
        assert "--ordering" in err

    def test_n_beyond_block_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--prime", "5", "--n", "9")
        assert code == 2
        code, _, err = run(capsys, "scan", "--prime", "5", "--n", "5", "--ordering", "increasing")
        assert code == 2
        assert "--n 5 exceeds the block size 4" in err

    def test_increasing_block_is_not_swept(self, capsys, monkeypatch):
        # {1/p, ..., k/p} has p k D_k* = k (p - k) in closed form: no block
        # is generated and the sweep is not called, with or without --n
        [digest] = [d for c, _, d in PINNED if c == "scan --prime 101 --ordering increasing"]

        def no_work(*args):
            raise AssertionError("the increasing block was swept")

        monkeypatch.setattr(cli, "block_numerators", no_work)
        monkeypatch.setattr(cli, "weighted_prefix_maxima", no_work)
        code, out, _ = run(capsys, "scan", "--prime", "101", "--ordering", "increasing")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, head, _ = run(capsys, "scan", "--prime", "101", "--ordering", "increasing", "--n", "50")
        assert code == 0
        assert head.splitlines() == out.splitlines()[:51]

    def test_sweep_limit_guard(self, capsys, monkeypatch):
        # refused before the block is generated, so a big prime costs no time
        def no_block(q, ordering):
            raise AssertionError("block generated before the limit check")

        monkeypatch.setattr(cli, "block_numerators", no_block)
        code, out, err = run(capsys, "scan", "--prime", "100003")
        assert (code, out) == (2, "")
        assert f"exceeds the sweep limit {DEFAULT_SWEEP_LIMIT}" in err

    def test_sweep_limit_flag(self, capsys):
        code, _, err = run(capsys, "scan", "--prime", "101", "--sweep-limit", "100")
        assert code == 2
        assert "--prime 101 exceeds the sweep limit 100" in err
        code, out, _ = run(capsys, "scan", "--prime", "101", "--sweep-limit", "101")
        assert code == 0
        assert out == run(capsys, "scan", "--prime", "101")[1]


    def test_family_n_beyond_sweep_limit(self, capsys, monkeypatch):
        # refused before the prefix is generated: one sort per prefix makes
        # the cost grow faster than n^2
        def no_prefix(*args):
            raise AssertionError("prefix generated before the limit check")

        monkeypatch.setattr(cli, "prefix_arrays", no_prefix)
        code, out, err = run(capsys, "scan", "--family", "eta", "--n", "41", "--sweep-limit", "40")
        assert (code, out) == (2, "")
        assert "--n 41 exceeds the sweep limit 40" in err
        code, _, err = run(capsys, "scan", "--family", "omega", "--n", str(DEFAULT_SWEEP_LIMIT + 1))
        assert code == 2
        assert f"exceeds the sweep limit {DEFAULT_SWEEP_LIMIT}" in err

    def test_family_n_at_sweep_limit(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "eta", "--n", "40", "--sweep-limit", "40")
        assert code == 0
        assert len(out.splitlines()) == 41
        assert out == run(capsys, "scan", "--family", "eta", "--n", "40")[1]


class TestScanCsv:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--prime", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,disc_num,disc_den,disc_float,weighted_num,weighted_den"
        assert lines[1].startswith("1,4,5,0.8")
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == 6


class TestBounds:
    def test_inversive_row_count(self, capsys):
        code, out, _ = run(capsys, "bounds", "--pmax", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,argmax_k,max_num,max_den,max_float,nw,within_nw"
        assert len(lines) == 5  # p = 2, 3, 5, 7
        assert all(line.endswith(",true") for line in lines[1:])

    def test_increasing_mode(self, capsys):
        code, out, _ = run(capsys, "bounds", "--pmax", "13", "--ordering", "increasing")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("meets_eighth")
        assert lines[-1].startswith("13,6,42,13,")
        assert all(line.endswith(",true") for line in lines[1:])

    def test_pmin_filter(self, capsys):
        code, out, _ = run(capsys, "bounds", "--pmin", "5", "--pmax", "7")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["5", "7"]

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "bounds", "--pmin", "11", "--pmax", "7")
        assert code == 2

    def test_sweep_limit_guard(self, capsys):
        code, _, err = run(capsys, "bounds", "--pmax", "50", "--sweep-limit", "10")
        assert code == 2
        assert "sweep limit" in err

    @pytest.mark.parametrize("pmin,pmax", [(8, 10), (4, 4), (24, 28)])
    def test_empty_range_is_usage_error(self, capsys, pmin, pmax):
        # a range holding no prime used to print the header alone
        code, out, err = run(capsys, "bounds", "--pmin", str(pmin), "--pmax", str(pmax))
        assert (code, out) == (2, "")
        assert f"no prime in [{pmin}, {pmax}]" in err

    @pytest.mark.parametrize(
        "cells", [1, 8 * 1202], ids=["inversive-groups-of-one", "inversive-groups-of-two"]
    )
    def test_pins_hold_for_any_grouping(self, capsys, monkeypatch, cells):
        # the 47 inversive blocks of 400..700 share 2 groups at the default
        # _CELLS; at _CELLS // 8 = 1202 the blocks p <= 601 go in pairs and
        # each larger one alone, and at _CELLS = 1 every block alone, one row
        # per row block (increasing blocks form no groups)
        command = "bounds --pmin 400 --pmax 700"
        [digest] = [d for c, _, d in PINNED if c == command]
        monkeypatch.setattr(discrepancy, "_CELLS", cells)
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSweepEntries:
    # bounds and scan --prime reach the grid sweep through its public names,
    # the ones bench/tracing.py wraps, once per command
    @pytest.mark.parametrize(
        "argv,entry,sizes",
        [
            ("bounds --pmax 50", "block_max_weighted", [15]),
            ("scan --prime 101", "weighted_prefix_maxima", [100]),
            ("scan --prime 101 --n 50", "weighted_prefix_maxima", [50]),
        ],
        ids=["bounds", "scan-prime", "scan-prime-n"],
    )
    def test_one_call_per_command(self, capsys, monkeypatch, argv, entry, sizes):
        # sizes: the specs or numerators each call is given
        calls, inner = [], getattr(cli, entry)

        def counted(seq, *args):
            calls.append(len(seq))
            return inner(seq, *args)

        monkeypatch.setattr(cli, entry, counted)
        code, _, _ = run(capsys, *argv.split())
        assert code == 0
        assert calls == sizes


class TestVerify:
    def test_small_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("m,N,p_m,disc_num,disc_den,disc_float,scaled,")
        assert len(lines) == 6
        assert lines[2].startswith("2,3,3,1,3,")

    def test_zero_lo_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--m", "0..5")
        assert code == 2
        assert "1 <= LO" in err

    def test_malformed_range(self, capsys):
        for bad in ("5", "5..", "a..b", "5..3"):
            code, _, _ = run(capsys, "verify", "--m", bad)
            assert code == 2

    def test_row_width(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1..5")
        assert code == 0
        lines = out.splitlines()
        width = len(lines[0].split(","))
        assert width == 12
        assert all(len(line.split(",")) == width for line in lines[1:])
        assert lines[1].endswith(",1,4,,,")  # m=1: scaled and growth cells empty, lower = 1/4
        parts = lines[2].split(",")
        assert parts[0] == "2" and parts[3] == "1" and parts[4] == "3"

    @pytest.mark.parametrize(
        "hi,refused",
        # the sweep's int64 limit falls between the first two; up to 3967527
        # a bound on p_HI alone lets HI through to the table
        [("447499", False), ("447500", True), ("3967527", True), ("100000000", True)],
    )
    def test_hopeless_hi_refused_before_the_table(self, capsys, monkeypatch, hi, refused):
        def no_table(m_count):
            raise ValueError("table built")

        monkeypatch.setattr(cli, "build_prime_table", no_table)
        code, out, err = run(capsys, "verify", "--m", f"1..{hi}")
        assert (code, out) == (1, "")
        if refused:
            assert f"HI={hi}" in err and "2^63" in err
        else:
            assert err == "error: table built\n"

    def test_block_limit_is_the_sweeps_int64_limit(self, monkeypatch):
        # P(m) p_m < 2^63, the sweep's check, holds at the limit and fails one
        # block past it, where p_m is still below the denominator limit
        primes = sieve_primes(6_600_000)
        m = discrepancy._SWEEP_MAX_M
        n = (primes[: m + 1] - 1).cumsum()  # P(1), ..., P(m + 1)
        assert int(n[m - 1]) * int(primes[m - 1]) < 1 << 63 <= int(n[m]) * int(primes[m])
        assert primes[m] < discrepancy._FLOAT_SAFE_DEN

        def no_work(*args):
            raise AssertionError("a chunk was made")

        monkeypatch.setattr(discrepancy, "_rebuild", no_work)
        with pytest.raises(OverflowError, match=r"2\^63"):
            next(discrepancy._boundary_discrepancies(primes[: m + 1], m + 1, m + 1))


class TestAsym:
    def test_single_x(self, capsys):
        code, out, _ = run(capsys, "asym", "--x", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == pytest.approx(0.5671432904097838, rel=1e-14)
        assert payload["residual"] <= 1e-12

    @pytest.mark.parametrize("x", ["3e307", "1e308", "1.7976931348623157e308"])
    def test_top_of_float_range(self, capsys, x):
        # W e^W overflows a float here; neither W nor its residual may
        code, out, _ = run(capsys, "asym", "--x", x)
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == pytest.approx(703.0, abs=2.0)
        assert payload["residual"] <= 1e-12 * float(x)

    def test_grid_to_the_top_of_the_float_range(self, capsys):
        # (HI - LO) * i overflows for the last point unless it is regrouped
        code, out, _ = run(capsys, "asym", "--grid", "1e307", "1e308", "3")
        assert code == 0
        assert out.splitlines()[-1].startswith("1e+308,702.64136203410")
        assert "inf" not in out and "nan" not in out

    def test_domain_violation_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "asym", "--x", "-5.0")
        assert code == 2

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "asym", "--grid", "0.5", "10", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,w,residual"
        assert len(lines) == 6

    def test_m_range_table(self, capsys):
        code, out, _ = run(capsys, "asym", "--m-range", "2..6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,p_m,P_m,pnt_ratio,sum_ratio,m_est"
        assert len(lines) == 6
        assert lines[1].startswith("2,3,3,")

    def test_m_range_past_the_table_limit(self, capsys, monkeypatch):
        # P(HI) would pass 2^63: refused from HI alone, before the sieve
        def no_sieve(*args):
            raise AssertionError("sieve started")

        monkeypatch.setattr("primedisc.primes.sieve_primes", no_sieve)
        hi = _TABLE_MAX_M + 1
        code, out, err = run(capsys, "asym", "--m-range", f"2..{hi}")
        assert (code, out) == (1, "")
        assert err == (
            "error: 911962441 blocks exceed the 64-bit budget: "
            "P(m) < 2^63 only up to m = 911962440\n"
        )

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_x_is_usage_error(self, capsys, x):
        # never exit 0 with {"w": NaN, ...}, which is not JSON
        code, out, err = run(capsys, "asym", f"--x={x}")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize(
        "grid,message",
        [
            (("0", "1", "2.5"), "integral COUNT"),  # not a silent 2-point table
            (("0", "1", "inf"), "integral COUNT"),
            (("0", "1", "nan"), "integral COUNT"),
            (("0", "inf", "5"), "not finite"),
            (("0", "1e400", "5"), "not finite"),
            (("nan", "1", "5"), "not finite"),
            (("inf", "inf", "5"), "LO < HI"),
        ],
    )
    def test_grid_needs_finite_ends_and_integral_count(self, capsys, grid, message):
        code, out, err = run(capsys, "asym", "--grid", *grid)
        assert code == 2
        assert out == ""
        assert message in err

    def test_integral_float_count_accepted(self, capsys):
        code, out, _ = run(capsys, "asym", "--grid", "0.5", "10", "5.0")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_modes_exclusive(self, capsys):
        code, _, _ = run(capsys, "asym", "--x", "1.0", "--grid", "1", "2", "3")
        assert code == 2


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_threads_validated(self, capsys):
        # --threads was a no-op and is gone; argparse rejects it as unknown
        assert run(capsys, "gen", "--family", "eta", "--n", "2", "--threads", "0")[0] == 2
        assert run(capsys, "gen", "--family", "eta", "--n", "2", "--threads", "4")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "exc,cause",
        [
            (MemoryError, "error: MemoryError"),
            (MemoryError("Unable to allocate 8.00 GiB"), "error: Unable to allocate"),
            (KeyboardInterrupt, "error: KeyboardInterrupt"),
        ],
    )
    def test_no_traceback_on_memory_error_or_interrupt(self, capsys, monkeypatch, exc, cause):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_gen", handler)
        code, out, err = run(capsys, "gen", "--family", "eta", "--n", "2")
        assert code == 1
        assert out == ""
        assert cause in err
        assert "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--m", "1..8"],
            ["bounds", "--pmax", "100"],
            ["gen", "--family", "eta", "--n", "200"],
            ["asym", "--grid", "-0.3", "100", "40"],
        ],
    )
    def test_byte_identical_runs(self, argv):
        cmd = [sys.executable, "-m", "primedisc.cli", *argv]
        # the subprocess does not inherit pytest's pythonpath setting
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty


# sha256 of stdout and the exit code of each command, recorded before the
# input-contract refactor; gen and asym have no other byte-level guard
PINNED = [
    ("gen --family eta --n 500", 0, "0dbcd341d1c9e54a7d40414251db21309348635fd35bff771ca85bffd7dfb579"),
    ("gen --family eta --n 500 --header", 0, "934d6fd68cc2485095825274767d12a08c6182b45cd6f79406f7570b9ab9a3f1"),
    ("gen --family omega --n 500", 0, "95a6fdd9ed433486fefb5602cb97d27598a6b246debc9dc71e0a626b1b79a62f"),
    ("gen --family omega --n 500 --header", 0, "ac16c004d9c8d3393771001d2f90decf7e75b10c7a125f03ac943c537f26f75f"),
    ("gen --family prime-increasing --n 500", 0, "4ca93d0045a41abb7641be95b42c66cdb7115e805398212ed3aac65606289155"),
    ("gen --family prime-increasing --n 500 --header", 0, "82958f2b86fbdb85acf48fafa20493c4289ac83958c1b961589335f2786447a5"),
    ("disc --family eta --n 3000", 0, "c48bbda0fc5a51d8d246b461c7c959a20cfbd5fa3252679e844ea6237b748dcd"),
    ("disc --family omega --n 3000 --format csv", 0, "290532c86f2da3af5dce75bfd7ba6ce31efbfb57729c6cc6d23ff24cf8379cda"),
    ("disc --family prime-increasing --n 3000 --format json", 0, "237f95909b2ab9452475575fdb22fd33df85ce627de1e9df752c8c973212dbeb"),
    ("disc --family eta --n 1000000", 0, "5e74de0c7d145d12736c8fdbb7ef7a9b89b6b75c624321f276c0526ce403847e"),
    ("disc --family omega --n 2000000", 0, "da88c21a5fae52f51f0f28b1f3bb9f39933ca2d7a51f7967778020dea1e0e807"),
    ("disc --family prime-increasing --n 2000000", 0, "a66e470e3b8812382b901ad5c143101ba16f5439514c37d70be3ec54759d814b"),
    # cut blocks of prefixes 10x longer, recorded on the sorted lower-half store
    ("disc --family eta --n 20000003", 0, "13ae9c4e8c5353b3a80916203764d0dfe220e42c69cae7bbc87965ebbbbfc823"),
    ("disc --family omega --n 20000003 --format csv", 0, "d4beadb63fe2903154df30660bd84cf4932cfd02e38b7c03bf6df3c492838504"),
    ("disc --family prime-increasing --n 20000003 --format json", 0, "2e61fe4e202a4f8d05dceee286c6f07b6c3ad942e196a6d30314865e99ef5bf9"),
    ("scan --prime 101", 0, "b9ec8c6b6bd2844a4343388aaf068b95d7052b9ab38cce3554e0b20d2833a0e9"),
    ("scan --prime 101 --ordering increasing", 0, "6086815031741b6fd7013f2222630028925ac71a84dc38dc1e3fbc23a4bf63ab"),
    ("scan --prime 1009", 0, "443e55e85d0e17de3b675c0abaa16c53e93ddbb213642f5980189dd2436a5319"),
    ("scan --prime 211 --n 50", 0, "560c21fa402969249f1009a7ab47a567c2d0ae94166b522306f2e386e5f6c3fd"),
    # a whole block given as a prefix of its own length takes the mirrored
    # rows like scan --prime 1009, one numerator less takes every row
    ("scan --prime 1009 --n 1008", 0, "443e55e85d0e17de3b675c0abaa16c53e93ddbb213642f5980189dd2436a5319"),
    ("scan --prime 1009 --n 1007", 0, "aeb0d9abbb707c70841c7f64283988f9e6456f1e11bb7b60fb53357d9a89fa28"),
    ("scan --family omega --n 120", 0, "ee2f1ed3d6f6ab43a0d750a026c98b8df39556ca886373a4500c3f09f8ea17f1"),
    ("scan --family eta --n 120", 0, "b05c7aefb98ff8e2e9b4cd644e929ae8ae878ca39a7e078161d3bf579238bfac"),
    # the every-prefix benchmark's scan, and a prefix of mixed prime blocks,
    # both recorded before the rank sweep replaced the per-prefix sort
    ("scan --family omega --n 2000", 0, "125c7a7bbd14f7d825ed7f67a16fca2e6f81a11458728b8fcc3e8a5119fa83e8"),
    ("scan --family prime-increasing --n 400", 0, "9bd625abe4af3a312f041707dbe8376b7595b2686ae36ebdb05e2aca74319c13"),
    ("bounds --pmax 150", 0, "5aeb132e6108b3a038b627f6ba66ecb2a5f735cf9c5fa3c4c524ec4c81435358"),
    ("bounds --pmax 150 --ordering increasing", 0, "a7bf67a86f3d2a97889a90cf4729d64e2ea8d430f7d6129c8d9811368a56fd58"),
    ("bounds --pmin 50 --pmax 150", 0, "54c8d7a938f54f31dbf2906c673aa16dd174d25a0b34266cd8136ba2c160dd0d"),
    # 47 blocks in two sweep groups at the default _CELLS
    ("bounds --pmin 400 --pmax 700", 0, "698899d7fa16447011332e0f247583ed61b02f9d2a2d8f4e2fc53d1db57a75ba"),
    ("bounds --pmin 400 --pmax 700 --ordering increasing", 0, "711cb28b9a93884503419eb4116a2af27bea2bed0ce0008456f33345be0b31a1"),
    ("verify --m 1..40", 0, "1715816bcd421d01e3436f98fecb4bc2cc27ad6cad1619e5c6004371b5dd1d88"),
    ("verify --m 1..300", 0, "97a926f10e91fe0bcecc7e2c0412acef769403f3a5877a5424695ebffd201166"),
    ("verify --m 250..400", 0, "0b77fb562988795416ccd3e3039229ba7ac059a5d3d93951fea87c0a843014ca"),
    # the boundary-sweep benchmark's command, recorded before the half-interval store
    ("verify --m 1..600", 0, "fd961823d51224e4e4376643b8453b9d158b33934962b649f4fa322f3bf5e8ff"),
    ("asym --x 2.5", 0, "0a39112e72731030e62c76ab8398fc4d24cf156b64a299d7668c3d0f97dcae09"),
    ("asym --x -0.3", 0, "fb192a0906a721803c62252c56fc3cefbf241320959831c241f2cb8f23a5b44e"),
    ("asym --grid -0.3 100 40", 0, "c7edad951f8ee6b804fb8f439c2181ee673385b63963760c2db753c3458c6fc1"),
    ("asym --m-range 2..60", 0, "82e742a7eb7b428b92cdf10e87ca7e04a088b22cb2046ce54f7f8717d4ead9aa"),
]


# pins of the slow checks: boundary rows past m = 600, where a rebuild
# holds a few percent of the half's chunks; 4990..5000 was recorded on the
# stored half (456 MB), before the chunk certificates
SLOW_PINNED = [
    ("verify --m 1990..2000", 0, "79400c89f8f0481483cd53bf04ab55624763f941433fd3fda074ca3ac44fb543"),
    ("verify --m 4990..5000", 0, "25899772d11dbb9525db69ef5ebb2d8694606af65ddef85864ff542a407e3914"),
]


@pytest.mark.parametrize(
    "command,code,digest",
    PINNED + [pytest.param(*pin, marks=pytest.mark.slow) for pin in SLOW_PINNED],
)
def test_pinned_output(capsys, command, code, digest):
    got_code, out, _ = run(capsys, *command.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
