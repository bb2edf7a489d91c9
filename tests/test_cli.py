from __future__ import annotations

import json
import subprocess
import sys

import pytest

from primedisc.cli import main
from primedisc.discrepancy import star_discrepancy_oracle

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

    def test_input_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "omega.txt"
        code, _, _ = run(capsys, "gen", "--family", "omega", "--n", "9", "--out", str(dump))
        assert code == 0
        code, via_file, _ = run(capsys, "disc", "--input", str(dump))
        assert code == 0
        code, via_family, _ = run(capsys, "disc", "--family", "omega", "--n", "9")
        assert code == 0
        assert json.loads(via_file) == json.loads(via_family)

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

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "disc", "--input", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_family_requires_n(self, capsys):
        code, _, err = run(capsys, "disc", "--family", "eta")
        assert code == 2
        assert "requires --n" in err

    def test_input_and_family_conflict(self, capsys):
        code, _, _ = run(capsys, "disc", "--input", "x", "--family", "eta")
        assert code == 2


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

    def test_prefix_of_block(self, capsys):
        code, out, _ = run(capsys, "scan", "--prime", "7", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_n_beyond_block_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--prime", "5", "--n", "9")
        assert code == 2


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


class TestAsym:
    def test_single_x(self, capsys):
        code, out, _ = run(capsys, "asym", "--x", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == pytest.approx(0.5671432904097838, rel=1e-14)
        assert payload["residual"] <= 1e-12

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
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty
