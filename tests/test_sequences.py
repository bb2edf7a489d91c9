from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import primedisc.sequences as sequences
from primedisc.errors import TableTooSmallError
from primedisc.primes import is_prime, sieve_primes
from primedisc.sequences import (
    BlockSpec,
    Frac,
    Ordering,
    SequenceFamily,
    block_numerators,
    dump_lines,
    generate_prefix,
    parse_dump,
    prefix_arrays,
)

ETA = SequenceFamily.ETA
OMEGA = SequenceFamily.OMEGA
PRIME_INC = SequenceFamily.PRIME_INCREASING


class TestFrac:
    def test_value_equality_ignores_representation(self):
        assert Frac(2, 4) == Frac(1, 2)
        assert hash(Frac(2, 4)) == hash(Frac(1, 2))
        assert Frac(1, 3) != Frac(1, 2)

    def test_ordering(self):
        assert Frac(1, 3) < Frac(2, 5)
        assert Frac(2, 5) > Frac(1, 3)
        assert Frac(2, 4) <= Frac(1, 2)
        assert Frac(2, 4) >= Frac(1, 2)

    def test_keeps_unreduced_fields(self):
        f = Frac(2, 4)
        assert (f.num, f.den) == (2, 4)
        assert str(f) == "2/4"
        assert repr(f) == "Frac(2, 4)"

    @pytest.mark.parametrize("num,den", [(0, 5), (5, 5), (6, 5), (1, 1), (1, 0), (-1, 3)])
    def test_rejects_outside_open_unit_interval(self, num, den):
        with pytest.raises(ValueError):
            Frac(num, den)

    @pytest.mark.parametrize(
        "num,den", [(1.9, 3), (2.0, 5), (2, 5.0), ("2", 5), (2, "5"), (np.float64(2), 5)]
    )
    def test_rejects_non_integers(self, num, den):
        # refused, not truncated: Frac(1.9, 3) must not become 1/3
        with pytest.raises(ValueError, match="not a fraction of integers"):
            Frac(num, den)

    def test_accepts_numpy_integers(self):
        f = Frac(np.int64(2), np.int32(5))
        assert (f.num, f.den) == (2, 5)
        assert type(f.num) is int and type(f.den) is int

    def test_immutable(self):
        f = Frac(1, 2)
        with pytest.raises(AttributeError):
            f.num = 3

    @given(
        a=st.integers(1, 50), b=st.integers(2, 51),
        c=st.integers(1, 50), d=st.integers(2, 51),
    )
    def test_comparisons_match_fraction(self, a, b, c, d):
        if a >= b or c >= d:
            return
        x, y = Frac(a, b), Frac(c, d)
        fx, fy = Fraction(a, b), Fraction(c, d)
        assert (x == y) == (fx == fy)
        assert (x < y) == (fx < fy)
        assert (x <= y) == (fx <= fy)


class TestBlockSpec:
    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_rejects_nonprime(self, p):
        with pytest.raises(ValueError):
            BlockSpec(p, Ordering.INVERSIVE)


class TestBlockNumerators:
    def test_inversive_block_five(self):
        assert block_numerators(5, Ordering.INVERSIVE).tolist() == [1, 3, 2, 4]

    def test_inversive_block_seven(self):
        assert block_numerators(7, Ordering.INVERSIVE).tolist() == [1, 4, 5, 2, 3, 6]

    def test_increasing_block(self):
        assert block_numerators(5, Ordering.INCREASING).tolist() == [1, 2, 3, 4]

    def test_two_element_block(self):
        assert block_numerators(2, Ordering.INVERSIVE).tolist() == [1]

    @pytest.mark.parametrize("p", [3, 5, 13, 97])
    def test_inversive_is_permutation_of_increasing(self, p):
        inv = block_numerators(p, Ordering.INVERSIVE)
        assert sorted(inv.tolist()) == list(range(1, p))

    def test_block_numerators_rejects_bad_input(self):
        with pytest.raises(ValueError):
            block_numerators(1, Ordering.INCREASING)
        with pytest.raises(ValueError):
            block_numerators(9, Ordering.INVERSIVE)

    def test_block_numerators_composite_increasing_ok(self):
        assert block_numerators(6, Ordering.INCREASING).tolist() == [1, 2, 3, 4, 5]


def fermat_inverses(p: int) -> np.ndarray:
    # independent vectorised oracle: j^(p-2) mod p by square and multiply
    base = np.arange(1, p, dtype=np.int64)
    out = np.ones_like(base)
    e = p - 2
    while e > 0:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


class TestInversiveGenerator:
    # block_numerators builds inverses from a primitive root's power table;
    # these check it against inverses computed without one
    def test_every_prime_below_20000_against_fermat(self):
        primes = [int(p) for p in sieve_primes(20000)]
        assert primes[:2] == [2, 3]
        for p in primes:
            got = block_numerators(p, Ordering.INVERSIVE)
            assert got.dtype == np.int64
            assert np.array_equal(got, fermat_inverses(p)), p

    def test_primes_below_2000_against_pow(self):
        for p in (int(p) for p in sieve_primes(2000)):
            want = [pow(j, -1, p) for j in range(1, p)]
            assert block_numerators(p, Ordering.INVERSIVE).tolist() == want, p

    @pytest.mark.parametrize("p", [1048573, 1048583, 1048609])
    def test_primes_near_2_to_20(self, p):
        assert is_prime(p)
        got = block_numerators(p, Ordering.INVERSIVE)
        assert np.array_equal(got, fermat_inverses(p))
        j = np.random.default_rng(p).integers(1, p, size=2000)
        assert got[j - 1].tolist() == [pow(int(x), -1, p) for x in j]

    def test_refuses_q_squared_beyond_int64_before_any_work(self, monkeypatch):
        q = 3037000507  # the first prime with q^2 >= 2^63
        assert is_prime(q) and q * q >= 1 << 63 > (q - 8) ** 2

        def no_work(q):
            raise AssertionError("generation started")

        monkeypatch.setattr(sequences, "_primitive_root", no_work)
        monkeypatch.setattr(sequences, "is_prime", no_work)
        for p in (q, np.int64(q)):
            with pytest.raises(ValueError, match="2\\^63"):
                block_numerators(p, Ordering.INVERSIVE)


class TestGeneratePrefix:
    def test_eta_first_seven(self, table10):
        got = [str(f) for f in generate_prefix(ETA, 7, table10)]
        assert got == ["1/2", "1/3", "2/3", "1/5", "3/5", "2/5", "4/5"]

    def test_omega_first_nine(self):
        got = [str(f) for f in generate_prefix(OMEGA, 9)]
        assert got == ["1/2", "1/3", "2/3", "1/4", "2/4", "3/4", "1/5", "2/5", "3/5"]

    def test_prime_increasing_first_seven(self, table10):
        got = [str(f) for f in generate_prefix(PRIME_INC, 7, table10)]
        assert got == ["1/2", "1/3", "2/3", "1/5", "2/5", "3/5", "4/5"]

    def test_omega_keeps_duplicates(self):
        pre = generate_prefix(OMEGA, 9)
        assert sum(1 for f in pre if f == Frac(1, 2)) == 2

    def test_partial_block_cut(self, table10):
        pre = generate_prefix(ETA, 5, table10)
        assert [str(f) for f in pre[-2:]] == ["1/5", "3/5"]

    def test_rejects_nonpositive_n(self, table10):
        with pytest.raises(ValueError):
            generate_prefix(ETA, 0, table10)

    def test_requires_table_for_prime_families(self):
        with pytest.raises(ValueError):
            generate_prefix(ETA, 3)

    @pytest.mark.parametrize("family", [ETA, PRIME_INC])
    def test_every_entry_point_requires_a_table(self, family):
        with pytest.raises(ValueError, match="requires a prime table"):
            prefix_arrays(family, 3)

    def test_table_too_small(self, table10):
        with pytest.raises(TableTooSmallError):
            generate_prefix(ETA, table10.coverage + 1, table10)

    def test_exact_coverage_ok(self, table10):
        pre = generate_prefix(ETA, table10.coverage, table10)
        assert len(pre) == table10.coverage


class TestPrefixArrays:
    @pytest.mark.parametrize("family", [ETA, OMEGA, PRIME_INC])
    @pytest.mark.parametrize("n", [1, 2, 7, 23, 60])
    def test_matches_generate_prefix(self, family, n, table10):
        table = None if family is OMEGA else table10
        num, den = prefix_arrays(family, n, table)
        fracs = generate_prefix(family, n, table)
        assert num.tolist() == [f.num for f in fracs]
        assert den.tolist() == [f.den for f in fracs]

    def test_table_too_small(self, table10):
        with pytest.raises(TableTooSmallError):
            prefix_arrays(ETA, 10**6, table10)

    def test_table_checked_before_allocating(self, table10):
        # the arrays are allocated whole: a 16 PB request must still fail on the table
        with pytest.raises(TableTooSmallError):
            prefix_arrays(ETA, 10**15, table10)


class TestDumpParse:
    def test_round_trip(self, table10):
        pre = generate_prefix(ETA, 13, table10)
        lines = list(dump_lines(pre))
        back = parse_dump(lines)
        assert [(f.num, f.den) for f in back] == [(f.num, f.den) for f in pre]

    def test_pairs_render_like_fracs(self, table10):
        pre = generate_prefix(ETA, 13, table10)
        pairs = [(f.num, f.den) for f in pre]
        assert list(dump_lines(pairs, ETA, 13, header=True)) == list(
            dump_lines(pre, ETA, 13, header=True)
        )

    def test_header_line(self):
        lines = list(dump_lines([Frac(1, 2)], family=OMEGA, n=1, header=True))
        assert lines == ["# family=omega N=1", "1/2"]

    def test_round_trip_preserves_duplicates(self):
        pre = generate_prefix(OMEGA, 9)
        back = parse_dump(dump_lines(pre, family=OMEGA, n=9, header=True))
        assert [str(f) for f in back] == [str(f) for f in pre]

    def test_skips_blanks_and_comments(self):
        got = parse_dump(["# hi", "", "  1/2  ", "# bye"])
        assert [str(f) for f in got] == ["1/2"]

    @pytest.mark.parametrize(
        "bad", ["3/0", "abc", "1/2/3", "5/4", "0/4", "1:2", "/3", "1/"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="line 1"):
            parse_dump([bad])

    def test_error_counts_raw_lines(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_dump(["# c", "", "1/2", "9/8"])
