from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primedisc.errors import TableTooSmallError
from primedisc.sequences import (
    BlockSpec,
    Frac,
    Ordering,
    SequenceFamily,
    block_numerators,
    dump_lines,
    element_at,
    generate_block,
    generate_prefix,
    iter_family,
    locate,
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
        assert f.reduced() == (1, 2)
        assert str(f) == "2/4"
        assert repr(f) == "Frac(2, 4)"
        assert f.value == 0.5

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
    def test_size(self):
        assert BlockSpec(7, Ordering.INVERSIVE).size == 6

    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_rejects_nonprime(self, p):
        with pytest.raises(ValueError):
            BlockSpec(p, Ordering.INVERSIVE)


class TestGenerateBlock:
    def test_inversive_block_five(self):
        block = generate_block(BlockSpec(5, Ordering.INVERSIVE))
        assert [str(f) for f in block] == ["1/5", "3/5", "2/5", "4/5"]

    def test_inversive_block_seven(self):
        block = generate_block(BlockSpec(7, Ordering.INVERSIVE))
        assert [f.num for f in block] == [1, 4, 5, 2, 3, 6]

    def test_increasing_block(self):
        block = generate_block(BlockSpec(5, Ordering.INCREASING))
        assert [str(f) for f in block] == ["1/5", "2/5", "3/5", "4/5"]

    def test_two_element_block(self):
        assert [str(f) for f in generate_block(BlockSpec(2, Ordering.INVERSIVE))] == ["1/2"]

    @pytest.mark.parametrize("p", [3, 5, 13, 97])
    def test_inversive_is_permutation_of_increasing(self, p):
        inv = generate_block(BlockSpec(p, Ordering.INVERSIVE))
        assert sorted(f.num for f in inv) == list(range(1, p))

    def test_block_numerators_rejects_bad_input(self):
        with pytest.raises(ValueError):
            block_numerators(1, Ordering.INCREASING)
        with pytest.raises(ValueError):
            block_numerators(9, Ordering.INVERSIVE)

    def test_block_numerators_composite_increasing_ok(self):
        assert block_numerators(6, Ordering.INCREASING).tolist() == [1, 2, 3, 4, 5]


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
        for call in (
            lambda: prefix_arrays(family, 3),
            lambda: locate(family, 3),
            lambda: element_at(family, 3),
            lambda: next(iter_family(family)),
        ):
            with pytest.raises(ValueError, match="requires a prime table"):
                call()

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


class TestIterFamily:
    def test_streaming_matches_prefix(self, table10):
        streamed = list(islice(iter_family(ETA, table10), 13))
        assert streamed == generate_prefix(ETA, 13, table10)

    def test_omega_streams_without_table(self):
        assert len(list(islice(iter_family(OMEGA), 25))) == 25

    def test_exhaustion_raises(self, table10):
        it = iter_family(ETA, table10)
        for _ in range(table10.coverage):
            next(it)
        with pytest.raises(TableTooSmallError):
            next(it)


class TestLocate:
    def test_eta_examples(self, table10):
        assert locate(ETA, 4, table10) == (3, 1)
        assert locate(ETA, 1, table10) == (1, 1)
        assert locate(ETA, 2, table10) == (2, 1)
        assert locate(ETA, 7, table10) == (3, 4)
        assert locate(ETA, 23, table10) == (5, 10)

    def test_omega_examples(self):
        assert locate(OMEGA, 1) == (1, 1)
        assert locate(OMEGA, 6) == (3, 3)
        assert locate(OMEGA, 7) == (4, 1)
        assert locate(OMEGA, 10) == (4, 4)

    def test_rejects_nonpositive(self, table10):
        with pytest.raises(ValueError):
            locate(ETA, 0, table10)
        with pytest.raises(ValueError):
            locate(OMEGA, 0)

    def test_table_too_small(self, table10):
        with pytest.raises(TableTooSmallError):
            locate(ETA, 120, table10)

    def test_boundary_covered(self, table10):
        assert locate(ETA, 119, table10) == (10, 28)

    @staticmethod
    def _assert_omega_block(n):
        # block t ends at T(t) = t(t+1)/2, so T(t-1) < n <= T(t)
        t, offset = locate(OMEGA, n)
        assert (t - 1) * t // 2 < n <= t * (t + 1) // 2
        assert offset == n - (t - 1) * t // 2

    def test_omega_closed_form_small(self):
        for n in range(1, 100_001):
            self._assert_omega_block(n)

    def test_omega_closed_form_near_1e18(self):
        k = isqrt(2 * 10**18)
        ends = [j * (j + 1) // 2 for j in (k - 1, k, k + 1)]
        for n in [10**18 - 1, 10**18, 10**18 + 1] + [e + d for e in ends for d in (-1, 0, 1)]:
            self._assert_omega_block(n)

    @pytest.mark.parametrize("family", [ETA, OMEGA, PRIME_INC])
    def test_element_at_matches_prefix(self, family, table10):
        table = None if family is OMEGA else table10
        pre = generate_prefix(family, 60, table)
        for n in range(1, 61):
            got = element_at(family, n, table)
            assert (got.num, got.den) == (pre[n - 1].num, pre[n - 1].den)


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
