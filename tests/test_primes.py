from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primedisc.discrepancy import nw_bound
from primedisc.errors import CapacityError, TableTooSmallError
from primedisc.primes import (
    _nth_prime_limit,
    block_index_of,
    build_prime_table,
    is_prime,
    pnt_ratio,
    required_blocks_estimate,
    sieve_primes,
    sum_ratio,
    table_covering,
)
from primedisc.sequences import BlockSpec, Ordering, block_numerators


def trial_division_primes(count: int) -> list[int]:
    # independent oracle: no sieve, no shared code path
    found: list[int] = []
    n = 2
    while len(found) < count:
        if all(n % f for f in range(2, int(math.isqrt(n)) + 1)):
            found.append(n)
        n += 1
    return found


class TestSieve:
    def test_first_25_match_trial_division(self):
        expect = trial_division_primes(25)
        got = sieve_primes(expect[-1]).tolist()
        assert got == expect

    def test_empty_below_two(self):
        assert sieve_primes(1).size == 0
        assert sieve_primes(0).size == 0

    def test_is_prime_agrees_with_sieve(self):
        flags = set(sieve_primes(500).tolist())
        for n in range(502):
            assert is_prime(n) == (n in flags)


class TestBuildTable:
    def test_first_ten(self, table10):
        assert table10.primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert table10.cumulative == (0, 1, 3, 7, 13, 23, 35, 51, 69, 91, 119)

    def test_hundredth_prime(self, table100):
        assert table100.primes[99] == 541
        assert table100.cumulative[100] == 24033

    def test_against_trial_division(self):
        table = build_prime_table(60)
        assert list(table.primes) == trial_division_primes(60)

    def test_cumulative_is_running_sum(self, table100):
        total = 0
        for m, p in enumerate(table100.primes, start=1):
            total += p - 1
            assert table100.cumulative[m] == total

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            build_prime_table(0)

    def test_single_block(self):
        table = build_prime_table(1)
        assert table.primes == (2,)
        assert table.coverage == 1

    def test_sieve_limit_holds_the_nth_prime(self):
        # one sieve suffices: _nth_prime_limit(m) >= p_m for every m (Rosser's
        # bound from m = 6, the constant 13 below), here for m <= 200000
        m = np.arange(1, 200_001)
        limits = np.array([_nth_prime_limit(int(k)) for k in m])
        primes = sieve_primes(int(limits.max()))
        assert (np.searchsorted(primes, limits, side="right") >= m).all()

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr("primedisc.primes.INT64_MAX", 100)
        with pytest.raises(CapacityError):
            build_prime_table(20)


class TestCumulativeP:
    def test_examples(self, table10):
        assert table10.cumulative[0] == 0
        assert table10.cumulative[1] == 1
        assert table10.cumulative[4] == 13
        assert table10.cumulative[10] == 119


class TestBlockIndexOf:
    def test_examples(self, table10):
        assert block_index_of(table10, 7) == 3
        assert block_index_of(table10, 1) == 1
        assert block_index_of(table10, 2) == 1
        assert block_index_of(table10, 3) == 2
        assert block_index_of(table10, 118) == 9

    def test_bracket_invariant_exhaustive(self, table100):
        for n in range(1, table100.coverage):
            m = block_index_of(table100, n)
            assert table100.cumulative[m] <= n < table100.cumulative[m + 1]

    def test_rejects_uncovered(self, table10):
        with pytest.raises(TableTooSmallError):
            block_index_of(table10, table10.coverage)
        with pytest.raises(ValueError):
            block_index_of(table10, 0)

    def test_error_names_estimate(self, table10):
        with pytest.raises(TableTooSmallError) as exc:
            block_index_of(table10, 10**6)
        assert f"about {required_blocks_estimate(10**6)} blocks" in str(exc.value)

    @given(st.integers(min_value=1, max_value=24032))
    def test_bracket_property(self, n):
        table = build_prime_table(100)
        m = block_index_of(table, n)
        assert table.cumulative[m] <= n < table.cumulative[m + 1]


class TestTableCovering:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5])
    def test_covers(self, n):
        table = table_covering(n)
        assert table.coverage > n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            table_covering(0)


class TestRatios:
    def test_pnt_ratio_value(self, table100):
        assert pnt_ratio(table100, 100) == pytest.approx(
            541 / (100 * math.log(100)), rel=1e-15
        )

    def test_sum_ratio_value(self, table100):
        assert sum_ratio(table100, 100) == pytest.approx(
            24033 / (5000.0 * math.log(100)), rel=1e-15
        )

    def test_near_one_at_scale(self):
        # second-order corrections keep both ratios a little above 1 here;
        # only the band is asserted, not monotonicity
        table = build_prime_table(10**4)
        for k in (2, 3, 4):
            assert 1.0 < sum_ratio(table, 10**k) < 1.2
            assert 1.0 < pnt_ratio(table, 10**k) < 1.25

    def test_rejects_small_m(self, table10):
        for fn in (pnt_ratio, sum_ratio):
            with pytest.raises(ValueError):
                fn(table10, 1)
            with pytest.raises(TableTooSmallError):
                fn(table10, 11)


class TestNumpyCrossCheck:
    def test_cumulative_against_numpy(self):
        table = build_prime_table(2000)
        primes = np.array(table.primes, dtype=np.int64)
        csum = np.concatenate([[0], np.cumsum(primes - 1)])
        assert csum.tolist() == list(table.cumulative)


TABLE10 = build_prime_table(10)


@pytest.mark.parametrize(
    "call,value",
    [
        (lambda: is_prime(7.5), "7.5"),  # once read as prime
        (lambda: is_prime(2.5), "2.5"),
        (lambda: nw_bound(7.5, 2), "7.5"),  # once a budget of 35.98
        (lambda: nw_bound(7, 2.5), "2.5"),
        (lambda: BlockSpec(5.0, Ordering.INCREASING), "5.0"),  # once accepted
        (lambda: block_index_of(TABLE10, 5.5), "5.5"),  # once block 2
        (lambda: block_numerators(7.0, Ordering.INCREASING), "7.0"),
        (lambda: sieve_primes(10.5), "10.5"),
        (lambda: build_prime_table(4.0), "4.0"),
        (lambda: table_covering(9.5), "9.5"),
        (lambda: pnt_ratio(TABLE10, 2.5), "2.5"),
        (lambda: sum_ratio(TABLE10, "3"), "'3'"),
    ],
)
def test_non_integer_arguments_refused(call, value):
    # floats and strings are refused by operator.index, never truncated
    with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
        call()


def test_numpy_integers_accepted():
    assert is_prime(np.int64(7)) and not is_prime(np.int32(9))
    assert block_index_of(TABLE10, np.int64(5)) == block_index_of(TABLE10, 5)
    assert nw_bound(np.int64(7), np.int64(2)) == nw_bound(7, 2)
