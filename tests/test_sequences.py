from __future__ import annotations

import numpy as np
import pytest

import primedisc.sequences as sequences
from primedisc.discrepancy import prefix_discrepancy
from primedisc.errors import TableTooSmallError
from primedisc.primes import is_prime, sieve_primes, table_covering
from primedisc.sequences import (
    BlockSpec,
    Ordering,
    SequenceFamily,
    block_numerators,
    generate_prefix,
    prefix_arrays,
)

ETA = SequenceFamily.ETA
OMEGA = SequenceFamily.OMEGA
PRIME_INC = SequenceFamily.PRIME_INCREASING


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

    def test_involution_and_antisymmetry(self):
        # the two symmetries the bounds kernel folds each block's grid by:
        # j -> j^-1 is its own inverse, and (p - j)^-1 = p - j^-1
        for p in sieve_primes(5000).tolist():
            nums = block_numerators(p, Ordering.INVERSIVE)
            assert np.array_equal(nums[nums - 1], np.arange(1, p)), p
            assert np.array_equal(nums[::-1], p - nums), p

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
        got = [f"{a}/{b}" for a, b in generate_prefix(ETA, 7, table10)]
        assert got == ["1/2", "1/3", "2/3", "1/5", "3/5", "2/5", "4/5"]

    def test_omega_first_nine(self):
        got = [f"{a}/{b}" for a, b in generate_prefix(OMEGA, 9)]
        assert got == ["1/2", "1/3", "2/3", "1/4", "2/4", "3/4", "1/5", "2/5", "3/5"]

    def test_prime_increasing_first_seven(self, table10):
        got = [f"{a}/{b}" for a, b in generate_prefix(PRIME_INC, 7, table10)]
        assert got == ["1/2", "1/3", "2/3", "1/5", "2/5", "3/5", "4/5"]

    def test_omega_keeps_duplicates(self):
        pre = generate_prefix(OMEGA, 9)
        assert [(a, b) for a, b in pre if 2 * a == b] == [(1, 2), (2, 4)]

    def test_partial_block_cut(self, table10):
        pre = generate_prefix(ETA, 5, table10)
        assert pre[-2:] == [(1, 5), (3, 5)]

    def test_rejects_nonpositive_n(self, table10):
        with pytest.raises(ValueError):
            generate_prefix(ETA, 0, table10)

    @pytest.mark.parametrize("family", [ETA, PRIME_INC])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_every_entry_point_builds_a_covering_table(self, family, n):
        # a prime family passed no table gets table_covering(n)
        table = table_covering(n)
        num, den = prefix_arrays(family, n)
        want_num, want_den = prefix_arrays(family, n, table)
        assert np.array_equal(num, want_num) and np.array_equal(den, want_den)
        assert generate_prefix(family, n) == generate_prefix(family, n, table)
        assert prefix_discrepancy(family, n) == prefix_discrepancy(family, n, table)

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
        pairs = generate_prefix(family, n, table)
        assert pairs == list(zip(num.tolist(), den.tolist()))
        assert all(type(a) is int and type(b) is int for a, b in pairs)

    def test_table_too_small(self, table10):
        with pytest.raises(TableTooSmallError):
            prefix_arrays(ETA, 10**6, table10)

    def test_table_checked_before_allocating(self, table10):
        # the arrays are allocated whole: a 16 PB request must still fail on the table
        with pytest.raises(TableTooSmallError):
            prefix_arrays(ETA, 10**15, table10)



class TestPrefixPlan:
    @pytest.mark.parametrize("family", [ETA, OMEGA, PRIME_INC])
    def test_whole_blocks_then_one_cut(self, family, table10):
        # every n the table covers: the family's first denominators in order,
        # all whole but a last block of 1..q-2 points
        table = None if family is OMEGA else table10
        dens = list(range(2, 20)) if family is OMEGA else list(table10.primes)
        for n in range(1, table10.coverage + 1):
            _, whole, cut = sequences._prefix_plan(family, n, table)
            q, k = cut or (None, 0)
            assert [*whole, *([q] if cut else [])] == dens[: len(whole) + bool(cut)]
            assert sum(d - 1 for d in whole) + k == n
            assert cut is None or 1 <= k < q - 1
            blocks = [(nums.size, d) for nums, d in sequences._prefix_blocks(family, n, table)]
            assert blocks == [(d - 1, d) for d in whole] + ([(k, q)] if cut else [])

    @pytest.mark.parametrize("family", [ETA, OMEGA, PRIME_INC])
    def test_n_must_be_an_integer(self, family, table10):
        table = None if family is OMEGA else table10
        with pytest.raises(ValueError, match="not an integer"):
            prefix_arrays(family, 5.0, table)
        assert prefix_arrays(family, np.int64(5), table)[0].size == 5

    def test_omega_plan_is_closed_form(self):
        # no loop over the blocks: a 10^18-point plan is immediate
        _, whole, cut = sequences._prefix_plan(OMEGA, 10**18)
        m = len(whole)
        assert whole == range(2, m + 2) and cut[0] == m + 2
        assert m * (m + 1) // 2 + cut[1] == 10**18 and cut[1] < m + 1
