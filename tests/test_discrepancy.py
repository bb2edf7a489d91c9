from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import primedisc.discrepancy as discrepancy
from primedisc.discrepancy import (
    DEFAULT_SWEEP_LIMIT,
    SCAN_CSV_HEADER,
    BlockAccumulator,
    DiscrepancyValue,
    block_max_weighted,
    nw_bound,
    prefix_scan,
    scan_csv_lines,
    star_discrepancy,
    star_discrepancy_arrays,
    star_discrepancy_oracle,
    triangle_bound,
    weighted_prefix_maxima,
    _boundary_discrepancies,
    _star_discrepancy_exact,
)
from primedisc.primes import build_prime_table
from primedisc.sequences import (
    BlockSpec,
    Frac,
    Ordering,
    SequenceFamily,
    block_numerators,
    generate_block,
    generate_prefix,
)

INV = Ordering.INVERSIVE
INC = Ordering.INCREASING


def count_at_or_below(points, witness: Fraction) -> int:
    return sum(1 for num, den in points if Fraction(num, den) <= witness)


def count_below(points, witness: Fraction) -> int:
    return sum(1 for num, den in points if Fraction(num, den) < witness)


def assert_witness_reproduces(points, dv: DiscrepancyValue) -> None:
    w = dv.witness
    count = (
        count_at_or_below(points, w) if dv.side == "at" else count_below(points, w)
    )
    assert abs(Fraction(count, len(points)) - w) == dv.exact


def scan_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        d = r.disc
        h.update(
            f"{r.k},{d.num},{d.den},{d.witness_num},{d.witness_den},{d.side},"
            f"{r.weighted_num},{r.weighted_den}\n".encode()
        )
    return h.hexdigest()


def random_multiset(rng, max_size=60, max_den=30):
    size = int(rng.integers(1, max_size + 1))
    dens = rng.integers(2, max_den + 1, size=size)
    nums = rng.integers(1, dens)
    return list(zip(nums.tolist(), dens.tolist()))


class TestOracleExamples:
    # the oracle is the reference; pin it to hand-computed values first
    @pytest.mark.parametrize(
        "points,expect",
        [
            ([(1, 2)], Fraction(1, 2)),
            ([(1, 3), (2, 3)], Fraction(1, 3)),
            ([(1, 4), (2, 4), (3, 4)], Fraction(1, 4)),
            ([(1, 2), (1, 2)], Fraction(1, 2)),
            ([(1, 5), (3, 5), (2, 5), (4, 5)], Fraction(1, 5)),
            ([(1, 10)], Fraction(9, 10)),
            ([(9, 10)], Fraction(9, 10)),
            ([(1, 6), (1, 2), (5, 6)], Fraction(1, 6)),
        ],
    )
    def test_hand_computed(self, points, expect):
        dv = star_discrepancy_oracle(points)
        assert dv.exact == expect

    def test_witness_reproduces(self):
        points = [(1, 5), (3, 5), (2, 5), (4, 5), (1, 5)]
        assert_witness_reproduces(points, star_discrepancy_oracle(points))


class TestStarDiscrepancy:
    def test_matches_oracle_on_examples(self, table10):
        for pts in (
            [(1, 2)],
            [(1, 3), (2, 3)],
            [(2, 4), (1, 2)],
            [(f.num, f.den) for f in generate_prefix(SequenceFamily.ETA, 7, table10)],
        ):
            assert star_discrepancy(pts).exact == star_discrepancy_oracle(pts).exact

    def test_eta_seven_value(self, table10):
        pre = generate_prefix(SequenceFamily.ETA, 7, table10)
        dv = star_discrepancy(pre)
        assert (dv.num, dv.den) == (1, 5)

    def test_accepts_frac_and_tuples(self):
        assert star_discrepancy([Frac(1, 3), (2, 3)]).exact == Fraction(1, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy([])

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy([(3, 2)])

    @pytest.mark.parametrize(
        "engine",
        [
            star_discrepancy,
            star_discrepancy_oracle,
            prefix_scan,
            lambda pts: triangle_bound([pts]),
        ],
    )
    def test_non_integer_pairs_rejected(self, engine):
        # (1.9, 3) must not be read as 1/3, which reports 3/5
        for pts in ([(1.9, 3), (2, 5)], [(2.0, 5), (1, 3)], [("1", 3)]):
            with pytest.raises(ValueError, match="not a fraction of integers"):
                engine(pts)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        pts = random_multiset(rng)
        base = star_discrepancy(pts)
        for _ in range(5):
            rng.shuffle(pts)
            again = star_discrepancy(pts)
            assert (again.num, again.den) == (base.num, base.den)
            assert again.witness == base.witness
            assert again.side == base.side

    def test_seeded_sweep_against_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            pts = random_multiset(rng)
            engine = star_discrepancy(pts)
            oracle = star_discrepancy_oracle(pts)
            assert (engine.num, engine.den) == (oracle.num, oracle.den)
            assert_witness_reproduces(pts, engine)
            assert_witness_reproduces(pts, oracle)

    def test_lower_and_upper_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            pts = random_multiset(rng)
            dv = star_discrepancy(pts)
            n = len(pts)
            assert dv.num * 2 * n >= dv.den  # D >= 1/(2N)
            assert dv.num <= dv.den  # D <= 1

    @given(st.lists(st.tuples(st.integers(1, 49), st.integers(2, 50)), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_oracle_equivalence_property(self, raw):
        pts = [(min(a, b - 1), b) for a, b in raw]
        engine = star_discrepancy(pts)
        oracle = star_discrepancy_oracle(pts)
        assert (engine.num, engine.den) == (oracle.num, oracle.den)

    def test_denominator_beyond_int64(self):
        big = 10**30
        pts = [(1, big), (2, 3), (big - 1, big), (1, 2), (12345, big)]
        dv = star_discrepancy(pts)
        want = star_discrepancy_oracle(pts)
        assert (dv.num, dv.den) == (want.num, want.den)
        assert_witness_reproduces(pts, dv)

    def test_exact_fallback_matches_oracle(self):
        # denominators beyond the float-safe cutoff take the Fraction path
        big = (1 << 26) + 15
        pts = [(1, big), (2, 3), (big - 1, big), (1, 2)]
        via_fallback = star_discrepancy(pts)
        assert via_fallback.exact == star_discrepancy_oracle(pts).exact

    def test_exact_path_equals_vectorized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = random_multiset(rng)
            vec = star_discrepancy(pts)
            exact = _star_discrepancy_exact(pts)
            assert (vec.num, vec.den) == (exact.num, exact.den)
            assert vec.witness == exact.witness
            assert vec.side == exact.side

    def test_approx_within_one_ulp(self):
        dv = star_discrepancy([(1, 3), (2, 3)])
        assert dv.approx == pytest.approx(1 / 3, rel=1e-15)


class TestStarDiscrepancyArrays:
    def test_matches_pointwise_api(self):
        rng = np.random.default_rng(11)
        pts = random_multiset(rng)
        num = np.array([a for a, _ in pts])
        den = np.array([b for _, b in pts])
        a = star_discrepancy_arrays(num, den)
        b = star_discrepancy(pts)
        assert (a.num, a.den, a.witness, a.side) == (b.num, b.den, b.witness, b.side)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_discrepancy_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            star_discrepancy_arrays(np.array([1]), np.array([2, 3]))
        with pytest.raises(ValueError):
            star_discrepancy_arrays(np.array([2]), np.array([2]))

    @pytest.mark.parametrize(
        "num,den",
        [
            ([1.9, 2.5], [3.2, 5.9]),
            (np.array([1.0, 2.0]), np.array([3, 5])),
            (np.array([1, 2]), np.array([3.0, 5.0])),
            (np.array([True]), np.array([3])),
            ([1, 2], [3, 10**30]),
        ],
    )
    def test_non_integer_dtype_rejected(self, num, den):
        with pytest.raises(ValueError, match="integer arrays"):
            star_discrepancy_arrays(num, den)

    def test_other_integer_dtypes_accepted(self):
        want = star_discrepancy_arrays(np.array([1, 2]), np.array([3, 5]))
        for dtype in (np.int32, np.uint16, np.uint64):
            got = star_discrepancy_arrays(
                np.array([1, 2], dtype=dtype), np.array([3, 5], dtype=dtype)
            )
            assert got == want

    def test_scalar_denominator_shared(self):
        got = star_discrepancy_arrays(np.array([3, 1, 1]), 5)
        assert got == star_discrepancy([(3, 5), (1, 5), (1, 5)])

    def test_wrapped_uint64_rejected(self):
        # 2^63 wraps to a negative int64 and must fail the range check
        with pytest.raises(ValueError, match="strictly inside"):
            star_discrepancy_arrays(np.array([1 << 63], dtype=np.uint64), np.array([3]))

    def test_big_denominator_fallback(self):
        big = (1 << 27) + 29
        dv = star_discrepancy_arrays(np.array([1, big - 1]), np.array([big, big]))
        assert dv.exact == star_discrepancy_oracle([(1, big), (big - 1, big)]).exact


class TestPrefixScan:
    def test_inversive_block_five(self):
        recs = prefix_scan(generate_block(BlockSpec(5, INV)))
        assert [r.weighted for r in recs] == [
            Fraction(4, 5), Fraction(4, 5), Fraction(6, 5), Fraction(4, 5)
        ]

    def test_increasing_block_five(self):
        recs = prefix_scan(generate_block(BlockSpec(5, INC)))
        assert [r.weighted for r in recs] == [
            Fraction(4, 5), Fraction(6, 5), Fraction(6, 5), Fraction(4, 5)
        ]

    def test_weighted_equals_k_times_disc(self):
        recs = prefix_scan(generate_block(BlockSpec(13, INV)))
        for r in recs:
            assert r.weighted == r.k * r.disc.exact

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
    @pytest.mark.parametrize("ordering", [INV, INC])
    def test_fast_path_matches_general_engine(self, p, ordering):
        block = generate_block(BlockSpec(p, ordering))
        pts = [(f.num, f.den) for f in block]
        recs = prefix_scan(block)
        for r in recs:
            direct = star_discrepancy(pts[: r.k])
            assert (r.disc.num, r.disc.den) == (direct.num, direct.den)
            assert_witness_reproduces(pts[: r.k], r.disc)

    def test_mixed_denominators_general_path(self):
        pre = generate_prefix(SequenceFamily.OMEGA, 12)
        recs = prefix_scan(pre)
        pts = [(f.num, f.den) for f in pre]
        for r in recs:
            direct = star_discrepancy(pts[: r.k])
            assert r.disc.exact == direct.exact
            assert r.weighted == r.k * r.disc.exact

    def test_mixed_denominators_beyond_int64(self):
        big = 10**30
        pts = [(2, 3), (1, big), (1, 2), (big - 1, big), (12345, big), (1, 3)]
        for r in prefix_scan(pts):
            want = star_discrepancy_oracle(pts[: r.k])
            assert (r.disc.num, r.disc.den) == (want.num, want.den)
            assert_witness_reproduces(pts[: r.k], r.disc)
            assert r.weighted == r.k * r.disc.exact

    def test_common_denominator_multisets_against_oracle(self):
        # repeated numerators exercise the sweep beyond permutation blocks
        rng = np.random.default_rng(2024)
        for _ in range(40):
            den = int(rng.integers(2, 40))
            nums = rng.integers(1, den, size=int(rng.integers(1, 50))).tolist()
            pts = [(a, den) for a in nums]
            for r in prefix_scan(pts):
                want = star_discrepancy_oracle(pts[: r.k])
                assert (r.disc.num, r.disc.den) == (want.num, want.den)
                assert_witness_reproduces(pts[: r.k], r.disc)

    # sha256 of every record (value, witness, side, weighted), pinned to the
    # output of the two separate sweeps that preceded the shared kernel
    @pytest.mark.parametrize(
        "p,ordering,digest",
        [
            (13, INV, "6128659d634d4aa257823c29608809bf7c16e2273746c5a628a618189aefa793"),
            (13, INC, "d971cea3cc3ebe75bf5548309930bad3b01a7b723c4bd267db05c44bd5e666aa"),
            (101, INV, "c260b99d2620656618d79affe45aa6f8a2386c0447a17616df52ae2636b41fcc"),
            (101, INC, "9f0b94bbc6ae6a3bb3591a2f9f14229181dc217ad86a8c79217b10d101f74d65"),
            (1009, INV, "02594330a28dabebeaee652ad1a4fe1f33a2c6f19d06ca1406ff5c889a2173e6"),
            (1009, INC, "0dcba61ac5f4b0ab16296b9786e1638f6576c115df977262244590daa8a23a5e"),
        ],
    )
    def test_block_records_pinned(self, p, ordering, digest):
        nums = [int(a) for a in block_numerators(p, ordering)]
        records = prefix_scan([(a, p) for a in nums])
        assert scan_digest(records) == digest
        assert weighted_prefix_maxima(nums, p).tolist() == [
            int(r.weighted * p) for r in records
        ]

    @pytest.mark.parametrize(
        "seed,den,size,digest",
        [
            (1, 3, 40, "a0fafffecd9787d7e4d716653d016a82bec4e307cf5d636fc9cdba1afa068e92"),
            (2, 100, 400, "48f0002db9657ee1574169bc5fd2836b3005f03b5e1909c5c5179a1fb03c044f"),
            (3, 1009, 3000, "f31c926ebbb1166736af23dd6b20b3b7772307a8deeb42df14a103a9656a7c65"),
        ],
    )
    def test_multiset_records_pinned(self, seed, den, size, digest):
        nums = np.random.default_rng(seed).integers(1, den, size=size).tolist()
        assert len(set(nums)) < size  # repeats present
        records = prefix_scan([(a, den) for a in nums])
        assert scan_digest(records) == digest
        assert weighted_prefix_maxima(nums, den).tolist() == [
            int(r.weighted * den) for r in records
        ]

    def test_tie_rule_same_record_in_every_engine(self):
        # a repeated value has "left" at its first sorted index and "at" at its
        # last; every engine must still prefer "at" on the same threshold
        pts = [(4, 7), (6, 7), (2, 7), (1, 7), (3, 7), (1, 7), (6, 7)]
        want = DiscrepancyValue(1, 7, 1, 7, "at")
        assert star_discrepancy(pts) == star_discrepancy_oracle(pts) == want
        assert prefix_scan(pts)[-1].disc == want
        rng = np.random.default_rng(4096)
        for _ in range(60):
            den = int(rng.integers(3, 65))
            nums = rng.integers(1, den, size=int(rng.integers(8, 41))).tolist()
            pts = [(a, den) for a in nums]  # den <= N^2: the grid sweep
            for r in prefix_scan(pts):
                oracle = star_discrepancy_oracle(pts[: r.k])
                assert r.disc == star_discrepancy(pts[: r.k]) == oracle

    def test_denominator_beyond_int64_takes_exact_path(self):
        # the grid sweep would allocate an array of length 10**30
        big = 10**30
        pts = [(1, big), (2, big), (big - 1, big)]
        for r in prefix_scan(pts):
            assert r.disc == star_discrepancy_oracle(pts[: r.k])

    def test_sparse_common_denominator_skips_grid(self, monkeypatch):
        # three points on a grid of 2^24 cost O(N log N), not O(N * 2^24)
        def no_sweep(nums, p):
            raise AssertionError(f"grid sweep of {len(nums)} points on {p} cells")

        monkeypatch.setattr(discrepancy, "_grid_sweep", no_sweep)
        den = 1 << 24
        pts = [(1, den), (den - 3, den), (5, den)]
        for r in prefix_scan(pts):
            assert r.disc == star_discrepancy_oracle(pts[: r.k])
            assert r.weighted == r.k * r.disc.exact

    def test_paths_agree_across_the_switch(self):
        # N^2 < den sorts every prefix; one more point puts N^2 >= den on the
        # grid; numerators drawn from a few values repeat, so ties are common
        rng = np.random.default_rng(7)
        for den in range(5, 400):
            n = math.isqrt(den - 1)
            pool = rng.integers(1, den, size=3)
            nums = rng.choice(pool, size=n + 1).tolist()
            sorted_path = prefix_scan([(a, den) for a in nums[:n]])
            grid_path = prefix_scan([(a, den) for a in nums])
            assert sorted_path == grid_path[:n]

    def test_last_record_is_full_multiset(self, table10):
        pre = generate_prefix(SequenceFamily.ETA, 13, table10)
        recs = prefix_scan(pre)
        assert recs[-1].disc.exact == star_discrepancy(pre).exact

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prefix_scan([])

    def test_order_matters_for_prefixes(self):
        inv = prefix_scan(generate_block(BlockSpec(5, INV)))
        inc = prefix_scan(generate_block(BlockSpec(5, INC)))
        assert [r.weighted for r in inv] != [r.weighted for r in inc]


class TestWeightedPrefixMaxima:
    @pytest.mark.parametrize("p,ordering", [(5, INV), (5, INC), (13, INC), (31, INV)])
    def test_matches_scan_records(self, p, ordering):
        block = generate_block(BlockSpec(p, ordering))
        nums = [f.num for f in block]
        maxima = weighted_prefix_maxima(nums, p)
        recs = prefix_scan(block)
        for r, m in zip(recs, maxima.tolist()):
            assert r.weighted == Fraction(m, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_prefix_maxima([], 5)
        with pytest.raises(ValueError):
            weighted_prefix_maxima([5], 5)

    @pytest.mark.parametrize("nums,p", [([1.5, 2], 3), ([1, 2], 3.0), (np.array([1.0, 2.0]), 3)])
    def test_non_integers_rejected(self, nums, p):
        # a ValueError from the check, not a TypeError from a slice
        with pytest.raises(ValueError, match="integer arrays"):
            weighted_prefix_maxima(nums, p)

    def test_array_input_matches_list(self):
        nums = block_numerators(31, INV)
        assert weighted_prefix_maxima(nums, 31).tolist() == (
            weighted_prefix_maxima(nums.tolist(), 31).tolist()
        )


class TestBlockMaxWeighted:
    def test_inversive_five(self):
        assert block_max_weighted(BlockSpec(5, INV)) == (Fraction(6, 5), 3)

    def test_increasing_five(self):
        assert block_max_weighted(BlockSpec(5, INC)) == (Fraction(6, 5), 2)

    def test_increasing_thirteen_meets_eighth(self):
        value, k = block_max_weighted(BlockSpec(13, INC))
        assert value >= Fraction(3, 2)
        assert value == Fraction(42, 13)
        assert k == 6  # (p-1)/2

    def test_sweep_limit_enforced(self):
        with pytest.raises(ValueError, match="sweep limit"):
            block_max_weighted(BlockSpec(13, INC), sweep_limit=10)

    def test_default_limit_exported(self):
        assert DEFAULT_SWEEP_LIMIT == 30_000


class TestNwBound:
    def test_value_matches_formula(self):
        expect = (2 * math.sqrt(2) + 1) * (math.log(2) + 1 / 3) ** 2 + 1 / 2
        assert nw_bound(2, 1) == pytest.approx(expect, rel=1e-15)
        assert nw_bound(2, 1) == pytest.approx(4.5338691206203272, rel=1e-12)

    def test_monotone_in_k(self):
        assert nw_bound(101, 50) < nw_bound(101, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            nw_bound(4, 1)
        with pytest.raises(ValueError):
            nw_bound(7, 0)
        with pytest.raises(ValueError):
            nw_bound(7, 7)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 97])
    def test_certifies_small_inversive_blocks(self, p):
        block = generate_block(BlockSpec(p, INV))
        maxima = weighted_prefix_maxima([f.num for f in block], p)
        for k, m in enumerate(maxima.tolist(), start=1):
            assert m / p <= nw_bound(p, k) - 1e-9


class TestTriangleBound:
    def test_two_block_example(self):
        e3 = generate_block(BlockSpec(3, INV))
        e5 = generate_block(BlockSpec(5, INV))
        bound, exact = triangle_bound([e3, e5])
        assert bound == Fraction(11, 45)
        assert exact.exact == Fraction(1, 5)

    def test_single_block_is_tight(self):
        e5 = generate_block(BlockSpec(5, INV))
        bound, exact = triangle_bound([e5])
        assert bound == exact.exact

    def test_random_concatenations(self):
        rng = np.random.default_rng(42)
        primes = [3, 5, 7, 11, 13]
        for _ in range(50):
            count = int(rng.integers(1, 5))
            blocks = [
                generate_block(
                    BlockSpec(int(rng.choice(primes)), INV if rng.integers(2) else INC)
                )
                for _ in range(count)
            ]
            bound, exact = triangle_bound(blocks)
            assert exact.exact <= bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            triangle_bound([])
        with pytest.raises(ValueError):
            triangle_bound([[]])


class TestBlockAccumulator:
    def test_matches_direct_evaluation(self, table10):
        acc = BlockAccumulator()
        pts: list[tuple[int, int]] = []
        for p in (2, 3, 5, 7, 11):
            acc.add_block(np.arange(1, p), p)
            pts.extend((j, p) for j in range(1, p))
            got = acc.star_discrepancy()
            want = star_discrepancy(pts)
            assert (got.num, got.den) == (want.num, want.den)

    def test_matches_true_inversive_prefix(self, table10):
        # at a boundary every block is complete, so the multiset shortcut
        # must equal the honest inversive prefix
        acc = BlockAccumulator()
        for m in range(1, 6):
            p = table10.primes[m - 1]
            acc.add_block(np.arange(1, p), p)
            n = table10.cumulative[m]
            pre = generate_prefix(SequenceFamily.ETA, n, table10)
            assert acc.star_discrepancy().exact == star_discrepancy(pre).exact

    def test_duplicates_across_blocks(self):
        acc = BlockAccumulator()
        acc.add_block(np.array([1]), 2)
        acc.add_block(np.array([1, 2, 3]), 4)  # 2/4 duplicates 1/2 by value
        want = star_discrepancy([(1, 2), (1, 4), (2, 4), (3, 4)])
        assert acc.star_discrepancy().exact == want.exact

    def test_counts_and_validation(self):
        acc = BlockAccumulator()
        assert acc.n == 0
        with pytest.raises(ValueError):
            acc.star_discrepancy()
        with pytest.raises(ValueError):
            acc.add_block(np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            acc.add_block(np.array([1]), 1 << 27)
        acc.add_block(np.array([2, 1]), 3)  # unsorted input is fine
        assert acc.n == 2
        assert acc.star_discrepancy().exact == Fraction(1, 3)

    @pytest.mark.parametrize(
        "numerators,den",
        [
            (np.array([1.7, 2.2]), 3),  # must not be stored as [1, 2]
            (np.array([1, 2]), 3.0),
            (np.array([], dtype=np.int64), 3),
            (np.array([1, 3]), 3),
        ],
    )
    def test_rejects_and_keeps_state(self, numerators, den):
        acc = BlockAccumulator()
        acc.add_block(np.array([1]), 2)
        with pytest.raises(ValueError):
            acc.add_block(numerators, den)
        assert acc.n == 1
        assert acc.star_discrepancy().exact == Fraction(1, 2)

    def test_per_point_denominators_merge_by_value(self):
        acc = BlockAccumulator()
        acc.add_block(np.array([1, 2]), 5)
        acc.add_block(np.array([2, 1, 3]), np.array([3, 3, 7]))
        want = star_discrepancy([(1, 5), (2, 5), (2, 3), (1, 3), (3, 7)])
        assert acc.star_discrepancy() == want


def merged_boundary_values(primes, m_lo, m_hi):
    # reference: merge every block and evaluate the whole multiset each time
    acc = BlockAccumulator()
    values = []
    for m, p in enumerate(primes[:m_hi], 1):
        acc.add_block(np.arange(1, p), p)
        if m >= m_lo:
            values.append(acc.star_discrepancy())
    return values


class TestBoundarySweep:
    @pytest.fixture(scope="class")
    def primes(self):
        return build_prime_table(300).primes

    @pytest.fixture(scope="class")
    def reference(self, primes):
        return merged_boundary_values(primes, 1, 300)

    def test_matches_merge_and_evaluate(self, primes, reference):
        assert list(_boundary_discrepancies(primes, 1, 300)) == reference

    @pytest.mark.parametrize("m_lo,m_hi", [(2, 40), (57, 300), (299, 300), (300, 300)])
    def test_later_first_block(self, primes, reference, m_lo, m_hi):
        got = list(_boundary_discrepancies(primes, m_lo, m_hi))
        assert got == reference[m_lo - 1 : m_hi]

    # width 0 rebuilds about every other block; a band holding every point
    # never rebuilds after the first row
    @pytest.mark.parametrize("width,min_calls,max_calls", [(0, 40, 120), (10**9, 1, 1)])
    def test_band_width_changes_only_the_work(
        self, primes, reference, monkeypatch, width, min_calls, max_calls
    ):
        calls = []
        add_block = BlockAccumulator.add_block

        def counted(acc, *args):
            calls.append(1)
            add_block(acc, *args)

        monkeypatch.setattr(BlockAccumulator, "add_block", counted)
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", width)
        assert list(_boundary_discrepancies(primes, 1, 120)) == reference[:120]
        assert min_calls <= len(calls) <= max_calls

    def test_matches_oracle_and_recount(self, primes):
        for m, dv in enumerate(_boundary_discrepancies(primes, 1, 12), 1):
            pts = [(j, p) for p in primes[:m] for j in range(1, p)]
            assert dv == star_discrepancy_oracle(pts)
            assert_witness_reproduces(pts, dv)

    def test_refuses_int64_overflow(self):
        # constructed input: about 2^37 points on denominators near 2^26
        # would overflow the int64 counts; refused before any work
        with pytest.raises(OverflowError, match="2\\^63"):
            next(_boundary_discrepancies([(1 << 26) - 5] * 2100, 1, 2100))

    def test_refuses_denominators_beyond_float_safety(self):
        with pytest.raises(ValueError, match="too large"):
            next(_boundary_discrepancies([2, (1 << 26) + 15], 1, 2))


class TestScanCsv:
    def test_header_and_rows(self):
        recs = prefix_scan(generate_block(BlockSpec(5, INV)))
        lines = list(scan_csv_lines(recs))
        assert lines[0] == SCAN_CSV_HEADER
        assert lines[1].startswith("1,4,5,0.8")
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == 6
