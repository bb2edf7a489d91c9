from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import primedisc.discrepancy as discrepancy
import primedisc.sequences as sequences
from primedisc.cli import main
from primedisc.discrepancy import (
    DEFAULT_SWEEP_LIMIT,
    BlockAccumulator,
    DiscrepancyValue,
    block_max_weighted,
    nw_bound,
    prefix_discrepancy,
    prefix_scan,
    star_discrepancy,
    star_discrepancy_arrays,
    star_discrepancy_oracle,
    triangle_bound,
    weighted_prefix_maxima,
    _picked_maximum,
    _blocks_discrepancy,
    _boundary_discrepancies,
    _chunk_values,
    _confirm,
    _deviation,
    _lower_half_chunks,
    _near_maximal,
    _point_pairs,
    _representatives,
    _star_discrepancy_exact,
)
from primedisc.errors import TableTooSmallError
from primedisc.primes import build_prime_table, is_prime, sieve_primes, table_covering
from primedisc.sequences import (
    BlockSpec,
    Ordering,
    SequenceFamily,
    block_numerators,
    generate_prefix,
    prefix_arrays,
)

INV = Ordering.INVERSIVE
INC = Ordering.INCREASING


def block_pairs(p: int, ordering: Ordering) -> list[tuple[int, int]]:
    """One block as (num, den) pairs in sequence order."""
    return [(a, p) for a in block_numerators(p, ordering).tolist()]


def block_arrays(p: int, ordering: Ordering) -> tuple[np.ndarray, int]:
    """One block as the (numerators, den) pair of triangle_bound."""
    return block_numerators(p, ordering), p


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


BLOCK_DIGESTS = [
    (13, INV, "6128659d634d4aa257823c29608809bf7c16e2273746c5a628a618189aefa793"),
    (13, INC, "d971cea3cc3ebe75bf5548309930bad3b01a7b723c4bd267db05c44bd5e666aa"),
    (101, INV, "c260b99d2620656618d79affe45aa6f8a2386c0447a17616df52ae2636b41fcc"),
    (101, INC, "9f0b94bbc6ae6a3bb3591a2f9f14229181dc217ad86a8c79217b10d101f74d65"),
    (1009, INV, "02594330a28dabebeaee652ad1a4fe1f33a2c6f19d06ca1406ff5c889a2173e6"),
    (1009, INC, "0dcba61ac5f4b0ab16296b9786e1638f6576c115df977262244590daa8a23a5e"),
]

MULTISET_DIGESTS = [
    (1, 3, 40, "a0fafffecd9787d7e4d716653d016a82bec4e307cf5d636fc9cdba1afa068e92"),
    (2, 100, 400, "48f0002db9657ee1574169bc5fd2836b3005f03b5e1909c5c5179a1fb03c044f"),
    (3, 1009, 3000, "f31c926ebbb1166736af23dd6b20b3b7772307a8deeb42df14a103a9656a7c65"),
]


def per_prefix_int64_sweep(nums, p):
    """The grid sweep as one int64 pass per step and prefix: the reference of
    the row-block kernel, which must match it bit for bit."""
    values, slots = np.unique(nums, return_inverse=True)
    step = np.repeat(values, 2)
    dev = np.zeros(step.size, dtype=np.int64)
    mag = np.empty_like(dev)
    maxima, best = np.empty((2, slots.size), dtype=np.int64)
    for k, t in enumerate(slots.tolist()):
        dev[2 * t :] += p
        dev[2 * t + 1] -= p
        dev -= step
        i = int(np.abs(dev, out=mag).argmax())
        maxima[k], best[k] = mag[i], i
    return maxima, values[best >> 1], best & 1 == 0


def antisymmetric(rng, p):
    """A random permutation x of 1..p - 1 with x[::-1] == p - x, as every
    whole prime block is in both orderings: a shuffled, randomly flipped
    half, the middle p/2 of an even p, then the mirrored half."""
    front = rng.permutation(np.arange(1, (p - 1) // 2 + 1))
    front = np.where(rng.integers(2, size=front.size) == 1, p - front, front)
    return np.concatenate([front, [p // 2] * (p % 2 == 0), (p - front)[::-1]]).astype(np.int64)


def assert_increasing_closed_form(p):
    # {1/p, ..., k/p} has p k D_k* = k (p - k) "at" k/p; at k = p - 1 "left"
    # 1/p ties it and wins on the smaller threshold, except at p = 2, where
    # both sides sit at 1/2
    maxima, witness, at_side = discrepancy._grid_sweeps([(np.arange(1, p), p)])[0]
    k = np.arange(1, p)
    assert np.array_equal(maxima, k * (p - k)), p
    assert np.array_equal(witness[:-1], k[:-1]), p
    assert at_side[:-1].all(), p
    assert (int(witness[-1]), bool(at_side[-1])) == (1, p == 2), p


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


LIST_ENGINES = [star_discrepancy, star_discrepancy_oracle, prefix_scan]


class TestPointPairs:
    """_point_pairs is the one check of a list of points, run by every list engine."""

    @pytest.mark.parametrize("engine", LIST_ENGINES)
    @pytest.mark.parametrize("point", [(1, 2, 3), 5, (1,), "1/2"])
    def test_malformed_point_is_named(self, engine, point):
        with pytest.raises(ValueError, match=re.escape(f"point {point!r} is not a (num, den) pair")):
            engine([(1, 3), point])

    @pytest.mark.parametrize("engine", LIST_ENGINES)
    @pytest.mark.parametrize("num,den", [(0, 5), (5, 5), (6, 5), (1, 1), (1, 0), (-1, 3)])
    def test_rejects_outside_open_unit_interval(self, engine, num, den):
        with pytest.raises(ValueError, match=re.escape(f"{num}/{den} is not strictly inside (0, 1)")):
            engine([(num, den)])

    @pytest.mark.parametrize("engine", LIST_ENGINES)
    @pytest.mark.parametrize(
        "num,den", [(1.9, 3), (2.0, 5), (2, 5.0), ("2", 5), (2, "5"), (np.float64(2), 5)]
    )
    def test_rejects_non_integers(self, engine, num, den):
        # refused, not truncated: (1.9, 3) must not become 1/3
        with pytest.raises(ValueError, match="not a fraction of integers"):
            engine([(num, den)])

    @pytest.mark.parametrize("engine", LIST_ENGINES)
    def test_empty_rejected(self, engine):
        with pytest.raises(ValueError, match="points must be nonempty"):
            engine([])

    def test_accepts_numpy_integers(self):
        pairs = _point_pairs([(np.int64(2), np.int32(5)), np.array([1, 3])])
        assert pairs == [(2, 5), (1, 3)]
        assert all(type(a) is int and type(b) is int for a, b in pairs)
        for engine in LIST_ENGINES:
            assert engine([(np.int64(2), np.int32(5))]) == engine([(2, 5)])


class TestStarDiscrepancy:
    def test_matches_oracle_on_examples(self, table10):
        for pts in (
            [(1, 2)],
            [(1, 3), (2, 3)],
            [(2, 4), (1, 2)],
            generate_prefix(SequenceFamily.ETA, 7, table10),
        ):
            assert star_discrepancy(pts).exact == star_discrepancy_oracle(pts).exact

    def test_eta_seven_value(self, table10):
        pre = generate_prefix(SequenceFamily.ETA, 7, table10)
        dv = star_discrepancy(pre)
        assert (dv.num, dv.den) == (1, 5)

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

    @pytest.mark.parametrize("big", [10**30, 1 << 63, (1 << 64) - 1])
    def test_denominator_beyond_int64(self, big):
        pts = [(1, big), (2, 3), (big - 1, big), (1, 2), (12345, big)]
        dv = star_discrepancy(pts)
        assert dv == star_discrepancy_oracle(pts)
        assert_witness_reproduces(pts, dv)

    @pytest.mark.parametrize("big", [(1 << 26) + 15, (1 << 63) - 1])
    def test_exact_fallback_matches_oracle(self, big):
        # denominators beyond the float-safe cutoff take the Fraction path
        pts = [(1, big), (2, 3), (big - 1, big), (1, 2)]
        assert star_discrepancy(pts) == star_discrepancy_oracle(pts)

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
        with pytest.raises(ValueError, match="nonempty"):
            star_discrepancy_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        # an empty list is float64 to numpy, yet named as empty
        with pytest.raises(ValueError, match="nonempty"):
            star_discrepancy_arrays([], [])
        with pytest.raises(ValueError, match="equal length"):
            star_discrepancy_arrays(np.array([1]), np.array([2, 3]))
        # an empty den list is float64 to numpy, yet named by its length
        with pytest.raises(ValueError, match="equal length"):
            star_discrepancy_arrays([1], [])
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

    @pytest.fixture(params=[3, 1 << 16], ids=["slice3", "slice65536"])
    def slices(self, request, monkeypatch):
        # short slices make the candidate pass skip and revisit many slices
        monkeypatch.setattr(discrepancy, "_SLICE", request.param)

    @pytest.mark.parametrize("seed", range(40))
    def test_equal_values_under_different_denominators(self, seed, slices):
        # candidates are named by value: 1/2, 2/4 and 3/6 are one threshold,
        # whichever representative the engine finds first
        rng = np.random.default_rng(seed)
        pts = []
        for a, b in random_multiset(rng, max_size=30, max_den=9):
            pts += [(a * k, b * k) for k in rng.integers(1, 5, size=int(rng.integers(1, 4)))]
        k = rng.integers(1, 6, size=int(rng.integers(1, 8))).tolist()
        pts += [(x, 2 * x) for x in k] + [(x, 3 * x) for x in k]
        pts = [pts[i] for i in rng.permutation(len(pts))]
        num, den = np.array(pts).T
        want = star_discrepancy_oracle(pts)
        assert star_discrepancy_arrays(num, den) == want
        acc = BlockAccumulator()
        acc.add_block(num, den)
        assert acc.star_discrepancy() == want

    @pytest.mark.parametrize("n", [*range(1, 41), 97, 256, 5003])
    def test_every_point_a_candidate(self, n, slices):
        # {(2i - 1) / (2n)}: u ties at every index, so all n values are
        # candidates on both sides
        num = np.arange(1, 2 * n, 2)
        pts = [(a, 2 * n) for a in num.tolist()]
        assert star_discrepancy_arrays(num, 2 * n) == star_discrepancy_oracle(pts)

    def test_holds_no_index_array(self):
        # the sorted values (8 bytes per point) and fixed-size slices on top
        # of the inputs; a sort order or an n-length deviation array would
        # add 8 bytes per point more
        rng = np.random.default_rng(5)
        n = 1 << 20
        den = rng.integers(2, 1 << 20, size=n)
        num = rng.integers(1, den)
        tracemalloc.start()
        try:
            star_discrepancy_arrays(num, den)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n

    def test_big_denominator_fallback(self):
        big = (1 << 27) + 29
        dv = star_discrepancy_arrays(np.array([1, big - 1]), np.array([big, big]))
        assert dv.exact == star_discrepancy_oracle([(1, big), (big - 1, big)]).exact

    @pytest.mark.parametrize(
        "den,exact_calls",
        [(1 << 26, 0), ((1 << 26) + 1, 1), ((1 << 63) - 1, 1), (1 << 63, 1), (10**30, 1)],
    )
    def test_route_to_the_exact_path(self, monkeypatch, capsys, tmp_path, den, exact_calls):
        # both paths give the same values, so the route itself is pinned: a
        # largest denominator above 2^26 makes one exact evaluation on every
        # entry point, one of exactly 2^26 none
        calls = []
        exact = discrepancy._star_discrepancy_exact

        def counted(pairs):
            calls.append(len(pairs))
            return exact(pairs)

        monkeypatch.setattr(discrepancy, "_star_discrepancy_exact", counted)
        pts = [(1, den), (2, 3), (den - 1, den), (1, 2), (12345, den)]
        dump = tmp_path / "points.txt"
        dump.write_text("".join(f"{a}/{b}\n" for a, b in pts))

        def disc_input():
            assert main(["disc", "--input", str(dump)]) == 0
            out = json.loads(capsys.readouterr().out)
            keys = ("disc_num", "disc_den", "witness_num", "witness_den", "side")
            return DiscrepancyValue(*(out[k] for k in keys))

        entries = [lambda: star_discrepancy(pts), disc_input]
        if den < 1 << 63:  # int64 arrays stop below 2^63
            entries.append(lambda: star_discrepancy_arrays(*np.array(pts).T))
        for entry in entries:
            calls.clear()
            assert entry() == star_discrepancy_oracle(pts)
            assert calls == [len(pts)] * exact_calls

    @pytest.mark.parametrize("slice_len", [16, 1 << 16])
    @pytest.mark.parametrize("mid", [2, 3])
    def test_maximum_in_a_middle_slice(self, monkeypatch, slice_len, mid):
        # a centred grid (every u is 1/2) with a run of equal values in slice
        # mid: only that slice reaches the cut, the others are skipped
        monkeypatch.setattr(discrepancy, "_SLICE", slice_len)
        n = 5 * slice_len + 3
        num = np.arange(1, 2 * n, 2)
        lo = mid * slice_len + slice_len // 3
        num[lo : lo + 5] = num[lo + 2]
        val = np.sort(num / (2 * n))
        us = {i0: _deviation(val[i0 : i0 + slice_len], n, i0) for i0 in range(0, n, slice_len)}
        top = max(max(u.max(), 1.0 - u.min()) for u in us.values())
        hot = [i0 for i0, u in us.items() if max(u.max(), 1.0 - u.min()) > top - 0.25]
        assert hot == [mid * slice_len]
        dv = star_discrepancy_arrays(num, 2 * n)
        if slice_len < 1 << 16:
            assert dv == star_discrepancy_oracle([(a, 2 * n) for a in num.tolist()])
        else:
            # at the run's value v, "at" (lo + 5) / n - v and "left" v - lo / n
            # are both 5 / 2n; "at" wins the tie
            w = Fraction(int(num[lo]), 2 * n)
            assert (dv.exact, dv.witness, dv.side) == (Fraction(5, 2 * n), w, "at")


FAMILIES = list(SequenceFamily)


class TestPrefixDiscrepancy:
    """prefix_discrepancy against the two-array path it replaces on the CLI."""

    @pytest.fixture(scope="class")
    def table(self):
        table = build_prime_table(400)
        assert table.coverage >= 300_000
        return table

    @staticmethod
    def boundaries(family, table, m):
        # P(m) of the family: the prime blocks of the table, or q = 2..m + 1
        return table.cumulative[m] if family is not SequenceFamily.OMEGA else m * (m + 1) // 2

    def check(self, family, n, table):
        table = None if family is SequenceFamily.OMEGA else table
        got = prefix_discrepancy(family, n, table)
        assert got == star_discrepancy_arrays(*prefix_arrays(family, n, table))
        if n <= 300:
            assert got == star_discrepancy_oracle(generate_prefix(family, n, table))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_first_points_and_block_edges(self, family, table):
        ns = {1, 2, 3}
        for m in range(2, 41):
            edge = self.boundaries(family, table, m)
            ns |= {edge - 1, edge, edge + 1}
        for n in sorted(ns):
            self.check(family, n, table)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_seeded_lengths(self, family, seed, table):
        rng = np.random.default_rng([17, seed])
        for n in rng.integers(1, 300_001, size=2).tolist() + rng.integers(1, 301, size=3).tolist():
            self.check(family, n, table)

    def test_cut_block_in_short_chunks(self, table, monkeypatch):
        # a cut last block and many chunks, several of them made again
        monkeypatch.setattr(discrepancy, "_CHUNK", 7)
        for family in FAMILIES:
            self.check(family, 250, table)

    @pytest.mark.parametrize(
        "family,n,table,error",
        [
            (SequenceFamily.OMEGA, 0, None, ValueError),
            (SequenceFamily.ETA, 0, None, ValueError),
            (SequenceFamily.ETA, 160, "table10", TableTooSmallError),
            # below the prime-prefix limit, which prefix_arrays does not have
            (SequenceFamily.PRIME_INCREASING, 10**14, "table10", TableTooSmallError),
        ],
    )
    def test_same_errors_as_prefix_arrays(self, family, n, table, error, request):
        table = request.getfixturevalue(table) if table else None
        with pytest.raises(error) as want:
            prefix_arrays(family, n, table)
        with pytest.raises(error) as got:
            prefix_discrepancy(family, n, table)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("family", [SequenceFamily.ETA, SequenceFamily.PRIME_INCREASING])
    @pytest.mark.parametrize("table", [None, "table10"])
    @pytest.mark.parametrize(
        "n,refused",
        [
            (discrepancy._FLOAT_SAFE_PRIME_N, False),
            (discrepancy._FLOAT_SAFE_PRIME_N + 1, True),
            (10**15, True),
        ],
    )
    def test_prime_prefix_refused_before_the_table(
        self, monkeypatch, request, family, table, n, refused
    ):
        # a prime-family prefix past the last prime block below 2^26 is
        # refused from n alone: no table is built, a passed one is not read
        def no_table(n):
            raise AssertionError("table built")

        monkeypatch.setattr(sequences, "table_covering", no_table)
        table = request.getfixturevalue(table) if table else None
        if refused:
            limit = f"^N={n} > .* past {1 << 26}, the denominator limit$"
            with pytest.raises(ValueError, match=limit):
                prefix_discrepancy(family, n, table)
        else:
            with pytest.raises(AssertionError if table is None else TableTooSmallError):
                prefix_discrepancy(family, n, table)


class TestLowerHalfPrefix:
    """prefix_discrepancy on the whole blocks' lower halves plus one cut block.

    Every N of several block ranges of each family, so the cut block is
    empty, one point or all but one; omega cuts at even q also repeat 1/2,
    1/3 and other values of the whole blocks."""

    @pytest.fixture(scope="class")
    def table(self):
        return build_prime_table(40)

    @staticmethod
    def block_ranges(family, table, blocks):
        # every N up to P(7) + 1, then from P(m) - 1 to P(m + 2) + 1 for each
        # m in blocks: the prime blocks of the table, or omega blocks q = 2..m + 1
        if family is SequenceFamily.OMEGA:
            edges = [m * (m + 1) // 2 for m in range(max(blocks) + 3)]
        else:
            edges = table.cumulative
        ns = set(range(1, edges[7] + 2))
        for m in blocks:
            ns |= set(range(edges[m] - 1, edges[m + 2] + 2))
        return sorted(ns)

    def check_block_ranges(self, family, table, blocks):
        table = None if family is SequenceFamily.OMEGA else table
        for n in self.block_ranges(family, table, blocks):
            want = star_discrepancy_arrays(*prefix_arrays(family, n, table))
            assert prefix_discrepancy(family, n, table) == want, n

    @pytest.fixture(params=[1, 7, 1 << 30], ids=["chunk1", "chunk7", "one-chunk"])
    def chunks(self, request, monkeypatch):
        # about one or seven values per chunk, so the cut block's steps
        # cross and fill many chunks and many chunks are empty, or the whole
        # lower half in one chunk
        monkeypatch.setattr(discrepancy, "_CHUNK", request.param)

    @pytest.mark.parametrize(
        "chunk",
        [pytest.param(1, marks=pytest.mark.slow), pytest.param(7, marks=pytest.mark.slow), 1 << 30],
        ids=["chunk1", "chunk7", "one-chunk"],
    )
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_every_n_of_block_ranges(self, family, chunk, table, monkeypatch):
        # one chunk: primes up to 113, omega q up to 42; short chunks, whose
        # edges the cut block's steps cross: primes up to 43, omega q up to 24
        monkeypatch.setattr(discrepancy, "_CHUNK", chunk)
        blocks = [11, 39] if family is SequenceFamily.OMEGA else [11, 26]
        if chunk < 1 << 30:
            blocks = [11, 21] if family is SequenceFamily.OMEGA else [11]
        self.check_block_ranges(family, table, blocks)

    @staticmethod
    @functools.cache
    def oracle(family, n):
        # one oracle evaluation per prefix, shared by every chunk size
        table = None if family is SequenceFamily.OMEGA else build_prime_table(40)
        return star_discrepancy_oracle(generate_prefix(family, n, table))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_oracle(self, family, table, chunks):
        # omega N in 254..275 cut the even block q = 24
        ns = [*range(1, 61)]
        if family is SequenceFamily.OMEGA:
            table, ns = None, ns + [*range(230, 301)]
        for n in ns:
            assert prefix_discrepancy(family, n, table) == self.oracle(family, n), n

    @pytest.mark.parametrize("edges", [6, 12, 24, 72])
    def test_chunk_edges_on_repeated_values(self, edges, monkeypatch):
        # omega blocks 2..24 hold 144 lower-half values; T chunks of 144 / T
        # put the edges t / 2T on 1/6, 1/4 and 1/3 (T = 6), which up to eight
        # whole blocks repeat, and on 1/8, 1/12, 1/24, ... An on-edge value
        # belongs to the chunk it closes: held twice or dropped, it would
        # change the multiset
        monkeypatch.setattr(discrepancy, "_CHUNK", 144 // edges)
        whole = range(2, 25)
        chunk, count = _lower_half_chunks(whole)
        assert count == edges
        values = [chunk(t) for t in range(count)]
        want = np.sort([j / d for d in whole for j in range(1, d // 2 + 1)])
        assert np.concatenate(values).tolist() == want.tolist()
        for t, val in enumerate(values):
            assert ((t / (2 * count) < val) & (val <= (t + 1) / (2 * count))).all()
        for n in range(276, 301):
            want = star_discrepancy_arrays(*prefix_arrays(SequenceFamily.OMEGA, n))
            assert prefix_discrepancy(SequenceFamily.OMEGA, n) == want, n

    @pytest.mark.parametrize("q", [2, 3, 7, 13, 97])
    @pytest.mark.parametrize("ordering", [INV, INC])
    def test_empty_store(self, q, ordering):
        # no whole block: the cut points alone, first one up to all of block q
        nums = block_numerators(q, ordering)
        for k in range(1, q):
            want = star_discrepancy_arrays(nums[:k], q)
            assert _blocks_discrepancy([], nums[:k], q) == want
            if k < 40:
                assert want == star_discrepancy_oracle([(a, q) for a in nums[:k].tolist()])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_blocks_and_cuts(self, seed, chunks):
        # any whole denominators and any numerators of a cut block, in any
        # order: many values repeat, within the store, its mirror and the cut
        rng = np.random.default_rng([23, seed])
        whole = sorted(rng.choice(np.arange(2, 31), size=int(rng.integers(0, 12)), replace=False))
        q = int(rng.integers(2, 31))
        cut = rng.permutation(np.arange(1, q))[: int(rng.integers(0 if whole else 1, q))]
        pts = [(j, d) for d in whole for j in range(1, d)] + [(a, q) for a in cut.tolist()]
        assert _blocks_discrepancy(whole, cut, q) == star_discrepancy_oracle(pts)

    def test_mirror_of_a_half_copy(self):
        # whole blocks 2 and 4 hold 1/2 twice; the cut 1/2 of block 6 ties them
        want = star_discrepancy_oracle([(1, 2), (1, 4), (2, 4), (3, 4), (3, 6), (1, 6)])
        assert _blocks_discrepancy([2, 4], np.array([3, 1]), 6) == want

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_generates_only_the_cut_block(self, family, table, monkeypatch):
        calls = []

        def recorded(q, ordering):
            calls.append((q, ordering))
            return block_numerators(q, ordering)

        monkeypatch.setattr(discrepancy, "block_numerators", recorded)
        monkeypatch.setattr(sequences, "block_numerators", recorded)
        ordering = INV if family is SequenceFamily.ETA else INC
        table = None if family is SequenceFamily.OMEGA else table
        if table is None:
            edge, q = 40 * 41 // 2, 42  # blocks 2..41 whole, 42 cut
        else:
            edge, q = table.cumulative[30], table.primes[30]
        prefix_discrepancy(family, edge, table)
        assert calls == []
        for k in (1, 2, q // 2, q - 2):
            prefix_discrepancy(family, edge + k, table)
            assert calls == [(q, ordering)]
            calls.clear()

    def test_peak_under_five_bytes_per_point(self):
        # the lower-half store is 4 bytes per point; slices and the cut
        # block add a fixed amount
        n = 1_000_003
        table = table_covering(n)
        tracemalloc.start()
        try:
            prefix_discrepancy(SequenceFamily.ETA, n, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n

    @pytest.mark.parametrize("n", [1_000_003, 16_000_003])
    @pytest.mark.parametrize("family", [SequenceFamily.ETA, SequenceFamily.OMEGA], ids=["eta", "omega"])
    def test_peak_flat_in_n(self, family, n):
        # chunks of about _CHUNK values, O(m) chunk bounds and the cut block:
        # a few MiB at any n, where a stored lower half took 62 MiB at 1.6e7
        table = None if family is SequenceFamily.OMEGA else table_covering(n)
        tracemalloc.start()
        try:
            prefix_discrepancy(family, n, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_large_denominator_refused_before_allocating(self, table, monkeypatch):
        # an omega prefix of 10^15 points: its 4.5e7 whole blocks are never listed
        monkeypatch.setattr(discrepancy, "_FLOAT_SAFE_DEN", 100)
        with pytest.raises(ValueError, match=r"^denominator \d+ too large for the float-sorted"):
            prefix_discrepancy(SequenceFamily.OMEGA, 10**15)
        # a whole last block is the largest denominator of its prefix
        n = table.cumulative[26]
        with pytest.raises(ValueError, match="denominator 101 too large"):
            prefix_discrepancy(SequenceFamily.ETA, n, table)
        n = table.cumulative[25]
        want = star_discrepancy_arrays(*prefix_arrays(SequenceFamily.ETA, n, table))
        assert prefix_discrepancy(SequenceFamily.ETA, n, table) == want


class TestNearMaximal:
    """The one float pass of the sorted evaluators, against dense recounts."""

    @pytest.mark.parametrize("chunk_len", [1, 5, None], ids=["chunk1", "chunk5", "whole"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_dense_recount(self, seed, chunk_len, monkeypatch):
        # values and step values on one grid, so both repeat and meet across
        # chunk ends; odd seeds add empty chunks at the ends and in between.
        # The filter margin is patched so that n times it is a width of 0,
        # 0.5, 3 or 100 units below the top
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 60))
        val = np.sort(rng.integers(1, 41, size=size) / 80)
        n = 2 * size + int(rng.integers(0, 9))
        steps = [
            (np.sort(rng.integers(0, 42, size=int(rng.integers(0, 9))) / 80), side)
            for side in ("left", "right", "left")
        ]
        width = float(rng.choice([0.0, 0.5, 3.0, 100.0]))
        monkeypatch.setattr(discrepancy, "_FILTER_MARGIN", width / n)
        chunk_len = chunk_len or size
        chunks = [val[lo : lo + chunk_len] for lo in range(0, size, chunk_len)]
        if seed % 2:
            chunks = [x for part in chunks for x in (val[:0], part)] + [val[:0]]
        made = []

        def chunk(i):
            made.append(i)
            return chunks[i]

        near, counted_from = _near_maximal(chunk, len(chunks), n, steps)
        base = n * val - np.arange(size)
        ws = [base - np.searchsorted(v, val, side) for v, side in steps]
        t = max(max(w.max(), 1 - w.min()) for w in ws) - n * discrepancy._FILTER_MARGIN
        # every chunk once, then again only the chunks holding a point near the top
        ends = np.cumsum([0] + [x.size for x in chunks])
        reach = np.any([(w >= t) | (w <= 1 - t) for w in ws], axis=0)
        assert made == [*range(len(chunks))] + [
            i for i, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])) if reach[lo:hi].any()
        ]
        for w, (pick, pick_val, pick_w), (v, side), start in zip(ws, near, steps, counted_from):
            # one pick set: each point with w >= t or w <= 1 - t once, in order
            want = np.flatnonzero((w >= t) | (w <= 1 - t))
            assert pick.tolist() == want.tolist()
            assert pick_val.tolist() == val[want].tolist()
            assert pick_w.tolist() == w[want].tolist()
            other = "right" if side == "left" else "left"
            assert start.tolist() == np.searchsorted(val, v, other).tolist()


def slice_rescan_representatives(
    values: np.ndarray, num: np.ndarray, den: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluator's former naming pass, kept as a reference: an input pair
    (a, b) with a / b == x for each float x in values, found by recomputing
    num / den slice by slice (any match, 1/2 or 2/4, names the same value)."""
    targets, where = np.unique(values, return_inverse=True)
    a = np.zeros(targets.size, dtype=np.int64)  # 0 until found: numerators are >= 1
    b = np.zeros_like(a)
    for lo in range(0, num.size, 1 << 16):
        v = num[lo : lo + (1 << 16)] / den[lo : lo + (1 << 16)]
        pos = np.searchsorted(targets, v).clip(max=targets.size - 1)
        hit = np.flatnonzero(targets[pos] == v)
        a[pos[hit]] = num[lo + hit]
        b[pos[hit]] = den[lo + hit]
        if a.all():
            return a[where], b[where]
    raise ArithmeticError("candidate value missing from its multiset")


def farey_neighbours(rng, b: int, count: int) -> list[tuple[int, int]]:
    """count pairs a/b, c/d with b c - a d = 1 and d < b: values 1 / (b d)
    apart, the closest two fractions with denominators <= b can be."""
    out = []
    while len(out) < 2 * count:
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1:
            d = -pow(a, -1, b) % b
            out += [(a, b), ((1 + a * d) // b, d)]
    return out


class TestRepresentatives:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_slice_rescan(self, seed):
        # denominators up to 2^26, the float-safe limit, with its extremes,
        # Farey neighbours near it and one value under several denominators
        rng = np.random.default_rng(seed)
        top = 1 << 26
        den = rng.integers(2, top + 1, size=3000)
        pts = list(zip(rng.integers(1, den).tolist(), den.tolist()))
        pts += [(1, top), (top - 1, top), (1, 2), (2, 4), (3, 6), (1 << 25, top)]
        pts += farey_neighbours(rng, top - int(rng.integers(0, 1000)), 50)
        small = rng.integers(2, 60, size=200)
        pts += list(zip(rng.integers(1, small).tolist(), small.tolist()))
        num, den = (np.array(x, dtype=np.int64) for x in zip(*pts))
        pick = rng.integers(0, num.size, size=2 * num.size)
        values = num[pick] / den[pick]
        a, b = _representatives(values, int(den.max()))
        assert (a * den[pick] == num[pick] * b).all()
        assert (np.gcd(a, b) == 1).all() and (a / b == values).all()
        ref_a, ref_b = slice_rescan_representatives(values, num, den)
        assert (a * ref_b == ref_a * b).all()

    @pytest.mark.parametrize("max_den", [3, 7, 1 << 26])
    def test_every_fraction_below_max_den(self, max_den):
        # every reduced a/b with b <= max_den is named as itself
        dens = range(2, min(max_den, 200) + 1)
        pairs = [(a, b) for b in dens for a in range(1, b) if math.gcd(a, b) == 1]
        num, den = np.array(pairs).T
        a, b = _representatives(num / den, max_den)
        assert a.tolist() == num.tolist() and b.tolist() == den.tolist()

    @pytest.mark.parametrize(
        "x,max_den",
        [(1 / 3, 2), (2 / 7, 6), (np.nextafter(0.5, 1.0), 1 << 26), (2.0**-20 + 2.0**-72, 1 << 26)],
    )
    def test_no_convergent_under_max_den(self, x, max_den):
        # 1/2 + 2^-53 is no value: every a/b != 1/2 with b <= 2^26 is 2^-27
        # away. 2^-20 + 2^-72 rounds to xi = 2^-20 itself, whose expansion
        # ends at 1 / 2^20 without a hit
        with pytest.raises(ArithmeticError, match="candidate value missing"):
            _representatives(np.array([0.5, x]), max_den)


@pytest.mark.parametrize(
    "engine",
    [
        star_discrepancy_arrays,
        lambda num, den: BlockAccumulator().add_block(num, den),
        weighted_prefix_maxima,
        lambda num, den: triangle_bound([(num, den)]),
    ],
    ids=["star_discrepancy_arrays", "add_block", "weighted_prefix_maxima", "triangle_bound"],
)
@pytest.mark.parametrize("num", [np.array([[1, 2]]), np.array([[1], [2]]), np.array(1)])
def test_non_1d_numerators_rejected(engine, num):
    # named by shape, not an unrelated broadcast, insert or type error
    shape = re.escape(str(num.shape))
    with pytest.raises(ValueError, match=f"1-D numerator array, got shape {shape}"):
        engine(num, 3)


class TestPrefixScan:
    def test_inversive_block_five(self):
        recs = prefix_scan(block_pairs(5, INV))
        assert [r.weighted for r in recs] == [
            Fraction(4, 5), Fraction(4, 5), Fraction(6, 5), Fraction(4, 5)
        ]

    def test_increasing_block_five(self):
        recs = prefix_scan(block_pairs(5, INC))
        assert [r.weighted for r in recs] == [
            Fraction(4, 5), Fraction(6, 5), Fraction(6, 5), Fraction(4, 5)
        ]

    def test_weighted_equals_k_times_disc(self):
        recs = prefix_scan(block_pairs(13, INV))
        for r in recs:
            assert r.weighted == r.k * r.disc.exact

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
    @pytest.mark.parametrize("ordering", [INV, INC])
    def test_fast_path_matches_general_engine(self, p, ordering):
        pts = block_pairs(p, ordering)
        recs = prefix_scan(pts)
        for r in recs:
            direct = star_discrepancy(pts[: r.k])
            assert (r.disc.num, r.disc.den) == (direct.num, direct.den)
            assert_witness_reproduces(pts[: r.k], r.disc)

    def test_mixed_denominators_general_path(self):
        pre = generate_prefix(SequenceFamily.OMEGA, 12)
        recs = prefix_scan(pre)
        for r in recs:
            direct = star_discrepancy(pre[: r.k])
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

    @pytest.mark.parametrize(
        "case", ["den 10^30", "one float, two rationals", "p * N >= 2^63"]
    )
    def test_huge_denominators_against_oracle(self, case):
        big = 10**30
        rng = np.random.default_rng(30)
        if case == "den 10^30":
            pts = [(int(a) * 10**12 + 1, big) for a in rng.integers(1, 10**18, size=150)]
        elif case == "one float, two rationals":
            assert 5 * 10**29 / big == (5 * 10**29 + 1) / big
            pts = [(5 * 10**29 + 1, big), (1, 2), (5 * 10**29, big), (1, 3), (2, 5)]
            pts += [(3, 4), (5 * 10**29, big), (2, 4), (5 * 10**29 + 1, big), (6, 7)]
        else:
            den = 1 << 61
            pts = [(1, den), (den - 1, den), (den >> 1, den), (3, den), (den >> 1, den)]
            assert den * len(pts) >= 1 << 63
        for r in prefix_scan(pts):
            assert r.disc == star_discrepancy_oracle(pts[: r.k])
            assert_witness_reproduces(pts[: r.k], r.disc)
            assert r.weighted == r.k * r.disc.exact

    def test_no_per_prefix_evaluation(self, monkeypatch):
        # every input off the grid takes the rank sweep, never the evaluators
        def refuse(*args):
            raise AssertionError("per-prefix evaluation")

        monkeypatch.setattr(discrepancy, "star_discrepancy_arrays", refuse)
        monkeypatch.setattr(discrepancy, "_star_discrepancy_exact", refuse)
        big, den = 10**30, 1 << 61
        for pts in (
            [(2, 3), (1, 2), (3, 7), (2, 4), (1, 3), (6, 7)],
            [(2, 3), (1, big), (big - 1, big), (1, 2), (12345, big)],
            [(5, den), (den - 5, den), (5, den), (1, den), (7, den)],
        ):
            for r in prefix_scan(pts):
                assert r.disc == star_discrepancy_oracle(pts[: r.k])

    def test_mixed_multisets_against_per_prefix_evaluation(self):
        # repeated values, also under different denominators (1/2 and 2/4);
        # sizes up to 300, mostly small, keep the per-prefix reference cheap
        rng = np.random.default_rng(88)
        for _ in range(100):
            size = min(int(rng.geometric(1 / 40)), 300)
            den = rng.integers(2, 61, size=size)
            num = rng.integers(1, den)
            for r in prefix_scan(list(zip(num.tolist(), den.tolist()))):
                want = star_discrepancy_arrays(num[: r.k], den[: r.k])
                assert (r.disc, r.weighted) == (want, r.k * want.exact)

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
    @pytest.mark.parametrize("p,ordering,digest", BLOCK_DIGESTS)
    def test_block_records_pinned(self, p, ordering, digest):
        nums = [int(a) for a in block_numerators(p, ordering)]
        records = prefix_scan([(a, p) for a in nums])
        assert scan_digest(records) == digest
        assert weighted_prefix_maxima(nums, p).tolist() == [
            int(r.weighted * p) for r in records
        ]

    @pytest.mark.parametrize("seed,den,size,digest", MULTISET_DIGESTS)
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
            pts = [(a, den) for a in nums]  # one denominator: the grid sweep
            for r in prefix_scan(pts):
                oracle = star_discrepancy_oracle(pts[: r.k])
                assert r.disc == star_discrepancy(pts[: r.k]) == oracle

    def test_denominator_beyond_int64_takes_exact_path(self):
        # the grid sweep would allocate an array of length 10**30
        big = 10**30
        pts = [(1, big), (2, big), (big - 1, big)]
        for r in prefix_scan(pts):
            assert r.disc == star_discrepancy_oracle(pts[: r.k])

    def test_sparse_common_denominator_skips_grid(self):
        # three points on a grid of 2^24 or 2^40 cells: the sweep visits the
        # three numerators, never the cells (2^40 cells would need 8 TiB)
        for den in (1 << 24, 1 << 40):
            pts = [(1, den), (den - 3, den), (5, den)]
            records = prefix_scan(pts)
            for r in records:
                assert r.disc == star_discrepancy_oracle(pts[: r.k])
                assert r.weighted == r.k * r.disc.exact
            assert weighted_prefix_maxima([a for a, _ in pts], den).tolist() == [
                int(r.weighted * den) for r in records
            ]

    def test_paths_agree_across_the_switch(self):
        # the sweep against one sorted evaluation per prefix; numerators drawn
        # from a few values repeat, so ties are common
        rng = np.random.default_rng(7)
        for den in range(5, 400):
            n = math.isqrt(den - 1)
            pool = rng.integers(1, den, size=3)
            pts = [(a, den) for a in rng.choice(pool, size=n + 1).tolist()]
            for r in prefix_scan(pts):
                assert r.disc == star_discrepancy(pts[: r.k])

    def test_last_record_is_full_multiset(self, table10):
        pre = generate_prefix(SequenceFamily.ETA, 13, table10)
        recs = prefix_scan(pre)
        assert recs[-1].disc.exact == star_discrepancy(pre).exact

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prefix_scan([])

    def test_order_matters_for_prefixes(self):
        inv = prefix_scan(block_pairs(5, INV))
        inc = prefix_scan(block_pairs(5, INC))
        assert [r.weighted for r in inv] != [r.weighted for r in inc]


class TestWeightedPrefixMaxima:
    @pytest.mark.parametrize("p,ordering", [(5, INV), (5, INC), (13, INC), (31, INV)])
    def test_matches_scan_records(self, p, ordering):
        block = block_pairs(p, ordering)
        nums = [a for a, _ in block]
        maxima = weighted_prefix_maxima(nums, p)
        recs = prefix_scan(block)
        for r, m in zip(recs, maxima.tolist()):
            assert r.weighted == Fraction(m, p)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            weighted_prefix_maxima([], 5)
        with pytest.raises(ValueError):
            weighted_prefix_maxima([5], 5)

    @pytest.mark.parametrize("nums,p", [([1.5, 2], 3), ([1, 2], 3.0), (np.array([1.0, 2.0]), 3)])
    def test_non_integers_rejected(self, nums, p):
        # a ValueError from the check, not a TypeError from a slice
        with pytest.raises(ValueError, match="integer arrays"):
            weighted_prefix_maxima(nums, p)

    def test_refuses_int64_overflow(self):
        # p * N >= 2^63 would overflow the int64 sweep; refused before any work
        with pytest.raises(OverflowError, match="2\\^63"):
            weighted_prefix_maxima([1, 2], 1 << 62)
        p = (1 << 62) - 1  # p * N = 2^63 - 2 still fits
        assert weighted_prefix_maxima([1, 2], p).tolist() == [p - 1, 2 * p - 4]
        assert star_discrepancy_oracle([(1, p), (2, p)]).exact == Fraction(2 * p - 4, 2 * p)

    def test_array_input_matches_list(self):
        nums = block_numerators(31, INV)
        assert weighted_prefix_maxima(nums, 31).tolist() == (
            weighted_prefix_maxima(nums.tolist(), 31).tolist()
        )


@pytest.fixture(scope="module")
def sweep_groups():
    """Seeded groups of 1-8 (nums, p) sequences with their per-prefix int64
    loop results: whole blocks and block prefixes in both orderings from
    p = 2 up, sparse numerators on grids of 2^20 and 2^25, a few numerators
    repeated many times, and in every third group a scaled whole block
    that alone needs int64 lanes (p N >= 2^31); lengths differ within a
    group."""
    rng = np.random.default_rng(20)
    primes = sieve_primes(400).tolist()

    def member(kind):
        p = int(rng.choice(primes[: int(rng.integers(1, len(primes) + 1))]))
        nums = block_numerators(p, INV if rng.integers(2) else INC)
        if kind == 0:
            return nums, p
        if kind == 1:
            return nums[: int(rng.integers(1, p))], p
        if kind == 2:
            den = int(rng.choice([1 << 20, 1 << 25]))
            return rng.integers(1, den, size=int(rng.integers(1, 60))), den
        if kind == 3:
            den = int(rng.integers(2, 60))
            pool = rng.integers(1, den, size=3)
            return rng.choice(pool, size=int(rng.integers(1, 250))), den
        c = -(-(1 << 31) // (p * nums.size))
        return nums * c, p * c

    groups = []
    for i in range(30):
        size = int(rng.integers(1, 9))
        kinds = rng.integers(0, 4, size=size)
        if i % 3 == 0:
            kinds[int(rng.integers(size))] = 4
        group = [member(int(kind)) for kind in kinds]
        groups.append((group, [per_prefix_int64_sweep(nums, p) for nums, p in group]))
    sizes = {len(group) for group, _ in groups}
    assert 1 in sizes and 8 in sizes
    return groups


@pytest.fixture(scope="module")
def mirror_cases():
    """(kind, nums, p) with the per-prefix int64 loop's result: random
    anti-symmetric permutations of primes, which the sweep mirrors, and
    inputs that look alike but take every row: anti-symmetric permutations
    of every composite p in 9..78, whole blocks less their last numerator,
    and shuffles of 1..p - 1 that are not anti-symmetric."""
    rng = np.random.default_rng(33)
    primes = sieve_primes(400)
    cases = [("whole", antisymmetric(rng, p), p) for p in [2, 3, 5, *rng.choice(primes, 30).tolist()]]
    cases += [("composite", antisymmetric(rng, p), p) for p in range(9, 79) if not is_prime(p)]
    for p, ordering in ((13, INV), (101, INC), (211, INV), (397, INC)):
        cases.append(("cut", block_numerators(p, ordering)[:-1], p))
    for p in (11, 101, 307):
        nums = rng.permutation(np.arange(1, p))
        assert not np.array_equal(nums[::-1], p - nums)
        cases.append(("shuffled", nums, p))
    return [(kind, nums, p, per_prefix_int64_sweep(nums, p)) for kind, nums, p in cases]


class TestGridSweep:
    @pytest.mark.slow
    def test_matches_per_prefix_int64_loop(self):
        # every prime up to 2000 in both orderings, in int32 lanes as given and
        # in int64 lanes as c nums / c p: the same points, slots c times as
        # large, and p N c >= 2^31; then every block again through the
        # grouped sweep of bounds, both orderings in one stream
        specs, want = [], []
        for p in sieve_primes(2000).tolist():
            for ordering in (INV, INC):
                nums = block_numerators(p, ordering)
                maxima, witness, at_side = per_prefix_int64_sweep(nums, p)
                c = -(-(1 << 31) // (p * nums.size))
                for scale in (1, c):
                    got = discrepancy._grid_sweeps([(nums * scale, p * scale)])[0]
                    assert got[0].dtype == np.int64
                    assert np.array_equal(got[0], maxima * scale), (p, ordering, scale)
                    assert np.array_equal(got[1], witness * scale), (p, ordering, scale)
                    assert np.array_equal(got[2], at_side), (p, ordering, scale)
                specs.append(BlockSpec(p, ordering))
                want.append((Fraction(int(maxima.max()), p), int(maxima.argmax()) + 1))
        assert block_max_weighted(specs) == want

    @pytest.mark.parametrize("cells", [1, 7, 1 << 17], ids=["one-row", "seven", "default"])
    def test_matches_per_prefix_int64_loop_sampled(self, monkeypatch, cells):
        # the shapes the sweep meets, each in int32 lanes and scaled into int64
        # lanes: prefixes of whole blocks (scan --prime --n), a few numerators
        # on a large grid, and a few numerators repeated many times
        monkeypatch.setattr(discrepancy, "_CELLS", cells)
        rng = np.random.default_rng(15)
        primes = sieve_primes(3000)
        cases = []
        for _ in range(12):
            p = int(rng.choice(primes))
            for ordering in (INV, INC):
                cases.append((block_numerators(p, ordering)[: int(rng.integers(1, p))], p))
        for den in (1 << 20, 999_983):
            cases.append((rng.integers(1, den, size=40), den))
            cases.append((np.array([1, den - 1, 2, den - 2, den // 2]), den))
        for den in (3, 10, 401):
            pool = rng.integers(1, den, size=3)
            cases.append((rng.choice(pool, size=300), den))
            cases.append((np.full(50, den - 1), den))
            cases.append((np.full(50, 1), den))
        for nums, p in cases:
            maxima, witness, at_side = per_prefix_int64_sweep(nums, p)
            c = -(-(1 << 31) // (p * nums.size))
            for scale in (1, c):
                got = discrepancy._grid_sweeps([(nums * scale, p * scale)])[0]
                assert np.array_equal(got[0], maxima * scale), (p, scale)
                assert np.array_equal(got[1], witness * scale), (p, scale)
                assert np.array_equal(got[2], at_side), (p, scale)

    @pytest.mark.parametrize(
        "cells", [1, 7, 1 << 17, 1 << 40], ids=["one-row", "seven", "default", "all-rows"]
    )
    def test_groups_match_single_sweeps(self, monkeypatch, sweep_groups, cells):
        # each member of a group gets its own single sweep's result, and the
        # per-prefix int64 loop's, whatever the row blocks
        monkeypatch.setattr(discrepancy, "_CELLS", cells)
        for group, refs in sweep_groups:
            got = discrepancy._grid_sweeps(group)
            assert len(got) == len(group)
            for (nums, p), sweep, ref in zip(group, got, refs):
                single = discrepancy._grid_sweeps([(nums, p)])[0]
                for a, b, c in zip(sweep, single, ref):
                    assert np.array_equal(a, b), (p, nums.size, len(group))
                    assert np.array_equal(a, c), (p, nums.size, len(group))

    def test_kernel_refuses_int64_overflow(self):
        # P N >= 2^63 is refused by the kernel for every entry: one sequence
        # through weighted_prefix_maxima, and a group whose largest p and
        # longest sequence belong to different members, neither overflowing
        # alone
        with pytest.raises(OverflowError, match="2\\^63"):
            weighted_prefix_maxima([1, 2], 1 << 62)
        with pytest.raises(OverflowError, match="2\\^63"):
            discrepancy._grid_sweeps([([1], 1 << 62), ([1, 2], 5)])

    def test_block_maxima_match_one_block_at_a_time(self):
        # every prime up to 1200, both orderings apart and interleaved: the
        # groups of bounds against one block_max_weighted call per block
        primes = sieve_primes(1200).tolist()
        want = {
            (p, o): block_max_weighted([BlockSpec(p, o)])[0] for p in primes for o in (INV, INC)
        }
        for orderings in ((INV,), (INC,), (INV, INC)):
            specs = [BlockSpec(p, o) for p in primes for o in orderings]
            got = block_max_weighted(specs)
            assert got == [want[s.p, s.ordering] for s in specs], orderings

    def test_block_maxima_refuse_before_any_sweep(self, monkeypatch):
        swept = []
        monkeypatch.setattr(discrepancy, "_grid_sweeps", swept.append)
        specs = [BlockSpec(p, INV) for p in (5, 7, 11, 13)]
        with pytest.raises(ValueError, match="p=13 exceeds the sweep limit 12"):
            block_max_weighted(specs, sweep_limit=12)
        assert swept == []

    def test_every_small_grid_in_every_order(self):
        # every multiset of up to 4 numerators on each grid j/p, p <= 7, in
        # every input order, prefix by prefix against the oracle: pins the
        # "at" and "left" decoding and the tie rule between the two sides
        oracle = {}
        for p in range(2, 8):
            for size in range(1, 5):
                for multiset in itertools.combinations_with_replacement(range(1, p), size):
                    for order in set(itertools.permutations(multiset)):
                        maxima, witness, at_side = discrepancy._grid_sweeps([(list(order), p)])[0]
                        for k in range(1, size + 1):
                            key = (p, tuple(sorted(order[:k])))
                            if key not in oracle:
                                oracle[key] = star_discrepancy_oracle([(a, p) for a in key[1]])
                            want = oracle[key]
                            assert Fraction(int(maxima[k - 1]), k * p) == want.exact, (p, order, k)
                            assert Fraction(int(witness[k - 1]), p) == want.witness, (p, order, k)
                            assert ("at" if at_side[k - 1] else "left") == want.side, (p, order, k)
        sides = {dv.side for dv in oracle.values()}
        assert sides == {"at", "left"}

    @pytest.mark.parametrize("p", [(1 << 25) - 1, (1 << 25) + 1025])
    def test_int32_lane_edge(self, p):
        # 64 sparse numerators just below p. At p N = 2^31 - 64 the slots fit
        # int32 lanes (2^31 +- 1 are odd, so no p gives them with N = 64). At
        # p N = 2^31 + 65600 every numerator v exceeds 2^25 + 1, so at k = 64
        # the slot s = v - 1 of the smallest v, with no numerator <= s, holds
        # -64 s < -2^31 and only int64 lanes hold it
        nums = np.random.default_rng(31).permutation(p - 1 - 3 * np.arange(64))
        pts = [(a, p) for a in nums.tolist()]
        maxima = weighted_prefix_maxima(nums, p)
        assert maxima.dtype == np.int64
        for r, m in zip(prefix_scan(pts), maxima.tolist()):
            want = star_discrepancy_oracle(pts[: r.k])
            assert r.disc == want
            assert m == r.k * p * want.exact

    @pytest.mark.parametrize("cells", [1, 1 << 40], ids=["one-row", "all-rows"])
    def test_block_size_changes_only_the_work(self, monkeypatch, cells):
        # one prefix per row block, and every prefix in one block
        monkeypatch.setattr(discrepancy, "_CELLS", cells)
        for seed, den, size, digest in MULTISET_DIGESTS:
            nums = np.random.default_rng(seed).integers(1, den, size=size).tolist()
            assert scan_digest(prefix_scan([(a, den) for a in nums])) == digest
        p, ordering, digest = BLOCK_DIGESTS[4]
        assert ordering == INV
        assert scan_digest(prefix_scan(block_pairs(p, ordering))) == digest

    @pytest.mark.parametrize(
        "cells", [1, 7, 1 << 17, 1 << 40], ids=["one-row", "seven", "default", "all-rows"]
    )
    def test_mirror_route_matches_per_prefix_int64_loop(self, monkeypatch, mirror_cases, cells):
        # each case alone; then groups of one kind, which mirror only when
        # every member is a whole prime block, and groups that mix a whole
        # block with a prefix or with a composite p, which sweep every row
        monkeypatch.setattr(discrepancy, "_CELLS", cells)
        kinds = {}
        for case in mirror_cases:
            kinds.setdefault(case[0], []).append(case)
        groups = [[case] for case in mirror_cases]
        for same in kinds.values():
            groups += [same[i : i + 5] for i in range(0, len(same), 5)]
        for other in ("cut", "composite", "shuffled"):
            groups += [[kinds["whole"][-1], kinds[other][0]], [kinds[other][-1], kinds["whole"][3]]]
        for group in groups:
            got = discrepancy._grid_sweeps([(nums, p) for _, nums, p, _ in group])
            for (kind, nums, p, ref), sweep in zip(group, got):
                for a, b in zip(sweep, ref):
                    assert np.array_equal(a, b), (kind, p, len(group))

    def test_increasing_blocks_closed_form(self):
        for p in sieve_primes(2000).tolist():
            assert_increasing_closed_form(p)

    @pytest.mark.slow
    def test_increasing_block_closed_form_in_int64_lanes(self):
        # the smallest prime with p (p - 1) >= 2^31: the mirrored rows in
        # int64 lanes
        p = 46349
        below = sieve_primes(p - 1)[-1]
        assert p * (p - 1) >= 1 << 31 > int(below) * (int(below) - 1)
        assert_increasing_closed_form(p)

    def test_bounds_increasing_closed_form(self, capsys):
        # max k D_k* of {1/p, ..., k/p} is (p^2 - 1) / (4p) at k = (p - 1) / 2,
        # and 1/2 at k = 1 for p = 2
        assert main(["bounds", "--pmax", "2000", "--ordering", "increasing"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 303
        for p, k, num, den, *_ in rows:
            p = int(p)
            want = (1, Fraction(1, 2)) if p == 2 else ((p - 1) // 2, Fraction(p * p - 1, 4 * p))
            assert (int(k), Fraction(int(num), int(den))) == want, p


class TestBlockMaxWeighted:
    def test_inversive_five(self):
        assert block_max_weighted([BlockSpec(5, INV)])[0] == (Fraction(6, 5), 3)

    def test_increasing_five(self):
        assert block_max_weighted([BlockSpec(5, INC)])[0] == (Fraction(6, 5), 2)

    def test_increasing_thirteen_meets_eighth(self):
        value, k = block_max_weighted([BlockSpec(13, INC)])[0]
        assert value >= Fraction(3, 2)
        assert value == Fraction(42, 13)
        assert k == 6  # (p-1)/2

    def test_sweep_limit_enforced(self):
        with pytest.raises(ValueError, match="sweep limit"):
            block_max_weighted([BlockSpec(13, INC)], sweep_limit=10)

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
        maxima = weighted_prefix_maxima(block_numerators(p, INV).tolist(), p)
        for k, m in enumerate(maxima.tolist(), start=1):
            assert m / p <= nw_bound(p, k) - 1e-9


class TestTriangleBound:
    def test_two_block_example(self):
        e3 = block_arrays(3, INV)
        e5 = block_arrays(5, INV)
        bound, exact = triangle_bound([e3, e5])
        assert bound == Fraction(11, 45)
        assert exact.exact == Fraction(1, 5)

    def test_single_block_is_tight(self):
        e5 = block_arrays(5, INV)
        bound, exact = triangle_bound([e5])
        assert bound == exact.exact

    def test_random_concatenations(self):
        rng = np.random.default_rng(42)
        primes = [3, 5, 7, 11, 13]
        for _ in range(50):
            count = int(rng.integers(1, 5))
            blocks = [
                block_arrays(int(rng.choice(primes)), INV if rng.integers(2) else INC)
                for _ in range(count)
            ]
            bound, exact = triangle_bound(blocks)
            assert exact.exact <= bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            triangle_bound([])
        with pytest.raises(ValueError, match="nonempty"):
            triangle_bound([(np.array([], dtype=np.int64), 5)])
        with pytest.raises(ValueError, match="nonempty"):
            triangle_bound([([], 3)])

    @pytest.mark.parametrize(
        "block,message",
        [
            ((np.array([1.0, 2.0]), 3), "integer arrays"),
            ((np.array([1, 2]), 3.0), "integer arrays"),
            ((np.array([1, 3]), 3), "strictly inside"),
            ((np.array([1, 2]), np.array([3, 2])), "strictly inside"),
            ((np.array([1, 2]), 10**30), "integer arrays"),  # den beyond int64
            ([Fraction(1, 3), Fraction(2, 3)], "integer arrays"),  # a value list, not a block
            # two pairs once passed for numerators (1, 3) over denominators (2, 5)
            ([(1, 3), (2, 5)], r"block 1 .*: expected a \(numerators, den\) tuple"),
            ([(1, 3), (2, 5), (1, 2)], r"block 1 .*: expected a \(numerators, den\) tuple"),
        ],
    )
    def test_rejects_invalid_block(self, block, message):
        with pytest.raises(ValueError, match=message):
            triangle_bound([block_arrays(5, INV), block])

    @pytest.mark.parametrize("seed", range(6))
    def test_per_point_denominators_and_exact_path_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # 1/2 = 2/4 = 3/6 = 6/12 in one block, then seeded mixed denominators
        blocks = [(np.array([1, 2, 3, 6]), np.array([2, 4, 6, 12]))]
        for _ in range(int(rng.integers(1, 5))):
            den = rng.integers(2, 13, size=int(rng.integers(1, 40)))
            blocks.append((rng.integers(1, den), den))
        if seed % 2:
            big = (1 << 26) + 15  # the whole concatenation takes the exact path
            blocks.append((rng.integers(1, big, size=int(rng.integers(1, 10))), big))
        pieces = [
            list(zip(num.tolist(), np.broadcast_to(den, num.shape).tolist()))
            for num, den in blocks
        ]
        bound, exact = triangle_bound(blocks)
        n = sum(len(pts) for pts in pieces)
        assert bound == sum(len(pts) * star_discrepancy_oracle(pts).exact for pts in pieces) / n
        assert exact == star_discrepancy_oracle([pt for pts in pieces for pt in pts])


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


def lower_halves(primes):
    # the values j / q, 1 <= j <= q / 2, of every block q, as sorted Fractions
    return sorted(Fraction(j, q) for q in primes for j in range(1, q // 2 + 1))


class TestLowerHalfChunks:
    """The chunk source of the boundary sweep and of prefix_discrepancy."""

    @pytest.mark.parametrize("size", [1 << 14, 1, 7], ids=["size-default", "size1", "size7"])
    @pytest.mark.parametrize("seed", range(8))
    def test_chunks_are_the_sorted_lower_half(self, seed, size):
        # random prime subsets in random order, cut into chunks of about 1, 7
        # and the default number of values: each chunk holds exactly the
        # values of its interval, its closed-form start index is its place in
        # the fully sorted half, and one sort of any ascending batch of chunks
        # sorts each of them in place
        rng = np.random.default_rng([27, seed])
        primes = rng.permutation(sieve_primes(400))[: int(rng.integers(1, 60))].tolist()
        half = lower_halves(primes)
        count = -(-len(half) // size)
        d = np.array(primes, dtype=np.int64)
        val, first, offsets, sizes, start = _chunk_values(d, np.arange(count), count)
        want = [bisect.bisect_right(half, Fraction(t, 2 * count)) for t in range(count)]
        assert start.tolist() == want
        assert (start + sizes).tolist() == want[1:] + [len(half)]
        # run r (chunk r // m, prime r % m) holds first[r] + 1, ... over its
        # prime from offsets[r] on: the names of the sweep's tracked points
        ends = np.append(offsets[1:], val.size)
        named = []
        for r, (f, lo, hi) in enumerate(zip(first.tolist(), offsets.tolist(), ends.tolist())):
            q = primes[r % len(primes)]
            assert val[lo:hi].tolist() == [j / q for j in range(f + 1, f + 1 + hi - lo)]
            named += [Fraction(j, q) for j in range(f + 1, f + 1 + hi - lo)]
        assert sorted(named) == half
        batch = np.flatnonzero(rng.random(count) < 0.5)
        val, _, _, sizes, start = _chunk_values(d, batch, count)
        val.sort()
        got = np.split(val, np.cumsum(sizes)[:-1])
        for t, x, s0 in zip(batch.tolist(), got, start.tolist()):
            assert x.tolist() == [float(v) for v in half[want[t] : want[t] + x.size]]
            assert s0 == want[t]

    def test_representatives_name_every_chunk_value(self):
        primes = build_prime_table(300).primes
        chunk, count = _lower_half_chunks(primes)
        values = np.concatenate([chunk(t) for t in range(count)])
        a, b = _representatives(values, max(primes))
        assert (a / b == values).all()
        # (a, b) run over every (j, q) exactly once
        q = np.repeat(primes, [q // 2 for q in primes])
        j = np.concatenate([np.arange(1, q // 2 + 1) for q in primes])
        order = np.lexsort((a, b))
        assert b[order].tolist() == q.tolist() and a[order].tolist() == j.tolist()

    def test_deviations_use_the_whole_multiset(self):
        # u = N x - #{y < x} with N counting both halves, not the half's size
        chunk, count = _lower_half_chunks([5, 3])
        values = np.concatenate([chunk(t) for t in range(count)])
        got = _deviation(values, 6, 0)
        want = [6 * Fraction(1, 5) - 0, 6 * Fraction(1, 3) - 1, 6 * Fraction(2, 5) - 2]
        assert got.tolist() == pytest.approx([float(w) for w in want], abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_deviation_is_one_rounding(self, seed):
        # every u is n x - (lo + i) rounded once, as with a fresh arange per
        # chunk, over one ramp slice or many, with lo one index or one per
        # value (value k then has index lo[k] + k)
        rng = np.random.default_rng(seed)
        for size in (1, 5, 1000, 16_384, 16_385, 70_000, 3):
            val = np.sort(rng.random(size) / 2)
            n = int(rng.integers(1, 1 << 40))
            lo = int(rng.integers(0, 1 << 45))
            want = val * n - np.arange(lo, lo + size, dtype=np.float64)
            assert _deviation(val, n, lo).tobytes() == want.tobytes()
            per = rng.integers(0, 1 << 45, size=size).astype(np.float64)
            want = val * n - (np.arange(size) + per)
            assert _deviation(val, n, per).tobytes() == want.tobytes()

    def test_deviation_holds_one_slice_of_temporaries(self):
        # next to u itself, a ramp slice or two: no index array of the
        # chunk's length, as a fresh arange per chunk was
        val = np.sort(np.random.default_rng(3).random(1 << 18) / 2)
        tracemalloc.start()
        try:
            _deviation(val, 10**9, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < val.nbytes + 3 * discrepancy._ramp().nbytes


class TestBandMaximum:
    @pytest.mark.parametrize(
        "lower",
        [
            [(1, 2)],
            [(1, 3)],
            [(1, 5), (2, 5), (1, 2)],
            # clustered near 0: 1 - min u wins, so the low band decides
            [(1, 101), (1, 53), (1, 37), (49, 101)],
            [(1, 97), (2, 97), (3, 97), (1, 2)],
        ],
    )
    def test_matches_oracle_on_symmetric_multisets(self, lower):
        pts = lower + [(b - a, b) for a, b in lower if 2 * a != b]
        n = len(pts)
        a, b = (np.array(v, dtype=np.int64) for v in zip(*lower))
        c = np.array([count_below(pts, Fraction(x, y)) for x, y in lower], dtype=np.int64)
        assert _picked_maximum(a, b, c, (n * a - c * b) / b, n) == star_discrepancy_oracle(pts)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tie_heavy_multisets(self, monkeypatch, seed):
        # distinct lower halves over denominators below 14, where deviations
        # tie often, with and without 1/2, every point tracked. The mirror
        # 1 - a/b of a tracked point never wins a tie, so _confirm is passed
        # no threshold above 1/2
        seen = []
        confirm = discrepancy._confirm

        def recorded(cand, n):
            seen.extend(cand)
            return confirm(cand, n)

        monkeypatch.setattr(discrepancy, "_confirm", recorded)
        rng = np.random.default_rng(seed)
        halves = sorted({Fraction(a, b) for b in range(3, 14) for a in range(1, (b + 1) // 2)})
        for half in ([], [Fraction(1, 2)]):
            for _ in range(25):
                pick = rng.choice(len(halves), int(rng.integers(1, len(halves) + 1)), replace=False)
                lower = [(x.numerator, x.denominator) for x in [halves[i] for i in pick] + half]
                pts = lower + [(b - a, b) for a, b in lower if 2 * a != b]
                n = len(pts)
                a, b = (np.array(v, dtype=np.int64) for v in zip(*lower))
                c = np.array([count_below(pts, Fraction(x, y)) for x, y in lower], dtype=np.int64)
                got = _picked_maximum(a, b, c, (n * a - c * b) / b, n)
                assert got == star_discrepancy_oracle(pts)
        assert len(seen) >= 50 and all(2 * a <= b for a, b, _, _ in seen)

    @pytest.mark.parametrize("seed", range(20))
    def test_repeated_values_at_their_own_indices(self, seed):
        # the contract of every sorted evaluator: each point a/b at its own
        # sorted index c, repeated and unreduced values included (1/3, 2/6,
        # 1/3), in multisets with no symmetry; omega-like points over
        # denominators below 13, drawn with replacement, with and without 1/2
        rng = np.random.default_rng(seed)
        omega = [(j, q) for q in range(2, 13) for j in range(1, q) if 2 * j != q]
        for half in ([], [(1, 2)], [(3, 6), (1, 2), (2, 4)]):
            for _ in range(10):
                pick = rng.choice(len(omega), int(rng.integers(1, 40)))
                pts = sorted([omega[i] for i in pick] + half, key=lambda ab: Fraction(*ab))
                n = len(pts)
                a, b = (np.array(v, dtype=np.int64) for v in zip(*pts))
                c = np.arange(n)
                got = _picked_maximum(a, b, c, (n * a - c * b) / b, n)
                assert got == star_discrepancy_oracle(pts)


class TestConfirm:
    @pytest.mark.parametrize("seed", range(30))
    def test_float_order_matches_fraction_order(self, seed):
        # the same candidates scaled past 2^26, where floats no longer order
        # the thresholds faithfully: value, witness and side must agree,
        # ties and equal values included
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        cand = []
        for _ in range(int(rng.integers(1, 25))):
            b = int(rng.integers(2, 9))
            a = int(rng.integers(1, b))
            k = int(rng.integers(1, 4))
            count = int(rng.integers(0, n + 1))
            cand.append((a * k, b * k, count, ["at", "left"][int(rng.integers(2))]))
        cand += [(1, 2, n // 2, "at"), (2, 4, n // 2, "left"), (3, 6, n // 2 + 1, "at")]
        cand = [cand[i] for i in rng.permutation(len(cand))]
        big = (1 << 26) + 1
        scaled = [(a * big, b * big, count, side) for a, b, count, side in cand]
        assert _confirm(cand, n) == _confirm(scaled, n)

    @pytest.mark.parametrize("seed", range(30))
    def test_candidate_order_is_irrelevant(self, seed):
        # about half the candidates tie the maximum w / n at thresholds x / n
        # under several representations, 1/4 and 2/8 among them, on both
        # sides; the same list scaled past 2^26 too. Every shuffle must pick
        # the same winner
        rng = np.random.default_rng(seed)
        n = 4 * int(rng.integers(1, 4))
        w = int(rng.integers(1, n // 2))
        cand = []
        for x, side in [(n // 4, "at"), (n // 4, "left")] * 2 + [
            (int(rng.integers(1, n)), ["at", "left"][int(rng.integers(2))])
            for _ in range(int(rng.integers(1, 25)))
        ]:
            dev = w if rng.integers(2) else int(rng.integers(0, w))
            count = x + dev if side == "at" else x - dev
            if 0 <= count <= n:
                k = int(rng.integers(1, 4))
                cand.append((x * k, n * k, count, side))
        cand += [(1, 4, n // 4 + w, "at"), (2, 8, n // 4 + w, "at")]
        big = (1 << 26) + 1
        for cands in (cand, [(a * big, b * big, count, side) for a, b, count, side in cand]):
            want = _confirm(cands, n)
            for _ in range(20):
                assert _confirm([cands[i] for i in rng.permutation(len(cands))], n) == want

    def test_smallest_threshold_then_at_before_left(self):
        # every candidate is worth 1/4; 2/8 "at" and 1/4 "left" share the
        # smallest threshold
        cand = [(3, 4, 2, "left"), (2, 4, 3, "at"), (1, 4, 0, "left"), (2, 8, 2, "at")]
        assert _confirm(cand, 4) == DiscrepancyValue(1, 4, 1, 4, "at")
        cand = [(1, 2, 0, "left"), (2, 4, 4, "at")]
        assert _confirm(cand, 4) == DiscrepancyValue(1, 2, 1, 2, "at")


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
        rebuild = discrepancy._rebuild

        def counted(*args):
            calls.append(1)
            return rebuild(*args)

        monkeypatch.setattr(discrepancy, "_rebuild", counted)
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", width)
        assert list(_boundary_discrepancies(primes, 1, 120)) == reference[:120]
        assert min_calls <= len(calls) <= max_calls

    @pytest.mark.parametrize("m_lo", [1, 2, 3, 45])
    def test_width_zero_half_point_in_both_bands(self, primes, reference, monkeypatch, m_lo):
        # 1/2 is its own mirror: while it holds the maximum (m = 1, 2) it
        # sits in both bands at once. The first row tests its empty tracked
        # set before it rebuilds, so the first nonempty call is the rebuild's
        kept = []
        bands = discrepancy._bands

        def recorded(w, b, floor):
            # w = b u, as in _bands
            if w.size:
                kept.append((bool((w >= floor * b).any()), bool((b - w >= floor * b).any())))
            return bands(w, b, floor)

        monkeypatch.setattr(discrepancy, "_bands", recorded)
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", 0)
        assert list(_boundary_discrepancies(primes, m_lo, 120)) == reference[m_lo - 1 : 120]
        if m_lo <= 2:
            assert kept[0] == (True, True)

    @pytest.mark.parametrize(
        "order",
        [
            lambda ps: ps,  # 2 first: the 1/2 point is in the first merge
            lambda ps: ps[1:],  # no 1/2 point, N even
            lambda ps: [*ps[1:6], 2, *ps[6:]],  # 1/2 arrives as a new point
            lambda ps: ps[::-1],
        ],
        ids=["two-first", "no-two", "two-later", "descending"],
    )
    @pytest.mark.parametrize("width", [0, 12])
    def test_block_orders(self, primes, monkeypatch, order, width):
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", width)
        ps = order(list(primes[:80]))
        for m_lo in (1, 7):
            want = merged_boundary_values(ps, m_lo, len(ps))
            assert list(_boundary_discrepancies(ps, m_lo, len(ps))) == want

    @pytest.mark.parametrize("seed", range(12))
    def test_random_block_sets(self, primes, monkeypatch, seed):
        # random subsets of the first 120 primes in random order, from a
        # random first row: chunk edges of every prime, and tracked points
        # of a block that arrived before the largest prime
        rng = np.random.default_rng(seed)
        ps = rng.permutation(primes[:120])[: int(rng.integers(2, 121))].tolist()
        m_lo = int(rng.integers(1, len(ps) + 1))
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", int(rng.choice([0, 3, 12])))
        want = merged_boundary_values(ps, m_lo, len(ps))
        assert list(_boundary_discrepancies(ps, m_lo, len(ps))) == want

    @pytest.mark.parametrize("slice_len", [None, 7], ids=["slice-default", "slice7"])
    @pytest.mark.parametrize("width", [0, 12, 40])
    def test_tracks_exactly_the_band_points(
        self, primes, reference, monkeypatch, width, slice_len
    ):
        # after every row the tracked set is every lower-half point with
        # u >= floor (high band) or u <= 1 - floor (low band), with its exact
        # count: a filter that dropped a band point would show here even
        # where the point never holds the maximum. Sweep chunks of about 7
        # values leave most chunks unheld, so most new points are never
        # counted
        if slice_len:
            monkeypatch.setattr(discrepancy, "_SLICE", slice_len)
        seen = []
        bands, picked_maximum = discrepancy._bands, discrepancy._picked_maximum

        def recorded_bands(w, b, floor):
            seen.append(floor)
            return bands(w, b, floor)

        def recorded_maximum(a, b, c, u, n):
            seen.append((a.tolist(), b.tolist(), c.tolist(), n))
            return picked_maximum(a, b, c, u, n)

        monkeypatch.setattr(discrepancy, "_bands", recorded_bands)
        monkeypatch.setattr(discrepancy, "_picked_maximum", recorded_maximum)
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", width)
        assert list(_boundary_discrepancies(primes, 3, 110)) == reference[2:110]
        rows = [(seen[i - 1], seen[i]) for i in range(1, len(seen)) if isinstance(seen[i], tuple)]
        assert len(rows) == 108
        low_points = 0
        for m, (floor, (a, b, c, n)) in enumerate(rows, 3):
            ps = primes[:m]
            q = np.repeat(ps, [p // 2 for p in ps])
            j = np.concatenate([np.arange(1, p // 2 + 1) for p in ps])
            order = np.argsort(j / q)  # faithful: distinct values, small denominators
            j, q = j[order], q[order]
            w = n * j - np.arange(j.size) * q  # q u, exact
            high, low = w >= floor * q, q - w >= floor * q
            want = np.flatnonzero(high | low)
            low_points += int(low.sum())
            assert n == sum(p - 1 for p in ps)
            got = sorted(zip(a, b, c), key=lambda t: t[0] / t[1])
            assert got == list(zip(j[want].tolist(), q[want].tolist(), want.tolist()))
        if width:
            assert low_points  # the low band held points

    @pytest.mark.parametrize("slice_len", [1, 3, 7, 10**9])
    def test_slice_size_changes_only_the_work(self, primes, reference, monkeypatch, slice_len):
        # the sweep cuts the half into chunks of about _SLICE values, and new
        # points are counted only inside the chunks a rebuild held; 10**9
        # makes the half one chunk, held every time
        counts = []
        rebuild = discrepancy._rebuild

        def recorded(d, count, *args):
            counts.append(count)
            return rebuild(d, count, *args)

        monkeypatch.setattr(discrepancy, "_SLICE", slice_len)
        monkeypatch.setattr(discrepancy, "_rebuild", recorded)
        assert list(_boundary_discrepancies(primes, 3, 150)) == reference[2:150]
        half = sum(p // 2 for p in primes[:150])
        assert set(counts) == {-(-half // slice_len)}

    @pytest.mark.parametrize(
        "order",
        # with 2 first, 1/2 closes the last chunk and no new point lies past it
        [lambda ps: ps, lambda ps: ps[1:]],
        ids=["two-first", "no-two"],
    )
    @pytest.mark.parametrize("width", [0, 12])
    def test_skipped_points_lie_outside_both_bands(self, primes, monkeypatch, width, order):
        # every new point j/p the sweep never counted has, by an exact
        # integer recount, floor > u > 1 - floor at the floor of its row
        calls = []
        beside, bands = discrepancy._beside, discrepancy._bands

        def recorded_beside(held, count, p):
            # the first row holds no chunk yet; its block goes to the rebuild
            j, k = beside(held, count, p)
            if held.size:
                calls.append([p, j.tolist(), None])
            return j, k

        def recorded_bands(w, b, floor):
            # the first _bands call after a block's new points tests them
            if calls and calls[-1][2] is None:
                calls[-1][2] = floor
            return bands(w, b, floor)

        monkeypatch.setattr(discrepancy, "_SLICE", 7)
        monkeypatch.setattr(discrepancy, "_BAND_WIDTH", width)
        monkeypatch.setattr(discrepancy, "_beside", recorded_beside)
        monkeypatch.setattr(discrepancy, "_bands", recorded_bands)
        blocks = order(list(primes[:150]))
        for _ in _boundary_discrepancies(blocks, 1, len(blocks)):
            pass
        index = {p: m for m, p in enumerate(blocks, 1)}
        skipped = 0
        for p, counted, floor in calls:
            ps = np.array(blocks[: index[p]])
            n = int((ps - 1).sum())
            j = np.setdiff1d(np.arange(1, p // 2 + 1), counted)
            # #{i/q < j/p} is floor(j q / p) for q != p and j - 1 for q = p
            w = n * j - ((np.multiply.outer(j, ps) // p).sum(axis=1) - 1) * p  # p u
            assert (w < floor * p).all() and (p - w < floor * p).all(), p
            skipped += j.size
        assert skipped > sum(len(js) for _, js, _ in calls)  # most were skipped

    def test_short_slices(self, primes, reference, monkeypatch):
        # sweep chunks of about 7 values: every rebuild makes and holds many
        monkeypatch.setattr(discrepancy, "_SLICE", 7)
        assert list(_boundary_discrepancies(primes, 1, 60)) == reference[:60]

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_certificates_bound_every_point(self, primes, monkeypatch, size):
        # at every row, every lower-half point of a chunk made s blocks
        # before, old or new, has lo - s < u < hi + s by an exact integer
        # recount of u; at s = 0 the chunk's own extremes lie within float
        # error of its certificate
        state = {}
        rebuild = discrepancy._rebuild

        def recorded(d, count, n, cert, made, carry):
            out = rebuild(d, count, n, cert, made, carry)
            state.update(cert=cert.copy(), made=made.copy(), count=count)
            return out

        monkeypatch.setattr(discrepancy, "_SLICE", size)
        monkeypatch.setattr(discrepancy, "_rebuild", recorded)
        ps = primes[:150]
        aged = 0
        for m, _ in enumerate(_boundary_discrepancies(ps, 1, len(ps)), 1):
            cert, made, count = state["cert"], state["made"], state["count"]
            assert (made > 0).all()  # the first rebuild makes every chunk
            q = np.repeat(ps[:m], [p // 2 for p in ps[:m]])
            j = np.concatenate([np.arange(1, p // 2 + 1) for p in ps[:m]])
            order = np.argsort(j / q)  # faithful: distinct values, small denominators
            j, q = j[order], q[order]
            u = (sum(p - 1 for p in ps[:m]) * j - np.arange(j.size) * q) / q
            # chunk t holds the j / q in (t / 2T, (t + 1) / 2T]
            t = (2 * count * j - 1) // q
            s = m - made[t]
            hi, lo = cert[t, 0] + s, cert[t, 1] - s
            old = s == 0
            assert (u[old] <= hi[old] + 1e-9).all() and (u[old] >= lo[old] - 1e-9).all()
            assert (u[~old] < hi[~old]).all() and (u[~old] > lo[~old]).all(), m
            aged += int((~old).sum())
        assert aged > 100_000

    @pytest.mark.parametrize("size", [1, 7, 10**9], ids=["size1", "size7", "one-chunk"])
    @pytest.mark.parametrize("seed", range(4))
    def test_chunk_sizes_on_random_block_sets(self, primes, monkeypatch, seed, size):
        # chunks of about 1 and 7 values and the whole half as one chunk, over
        # random prime subsets in random order from a random first row
        rng = np.random.default_rng([41, seed])
        ps = rng.permutation(primes[:100])[: int(rng.integers(2, 101))].tolist()
        m_lo = int(rng.integers(1, len(ps) + 1))
        # the reference first: its evaluator reads slices of _SLICE values too
        want = merged_boundary_values(ps, m_lo, len(ps))
        monkeypatch.setattr(discrepancy, "_SLICE", size)
        assert list(_boundary_discrepancies(ps, m_lo, len(ps))) == want

    @pytest.mark.parametrize(
        "m_lo,m_hi,subset,size",
        [
            (1, 600, None, None),
            (50, 300, None, None),
            *((None, None, seed, size) for size in (1, 7, 64) for seed in range(2)),
        ],
        ids=[
            "1..600",
            "50..300",
            *(f"random{seed}-size{size}" for size in (1, 7, 64) for seed in range(2)),
        ],
    )
    def test_carry_matches_a_fresh_make(self, monkeypatch, m_lo, m_hi, subset, size):
        # at every rebuild each carried chunk, its buffered new points merged
        # in, holds bit for bit the sorted values and denominators a fresh
        # make gives, and the rebuild from the carry returns what one from
        # no carry does: floor, certificates, held chunks, picks, values and
        # shifts
        primes = build_prime_table(600).primes
        if subset is not None:
            rng = np.random.default_rng([34, subset])
            # random prime subsets in random order, from a random first row
            # early enough for later rebuilds, and narrow bands that rebuild
            # often
            ps = rng.permutation(primes[:120])[: int(rng.integers(40, 121))].tolist()
            m_lo, m_hi = int(rng.integers(1, len(ps) // 3)), len(ps)
            monkeypatch.setattr(discrepancy, "_SLICE", size)
            monkeypatch.setattr(discrepancy, "_BAND_WIDTH", 3 * subset)
        else:
            ps = primes[:m_hi]
        rebuild = discrepancy._rebuild
        checked = {"chunks": 0, "rebuilds": 0}

        def fresh_chunk(d, t, count):
            val, _, offsets, _, _ = _chunk_values(d, np.array([t]), count)
            order = np.argsort(val)
            den = np.repeat(d, np.diff(offsets, append=val.size))
            return np.sort(val), den[order].astype(np.int32)

        def compared(d, count, n, cert, made, carry):
            held, val, den, ends = carry
            assert val.dtype == np.float64 and den.dtype == np.int32
            assert ends[0] == 0 and ends[-1] == val.size == den.size
            for i, t in enumerate(held.tolist()):
                want_val, want_den = fresh_chunk(d, t, count)
                assert val[ends[i] : ends[i + 1]].tobytes() == want_val.tobytes(), t
                assert den[ends[i] : ends[i + 1]].tobytes() == want_den.tobytes(), t
                checked["chunks"] += 1
            fresh_cert, fresh_made = cert.copy(), made.copy()
            want = rebuild(d, count, n, fresh_cert, fresh_made, discrepancy._NO_CARRY)
            got = rebuild(d, count, n, cert, made, carry)
            assert got[0] == want[0]
            assert cert.tobytes() == fresh_cert.tobytes() and (made == fresh_made).all()
            picks = [set(zip(*(v.tolist() for v in out[1]))) for out in (got, want)]
            assert picks[0] == picks[1]
            for g, w in zip((*got[2], got[3]), (*want[2], want[3])):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            checked["rebuilds"] += held.size > 0
            return got

        monkeypatch.setattr(discrepancy, "_rebuild", compared)
        for _ in _boundary_discrepancies(ps, m_lo, m_hi):
            pass
        assert checked["rebuilds"] >= 5 and checked["chunks"] >= checked["rebuilds"]

    @pytest.mark.slow
    def test_memory_flat_in_n(self):
        # one row at m = 2000 (N = 1.6e7) and at m = 5000 (N = 1.1e8): the
        # first rebuild makes every chunk of the half, a batch of about
        # _CHUNK values and its O(m) edges at a time, and holds only the
        # chunks near the maximum (11 and 18 of 128 KiB; 4.6 and 6.1 MiB in
        # all). A store of the half took 64 MB and 456 MB here
        table = build_prime_table(5000)
        for m in (2000, 5000):
            tracemalloc.start()
            try:
                dv = next(_boundary_discrepancies(table.primes, m, m))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dv.den % table.cumulative[m] == 0
            assert peak < 10 << 20, m

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

