from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from primedisc.asymptotics import TheoremRow, lambert_w, scaled_discrepancy, verify_theorem
from primedisc.discrepancy import DiscrepancyValue, star_discrepancy_oracle
from primedisc.errors import TableTooSmallError
from primedisc.primes import build_prime_table, m_asymptotic
from primedisc.sequences import SequenceFamily, generate_prefix


class TestLambertW:
    def test_anchor_values(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w(-math.exp(-1)) == pytest.approx(-1.0, abs=1e-10)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, rel=1e-14)

    def test_against_scipy_oracle(self):
        scipy_special = pytest.importorskip("scipy.special")
        shifted = np.geomspace(1e-6, 1e10 + 1 / math.e, 120)
        xs = list(shifted - 1 / math.e) + [-0.3, -0.25, -0.1, 0.5, 2.0]
        xs += [3e307, 5.5e307, 1e308, sys.float_info.max]
        for x in xs:
            ours = lambert_w(float(x))
            ref = float(scipy_special.lambertw(float(x)).real)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_residual_contract_on_grid(self):
        shifted = np.geomspace(1e-6, 1e10 + 1 / math.e, 100)
        for x in shifted - 1 / math.e:
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_strictly_increasing(self):
        shifted = np.geomspace(1e-5, 1e8, 60)
        ws = [lambert_w(float(x)) for x in shifted - 1 / math.e]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_ratio_to_log_climbs_toward_one(self):
        ratios = [lambert_w(10.0**k) / math.log(10.0**k) for k in range(3, 11)]
        assert all(0.5 < r < 1.0 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)
        with pytest.raises(ValueError):
            lambert_w(-1.0)
        with pytest.raises(ValueError):
            lambert_w(float("nan"))
        # +inf must not come back as NaN
        for x in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="not finite"):
                lambert_w(x)

    def test_large_argument(self):
        w = lambert_w(1e15)
        assert w * math.exp(w) == pytest.approx(1e15, rel=1e-12)

    @pytest.mark.parametrize("x", [1e300, 2.0**1000, 3e307, 5.5e307, 1e308, sys.float_info.max])
    def test_top_of_float_range(self, x):
        # W e^W overflows a float here, so the residual contract is checked
        # in exact rationals
        w = lambert_w(x)
        residual = abs(Fraction(w) * Fraction(math.exp(w)) - Fraction(x))
        assert residual <= Fraction(1e-12) * Fraction(x)


class TestLambertIdentityResidual:
    def test_tiny_on_samples(self):
        # relative defect of e^W(x) = x / W(x), the identity in its other form
        for x in (-0.3, -0.25, 0.5, 1.0, math.e, 100.0, 1e8):
            w = lambert_w(x)
            ratio = x / w
            assert abs(math.exp(w) - ratio) / max(1.0, abs(ratio)) <= 1e-12


class TestMAsymptotic:
    def test_values(self):
        assert m_asymptotic(100) == pytest.approx(
            2.0 * math.sqrt(100 / math.log(100)), rel=1e-15
        )
        assert m_asymptotic(10**6) == pytest.approx(538.0795987604138, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            m_asymptotic(1)


class TestScaledDiscrepancy:
    def test_value_from_discrepancy(self):
        dv = DiscrepancyValue(1, 5, 1, 5, "left")
        got = scaled_discrepancy(7, dv)
        assert got == pytest.approx(math.sqrt(7 * math.log(7)) / 5, rel=1e-15)
        assert got == pytest.approx(0.73813, rel=1e-4)

    def test_accepts_plain_numbers(self):
        assert scaled_discrepancy(100, 0.1) == pytest.approx(
            math.sqrt(100 * math.log(100)) * 0.1, rel=1e-15
        )
        assert scaled_discrepancy(100, Fraction(1, 10)) == scaled_discrepancy(100, 0.1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            scaled_discrepancy(1, 0.5)


class TestVerifyTheorem:
    def test_first_rows(self, table10):
        rows = verify_theorem(table10, 1, 5)
        assert [(r.m, r.n, r.p) for r in rows] == [
            (1, 1, 2), (2, 3, 3), (3, 7, 5), (4, 13, 7), (5, 23, 11)
        ]
        assert [r.disc.exact for r in rows] == [
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
            Fraction(1, 7), Fraction(16, 161),
        ]

    def test_matches_oracle_on_true_prefix(self, table10):
        # the multiset shortcut must agree with the honest inversive prefix
        rows = verify_theorem(table10, 1, 6)
        for r in rows:
            pre = generate_prefix(SequenceFamily.ETA, r.n, table10)
            oracle = star_discrepancy_oracle(pre)
            assert r.disc.exact == oracle.exact

    def test_lower_bound_fields_and_gap(self, table10):
        for r in verify_theorem(table10, 1, 8):
            assert (r.lower_num, r.lower_den) == (1, 2 * r.p)
            assert r.disc.exact >= Fraction(1, 2 * r.p)
            assert r.disc.exact >= Fraction(1, r.p)

    def test_scaled_none_only_for_first(self, table10):
        rows = verify_theorem(table10, 1, 4)
        assert rows[0].scaled is None
        assert rows[1].scaled == pytest.approx(
            math.sqrt(3 * math.log(3)) / 3, rel=1e-15
        )
        assert all(r.scaled is not None for r in rows[1:])

    def test_partial_range(self, table10):
        rows = verify_theorem(table10, 4, 6)
        assert [r.m for r in rows] == [4, 5, 6]

    def test_validation(self, table10):
        with pytest.raises(ValueError):
            verify_theorem(table10, 0, 5)
        with pytest.raises(ValueError):
            verify_theorem(table10, 5, 4)
        with pytest.raises(TableTooSmallError):
            verify_theorem(table10, 1, 11)


    @pytest.mark.parametrize("m_lo,m_hi,bad", [(1.0, 5, "1.0"), (1, 5.0, "5.0"), ("1", 3, "'1'")])
    def test_non_integer_range_refused(self, table10, m_lo, m_hi, bad):
        with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
            verify_theorem(table10, m_lo, m_hi)

    def test_numpy_integer_range_accepted(self, table10):
        assert verify_theorem(table10, np.int64(4), np.int32(6)) == verify_theorem(table10, 4, 6)
