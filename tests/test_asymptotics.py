"""Tests for the asymptotic comparison constants."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from teichspace.asymptotics import (
    _nielsen_factor,
    bmms_dilation,
    comparison_bounds,
    cusp_radius,
    cusp_truncation_constant,
    nielsen_k_infinity,
    nielsen_truncation_index,
)
from teichspace.pants_trig import DomainError


class TestCuspRadius:
    def test_unit_horocycle(self):
        assert cusp_radius(1.0) == math.exp(-2 * math.pi)

    def test_small_eps_below_half_unit_radius(self):
        assert cusp_radius(0.2) < 0.5 * cusp_radius(1.0)

    def test_strictly_increasing(self):
        grid = np.linspace(0.05, 1.0, 30)
        vals = [cusp_radius(e) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1.5])
    def test_domain(self, eps):
        with pytest.raises(DomainError):
            cusp_radius(eps)


class TestCuspTruncationConstant:
    def test_tends_to_one(self):
        vals = [cusp_truncation_constant(e, 1) for e in (1e-4, 1e-8, 1e-16, 1e-24)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_at_least_one(self):
        for e in (1e-4, 1e-6, 1e-10):
            for n in (1, 2, 5):
                if 1 - 2 * n * math.pi * math.sqrt(2) * e ** 0.25 <= 0:
                    continue
                assert cusp_truncation_constant(e, n) >= 1.0

    def test_decreasing_on_domain(self):
        grid = np.geomspace(1e-12, 1e-4, 20)
        vals = [cusp_truncation_constant(e, 1) for e in grid]
        assert all(a > b for a, b in zip(vals[1:], vals))

    def test_rejects_eps_outside_validity_domain(self):
        # 2 pi sqrt(2) * (1e-2)^(1/4) > 1 already for a single cusp, so the
        # defining estimate is vacuous there for every n >= 1.
        with pytest.raises(DomainError):
            cusp_truncation_constant(1e-2, 1)

    def test_more_cusps_need_smaller_eps(self):
        cusp_truncation_constant(1e-8, 1)
        with pytest.raises(DomainError):
            cusp_truncation_constant(1e-4, 10)


class TestBmmsDilation:
    def test_single_entry(self):
        assert bmms_dilation([0.1]) == pytest.approx(1.02)

    def test_empty_product(self):
        assert bmms_dilation([]) == 1.0

    def test_two_entries_multiply(self):
        assert bmms_dilation([0.1, 0.2]) == pytest.approx(1.02 * 1.08)

    def test_monotone_and_tends_to_one(self):
        grid = np.linspace(0.01, 0.49, 25)
        vals = [bmms_dilation([e]) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert bmms_dilation([1e-9]) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(DomainError):
                bmms_dilation([bad])

    def test_repeated_factor_is_the_list_product(self):
        assert bmms_dilation(itertools.repeat(0.1, 1000)) == bmms_dilation([0.1] * 1000)

    def test_leaving_double_range_is_rejected(self):
        # (1.02)^n passes the largest double at n = 35843.
        assert bmms_dilation(itertools.repeat(0.1, 35842)) < math.inf
        with pytest.raises(DomainError, match="after 35843 factors"):
            bmms_dilation(itertools.repeat(0.1, 40000))


class TestComparisonBounds:
    def test_reference_values(self):
        b = comparison_bounds(1)
        assert b["sup_defect"] == pytest.approx(math.log(3))
        assert b["coordinate_bound"] == pytest.approx(math.log(4))
        assert b["split_factor"] == 4.0

    def test_monotone_in_n(self):
        for key in ("sup_defect", "coordinate_bound", "split_factor"):
            vals = [comparison_bounds(n)[key] for n in range(1, 6)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_coordinate_bound_exceeds_sup_defect(self):
        for n in range(1, 8):
            b = comparison_bounds(n)
            assert b["coordinate_bound"] > b["sup_defect"]


class TestNielsenKInfinity:
    def test_at_zero(self):
        assert nielsen_k_infinity(0.0) == 1.0

    def test_reference_values(self):
        # 2000-term mpmath truncations at 60 dps.
        assert nielsen_k_infinity(1.0) == pytest.approx(
            0.24499420926345385, abs=1e-12)
        assert nielsen_k_infinity(0.1) == pytest.approx(
            0.87817952727402795, abs=1e-12)
        assert nielsen_k_infinity(3.0) == pytest.approx(
            0.017914409718911761, abs=1e-12)

    def test_truncation_depths_agree(self):
        for lam in (0.1, 1.0, 3.0):
            m = nielsen_truncation_index(lam)
            a = nielsen_k_infinity(lam)
            b = math.prod(_nielsen_factor(lam, i) for i in range(1, 4 * m + 1))
            assert abs(a - b) < 1e-12

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 4.0, 20)
        vals = [nielsen_k_infinity(l) for l in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        for lam in (0.01, 0.5, 2.0, 10.0):
            assert 0.0 < nielsen_k_infinity(lam) <= 1.0

    @pytest.mark.parametrize("lam", [40.0, 60.0, 100.0, 700.0])
    def test_long_boundaries_against_mpmath(self, lam):
        # The leading factors are 1 - (2/pi) atan(y) with y up to e^350;
        # 400 digits carry them through the cancellation exactly.
        m = nielsen_truncation_index(lam)
        with mpmath.workdps(400):
            x = mpmath.mpf(lam)
            want = mpmath.fprod(
                1 - 2 / mpmath.pi * mpmath.atan(2 * mpmath.sinh(x / 2 ** i))
                for i in range(1, m + 1))
            assert abs(nielsen_k_infinity(lam) / want - 1) < 1e-14

    @pytest.mark.parametrize("lam", [720.0, 1500.0, 1e300])
    def test_past_double_range_raises(self, lam):
        named = re.escape(f"nielsen_k_infinity({lam!r})")
        with pytest.raises(DomainError, match=named):
            nielsen_k_infinity(lam)

