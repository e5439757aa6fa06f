"""Tests for the closed-form pants trigonometry and comparison constants.

Frozen expected values were computed with mpmath at 30 significant digits
from the defining formulas; the inline comments show the expressions.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teichspace.pants_trig import (
    BetweenArcConstants,
    DomainError,
    Interval,
    between_arc_constants,
    gap_constants,
    orthogeodesic_between,
    orthogeodesic_self,
    self_arc_bracket,
    self_arc_constant,
    self_arc_floor,
    third_boundary_from_arc,
)

lengths = st.floats(min_value=0.05, max_value=8.0,
                    allow_nan=False, allow_infinity=False)
# The documented boundary range.
envelope = st.floats(min_value=1e-4, max_value=40.0)


class TestOrthogeodesicBetween:
    def test_symmetric_in_boundary_pair(self):
        assert orthogeodesic_between(1, 3, 2) == pytest.approx(
            orthogeodesic_between(3, 1, 2), rel=0, abs=0)

    def test_reference_value(self):
        # acosh((cosh(1)^2 + cosh(1)) / sinh(1)^2), mpmath 30 dps
        assert orthogeodesic_between(2, 2, 2) == pytest.approx(
            1.7049128323580137, abs=1e-14)

    def test_strictly_increasing_in_third_boundary(self):
        vals = [orthogeodesic_between(2, 2, la) for la in np.linspace(0, 6, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cusp_third_boundary_allowed(self):
        assert orthogeodesic_between(2, 2, 0) == pytest.approx(
            1.5438736658106095, abs=1e-14)

    @pytest.mark.parametrize("li,lj", [(0, 2), (2, 0), (-1, 2)])
    def test_rejects_nonpositive_pair(self, li, lj):
        with pytest.raises(DomainError):
            orthogeodesic_between(li, lj, 1)

    @given(li=lengths, lj=lengths, la=lengths)
    @settings(max_examples=200)
    def test_exp_bracket(self, li, lj, la):
        # exp(la/2)/(2 lam) <= cosh l(arc) <= lam exp(la/2) with lam the
        # coefficient bound of the pair.
        lam = between_arc_constants([li, lj]).lam
        c = math.cosh(orthogeodesic_between(li, lj, la))
        e = math.exp(la / 2)
        assert e / (2 * lam) <= c * (1 + 1e-12)
        assert c <= lam * e * (1 + 1e-12)


    @given(li=envelope, lj=envelope, la=st.just(0.0) | envelope)
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_over_the_envelope(self, li, lj, la):
        with mpmath.workdps(50):
            a, b, c = (mpmath.mpf(v) / 2 for v in (li, lj, la))
            want = mpmath.acosh((mpmath.cosh(a) * mpmath.cosh(b) + mpmath.cosh(c))
                                / (mpmath.sinh(a) * mpmath.sinh(b)))
            got = orthogeodesic_between(li, lj, la)
            assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("li,lj", [(38.0, 1.0), (40.0, 40.0),
                                       (37.43, 39.31)])
    def test_long_boundaries(self, li, lj):
        assert 0.0 < orthogeodesic_between(li, lj, 0.0) < math.inf


class TestThirdBoundaryFromArc:
    @pytest.mark.parametrize("li,lj,la", [(2, 2, 2), (40, 40, 5), (36, 36, 5)])
    def test_roundtrip_identity(self, li, lj, la):
        lg = orthogeodesic_between(li, lj, la)
        assert third_boundary_from_arc(li, lj, lg) == pytest.approx(la, abs=1e-12)

    @pytest.mark.parametrize("li,lj,lg", [(1, 3, 5), (40, 40, 5), (36, 36, 5)])
    def test_roundtrip_through_formula(self, li, lj, lg):
        la = third_boundary_from_arc(li, lj, lg)
        assert orthogeodesic_between(li, lj, la) == pytest.approx(lg, abs=1e-12)

    def test_minimal_arc_maps_to_zero(self):
        # At the feasibility threshold the acosh argument is exactly 1.
        lg = orthogeodesic_between(2, 2, 0.0)
        assert third_boundary_from_arc(2, 2, lg) == pytest.approx(0.0, abs=1e-6)

    def test_below_threshold_rejected_with_minimum(self):
        # The pairwise arc floor acosh(cc/ss) sits strictly below the
        # feasibility threshold acosh((cc+1)/ss), so it must be rejected.
        r0 = between_arc_constants([2, 2]).arc_floor
        with pytest.raises(DomainError) as err:
            third_boundary_from_arc(2, 2, r0)
        assert "minimal feasible arc length" in str(err.value)

    @given(li=lengths, lj=lengths, la=lengths)
    @settings(max_examples=200)
    def test_inverse_roundtrip_random(self, li, lj, la):
        lg = orthogeodesic_between(li, lj, la)
        assert third_boundary_from_arc(li, lj, lg) == pytest.approx(la, abs=1e-8)


class TestOrthogeodesicSelf:
    def test_symmetric_in_other_boundaries(self):
        assert orthogeodesic_self(1, 2, 3) == pytest.approx(
            orthogeodesic_self(1, 3, 2), rel=0, abs=1e-15)

    def test_reference_value(self):
        # 2 acosh(sqrt((cosh 1 + cosh 2)(cosh 1 + 1)) / sinh 1), mpmath
        assert orthogeodesic_self(2, 2, 2) == pytest.approx(
            3.6122259996822519, abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            orthogeodesic_self(0, 1, 1)

    @given(li=lengths, la=lengths, ld=lengths)
    @settings(max_examples=200)
    def test_floor(self, li, la, ld):
        assert orthogeodesic_self(li, la, ld) >= self_arc_floor(li) - 1e-12

    @given(li=lengths, la=lengths, ld=lengths)
    @settings(max_examples=200)
    def test_curve_versus_arc_inequality(self, li, la, ld):
        # cosh(la/2) <= sinh(li/2) sinh(l(arc)/2)
        lg = orthogeodesic_self(li, la, ld)
        assert math.cosh(la / 2) <= math.sinh(li / 2) * math.sinh(lg / 2) * (1 + 1e-12)

    @given(li=lengths, la=lengths, ld=lengths)
    @settings(max_examples=300)
    def test_two_sided_bracket(self, li, la, ld):
        bracket = self_arc_bracket(li)
        gap = orthogeodesic_self(li, la, ld) - max(la, ld)
        assert bracket.lo - 1e-10 <= gap <= bracket.hi + 1e-10

    @given(li=envelope, la=envelope, ld=envelope)
    @example(li=40.0, la=1e-4, ld=1e-4)
    @example(li=39.52703595802186, la=0.11836819238737609,
             ld=0.004403998472195287)
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_over_the_envelope(self, li, la, ld):
        with mpmath.workdps(50):
            x, a, d = (mpmath.mpf(v) / 2 for v in (li, la, ld))
            want = 2 * mpmath.acosh(mpmath.sqrt(
                (mpmath.cosh(d) + mpmath.cosh(a + x))
                * (mpmath.cosh(d) + mpmath.cosh(a - x))) / mpmath.sinh(x))
            got = orthogeodesic_self(li, la, ld)
            assert abs(got - want) <= 1e-14 * want


class TestBetweenArcConstants:
    def test_reference_values(self):
        # mpmath: lam = (cosh(1)^2+1)/sinh(1)^2, K = log(2 lam),
        # r0 = acosh(cosh(1)^2/sinh(1)^2), x0 = 2 acosh(2 lam sinh(1)^2 - cosh(1)^2)
        c = between_arc_constants([2, 2])
        assert c.lam == pytest.approx(2.4481233219326209, abs=1e-14)
        assert c.threshold == pytest.approx(1.5884689205476291, abs=1e-14)
        assert c.arc_floor == pytest.approx(1.1405470063861973, abs=1e-14)
        assert c.curve_cap == pytest.approx(4.3143190664003013, abs=1e-13)
        assert c.ratio_const == pytest.approx(
            max(1 / 3, c.arc_floor / c.curve_cap, c.arc_floor / c.threshold))

    def test_threshold_consistency(self):
        c = between_arc_constants([1.0, 2.5, 0.7])
        assert c.threshold == pytest.approx(math.log(2 * c.lam), abs=1e-15)

    def test_repeated_entries_do_not_change_constants(self):
        a = between_arc_constants([2, 2])
        b = between_arc_constants([2, 2, 2])
        assert (a.lam, a.threshold, a.arc_floor, a.curve_cap) == (
            b.lam, b.threshold, b.arc_floor, b.curve_cap)

    def test_permutation_invariance(self):
        a = between_arc_constants([1, 2, 3])
        b = between_arc_constants([3, 1, 2])
        assert a == b

    def test_floor_below_cap_at_moderate_lengths(self):
        for lam in ([1, 1], [2, 2], [1, 2, 3]):
            c = between_arc_constants(lam)
            assert c.arc_floor <= c.curve_cap

    def test_rejects_cusp(self):
        with pytest.raises(DomainError):
            between_arc_constants([2, 0])

    @given(st.lists(lengths, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_curve_cap_always_defined(self, lams):
        # 2 lam ss - cc >= cc + 2 for every pair, so the cap never degenerates.
        c = between_arc_constants(lams)
        assert c.curve_cap > 0

    @given(li=lengths, lj=lengths, lg=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=300)
    def test_long_arc_ratio_window(self, li, lj, lg):
        # For lg >= 2 * threshold, the third boundary satisfies
        # 1 <= la/lg <= 3.  (The bracket gives la within 2*lg +- 2*threshold.)
        c = between_arc_constants([li, lj])
        if lg < 2 * c.threshold or lg <= orthogeodesic_between(li, lj, 0.0):
            return
        la = third_boundary_from_arc(li, lj, lg)
        assert 1.0 - 1e-9 <= la / lg <= 3.0 + 1e-9


class TestSelfArcConstant:
    def test_in_unit_interval(self):
        for lam in ([2, 2], [1, 1], [0.3], [4, 4]):
            c = self_arc_constant(lam)
            assert 0 < c <= 1

    def test_permutation_invariance(self):
        assert self_arc_constant([1, 2]) == self_arc_constant([2, 1])

    def test_single_boundary_defined(self):
        assert 0 < self_arc_constant([2]) <= 1

    def test_zone_constants_certify_bracket(self):
        # Spot-check the certified inequality m2/m1 >= c * r on a grid of
        # synthetic self-arc configurations built from the exact identity.
        for li in (0.5, 1.0, 2.0, 4.0):
            c = self_arc_constant([li])
            for la1, ld1, la2, ld2 in [(0.5, 0.5, 3, 3), (1, 2, 2, 4),
                                       (0.2, 4, 0.4, 8), (2, 2, 2.5, 2.5)]:
                l1 = orthogeodesic_self(li, la1, ld1)
                l2 = orthogeodesic_self(li, la2, ld2)
                if l2 <= l1:
                    continue
                ratio = max(la2 / la1, ld2 / ld1)
                assert ratio >= c * (l2 / l1) - 1e-12


class TestGapConstants:
    def test_gap_positive_at_moderate_boundary(self):
        g = gap_constants([2, 2])
        assert g.gap > 0
        assert g.c == min(g.c_between, g.c_self, 1.0)

    def test_zero_gap_iff_constant_one(self):
        assert math.isclose(-math.log(1.0), 0.0)

    def test_permutation_invariance(self):
        assert gap_constants([1, 3]) == gap_constants([3, 1])

    def test_components_reported(self):
        g = gap_constants([1, 1])
        assert g.c_between == between_arc_constants([1, 1]).ratio_const
        assert g.c_self == self_arc_constant([1, 1])


    @given(st.lists(envelope, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_constant_in_unit_interval_over_the_envelope(self, boundary):
        gaps = gap_constants(boundary)
        assert 0.0 < gaps.c <= 1.0
        assert between_arc_constants(boundary).arc_floor > 0.0


class TestDoubleRange:
    """Lengths whose intermediates or result leave double range are
    rejected naming them, not returned as inf or 0 or raised as a bare
    OverflowError or ZeroDivisionError."""

    @pytest.mark.parametrize("form,args,named", [
        (orthogeodesic_self, (1, 720, 1), "orthogeodesic_self(1, 720, 1)"),
        (orthogeodesic_self, (1, 1500, 1), "orthogeodesic_self(1, 1500, 1)"),
        (orthogeodesic_between, (800, 800, 1),
         "orthogeodesic_between(800, 800, 1)"),
        (orthogeodesic_between, (1e-200, 1e-200, 1),
         "orthogeodesic_between(1e-200, 1e-200, 1)"),
        (gap_constants, ([1e-300, 1.0],), "double range, got 1e-300"),
        (third_boundary_from_arc, (1, 1, 800), "third_boundary_from_arc(1, 1, 800)"),
        (third_boundary_from_arc, (1, 1, 1500),
         "third_boundary_from_arc(1, 1, 1500)"),
        (self_arc_floor, (1e-320,), "self_arc_floor(1e-320)"),
        (self_arc_bracket, (1e-320,), "self_arc_bracket(1e-320)"),
        (gap_constants, ([700.0],), "between_arc_constants((700.0,))"),
        (gap_constants, ([2e-154],), "between_arc_constants((2e-154,))"),
    ])
    def test_rejected_naming_the_lengths(self, form, args, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            form(*args)


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
