"""Tests for the metric estimators and extremal-length brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import enumerate_curves, family_lengths, length_table
from teichspace.metrics import (
    _sup_log_ratio,
    arc_lower,
    arc_of,
    bordered_ext_bracket,
    maskit_bracket,
    teich_interval_report,
    teich_of,
    thurston_lower,
    thurston_of,
)
from teichspace.pants_trig import DomainError

lengths = st.floats(min_value=0.05, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def point(m, lengths_, twists, boundary):
    return FNPoint(g=m.genus, n=m.nboundary, lengths=lengths_, twists=twists,
                   boundary=boundary)


class TestMaskitBracket:
    def test_reference(self):
        iv = maskit_bracket(2.0)
        assert iv.lo == pytest.approx(2 / math.pi)
        assert iv.hi == pytest.approx(math.e)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            maskit_bracket(0.0)

    @given(l=lengths)
    @settings(max_examples=200)
    def test_nonempty_never_degenerate(self, l):
        iv = maskit_bracket(l)
        assert iv.lo < iv.hi

    def test_endpoint_ratio_limit(self):
        # hi/lo = (pi/2) exp(l/2) -> pi/2 as l -> 0.
        ratios = [maskit_bracket(l).hi / maskit_bracket(l).lo
                  for l in (1e-1, 1e-2, 1e-3)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        for l, r in zip((1e-1, 1e-2, 1e-3), ratios):
            assert r == pytest.approx(math.pi / 2 * math.exp(l / 2), rel=1e-12)
        assert ratios[-1] == pytest.approx(math.pi / 2, rel=1e-3)

    @pytest.mark.parametrize("bracket,finite,overflow", [
        (bordered_ext_bracket, 700.0, 800.0), (maskit_bracket, 1400.0, 1500.0)])
    def test_overflowing_upper_end_raises(self, bracket, finite, overflow):
        assert math.isfinite(bracket(finite).hi)
        with pytest.raises(DomainError, match=f"at length {overflow!r}.*teich_of"):
            bracket(overflow)

    def test_bordered_bracket_is_half_of_doubled(self):
        for l in (0.5, 1.0, 2.7):
            direct = bordered_ext_bracket(l)
            doubled = maskit_bracket(2 * l)
            assert direct.lo == pytest.approx(doubled.lo / 2)
            assert direct.hi == pytest.approx(doubled.hi / 2)
            assert direct.hi == pytest.approx(0.5 * l * math.exp(l))


class TestThurstonLower:
    def setup_method(self):
        self.m = build_marking(1, 2)
        rng = np.random.default_rng(9)
        self.x = point(self.m, rng.uniform(0.8, 2.5, 2),
                       rng.uniform(-1, 1, 2), [1.0, 1.0])

    def test_reflexive_zero(self):
        est = thurston_lower(self.x, self.x, self.m, 2)
        assert est.value == 0.0

    @pytest.mark.parametrize("boundary", [[1.0, 1.2, 0.8], [0.0, 0.0, 0.0]])
    def test_pair_of_pants_has_no_essential_curve(self, boundary):
        m = build_marking(0, 3)
        x = point(m, [], [], boundary)
        with pytest.raises(DomainError, match="no essential curve"):
            thurston_lower(x, x, m, 1)

    def test_scaled_curve_witnessed(self):
        lengths = list(self.x.lengths)
        lengths[0] *= 1.7
        y = point(self.m, lengths, self.x.twists, self.x.boundary)
        est = thurston_lower(self.x, y, self.m, 1)
        assert est.value >= math.log(1.7) - 1e-12

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(10)
        y = point(self.m, rng.uniform(0.8, 2.5, 2), rng.uniform(-1, 1, 2),
                  [1.0, 1.0])
        vals = [thurston_lower(self.x, y, self.m, d).value for d in range(4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_boundary_mismatch_rejected(self):
        y = point(self.m, self.x.lengths, self.x.twists, [1.0, 2.0])
        with pytest.raises(DomainError):
            thurston_lower(self.x, y, self.m, 1)

    def test_exhaustive_family_oracle_one_holed_torus(self):
        # Independent brute force: evaluate every family member at both
        # points directly and take the best ratio.
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.0], [1.5])
        y = point(m, [2.0], [1.3], [1.5])
        est = thurston_lower(x, y, m, 3)
        classes = [c for c in enumerate_curves(m, 3) if c.essential]
        best = max(math.log(b / a) for a, b in zip(
            family_lengths(x, m, classes), family_lengths(y, m, classes)))
        assert est.value == pytest.approx(best, abs=0)

    def test_punctured_points_supported(self):
        x, y = phi_gamma(self.x), phi_gamma(self.x)
        assert thurston_lower(x, y, self.m, 1).value == 0.0


class TestArcLower:
    def setup_method(self):
        self.m = build_marking(1, 2)
        rng = np.random.default_rng(11)
        self.x = point(self.m, rng.uniform(0.8, 2.5, 2),
                       rng.uniform(-1, 1, 2), [1.0, 1.0])
        self.y = point(self.m, rng.uniform(0.8, 2.5, 2),
                       rng.uniform(-1, 1, 2), [1.0, 1.0])

    def test_reflexive_zero(self):
        assert arc_lower(self.x, self.x, self.m, 2).value == 0.0

    def test_dominates_thurston(self):
        for d in range(3):
            assert (arc_lower(self.x, self.y, self.m, d).value
                    >= thurston_lower(self.x, self.y, self.m, d).value)

    def test_rejects_punctured(self):
        with pytest.raises(DomainError):
            arc_lower(phi_gamma(self.x), phi_gamma(self.y), self.m, 1)

    def test_boundary_classes_contribute_ratio_one(self):
        est = arc_lower(self.x, self.y, self.m, 0)
        assert est.value >= 0.0


class TestBothDirections:
    def test_two_sided_estimates(self):
        m = build_marking(1, 1)
        x = point(m, [1.0], [0.0], [1.0])
        y = point(m, [2.5], [0.4], [1.0])
        a = thurston_lower(x, y, m, 2).value
        b = thurston_lower(y, x, m, 2).value
        assert max(a, b) >= 0


class TestTeichInterval:
    def setup_method(self):
        self.m = build_marking(1, 2)
        rng = np.random.default_rng(12)
        self.x = point(self.m, rng.uniform(0.8, 2.5, 2),
                       rng.uniform(-1, 1, 2), [1.0, 1.0])

    def test_contains_zero_at_equal_points(self):
        iv = teich_interval_report(self.x, self.x, self.m, 1).interval
        assert iv.lo == 0.0
        assert iv.hi > 0.0

    @pytest.mark.parametrize("boundary", [[1.0, 1.2, 0.8], [0.0, 0.0, 0.0]])
    def test_pair_of_pants_has_no_essential_curve(self, boundary):
        m = build_marking(0, 3)
        x = point(m, [], [], boundary)
        with pytest.raises(DomainError, match="no essential curve"):
            teich_interval_report(x, x, m, 1)

    def test_width_bound(self):
        rng = np.random.default_rng(13)
        y = point(self.m, rng.uniform(0.8, 2.5, 2), rng.uniform(-1, 1, 2),
                  [1.0, 1.0])
        rep = teich_interval_report(self.x, y, self.m, 2)
        bound = math.log(self.m.nboundary + 2) + 2 * rep.witness_max_log_width
        assert rep.interval.hi - rep.interval.lo <= bound + 1e-12

    def test_punctured_pair_supported(self):
        iv = teich_interval_report(phi_gamma(self.x), phi_gamma(self.x),
                                   self.m, 1).interval
        assert iv.lo <= 0.0 <= iv.hi

    def test_mixed_pair_rejected(self):
        with pytest.raises(DomainError):
            teich_interval_report(self.x, phi_gamma(self.x), self.m, 1)

    @pytest.mark.parametrize("boundary,bb", [(1.0, bordered_ext_bracket),
                                             (0.0, maskit_bracket)])
    def test_scaled_single_curve_against_direct_brackets(self, boundary, bb):
        # One-holed torus with only the cuff length scaled: compare against
        # a direct evaluation of the bracket ends over the same family.
        m = build_marking(1, 1)
        x = point(m, [1.0], [0.0], [boundary])
        y = point(m, [2.0], [0.0], [boundary])
        rep = teich_interval_report(x, y, m, 0)
        lo = 0.0
        hi = None
        for c in enumerate_curves(m, 0):
            if not c.essential:
                continue
            (l1,), (l2,) = family_lengths(x, m, [c]), family_lengths(y, m, [c])
            b1, b2 = bb(l1), bb(l2)
            v_lo = 0.5 * max(0.0, math.log(b2.lo / b1.hi), math.log(b1.lo / b2.hi))
            v_hi = 0.5 * max(math.log(b2.hi / b1.lo), math.log(b1.hi / b2.lo))
            lo = max(lo, v_lo)
            hi = v_hi if hi is None else max(hi, v_hi)
        assert rep.interval.lo == pytest.approx(lo, abs=1e-12)
        assert rep.interval.hi == pytest.approx(hi + math.log(3), abs=1e-12)


class TestReductions:
    """The estimators are reductions over the two points' length tables."""

    def setup_method(self):
        self.m = build_marking(2, 2)
        rng = np.random.default_rng(17)
        self.x1, self.x2 = (point(self.m, rng.uniform(0.5, 4.0, 5),
                                  rng.uniform(-2, 2, 5), [1.0, 1.5])
                            for _ in range(2))

    def test_reductions_equal_estimators(self):
        m, d = self.m, 2
        for x1, x2 in ((self.x1, self.x2), (self.x2, self.x1)):
            t1, t2 = length_table(x1, m, d), length_table(x2, m, d)
            assert thurston_of(t1, t2) == thurston_lower(x1, x2, m, d)
            assert arc_of(t1, t2) == arc_lower(x1, x2, m, d)
            assert teich_of(t1, t2) == teich_interval_report(x1, x2, m, d)
            p1, p2 = phi_gamma(x1), phi_gamma(x2)
            s1, s2 = length_table(p1, m, d), length_table(p2, m, d)
            assert thurston_of(s1, s2) == thurston_lower(p1, p2, m, d)
            assert teich_of(s1, s2) == teich_interval_report(p1, p2, m, d)

    def test_thurston_is_max_over_essential_family(self):
        m = self.m
        classes = [c for c in enumerate_curves(m, 2) if c.essential]
        l1 = family_lengths(self.x1, m, classes)
        l2 = family_lengths(self.x2, m, classes)
        ratios = [math.log(b / a) for a, b in zip(l1, l2)]
        est = thurston_of(length_table(self.x1, m, 2), length_table(self.x2, m, 2))
        assert est.value == max(ratios)
        assert est.witness == classes[ratios.index(max(ratios))].label()
        assert est.family_size == len(classes)

    def test_table_layout(self):
        t = length_table(self.x1, self.m, 1)
        assert t.classes == tuple(enumerate_curves(self.m, 1))
        assert len(t.lengths) == len(t.classes)
        assert t.arcs == tuple(self.m.arcs)
        assert len(t.arc_lengths) == len(t.arcs)
        essential = [(c, v) for c, v in zip(t.classes, t.lengths) if c.essential]
        assert list(zip(t.essential, t.essential_lengths)) == essential
        assert t.members == t.classes + t.arcs
        assert t.member_lengths == t.lengths + t.arc_lengths
        image = length_table(phi_gamma(self.x1), self.m, 1)
        assert image.arcs == () and image.arc_lengths == ()
        assert image.members == image.classes

    def test_rejects_mismatched_tables(self):
        t1 = length_table(self.x1, self.m, 1)
        with pytest.raises(DomainError):
            thurston_of(t1, length_table(self.x2, self.m, 2))
        with pytest.raises(DomainError):
            thurston_of(t1, length_table(phi_gamma(self.x2), self.m, 1))
        with pytest.raises(DomainError):
            arc_of(length_table(phi_gamma(self.x1), self.m, 1),
                   length_table(phi_gamma(self.x2), self.m, 1))
        with pytest.raises(DomainError):
            length_table(self.x1, build_marking(1, 2), 1)


def plain_sup_log_ratio(members, a, b):
    """The reduction without the screen: one log per member."""
    best, witness = None, None
    for member, x, y in zip(members, a, b):
        val = math.log(y / x)
        if best is None or val > best:
            best, witness = val, member
    return best, witness


_TABLE_LENGTH = st.floats(math.log(1e-160), math.log(1500.0)).map(math.exp)


@st.composite
def screened_members(draw):
    """Length pairs drawn over the range a table holds, with pairs planted
    at the largest ratio (``k = 0``) and ``k`` = 1 to 8 ulps below it, at
    drawn places before and after it.  A planted pair is ``(2**-x, f)``
    for the ratio ``f * 2**x``, so its ratio is exact."""
    pairs = draw(st.lists(st.tuples(_TABLE_LENGTH, _TABLE_LENGTH),
                          min_size=1, max_size=30))
    top = max(b / a for a, b in pairs)
    for k in draw(st.lists(st.integers(0, 8), max_size=8)):
        ratio = top
        for _ in range(k):
            ratio = math.nextafter(ratio, 0.0)
        f, x = math.frexp(ratio)
        pairs.insert(draw(st.integers(0, len(pairs))), (math.ldexp(1.0, -x), f))
    return pairs


class TestSupLogRatio:
    """The screened reduction logs only ratios near the largest and gives
    the value and witness of logging every member."""

    @given(pairs=screened_members())
    @settings(max_examples=400, deadline=None)
    def test_screen_matches_plain_loop(self, pairs):
        members = [f"m{i}" for i in range(len(pairs))]
        a, b = zip(*pairs)
        assert _sup_log_ratio(members, a, b) == plain_sup_log_ratio(members, a, b)

    def test_near_miss_before_the_largest_wins_a_tied_log(self):
        # Near 1e153 one ulp of the ratio is far below one ulp of its log,
        # so the pair one ulp below the largest ratio ties it in log and,
        # coming first, is the witness.
        top = 1000.0 / 1e-150
        near = math.nextafter(top, 0.0)
        assert math.log(near) == math.log(top)
        f, x = math.frexp(near)
        a, b = (math.ldexp(1.0, -x), 1e-150, 1.0), (f, 1000.0, 1.0)
        members = ["near", "top", "one"]
        assert _sup_log_ratio(members, a, b) == (math.log(top), "near")
        assert _sup_log_ratio(members[::-1], a[::-1], b[::-1]) == (math.log(top), "top")
