"""Tests for the metric estimators and extremal-length brackets."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import (
    enumerate_curves,
    family_lengths,
    hexagon_lengths,
    length_table,
)
from teichspace.metrics import (
    TeichIntervalReport,
    _log_brackets,
    _sup_log_ratio,
    arc_lower,
    arc_of,
    teich_interval_report,
    teich_of,
    thurston_lower,
    thurston_of,
)
from teichspace.pants_trig import DomainError, Interval

lengths = st.floats(min_value=0.05, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def point(m, lengths_, twists, boundary):
    return FNPoint(g=m.genus, n=m.nboundary, lengths=lengths_, twists=twists,
                   boundary=boundary)


class TestMaskitBracket:
    """The log brackets ``log(l/pi) <= log Ext <= log(l/2) + kappa l``."""

    def test_reference(self):
        assert _log_brackets([2.0], 0.5) == ([math.log(2 / math.pi)], [1.0])

    @given(l=lengths, kappa=st.sampled_from([0.5, 1.0]))
    @settings(max_examples=200)
    def test_nonempty_never_degenerate(self, l, kappa):
        (lo,), (hi,) = _log_brackets([l], kappa)
        assert lo < hi

    def test_endpoint_ratio_limit(self):
        # hi - lo = log(pi/2) + l/2 -> log(pi/2) as l -> 0.
        ls = (1e-1, 1e-2, 1e-3)
        lo, hi = _log_brackets(ls, 0.5)
        widths = [b - a for a, b in zip(lo, hi)]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        for l, w in zip(ls, widths):
            assert w == pytest.approx(math.log(math.pi / 2) + l / 2, rel=1e-12)
        assert widths[-1] == pytest.approx(math.log(math.pi / 2), abs=1e-3)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_upper_end_finite_at_1500(self, kappa):
        # (l/2) exp(kappa l) overflows here; its log does not.
        (lo,), (hi,) = _log_brackets([1500.0], kappa)
        assert lo == math.log(1500.0 / math.pi)
        assert hi == pytest.approx(math.log(750.0) + kappa * 1500.0, rel=1e-15)

    def test_bordered_bracket_is_half_of_doubled(self):
        ls = (0.5, 1.0, 2.7)
        lo, hi = _log_brackets(ls, 1.0)
        lo2, hi2 = _log_brackets([2 * l for l in ls], 0.5)
        for l, a, b, a2, b2 in zip(ls, lo, hi, lo2, hi2):
            assert a == pytest.approx(a2 - math.log(2))
            assert b == pytest.approx(b2 - math.log(2))
            assert b == pytest.approx(math.log(0.5 * l * math.exp(l)))


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

    @pytest.mark.parametrize("boundary,kappa", [(1.0, 1.0), (0.0, 0.5)])
    def test_scaled_single_curve_against_direct_brackets(self, boundary, kappa):
        # One-holed torus with only the cuff length scaled: compare against
        # a direct evaluation of the exp-form bracket ends
        # [l/pi, (l/2) exp(kappa l)] over the same family.
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
            (lo1, hi1), (lo2, hi2) = ((l / math.pi, 0.5 * l * math.exp(kappa * l))
                                      for l in (l1, l2))
            v_lo = 0.5 * max(0.0, math.log(lo2 / hi1), math.log(lo1 / hi2))
            v_hi = 0.5 * max(math.log(hi2 / lo1), math.log(hi1 / lo2))
            lo = max(lo, v_lo)
            hi = v_hi if hi is None else max(hi, v_hi)
        assert rep.interval.lo == pytest.approx(lo, abs=1e-12)
        assert rep.interval.hi == pytest.approx(hi + math.log(3), abs=1e-12)


def per_class_teich_of(t1, t2):
    """The reduction of :func:`teich_of` written as a running loop over the
    classes, keeping the first class of the largest upper end."""
    x1 = t1.point
    members = t1.essential
    lengths1, lengths2 = t1.essential_lengths, t2.essential_lengths
    kappa = 0.5 if x1.is_punctured() else 1.0
    s_lo = 0.0
    s_hi, witness, wit_width = None, None, 0.0
    for c, a, b in zip(members, lengths1, lengths2):
        la1, lb1 = math.log(a / math.pi), math.log(0.5 * a) + kappa * a
        la2, lb2 = math.log(b / math.pi), math.log(0.5 * b) + kappa * b
        v_lo = 0.5 * max(0.0, la2 - lb1, la1 - lb2)
        v_hi = 0.5 * max(lb2 - la1, lb1 - la2)
        s_lo = max(s_lo, v_lo)
        if s_hi is None or v_hi > s_hi:
            s_hi, witness = v_hi, c.label()
            wit_width = max(lb1 - la1, lb2 - la2)
    defect = math.log(x1.n + 2)
    return TeichIntervalReport(interval=Interval(s_lo, s_hi + defect),
                               depth=t1.depth, witness=witness,
                               witness_max_log_width=wit_width,
                               family_size=len(members))


def _teich_tables():
    m = build_marking(1, 2)
    x1 = point(m, [1.0, 2.0], [0.1, 0.2], [1.0, 1.5])
    x2 = point(m, [1.5, 0.7], [-0.4, 0.9], [1.0, 1.5])
    bordered = (length_table(x1, m, 2), length_table(x2, m, 2))
    punctured = (length_table(phi_gamma(x1), m, 2), length_table(phi_gamma(x2), m, 2))
    return {"bordered": bordered, "punctured": punctured}


_TEICH_TABLES = _teich_tables()
_BRACKET_LENGTH = st.floats(1e-6, 1500.0)


def with_lengths(tables, pairs):
    """The two tables with their essential lengths replaced by ``pairs``."""
    a, b = zip(*pairs)
    return (dataclasses.replace(tables[0], essential_lengths=a),
            dataclasses.replace(tables[1], essential_lengths=b))


class TestTeichOfOnePass:
    """teich_of brackets each table once and reduces in one pass, with the
    per-class loop's interval, witness and witness width."""

    @pytest.mark.parametrize("kind", ["bordered", "punctured"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_class_loop(self, kind, data):
        tables = _TEICH_TABLES[kind]
        labels = [c.label() for c in tables[0].essential]
        n = len(labels)
        pairs = data.draw(st.lists(st.tuples(_BRACKET_LENGTH, _BRACKET_LENGTH),
                                   min_size=n, max_size=n))
        top = labels.index(per_class_teich_of(*with_lengths(tables, pairs)).witness)
        # Ties in the upper end: a copy of the largest pair, or the pair
        # swapped (the upper end is symmetric in the two lengths).
        planted = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                                     max_size=3))
        a, b = pairs[top]
        for i, swap in planted:
            pairs[i] = (b, a) if swap else (a, b)
        t1, t2 = with_lengths(tables, pairs)
        rep = teich_of(t1, t2)
        assert repr(rep) == repr(per_class_teich_of(t1, t2))
        assert rep.witness == labels[min([top] + [i for i, _ in planted])]


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
        family = tuple(enumerate_curves(self.m, 1))
        assert t.arcs == tuple(self.m.arcs)
        assert t.members == family + t.arcs
        assert len(t.member_lengths) == len(t.members)
        assert t.member_lengths[len(family):] == tuple(
            hexagon_lengths(self.x1, self.m.arc_forms))
        # The essential view is the family without its beta block, in order.
        essential = [(c, v) for c, v in zip(family, t.member_lengths)
                     if c.seed[0] != "beta"]
        assert list(zip(t.essential, t.essential_lengths)) == essential
        image = length_table(phi_gamma(self.x1), self.m, 1)
        assert image.arcs == ()
        assert image.members == family
        assert len(image.member_lengths) == len(family)

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
