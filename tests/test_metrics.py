"""Tests for the metric estimators and the quasiconformal interval's
extremal-length closed forms."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace import metrics
from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import (
    enumerate_curves,
    family_lengths,
    hexagon_lengths,
    length_table,
)
from teichspace.harness import ExperimentConfig, sample_points
from teichspace.metrics import (
    TeichIntervalReport,
    _sup_log_ratio,
    arc_lower,
    arc_of,
    arc_sup,
    teich_interval_report,
    teich_of,
    thurston_lower,
    thurston_of,
    thurston_sup,
)
from teichspace.pants_trig import DomainError, Interval
from test_curves import envelope_points

lengths = st.floats(min_value=0.05, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def point(m, lengths_, twists, boundary):
    return FNPoint(g=m.genus, n=m.nboundary, lengths=lengths_, twists=twists,
                   boundary=boundary)


C = math.log(math.pi / 2)


def _log_bracket(l, kappa):
    """Maskit's log extremal-length bracket ``log(l/pi) <= log Ext <=
    log(l/2) + kappa l``, the reference for the closed forms."""
    return math.log(l / math.pi), math.log(0.5 * l) + kappa * l


def one_class(kind, a, b):
    """:func:`teich_of` on the ``kind`` tables with every essential class
    given the lengths ``a`` and ``b``: the closed form of that one class."""
    tables = _TEICH_TABLES[kind]
    return teich_of(*with_lengths(tables, [(a, b)] * len(tables[0].essential)))


_DEFECT = math.log(4)  # log(n + 2) on the (1,2) tables of _TEICH_TABLES
_KAPPA = {"bordered": 1.0, "punctured": 0.5}


def _tolerance(a, b, kappa):
    """How far the closed form of a class may be from its bracket form."""
    return 2.0 ** -46 * (1.0 + kappa * max(a, b) + abs(math.log(b / a)))


class TestClosedFormIsTheBracket:
    """Each class's upper difference ``log(pi/2) + kappa M + log(M/m)`` and
    width ``log(pi/2) + kappa M`` are those of the log brackets
    ``log(l/pi) <= log Ext <= log(l/2) + kappa l``."""

    def test_reference(self):
        assert _log_bracket(2.0, 0.5) == (math.log(2 / math.pi), 1.0)
        rep = one_class("punctured", 2.0, 2.0)
        assert rep.witness_max_log_width == C + 1.0
        assert rep.interval.hi == 0.5 * (C + 1.0) + _DEFECT

    @pytest.mark.parametrize("kind", ["bordered", "punctured"])
    @given(a=lengths, b=lengths)
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_bracket_form(self, kind, a, b):
        kappa = _KAPPA[kind]
        (la1, lb1), (la2, lb2) = _log_bracket(a, kappa), _log_bracket(b, kappa)
        rep = one_class(kind, a, b)
        tol = _tolerance(a, b, kappa)
        assert abs(rep.interval.hi - (0.5 * max(lb2 - la1, lb1 - la2) + _DEFECT)) <= tol
        width = rep.witness_max_log_width
        assert abs(width - max(lb1 - la1, lb2 - la2)) <= tol
        assert width > C > 0.0

    @pytest.mark.parametrize("kind", ["bordered", "punctured"])
    def test_width_tends_to_log_half_pi(self, kind):
        # log(pi/2) + kappa l -> log(pi/2) as l -> 0.
        kappa = _KAPPA[kind]
        ls = (1e-1, 1e-2, 1e-3, 1e-6)
        widths = [one_class(kind, l, l).witness_max_log_width for l in ls]
        assert widths == [C + kappa * l for l in ls]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] > C
        assert widths[-1] == pytest.approx(C, rel=1e-5)

    @pytest.mark.parametrize("kind", ["bordered", "punctured"])
    def test_upper_end_finite_at_1500(self, kind):
        # (l/2) exp(kappa l) overflows here; the closed form does not.
        kappa = _KAPPA[kind]
        rep = one_class(kind, 1500.0, 1500.0)
        lo, hi = _log_bracket(1500.0, kappa)
        assert rep.witness_max_log_width == C + kappa * 1500.0
        assert rep.witness_max_log_width == pytest.approx(hi - lo, rel=1e-15)
        assert math.isfinite(rep.interval.hi)

    @given(a=lengths, b=lengths)
    @settings(max_examples=100, deadline=None)
    def test_bordered_is_the_doubled_punctured(self, a, b):
        # A bordered bracket is half the bracket of the doubled curve: both
        # ends drop by log 2, so the differences and widths are those of the
        # punctured class of lengths 2a and 2b, bit for bit.
        bordered = one_class("bordered", a, b)
        doubled = one_class("punctured", 2 * a, 2 * b)
        assert bordered.interval.hi == doubled.interval.hi
        assert bordered.witness_max_log_width == doubled.witness_max_log_width


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
        # One-holed torus with only the cuff length scaled: compare the upper
        # end against a direct evaluation of the exp-form bracket ends
        # [l/pi, (l/2) exp(kappa l)] over the same family, and the lower end
        # against half the largest |log(l2/l1)| (Wolpert's lemma).
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
            v_hi = 0.5 * max(math.log(hi2 / lo1), math.log(hi1 / lo2))
            lo = max(lo, 0.5 * abs(math.log(l2 / l1)))
            hi = v_hi if hi is None else max(hi, v_hi)
        assert lo > 0.3
        assert rep.interval.lo == pytest.approx(lo, abs=1e-12)
        assert rep.interval.hi == pytest.approx(hi + math.log(3), abs=1e-12)


def _class_ends(a, b, kappa):
    """The halved lower and upper differences of the brackets of the class
    with lengths ``a`` and ``b``, and the wider of its two bracket widths.
    The lower difference is the brackets' own lower bound on the distance,
    which the interval's lower end must never fall below."""
    la1, lb1 = _log_bracket(a, kappa)
    la2, lb2 = _log_bracket(b, kappa)
    return (0.5 * max(0.0, la2 - lb1, la1 - lb2), 0.5 * max(lb2 - la1, lb1 - la2),
            max(lb1 - la1, lb2 - la2))


def _closed_form_ends(a, b, kappa):
    """The class with lengths ``a`` and ``b`` in closed form, the longer
    length first as in :func:`teich_of`: its ``v = kappa M + log(M/m)``,
    halved upper difference and width."""
    a, b = max(a, b), min(a, b)
    v = kappa * a + math.log(a / b)
    return v, 0.5 * (C + v), C + kappa * a


def bracket_ends(a, b, kappa):
    """The class with lengths ``a`` and ``b`` through its brackets: its
    halved upper difference, twice, and its width."""
    _, v_hi, width = _class_ends(a, b, kappa)
    return v_hi, v_hi, width


def per_class_teich_of(t1, t2, class_ends=_closed_form_ends):
    """The reduction of :func:`teich_of` written as a running loop over
    every class, keeping the first class of the largest key; the lower end
    by its definition, ``(1/2) max(log max r, -log min r)``.
    ``class_ends`` gives a class's key, halved upper difference and width:
    the closed form by default, :func:`bracket_ends` for the brackets."""
    x1 = t1.point
    members = t1.essential
    lengths1, lengths2 = t1.essential_lengths, t2.essential_lengths
    kappa = 0.5 if x1.is_punctured() else 1.0
    r = [b / a for a, b in zip(lengths1, lengths2)]
    s_lo = 0.5 * max(math.log(max(r)), -math.log(min(r)))
    key, s_hi, witness, wit_width = None, None, None, 0.0
    for c, a, b in zip(members, lengths1, lengths2):
        k, v_hi, width = class_ends(a, b, kappa)
        if key is None or k > key:
            key, s_hi, witness, wit_width = k, v_hi, c.label(), width
    defect = math.log(x1.n + 2)
    return TeichIntervalReport(interval=Interval(s_lo, s_hi + defect),
                               depth=t1.depth, witness=witness,
                               witness_max_log_width=wit_width,
                               family_size=len(members))


def assert_near_brackets(rep, t1, t2):
    """``rep`` agrees with the bracket form of :func:`per_class_teich_of`
    within ``2**-46 (1 + kappa M + |log r|)`` of the widest class, and a
    witness that differs from the bracket form's is a near-tie there."""
    kappa = 0.5 if t1.point.is_punctured() else 1.0
    pairs = list(zip(t1.essential_lengths, t2.essential_lengths))
    tol = max(_tolerance(a, b, kappa) for a, b in pairs)
    ref = per_class_teich_of(t1, t2, bracket_ends)
    assert rep.interval.lo == ref.interval.lo
    assert abs(rep.interval.hi - ref.interval.hi) <= tol
    if rep.witness == ref.witness:
        assert abs(rep.witness_max_log_width - ref.witness_max_log_width) <= tol
    else:
        ups = [_class_ends(a, b, kappa)[1] for a, b in pairs]
        labels = [c.label() for c in t1.essential]
        assert max(ups) - ups[labels.index(rep.witness)] <= tol


def _teich_tables():
    m = build_marking(1, 2)
    x1 = point(m, [1.0, 2.0], [0.1, 0.2], [1.0, 1.5])
    x2 = point(m, [1.5, 0.7], [-0.4, 0.9], [1.0, 1.5])
    bordered = (length_table(x1, m, 2), length_table(x2, m, 2))
    punctured = (length_table(phi_gamma(x1), m, 2), length_table(phi_gamma(x2), m, 2))
    return {"bordered": bordered, "punctured": punctured}


_TEICH_TABLES = _teich_tables()
_BRACKET_LENGTH = st.floats(1e-6, 1500.0)
# Lengths near the smallest the brackets are drawn at and near the length
# tables' ceiling, where cosh(l/2) leaves double range.
_EXTREME_LENGTH = st.floats(1e-6, 2e-6) | st.floats(1390.0, 1410.0)


def _pairs_of(length):
    return lambda n, kappa: st.lists(st.tuples(length, length), min_size=n, max_size=n)


def _equal_pairs(n, kappa):
    """Every pair the same length twice: every upper difference ties and
    both log-ratio bounds are 0."""
    return _BRACKET_LENGTH.map(lambda l: [(l, l)] * n)


def _lopsided_pairs(n, kappa):
    """Pairs with one side much shorter, so a log-ratio bound is large."""
    pair = st.tuples(st.floats(1e-6, 1e-2), _BRACKET_LENGTH, st.booleans()).map(
        lambda p: (p[1], p[0]) if p[2] else p[:2])
    return st.lists(pair, min_size=n, max_size=n)


@st.composite
def _edge_pairs(draw, n, kappa):
    """Equal pairs ``(T, T)`` with pair 0 moved onto the edge of the
    screen (:func:`_onto_screen_edge`), so that it comes first among the
    classes that tie there."""
    pairs = [(draw(st.floats(10.0, 1500.0)),) * 2] * n
    _onto_screen_edge(pairs, kappa, 0, draw(st.floats(1.0, 1.01)),
                      draw(st.booleans()))
    return pairs


_PAIR_SHAPES = {"any": _pairs_of(_BRACKET_LENGTH), "equal": _equal_pairs,
                "extreme": _pairs_of(_EXTREME_LENGTH), "lopsided": _lopsided_pairs,
                "edges": _edge_pairs}


def _ulps(x, k):
    """``x`` moved ``k`` ulps, up for ``k > 0``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _onto_screen_edge(pairs, kappa, i, x, swap):
    """Put pair ``i``, among pairs of ratio 1 and longest ``(T, T)``, just
    outside the edge of :func:`teich_of`'s screen: at the last double,
    found in at most 64 ulp steps, at which the identity behind the screen
    (the ``metrics`` module docstring), evaluated in double, says the pair
    does not reach the upper end.  Only the screen's slack keeps it in.

    Pair ``i`` gets the ratio ``x`` and the longer length ``b`` just below
    which ``kappa b + log(x)`` reaches ``kappa T``.  ``swap`` swaps the two
    lengths of pair ``i``.
    """
    t = max(map(max, pairs))
    b = t - math.log(x) / kappa
    a = b / x

    def reached(b):
        return kappa * b + math.log(b / a) >= kappa * t

    for _ in range(64):
        if reached(b):
            b = math.nextafter(b, 0.0)
        elif not reached(above := math.nextafter(b, math.inf)):
            b = above
        else:
            break
    pairs[i] = (b, a) if swap else (a, b)


def with_lengths(tables, pairs):
    """The two tables with their essential lengths replaced by ``pairs``."""
    a, b = zip(*pairs)
    return (dataclasses.replace(tables[0], essential_lengths=a),
            dataclasses.replace(tables[1], essential_lengths=b))


class TestTeichOfOnePass:
    """teich_of takes the closed form of only the classes its screen
    keeps, with the upper end, witness and witness width of the unscreened
    closed-form loop bit for bit and near those of the brackets, and takes
    the lower end from the extremes of the length ratios."""

    @pytest.mark.parametrize("kind", ["bordered", "punctured"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_class_loop(self, kind, data):
        tables = _TEICH_TABLES[kind]
        kappa = 0.5 if kind == "punctured" else 1.0
        labels = [c.label() for c in tables[0].essential]
        n = len(labels)
        shape = data.draw(st.sampled_from(sorted(_PAIR_SHAPES)))
        pairs = data.draw(_PAIR_SHAPES[shape](n, kappa))
        top = labels.index(per_class_teich_of(*with_lengths(tables, pairs)).witness)
        # Ties in the upper end: a copy of the largest pair, or the pair
        # swapped (the upper end is symmetric in the two lengths); and
        # near-ties, the largest pair with one length a few ulps off.
        planted = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                                     max_size=3))
        near = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans(),
                                            st.integers(-4, 4)), max_size=3))
        a, b = pairs[top]
        for i, swap in planted:
            pairs[i] = (b, a) if swap else (a, b)
        for i, first, k in near:
            if i not in {top} | {j for j, _ in planted}:
                pairs[i] = (_ulps(a, k), b) if first else (a, _ulps(b, k))
        t1, t2 = with_lengths(tables, pairs)
        rep = teich_of(t1, t2)
        assert repr(rep) == repr(per_class_teich_of(t1, t2))
        assert_near_brackets(rep, t1, t2)
        half_log = 0.5 * max(abs(math.log(b / a)) for a, b in pairs)
        assert abs(rep.interval.lo - half_log) <= math.ulp(half_log)
        if not near:
            assert rep.witness == labels[min([top] + [i for i, _ in planted])]


@st.composite
def envelope_pairs(draw):
    """Two bordered points of the accuracy envelope on one marking, with
    the boundary of the first."""
    m, x1 = draw(envelope_points(cusps=False))
    _, x2 = draw(envelope_points(((m.genus, m.nboundary),), cusps=False))
    return m, x1, point(m, x2.lengths, x2.twists, x1.boundary)


class TestTeichLowerEnd:
    """The lower end is half the larger curve-ratio estimate of the two
    directions (Wolpert's lemma), never below the bracket lower end."""

    @pytest.mark.parametrize("punctured", [False, True])
    @given(mxy=envelope_pairs())
    @settings(max_examples=150, deadline=None)
    def test_half_the_larger_curve_ratio(self, punctured, mxy):
        m, x1, x2 = mxy
        if punctured:
            x1, x2 = phi_gamma(x1), phi_gamma(x2)
        try:
            t1, t2 = length_table(x1, m, 2), length_table(x2, m, 2)
            rep = teich_of(t1, t2)
        except DomainError:
            return
        lo, hi = rep.interval.lo, rep.interval.hi
        forward = thurston_of(t1, t2).value
        want = 0.5 * max(forward, thurston_of(t2, t1).value)
        # The backward estimate divides l1 / l2 where teich_of takes
        # -log(l2 / l1): the two logs differ by two roundings of a ratio,
        # up to 2**-52 absolute, besides an ulp of each log.
        assert abs(lo - want) <= 2 * math.ulp(want) + 2.0 ** -52
        assert lo >= 0.5 * forward
        kappa = 0.5 if punctured else 1.0
        assert lo >= max(_class_ends(a, b, kappa)[0]
                         for a, b in zip(t1.essential_lengths, t2.essential_lengths))
        assert lo <= hi


class TestTeichUpperEnd:
    """The upper end is the brackets' over the finite family: symmetric in
    the two points, at least the longest class's, and growing with the
    depth, so it is not a bound on the Teichmüller distance."""

    @pytest.mark.parametrize("punctured", [False, True])
    @given(mxy=envelope_pairs())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_at_least_the_longest_class(self, punctured, mxy):
        m, x1, x2 = mxy
        if punctured:
            x1, x2 = phi_gamma(x1), phi_gamma(x2)
        try:
            t1, t2 = length_table(x1, m, 2), length_table(x2, m, 2)
            rep, back = teich_of(t1, t2), teich_of(t2, t1)
        except DomainError:
            return
        assert (back.interval.hi, back.witness, back.witness_max_log_width) == (
            rep.interval.hi, rep.witness, rep.witness_max_log_width)
        kappa = 0.5 if punctured else 1.0
        top = max(t1.essential_lengths + t2.essential_lengths)
        assert rep.interval.hi >= 0.5 * (C + kappa * top) + math.log(m.nboundary + 2)

    def test_grows_with_depth(self):
        cfg = ExperimentConfig(g=1, n=1, boundary=(1.0,), seed=7)
        m = cfg.marking()
        x1, x2 = sample_points(cfg, range(2))
        his = {}
        for depth in (0, 2, 20, 100):
            t1, t2 = length_table(x1, m, depth), length_table(x2, m, depth)
            his[depth] = teich_of(t1, t2).interval.hi
            top = max(t1.essential_lengths + t2.essential_lengths)
            assert his[depth] >= 0.5 * (C + top) + math.log(3)
        assert his[0] <= his[2] <= his[20] <= his[100]
        assert his[100] > 5 * his[2]


class TestTeichOfLogCount:
    """A count that does not depend on the machine: the ``math.log`` calls
    of one :func:`teich_of` on the first pair of the compare-g3n2 config.
    The two log-ratio bounds, 1 log for each of the 3 classes the screen
    keeps and 1 for the defect make 6; each log-ratio supremum takes 1."""

    def test_first_compare_g3n2_pair(self, monkeypatch):
        cfg = ExperimentConfig.from_json(json.dumps(
            {"g": 3, "n": 2, "boundary": [1.0, 1.5], "depth": 3, "seed": 7}))
        m = cfg.marking()
        t1, t2 = (length_table(x, m, cfg.depth) for x in sample_points(cfg, range(2)))
        calls = []

        def log(x):
            calls.append(x)
            return math.log(x)

        monkeypatch.setattr(metrics, "math", types.SimpleNamespace(**{**vars(math), "log": log}))
        assert len(t1.essential) == 64
        rep = teich_of(t1, t2)
        assert repr(rep) == repr(per_class_teich_of(t1, t2))
        assert len(calls) == 6
        for estimate in (thurston_of, arc_of):
            calls.clear()
            estimate(t1, t2)
            assert len(calls) == 1


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

    def test_sup_cores_give_the_estimates(self):
        m, d = self.m, 2
        t1, t2 = length_table(self.x1, m, d), length_table(self.x2, m, d)
        for core, estimate in ((thurston_sup, thurston_of), (arc_sup, arc_of)):
            value, witness = core(t1, t2)
            est = estimate(t1, t2)
            assert (value, witness.label()) == (est.value, est.witness)
        image = length_table(phi_gamma(self.x2), m, d)
        for core in (thurston_sup, arc_sup):
            with pytest.raises(DomainError, match="boundary lengths differ"):
                core(t1, image)
        with pytest.raises(DomainError, match="strictly positive boundary"):
            arc_sup(image, image)

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
    """The reduction as a running loop: one log per member."""
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
    """The reduction logs the largest ratio once, and its witness is the
    first member attaining that ratio."""

    @given(pairs=screened_members())
    @settings(max_examples=400, deadline=None)
    def test_log_of_the_largest_ratio(self, pairs):
        members = [f"m{i}" for i in range(len(pairs))]
        a, b = zip(*pairs)
        r = [y / x for x, y in pairs]
        got = _sup_log_ratio(members, a, b)
        assert got == (math.log(max(r)), members[r.index(max(r))])
        plain, _ = plain_sup_log_ratio(members, a, b)
        assert abs(got[0] - plain) <= math.ulp(plain)

    def test_largest_ratio_wins_a_tied_log(self):
        # Near 1e153 one ulp of the ratio is far below one ulp of its log,
        # so the pair one ulp below the largest ratio ties it in log; the
        # witness is the pair of the largest ratio in either order.
        top = 1000.0 / 1e-150
        near = math.nextafter(top, 0.0)
        assert math.log(near) == math.log(top)
        f, x = math.frexp(near)
        a, b = (math.ldexp(1.0, -x), 1e-150, 1.0), (f, 1000.0, 1.0)
        members = ["near", "top", "one"]
        assert _sup_log_ratio(members, a, b) == (math.log(top), "top")
        assert _sup_log_ratio(members[::-1], a[::-1], b[::-1]) == (math.log(top), "top")
