"""Tests for curve/arc family enumeration and closed-form dual lengths."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace.coords import FNPoint, build_marking
from teichspace.curves import (
    CurveClass,
    arc_length_formula,
    curve_length_at,
    enumerate_arcs,
    enumerate_curves,
    family_lengths,
    length_table,
    pants_neighborhood_boundaries,
)
from teichspace.pants_trig import (
    DomainError,
    orthogeodesic_between,
    orthogeodesic_self,
)
from teichspace.surface import curve_length, holonomy


def point(m, lengths, twists, boundary):
    return FNPoint(g=m.genus, n=m.nboundary, lengths=lengths, twists=twists,
                   boundary=boundary)


class TestEnumerateCurves:
    def test_depth_zero_is_seeds(self):
        m = build_marking(1, 2)
        fam = enumerate_curves(m, 0)
        assert len(fam) == m.ncurves + m.ncurves + m.nboundary
        assert all(c.power == 0 for c in fam)

    def test_nested_in_depth(self):
        m = build_marking(1, 2)
        for d in range(3):
            small = enumerate_curves(m, d)
            big = enumerate_curves(m, d + 1)
            assert set(small) <= set(big)
            assert big[:len(small)] == small

    def test_growth_matches_support_quotient(self):
        # Each dual seed twists only along the single curve it crosses.
        m = build_marking(1, 2)
        fam = enumerate_curves(m, 3)
        mu_classes = [c for c in fam if c.seed[0] == "mu"]
        assert len(mu_classes) == m.ncurves * (2 * 3 + 1)

    def test_deterministic(self):
        m = build_marking(2, 1)
        assert enumerate_curves(m, 2) == enumerate_curves(m, 2)

    def test_deduplicated(self):
        m = build_marking(2, 2)
        fam = enumerate_curves(m, 2)
        assert len(fam) == len(set(fam))

    def test_boundary_classes_flagged_inessential(self):
        m = build_marking(0, 3)
        fam = enumerate_curves(m, 1)
        kinds = {c.seed[0] for c in fam if not c.essential}
        assert kinds == {"beta"}

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            enumerate_curves(build_marking(1, 1), -1)


class TestCurveLengthAt:
    def test_pants_curve_ignores_twisting(self):
        m = build_marking(1, 2)
        x = point(m, [1.5, 2.5], [0.3, -0.4], [1, 1])
        c = CurveClass(seed=("gamma", 0), power=0)
        assert curve_length_at(x, m, c) == 1.5

    def test_zero_twist_matches_plain_length(self):
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.5], [1.0])
        c = CurveClass(seed=("mu", 0), power=0)
        h = holonomy(x, m)
        assert curve_length_at(x, m, c) == pytest.approx(
            curve_length(h, m.mu_words[0]), abs=1e-12)

    def test_twisted_class_matches_word_level_twist(self):
        # On the one-holed torus the k-fold twisted dual is the word
        # (connector * cuff^k); its direct length must agree with the
        # closed form.
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.6], [1.5])
        h = holonomy(x, m)
        for k in (-3, -1, 1, 2):
            c = CurveClass(seed=("mu", 0), power=k)
            word = m.mu_words[0] + ((("slot", 0, 0), k),)
            assert curve_length_at(x, m, c) == pytest.approx(
                curve_length(h, word), abs=1e-9)

    def test_family_lengths_alignment(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(1)
        x = point(m, rng.uniform(1, 3, 2), rng.uniform(-1, 1, 2), [1.0, 2.0])
        fam = enumerate_curves(m, 1)
        lens = family_lengths(x, m, fam)
        assert len(lens) == len(fam)
        for c, l in zip(fam, lens):
            assert curve_length_at(x, m, c) == pytest.approx(l, abs=1e-12)

    def test_lengths_positive_for_essential(self):
        m = build_marking(1, 2)
        x = point(m, [0.8, 1.7], [0.2, 0.9], [1.0, 0.5])
        fam = [c for c in enumerate_curves(m, 2) if c.essential]
        assert all(l > 0 for l in family_lengths(x, m, fam))

    def test_dual_crosses_cuff_exactly_twice(self):
        # Pinching the glued cuff forces any curve crossing it k times to
        # grow like k * (collar width); the gluing dual must have k = 2,
        # i.e. a constant offset from twice the collar crossing.
        m = build_marking(0, 4)
        offsets = []
        for cuff in (0.1, 0.01, 0.001):
            x = point(m, [cuff], [0.0], [1.2, 1.2, 1.2, 1.2])
            h = holonomy(x, m)
            dual = curve_length(h, m.mu_words[0])
            collar_crossings = 4 * math.asinh(1.0 / math.sinh(cuff / 2))
            offsets.append(dual - collar_crossings)
        assert max(offsets) - min(offsets) < 1e-3


def twist_shift_length(x, m, c):
    """Oracle: the seed's word evaluated on the holonomy re-assembled at the
    point whose twist ``k`` is shifted by ``-power * L_k``."""
    _, k = c.seed
    twists = list(x.twists)
    twists[k] -= c.power * x.lengths[k]
    shifted = point(m, x.lengths, twists, x.boundary)
    return curve_length(holonomy(shifted, m), m.mu_words[k])


def random_points(m, seed, count, punctured):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        boundary = rng.uniform(0.5, 2.0, m.nboundary)
        if punctured:
            boundary = [0.0] * m.nboundary
        yield point(m, rng.uniform(0.4, 3.0, m.ncurves),
                    rng.uniform(-2.0, 2.0, m.ncurves), boundary)


def dual_classes(m, depth):
    return [c for c in enumerate_curves(m, depth) if c.seed[0] == "mu"]


def twisted_duals(k):
    """``mu_k`` twisted -3 to 3 times along its cuff."""
    return [CurveClass(seed=("mu", k), power=p) for p in range(-3, 4)]


class TestFrameLocalDuals:
    """The closed forms against the holonomy, which is their oracle."""

    def test_label_names_the_power(self):
        assert CurveClass(seed=("mu", 3), power=-2).label() == "mu3@-2"
        assert CurveClass(seed=("mu", 3), power=0).label() == "mu3"

    @pytest.mark.parametrize("punctured", [False, True])
    @pytest.mark.parametrize("gn", [(0, 4), (1, 1), (1, 2), (2, 2), (3, 2), (1, 6)])
    def test_matches_twist_shift_oracle(self, gn, punctured):
        m = build_marking(*gn)
        classes = dual_classes(m, 3)
        for x in random_points(m, 10 * gn[0] + gn[1], 2, punctured):
            got = family_lengths(x, m, classes)
            for c, l in zip(classes, got):
                want = twist_shift_length(x, m, c)
                assert l == pytest.approx(want, rel=1e-8), c.label()

    @pytest.mark.parametrize("gn", [(1, 2), (2, 2), (3, 2), (1, 6)])
    def test_handle_duals_match_one_holed_torus(self, gn):
        # A handle loop and its attaching cuff bound a one-holed torus; the
        # twisted dual is the plain dual of that torus at the shifted twist.
        m = build_marking(*gn)
        m11 = build_marking(1, 1)
        loops = [e for e in m.edges if e.left[0] == e.right[0]]
        for x in random_points(m, 7, 3, False):
            for e in loops:
                (p, _), k = e.left, e.index
                attach = next(f.index for f in m.edges
                              if f.index != k and p in (f.left[0], f.right[0]))
                got = family_lengths(x, m, twisted_duals(k))
                for power, length in zip(range(-3, 4), got):
                    twist = x.twists[k] - power * x.lengths[k]
                    y = point(m11, [x.lengths[k]], [twist], [x.lengths[attach]])
                    want = curve_length(holonomy(y, m11), m11.mu_words[0])
                    assert length == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("gn", [(0, 5), (1, 3), (2, 2), (3, 3)])
    def test_chain_duals_match_four_holed_sphere(self, gn):
        # An edge gluing slot 2 of one pants to slot 0 of another is the
        # cuff of the (0, 4) marking; the other four slots are its boundary.
        m = build_marking(*gn)
        m04 = build_marking(0, 4)
        chain = [e for e in m.edges if e.left[1] == 2 and e.right[1] == 0
                 and e.left[0] != e.right[0]]
        assert chain
        for x in random_points(m, 8, 3, False):
            for e in chain:
                (pa, _), (pb, _), k = e.left, e.right, e.index
                boundary = [m.slot_length(x, s) for s in
                            ((pa, 0), (pa, 1), (pb, 1), (pb, 2))]
                got = family_lengths(x, m, twisted_duals(k))
                for power, length in zip(range(-3, 4), got):
                    twist = x.twists[k] - power * x.lengths[k]
                    y = point(m04, [x.lengths[k]], [twist], boundary)
                    want = curve_length(holonomy(y, m04), m04.mu_words[0])
                    assert length == pytest.approx(want, rel=1e-10)


def mp_dual_length(x, m, k, power):
    """Reference: the trace identities as written, in 50-digit arithmetic
    on the exact float inputs."""
    with mpmath.workdps(50):
        (pa, sa), (pb, sb) = m.edges[k].left, m.edges[k].right
        cuff = mpmath.mpf(x.lengths[k])
        tau = mpmath.mpf(x.twists[k]) - power * cuff
        cl = mpmath.cosh(cuff / 2)
        s2 = mpmath.sinh(cuff / 2) ** 2

        def c(side):
            return mpmath.cosh(mpmath.mpf(m.slot_length(x, side)) / 2)

        if pa == pb:
            cosh_d = (c((pa, 3 - sa - sb)) + cl ** 2) / s2
            half = mpmath.sqrt((cosh_d + 1) / 2) * mpmath.cosh(tau / 2)
        else:
            ap, am = c((pa, (sa + 1) % 3)), c((pa, (sa + 2) % 3))
            bp, bm = c((pb, (sb + 1) % 3)), c((pb, (sb + 2) % 3))

            def q(u, v):
                return mpmath.sqrt(u * u + v * v + cl * cl + 2 * u * v * cl - 1)

            half = (cl * (ap * bm + am * bp) + ap * bp + am * bm
                    + mpmath.cosh(tau) * q(ap, am) * q(bp, bm)) / s2
        return 2 * mpmath.acosh(half)


def rel_error(got, want):
    return float(abs((mpmath.mpf(got) - want) / want))


# The accuracy envelope of the closed forms: cuff and boundary lengths in
# [1e-4, 40] (boundaries may also be cusps) and twists in [-100, 100].
_LOG_LENGTH = st.floats(math.log(1e-4), math.log(40.0)).map(math.exp)


@st.composite
def envelope_points(draw):
    m = build_marking(*draw(st.sampled_from([(1, 1), (0, 4), (1, 2), (2, 2)])))
    lengths = draw(st.lists(_LOG_LENGTH, min_size=m.ncurves, max_size=m.ncurves))
    twists = draw(st.lists(st.floats(-100.0, 100.0), min_size=m.ncurves,
                           max_size=m.ncurves))
    boundary = draw(st.lists(st.one_of(st.just(0.0), _LOG_LENGTH),
                             min_size=m.nboundary, max_size=m.nboundary))
    return m, point(m, lengths, twists, boundary)


class TestClosedFormAccuracy:
    """The closed forms against a 50-digit evaluation of the identities."""

    @given(mx=envelope_points(), power=st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_envelope(self, mx, power):
        m, x = mx
        classes = [CurveClass(seed=("mu", k), power=power) for k in range(m.ncurves)]
        for c, got in zip(classes, family_lengths(x, m, classes)):
            assert rel_error(got, mp_dual_length(x, m, c.seed[1], power)) <= 1e-12

    def test_long_handle_cuff(self):
        # The two copies of a cuff of 30 are 1.26e-6 apart; the literal
        # 2 acosh(cosh(d/2) cosh(tau/2)) rounds that to 0.
        m = build_marking(1, 1)
        x = point(m, [30.0], [0.0], [1.0])
        (got,) = family_lengths(x, m, [CurveClass(seed=("mu", 0), power=0)])
        want = mp_dual_length(x, m, 0, 0)
        assert 1.2e-6 < got < 1.3e-6
        assert rel_error(got, want) <= 1e-12

    def test_long_chain_cuff(self):
        # A four-holed sphere with cuff 40: the dual is 4.1e-4 long, and
        # the literal identity loses 1.6e-9 of it to cancellation.
        m = build_marking(0, 4)
        x = point(m, [40.0], [0.0], [1.0] * 4)
        (got,) = family_lengths(x, m, [CurveClass(seed=("mu", 0), power=0)])
        assert rel_error(got, mp_dual_length(x, m, 0, 0)) <= 1e-12

    def test_short_cuffs(self):
        # Every cuff at 1e-3 on (2, 2): a point whose holonomy fails its
        # relation check, while the closed forms hold.
        m = build_marking(2, 2)
        x = point(m, [1e-3] * 5, [0.0] * 5, [1.0, 1.0])
        table = length_table(x, m, 3)
        for c, got in zip(table.classes, table.lengths):
            if c.seed[0] == "mu":
                want = mp_dual_length(x, m, c.seed[1], c.power)
                assert rel_error(got, want) <= 1e-12, c.label()

    def test_overflow_is_rejected(self):
        m = build_marking(2, 2)
        x = point(m, [1.0] * 5, [2000.0] * 5, [1.0, 1.0])
        with pytest.raises(DomainError, match="is not finite in double precision"):
            family_lengths(x, m, enumerate_curves(m, 1))


class TestEnumerateArcs:
    def test_pants_has_six_arcs(self):
        arcs = enumerate_arcs(build_marking(0, 3))
        assert len(arcs) == 6
        assert sum(a.kind == "between" for a in arcs) == 3

    def test_one_holed_torus_self_only(self):
        arcs = enumerate_arcs(build_marking(1, 1))
        assert [a.kind for a in arcs] == ["self"]

    def test_positive_lengths(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = point(m, rng.uniform(0.5, 3, 2), rng.uniform(-2, 2, 2),
                      rng.uniform(0.5, 2, 2))
            for arc in enumerate_arcs(m):
                assert arc_length_formula(x, m, arc) > 0


class TestNeighborhoodBoundaries:
    def test_between_arc_in_pants_is_third_boundary(self):
        m = build_marking(0, 3)
        arc = next(a for a in m.arcs if a.kind == "between"
                   and a.boundaries == (0, 1))
        (nb,) = pants_neighborhood_boundaries(arc, m)
        assert nb.seed == ("beta", 2)
        assert not nb.essential

    def test_self_arc_has_two_curves(self):
        m = build_marking(1, 2)
        arc = next(a for a in m.arcs if a.kind == "self")
        nbs = pants_neighborhood_boundaries(arc, m)
        assert len(nbs) == 2

    def test_handle_self_arc_repeats_loop_curve(self):
        m = build_marking(1, 1)
        (arc,) = m.arcs
        nbs = pants_neighborhood_boundaries(arc, m)
        assert [nb.seed for nb in nbs] == [("gamma", 0), ("gamma", 0)]
        assert all(nb.essential for nb in nbs)

    def test_between_arc_identity_cross_module(self):
        # The arc length, the two endpoint boundary lengths, and the
        # neighbourhood curve length satisfy the hexagon identity.
        m = build_marking(1, 2)
        rng = np.random.default_rng(3)
        x = point(m, rng.uniform(0.7, 2.5, 2), rng.uniform(-1, 1, 2),
                  rng.uniform(0.6, 1.8, 2))
        arc = next(a for a in m.arcs if a.kind == "between")
        (nb,) = pants_neighborhood_boundaries(arc, m)
        assert nb.essential
        la = curve_length_at(x, m, nb)
        i, j = arc.boundaries
        want = orthogeodesic_between(x.boundary[i], x.boundary[j], la)
        assert arc_length_formula(x, m, arc) == pytest.approx(want, abs=1e-8)

    def test_self_arc_identity_cross_module(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(4)
        x = point(m, rng.uniform(0.7, 2.5, 2), rng.uniform(-1, 1, 2),
                  rng.uniform(0.6, 1.8, 2))
        arc = next(a for a in m.arcs if a.kind == "self")
        nbs = pants_neighborhood_boundaries(arc, m)
        (i,) = arc.boundaries
        want = orthogeodesic_self(x.boundary[i], curve_length_at(x, m, nbs[0]),
                                  curve_length_at(x, m, nbs[1]))
        assert arc_length_formula(x, m, arc) == pytest.approx(want, abs=1e-8)


    @pytest.mark.parametrize("g,n", [(g, n) for g in range(4)
                                     for n in range(1, 5) if 2 * g + n > 2])
    def test_neighbourhood_curves_are_seeds_on_the_neighbour_slots(self, g, n):
        m = build_marking(g, n)
        slots = m.slot_assignment()
        for arc in m.arcs:
            if arc.kind == "between":
                assert arc.neighbour_slots == (3 - sum(arc.slots),)
            else:
                assert arc.neighbour_slots == tuple(
                    t for t in range(3) if t not in arc.slots)
            want = [CurveClass(("gamma" if kind == "edge" else "beta", idx), 0)
                    for kind, idx in (slots[(arc.pants, s)]
                                      for s in arc.neighbour_slots)]
            assert pants_neighborhood_boundaries(arc, m) == want
