"""Tests for curve/arc family enumeration and twist-shift evaluation."""

import math

import numpy as np
import pytest

from teichspace.curves import (
    CurveClass,
    arc_length_formula,
    curve_length_at,
    enumerate_arcs,
    enumerate_curves,
    family_lengths,
    pants_neighborhood_boundaries,
)
from teichspace.pants_trig import (
    DomainError,
    orthogeodesic_between,
    orthogeodesic_self,
)
from teichspace.surface import FNPoint, build_marking, curve_length, holonomy


def point(m, lengths, twists, boundary):
    return FNPoint(g=m.genus, n=m.nboundary, lengths=lengths, twists=twists,
                   boundary=boundary)


class TestEnumerateCurves:
    def test_depth_zero_is_seeds(self):
        m = build_marking(1, 2)
        fam = enumerate_curves(m, 0)
        assert len(fam) == m.ncurves + m.ncurves + m.nboundary
        assert all(not any(c.twist) for c in fam)

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
        zero = (0,) * m.ncurves
        c = CurveClass(seed=("gamma", 0), twist=zero)
        assert curve_length_at(x, m, c) == 1.5

    def test_zero_twist_matches_plain_length(self):
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.5], [1.0])
        c = CurveClass(seed=("mu", 0), twist=(0,))
        h = holonomy(x, m)
        assert curve_length_at(x, m, c) == pytest.approx(
            curve_length(h, m.mu_words[0]), abs=1e-12)

    def test_twisted_class_matches_word_level_twist(self):
        # On the one-holed torus the k-fold twisted dual is the word
        # (connector * cuff^k); its direct length must agree with the
        # twist-shift evaluation.
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.6], [1.5])
        h = holonomy(x, m)
        for k in (-3, -1, 1, 2):
            c = CurveClass(seed=("mu", 0), twist=(k,))
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


class TestEnumerateArcs:
    def test_pants_has_six_arcs(self):
        arcs = enumerate_arcs(build_marking(0, 3), 0)
        assert len(arcs) == 6
        assert sum(a.kind == "between" for a in arcs) == 3

    def test_one_holed_torus_self_only(self):
        arcs = enumerate_arcs(build_marking(1, 1), 2)
        assert [a.kind for a in arcs] == ["self"]

    def test_nested_in_depth(self):
        m = build_marking(1, 2)
        assert set(enumerate_arcs(m, 0)) <= set(enumerate_arcs(m, 3))

    def test_positive_lengths(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = point(m, rng.uniform(0.5, 3, 2), rng.uniform(-2, 2, 2),
                      rng.uniform(0.5, 2, 2))
            for arc in enumerate_arcs(m, 0):
                assert arc_length_formula(x, m, arc) > 0


class TestNeighborhoodBoundaries:
    def test_between_arc_in_pants_is_third_boundary(self):
        m = build_marking(0, 3)
        arc = next(a for a in m.arcs if a.kind == "between"
                   and a.boundaries == (0, 1))
        (nb,) = pants_neighborhood_boundaries(arc, m)
        assert nb.ref == ("beta", 2)
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
        assert [nb.ref for nb in nbs] == [("gamma", 0), ("gamma", 0)]
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
        la = nb.length_at(x)
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
        want = orthogeodesic_self(x.boundary[i], nbs[0].length_at(x),
                                  nbs[1].length_at(x))
        assert arc_length_formula(x, m, arc) == pytest.approx(want, abs=1e-8)

