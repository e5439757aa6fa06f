"""Tests for curve/arc family enumeration and closed-form dual lengths."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace import curves, pants_trig
from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import (
    CurveClass,
    arc_length_formula,
    enumerate_arcs,
    enumerate_curves,
    family_lengths,
    hexagon_lengths,
    image_table,
    length_table,
    pants_neighborhood_boundaries,
)
from teichspace.pants_trig import (
    DomainError,
    _acosh1p,
    orthogeodesic_between,
    orthogeodesic_self,
)
from teichspace.surface import curve_length, holonomy, mu_word


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
        assert family_lengths(x, m, [c])[0] == 1.5

    def test_zero_twist_matches_plain_length(self):
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.5], [1.0])
        c = CurveClass(seed=("mu", 0), power=0)
        h = holonomy(x, m)
        assert family_lengths(x, m, [c])[0] == pytest.approx(
            curve_length(h, mu_word(m, 0)), abs=1e-12)

    def test_twisted_class_matches_word_level_twist(self):
        # On the one-holed torus the k-fold twisted dual is the word
        # (connector * cuff^k); its direct length must agree with the
        # closed form.
        m = build_marking(1, 1)
        x = point(m, [2.0], [0.6], [1.5])
        h = holonomy(x, m)
        for k in (-3, -1, 1, 2):
            c = CurveClass(seed=("mu", 0), power=k)
            word = mu_word(m, 0) + ((("slot", 0, 0), k),)
            assert family_lengths(x, m, [c])[0] == pytest.approx(
                curve_length(h, word), rel=1e-12)

    def test_family_lengths_alignment(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(1)
        x = point(m, rng.uniform(1, 3, 2), rng.uniform(-1, 1, 2), [1.0, 2.0])
        fam = enumerate_curves(m, 1)
        lens = family_lengths(x, m, fam)
        assert len(lens) == len(fam)
        for c, l in zip(fam, lens):
            assert family_lengths(x, m, [c])[0] == pytest.approx(l, abs=1e-12)

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
            dual = curve_length(h, mu_word(m, 0))
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
    return curve_length(holonomy(shifted, m), mu_word(m, k))


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
                assert l == pytest.approx(want, rel=1e-12), c.label()

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
                    want = curve_length(holonomy(y, m11), mu_word(m11, 0))
                    assert length == pytest.approx(want, rel=1e-12)

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
                    want = curve_length(holonomy(y, m04), mu_word(m04, 0))
                    assert length == pytest.approx(want, rel=1e-12)


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
def envelope_points(draw, markings=((1, 1), (0, 4), (1, 2), (2, 2)), cusps=True):
    m = build_marking(*draw(st.sampled_from(markings)))
    lengths = draw(st.lists(_LOG_LENGTH, min_size=m.ncurves, max_size=m.ncurves))
    twists = draw(st.lists(st.floats(-100.0, 100.0), min_size=m.ncurves,
                           max_size=m.ncurves))
    boundary = draw(st.lists(st.one_of(st.just(0.0), _LOG_LENGTH) if cusps
                             else _LOG_LENGTH,
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
        for c, got in zip(table.members, table.member_lengths):
            if isinstance(c, CurveClass) and c.seed[0] == "mu":
                want = mp_dual_length(x, m, c.seed[1], c.power)
                assert rel_error(got, want) <= 1e-12, c.label()

    # Twists of 2000 overflow a member; cuffs of 1500 overflow sinh(L/2)^2
    # in the twist-free terms of the first orbit, before any member.
    @pytest.mark.parametrize("cuff,twist", [(1.0, 2000.0), (1500.0, 0.0)])
    def test_overflow_is_rejected(self, cuff, twist):
        m = build_marking(2, 2)
        x = point(m, [cuff] * 5, [twist] * 5, [1.0, 1.0])
        with pytest.raises(DomainError, match="is not finite in double precision"):
            family_lengths(x, m, enumerate_curves(m, 1))

    # sinh(L/2)^2 underflows to 0 below a cuff of about 1e-161: on a handle
    # loop (1, 1) and on the chain cuff of (2, 2).
    @pytest.mark.parametrize("g,n,k", [(1, 1, 0), (2, 2, 4)])
    @pytest.mark.parametrize("cuff", [1e-170, 1e-200])
    def test_underflow_is_rejected(self, g, n, k, cuff):
        m = build_marking(g, n)
        x = point(m, [cuff if i == k else 1.0 for i in range(m.ncurves)],
                  [0.0] * m.ncurves, [1.0] * n)
        with pytest.raises(DomainError) as err:
            length_table(x, m, 1)
        assert str(err.value).startswith(
            f"length of mu{k} is not finite in double precision\nwitness: ")
        assert err.value.witness == {"x": x.to_dict(), "depth": 1}


def member_dual_length(x, m, k, power):
    """Reference: the length of ``mu_k`` twisted ``power`` times along cuff
    ``k``, every term evaluated again for each member in the association
    order of the closed forms."""
    (pa, sa), (pb, sb) = m.edges[k].left, m.edges[k].right
    cuff = x.lengths[k]
    tau = x.twists[k] - power * cuff
    s2 = math.sinh(cuff / 2.0) ** 2
    if pa == pb:
        w = (math.cosh(m.slot_length(x, (pa, 3 - sa - sb)) / 2.0) + 1.0) / s2
        u = (0.5 * w / (math.sqrt(1.0 + 0.5 * w) + 1.0) * math.cosh(tau / 2.0)
             + 2.0 * math.sinh(tau / 4.0) ** 2)
    else:
        cl = math.cosh(cuff / 2.0)
        ap, am, bp, bm = (math.cosh(m.slot_length(x, side) / 2.0) for side in
                          ((pa, (sa + 1) % 3), (pa, (sa + 2) % 3),
                           (pb, (sb + 1) % 3), (pb, (sb + 2) % 3)))
        qa = ap * ap + am * am + 2.0 * ap * am * cl
        qb = bp * bp + bm * bm + 2.0 * bp * bm * cl
        qq = math.sqrt((s2 + qa) * (s2 + qb))
        u = (cl * (ap * bm + am * bp) + ap * bp + am * bm
             + 2.0 * math.sinh(tau / 2.0) ** 2 * qq
             + (s2 * (qa + qb) + qa * qb) / (qq + s2)) / s2
    return 2.0 * _acosh1p(u)


class TestOrbitTerms:
    """Twist-free terms evaluated once per orbit give the same bits as
    evaluating every member from scratch."""

    # Every marking of genus >= 1 has a handle loop; (0, 4) and the other
    # cuffs of the larger markings run the four-holed sphere identity.
    @given(mx=envelope_points(((1, 1), (0, 4), (1, 2), (2, 2), (3, 2), (1, 6))),
           depth=st.integers(0, 8), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit(self, mx, depth, data):
        m, x = mx
        classes = enumerate_curves(m, depth)
        got = family_lengths(x, m, classes)
        for c, length in zip(classes, got):
            kind, k = c.seed
            if kind == "mu":
                assert length == member_dual_length(x, m, k, c.power), c.label()
            else:
                assert length == (x.lengths if kind == "gamma" else x.boundary)[k]
        by_class = dict(zip(classes, got))
        shuffled = data.draw(st.permutations(classes))
        assert family_lengths(x, m, shuffled) == [by_class[c] for c in shuffled]
        assert [family_lengths(x, m, [c])[0] for c in classes] == got


class TestSharedCoshVector:
    """Overflow of ``cosh(l/2)``, read by the orbits from one vector per
    point, names the same first class as taking each ``cosh`` within its
    orbit's terms, which gave the expected labels."""

    # First failing class when curve i of lengths + boundary is 1500-1600
    # long, the others 1.0: the first orbit whose terms read that curve.
    FIRST_FAILING = {
        (1, 1): ["mu0", "mu0"],
        (0, 4): ["mu0"] * 5,
        (1, 2): ["mu0", "mu0", "mu1", "mu1"],
        (2, 2): ["mu0", "mu1", "mu0", "mu1", "mu2", "mu4", "mu4"],
        (0, 5): ["mu0", "mu0", "mu0", "mu0", "mu0", "mu1", "mu1"],
        (3, 2): ["mu0", "mu1", "mu2", "mu0", "mu1", "mu2", "mu3", "mu5",
                 "mu7", "mu7"],
    }

    @staticmethod
    def assert_rejects(x, m, label):
        message = f"length of {label} is not finite in double precision"
        with pytest.raises(DomainError, match=f"^{message}$"):
            family_lengths(x, m, enumerate_curves(m, 2))
        with pytest.raises(DomainError) as err:
            length_table(x, m, 2)
        assert str(err.value).startswith(message + "\nwitness: ")
        assert err.value.witness == {"x": x.to_dict(), "depth": 2}

    @pytest.mark.parametrize("gn", list(FIRST_FAILING))
    @pytest.mark.parametrize("long", [1500.0, 1550.0, 1600.0])
    @pytest.mark.parametrize("punctured", [False, True])
    def test_long_curve_names_the_first_orbit_reading_it(self, gn, long,
                                                         punctured):
        m = build_marking(*gn)
        ncurves = m.ncurves
        for i, label in enumerate(self.FIRST_FAILING[gn]):
            if punctured and i >= ncurves:
                continue  # the image of a long boundary is a cusp
            ell = [long if j == i else 1.0 for j in range(ncurves + m.nboundary)]
            boundary = [0.0] * m.nboundary if punctured else ell[ncurves:]
            x = point(m, ell[:ncurves], [0.3] * ncurves, boundary)
            self.assert_rejects(x, m, label)

    @pytest.mark.parametrize("gn", [(1, 1), (0, 4), (2, 2), (3, 2)])
    @pytest.mark.parametrize("punctured", [False, True])
    def test_twist_of_2000_names_its_own_orbit(self, gn, punctured):
        m = build_marking(*gn)
        for k in range(m.ncurves):
            twists = [2000.0 if j == k else 0.3 for j in range(m.ncurves)]
            x = point(m, [1.0] * m.ncurves, twists,
                      [0.0 if punctured else 1.0] * m.nboundary)
            self.assert_rejects(x, m, f"mu{k}")

    def test_pants_and_boundary_classes_evaluate_no_orbit(self, monkeypatch):
        def no_orbit(*args):
            raise AssertionError("an orbit was evaluated")

        monkeypatch.setattr(curves, "_orbit_terms", no_orbit)
        m = build_marking(2, 2)
        x = point(m, [1550.0] * 5, [2000.0] * 5, [1600.0, 1.0])
        classes = [c for c in enumerate_curves(m, 2) if c.seed[0] != "mu"]
        assert family_lengths(x, m, classes) == [1550.0] * 5 + [1600.0, 1.0]

_IMAGE_MARKINGS = ((0, 3), (1, 1), (0, 4), (1, 2), (2, 2), (3, 2), (1, 6))
_IMAGE_LENGTH = st.floats(math.log(1e-3), math.log(40.0)).map(math.exp)
# Cuffs whose duals leave double range: cosh(l/2) overflows above about
# 1420, and sinh(L/2)^2 underflows to 0 below about 1e-161.
_OUT_OF_RANGE = {"long": st.floats(1500.0, 1600.0),
                 "tiny": st.floats(math.log(1e-200), math.log(1e-162)).map(math.exp)}


@st.composite
def image_inputs(draw):
    m = build_marking(*draw(st.sampled_from(_IMAGE_MARKINGS)))
    lengths = draw(st.lists(_IMAGE_LENGTH, min_size=m.ncurves, max_size=m.ncurves))
    regime = draw(st.sampled_from(("in range", "in range", "long", "tiny")))
    if regime in _OUT_OF_RANGE and lengths:
        lengths[draw(st.integers(0, m.ncurves - 1))] = draw(_OUT_OF_RANGE[regime])
    twists = draw(st.lists(st.floats(-50.0, 50.0), min_size=m.ncurves,
                           max_size=m.ncurves))
    boundary = draw(st.lists(_IMAGE_LENGTH, min_size=m.nboundary,
                             max_size=m.nboundary))
    return m, point(m, lengths, twists, boundary), draw(st.integers(0, 3))


def table_outcome(f, *args):
    """``f(*args)``, or the message and witness of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as err:
        return str(err).split("\nwitness: ")[0], err.witness


class TestImageTable:
    """The table of a punctured image derived from its bordered table is
    the table of the image evaluated from scratch."""

    @given(mxd=image_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_table_of_the_image(self, mxd):
        m, x, depth = mxd
        image = phi_gamma(x)
        want = table_outcome(length_table, image, m, depth)
        bordered = table_outcome(length_table, x, m, depth)
        if isinstance(bordered, tuple):
            # Out of double range: the bordered table raises before any
            # image is derived, with the same text as the image's own table.
            assert isinstance(want, tuple)
            assert bordered[0] == want[0]
            assert bordered[1] == {"x": x.to_dict(), "depth": depth}
            assert want[1] == {"x": image.to_dict(), "depth": depth}
            return
        got = table_outcome(image_table, bordered, m)
        assert got.point == image and got.depth == depth
        assert got.arcs == () == want.arcs
        assert got.members == want.members
        assert got.essential == want.essential
        assert got.essential_lengths == want.essential_lengths
        assert got.member_lengths == want.member_lengths

    @pytest.mark.parametrize("gn,orbits", [
        ((0, 3), ()), ((1, 1), (0,)), ((0, 4), (0,)), ((1, 2), (1,)),
        ((2, 2), (4,)), ((3, 2), (7,)), ((1, 6), (1, 2, 3, 4, 5))])
    def test_reevaluates_only_the_orbits_reading_a_boundary(self, gn, orbits,
                                                            monkeypatch):
        m = build_marking(*gn)
        assert m.boundary_orbits == orbits
        x = point(m, [1.3] * m.ncurves, [0.4] * m.ncurves, [0.9] * m.nboundary)
        t = length_table(x, m, 2)
        seen = []
        family = curves.family_lengths
        monkeypatch.setattr(curves, "family_lengths",
                            lambda fn, m, classes: seen.append(classes)
                            or family(fn, m, classes))
        image_table(t, m)
        (classes,) = seen
        assert list(classes) == [c for c in enumerate_curves(m, 2)
                                 if c.seed[0] == "mu" and c.seed[1] in orbits]

    def test_point_must_fit_the_marking(self):
        x = point(build_marking(0, 4), [1.0], [0.0], [1.0] * 4)
        t = length_table(x, build_marking(0, 4), 1)
        message = "point on (0,4) does not fit the marking of (1,2)"
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            length_table(phi_gamma(x), build_marking(1, 2), 1)
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            image_table(t, build_marking(1, 2))


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


def between_reference(li, lj, la):
    """The between-arc form written out in its association order."""
    return _acosh1p((math.cosh((li - lj) / 2) + math.cosh(la / 2))
                    / (math.sinh(li / 2) * math.sinh(lj / 2)))


def self_reference(li, la, ld):
    """The self-arc form written out in its association order."""
    ca, cd = math.cosh(la / 2), math.cosh(ld / 2)
    return 2.0 * math.asinh(math.sqrt(ca * ca + 2.0 * ca * cd * math.cosh(li / 2)
                                      + cd * cd) / math.sinh(li / 2))


def arc_inputs(x, m, arc):
    return [m.slot_length(x, (arc.pants, s))
            for s in arc.slots + arc.neighbour_slots]


def outcome(f, *args):
    """``f(*args)``, or the message of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as err:
        return f"DomainError: {err}"


def arc_by_arc(x, m):
    """Every seed arc through its checked entry point, in arc order: the
    lengths, or the message of the first DomainError."""
    out = []
    for arc in m.arcs:
        form = orthogeodesic_between if arc.kind == "between" else orthogeodesic_self
        length = outcome(form, *arc_inputs(x, m, arc))
        if isinstance(length, str):
            return length
        out.append(length)
    return out


_ARC_MARKINGS = ((0, 3), (0, 4), (1, 1), (1, 2), (2, 2), (3, 2), (1, 6))


class TestHexagonLengths:
    """One ``cosh(l/2)`` per curve gives the bits of the entry points, and
    both give the bits of the forms written out."""

    @given(mx=envelope_points(_ARC_MARKINGS, cusps=False))
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, mx):
        m, x = mx
        got = hexagon_lengths(x, m.arc_forms)
        assert got == arc_by_arc(x, m)
        assert got == [(between_reference if a.kind == "between"
                        else self_reference)(*arc_inputs(x, m, a)) for a in m.arcs]
        assert [arc_length_formula(x, m, a) for a in m.arcs] == got
        assert length_table(x, m, 0).member_lengths[-len(m.arcs):] == tuple(got)

    @pytest.mark.parametrize("g,n", [(1, 6), (2, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_bordered_points_skip_the_entry_points(self, monkeypatch, g, n, seed):
        m = build_marking(g, n)
        rng = np.random.default_rng(seed)
        x = point(m, rng.uniform(0.5, 3.0, m.ncurves),
                  rng.uniform(-2.0, 2.0, m.ncurves), rng.uniform(0.5, 2.0, n))
        far = point(m, rng.uniform(800.0, 900.0, m.ncurves), [0.0] * m.ncurves,
                    x.boundary)
        cusp = point(m, x.lengths, x.twists, (0.0,) + x.boundary[1:])
        want = [(between_reference if a.kind == "between"
                 else self_reference)(*arc_inputs(x, m, a)) for a in m.arcs]
        want_far = arc_by_arc(far, m)
        assert isinstance(want_far, str) and "leaves double range" in want_far

        def entry_point(*args):
            raise RuntimeError("entry point called")

        monkeypatch.setattr(pants_trig, "orthogeodesic_between", entry_point)
        monkeypatch.setattr(pants_trig, "orthogeodesic_self", entry_point)
        assert hexagon_lengths(x, m.arc_forms) == want
        assert outcome(hexagon_lengths, far, m.arc_forms) == want_far
        with pytest.raises(RuntimeError, match="entry point called"):
            hexagon_lengths(cusp, m.arc_forms)

    @pytest.mark.parametrize("seed", range(3))
    def test_overflowing_cosh_of_one_cuff(self, seed):
        # cosh(750) overflows, so cosh(l/2) of a cuff of 1500 is inf.
        with pytest.raises(OverflowError):
            math.cosh(750.0)
        m = build_marking(1, 6)
        # The handle cuff 0 bounds no boundary-adjacent pants; cuff 1 does.
        assert all(0 not in form[1:] for form in m.arc_forms)
        assert any(1 in form[1:] for form in m.arc_forms)
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.5, 3.0, m.ncurves)
        twists, boundary = rng.uniform(-2.0, 2.0, m.ncurves), rng.uniform(0.5, 2.0, 6)
        lengths[0] = 1500.0
        x = point(m, lengths, twists, boundary)
        want = arc_by_arc(x, m)
        assert isinstance(want, list)
        assert hexagon_lengths(x, m.arc_forms) == want
        lengths[1] = 1500.0
        y = point(m, lengths, twists, boundary)
        want = arc_by_arc(y, m)
        assert isinstance(want, str) and "leaves double range" in want
        assert outcome(hexagon_lengths, y, m.arc_forms) == want

    def test_cusp_as_third_boundary_of_a_between_arc(self):
        m = build_marking(0, 3)
        x = point(m, (), (), (1.0, 1.5, 0.0))
        arc = next(a for a in m.arcs if a.boundaries == (0, 1))
        assert arc.kind == "between"
        want = between_reference(1.0, 1.5, 0.0)
        assert arc_length_formula(x, m, arc) == want
        assert orthogeodesic_between(1.0, 1.5, 0.0) == want
        # Every other arc touches the cusp and is rejected as the entry
        # point rejects it.
        for a in m.arcs:
            form = orthogeodesic_between if a.kind == "between" else orthogeodesic_self
            assert (outcome(arc_length_formula, x, m, a)
                    == outcome(form, *arc_inputs(x, m, a)))
        assert outcome(hexagon_lengths, x, m.arc_forms) == arc_by_arc(x, m)
        assert isinstance(arc_by_arc(x, m), str)

    @pytest.mark.parametrize("g,n", [(1, 2), (1, 6), (2, 2), (0, 4)])
    @pytest.mark.parametrize("seed", range(5))
    def test_long_cuffs_raise_the_entry_points_error(self, g, n, seed):
        m = build_marking(g, n)
        rng = np.random.default_rng(seed)
        x = point(m, rng.uniform(800.0, 900.0, m.ncurves), [0.0] * m.ncurves,
                  rng.uniform(0.5, 2.0, n))
        want = arc_by_arc(x, m)
        assert isinstance(want, str) and "leaves double range" in want
        assert outcome(hexagon_lengths, x, m.arc_forms) == want

    # The boundary terms are taken once per boundary, also at both edges of
    # double range: half of 5e-324 rounds to 0, so its sinh is 0, and the
    # cosh and sinh of half of 1500 overflow.
    @pytest.mark.parametrize("g,n,boundary", [
        (0, 3, (1e-200, 1e-200, 1.0)), (0, 3, (1e-200, 1.0, 1.5)),
        (1, 2, (1e-200, 1e-200)), (2, 2, (1e-200, 1.0)),
        (1, 6, (1e-200, 0.75, 1.0, 1.25, 1e-200, 1.75)),
        (0, 3, (1e-300, 1.0, 1.5)), (1, 1, (1e-300,)),
        (0, 3, (5e-324, 1.0, 1.5)), (0, 3, (5e-324, 5e-324, 1.0)), (1, 1, (5e-324,)),
        (1, 2, (700.0, 1.0)), (0, 3, (700.0, 700.0, 1.0)),
        (1, 6, (0.5, 1420.0, 1.0, 1.25, 1.5, 1.75)), (0, 3, (1420.0, 1.0, 1.5)),
        (2, 2, (1500.0, 1.0)), (1, 1, (1500.0,))])
    def test_tiny_boundary_matches_the_entry_points(self, g, n, boundary):
        m = build_marking(g, n)
        x = point(m, [1.0] * m.ncurves, [0.0] * m.ncurves, boundary)
        assert outcome(hexagon_lengths, x, m.arc_forms) == arc_by_arc(x, m)

    def test_tiny_boundaries_leave_double_range(self):
        m = build_marking(0, 3)
        x = point(m, (), (), (1e-200, 1e-200, 1.0))
        assert (outcome(hexagon_lengths, x, m.arc_forms)
                == "DomainError: orthogeodesic_between(1e-200, 1e-200, 1.0) "
                   "leaves double range")

    @pytest.mark.parametrize("b", [1.0, 1e-300, 5e-324, 700.0, 1420.0, 1500.0])
    def test_cosh_overflow_is_a_range_error(self, b):
        # cosh(l/2) itself overflows past l of about 1421.
        m = build_marking(1, 2)
        x = point(m, [1.0, 1500.0], [0.0, 0.0], [b, 1.5])
        want = arc_by_arc(x, m)
        assert want == (f"DomainError: orthogeodesic_between({b!r}, 1.5, 1500.0) "
                        "leaves double range")
        assert outcome(hexagon_lengths, x, m.arc_forms) == want


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
        (la,) = family_lengths(x, m, [nb])
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
        want = orthogeodesic_self(x.boundary[i], *family_lengths(x, m, nbs))
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
