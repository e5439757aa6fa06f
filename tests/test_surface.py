"""Tests for marking construction, holonomy assembly, and doubling.

The strongest checks here cross-validate two independent computation paths:
closed-form hexagon trigonometry on one side, and traces of words in the
numerically assembled holonomy of the doubled surface on the other.
"""

import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from teichspace import surface
from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import enumerate_curves, family_lengths
from teichspace.harness import ExperimentConfig, sample_point
from teichspace.pants_trig import (
    DomainError,
    orthogeodesic_between,
    orthogeodesic_self,
)
from teichspace.surface import (
    HolonomyError,
    NotGeodesicError,
    arc_length,
    boundary_word,
    curve_length,
    double,
    doubled_arc_word,
    gamma_word,
    holonomy,
    mu_word,
)


def random_point(m, rng, *, boundary=None, lo=0.4, hi=3.0, twist=2.0):
    n = m.nboundary
    if boundary is None:
        boundary = rng.uniform(0.4, 2.5, n)
    return FNPoint(g=m.genus, n=n,
                   lengths=np.exp(rng.uniform(math.log(lo), math.log(hi), m.ncurves)),
                   twists=rng.uniform(-twist, twist, m.ncurves),
                   boundary=boundary)


def slot_length(m, fn, p, s):
    kind, idx = m.slot_assignment()[(p, s)]
    return fn.lengths[idx] if kind == "edge" else fn.boundary[idx]


# Every supported (g, n) with g <= 3 and n <= 4.
SMALL_SURFACES = [(g, n) for g in range(4) for n in range(1, 5)
                  if 2 - 2 * g - n < 0]


def marking_and_double(g, n):
    m = build_marking(g, n)
    fn = FNPoint(g=g, n=n, lengths=[1.0] * m.ncurves,
                 twists=[0.0] * m.ncurves, boundary=[1.0] * n)
    return m, double(fn, m).marking


class TestSlotTable:
    @pytest.mark.parametrize("g,n", SMALL_SURFACES)
    def test_matches_edges_and_boundary_slots(self, g, n):
        for mk in marking_and_double(g, n):
            want = {}
            for e in mk.edges:
                want[e.left] = want[e.right] = ("edge", e.index)
            for i, side in enumerate(mk.boundary_slots):
                want[side] = ("boundary", i)
            assert dict(mk.slot_assignment()) == want

    def test_returned_map_cannot_change_the_marking(self):
        m = build_marking(1, 2)
        x = FNPoint(g=1, n=2, lengths=[1.5, 2.5], twists=[0.3, -0.7],
                    boundary=[1.0, 2.0])
        slots = m.slot_assignment()
        before = dict(slots)
        with pytest.raises(TypeError):
            slots[(0, 0)] = ("boundary", 1)
        assert dict(m.slot_assignment()) == before
        assert m.slot_length(x, (0, 0)) == 1.5

    def test_reader_gives_cuff_boundary_and_cusp_lengths(self):
        # (1, 2): the handle loop on pants 0, cuff 1 joining it to pants 1,
        # and the two boundaries on slots 1 and 2 of pants 1.
        m = build_marking(1, 2)
        x = FNPoint(g=1, n=2, lengths=[1.5, 2.5], twists=[0.3, -0.7],
                    boundary=[1.0, 2.0])
        assert [m.slot_length(x, (0, s)) for s in range(3)] == [1.5, 1.5, 2.5]
        assert [m.slot_length(x, (1, s)) for s in range(3)] == [2.5, 1.0, 2.0]
        assert [m.slot_length(phi_gamma(x), (1, s))
                for s in range(3)] == [2.5, 0.0, 0.0]


def tree_distances(m, start):
    adj = {p: [] for p in range(m.pants_count)}
    for k in m.tree:
        a, b = m.edges[k].left[0], m.edges[k].right[0]
        adj[a].append(b)
        adj[b].append(a)
    dist = {start: 0}
    queue = [start]
    for p in queue:
        for q in adj[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


class TestTreeWalk:
    @pytest.mark.parametrize("g,n", SMALL_SURFACES)
    def test_breadth_first_from_a_center(self, g, n):
        for mk in marking_and_double(g, n):
            root, steps = surface._tree_walk(mk)
            depth = {root: 0}
            for parent_side, child_side, k in steps:
                parent, child = parent_side[0], child_side[0]
                assert parent in depth and child not in depth
                assert k in mk.tree
                assert {mk.edges[k].left, mk.edges[k].right} == {
                    parent_side, child_side}
                depth[child] = depth[parent] + 1
            assert sorted(depth) == list(range(mk.pants_count))
            order = [root] + [child[0] for _, child, _ in steps]
            assert [depth[p] for p in order] == sorted(depth.values())
            diameter = max(max(tree_distances(mk, p).values())
                           for p in range(mk.pants_count))
            assert max(depth.values()) == math.ceil(diameter / 2)

    @pytest.mark.parametrize("g,n,root,double_root", [
        (2, 2, 2, 7), (3, 2, 4, 11), (1, 6, 3, 3),
    ])
    def test_roots_pinned(self, g, n, root, double_root):
        m, dm = marking_and_double(g, n)
        assert surface._tree_walk(m)[0] == root
        assert surface._tree_walk(dm)[0] == double_root


class TestBuildMarking:
    @pytest.mark.parametrize("g,n,curves,pants", [
        (1, 1, 1, 1), (0, 3, 0, 1), (2, 2, 5, 4), (1, 2, 2, 2),
        (2, 1, 4, 3), (0, 4, 1, 2), (0, 6, 3, 4), (3, 1, 7, 5),
    ])
    def test_counts(self, g, n, curves, pants):
        m = build_marking(g, n)
        assert m.ncurves == curves
        assert m.pants_count == pants
        assert len(m.boundary_slots) == n
        assert len({mu_word(m, k) for k in range(curves)}) == curves

    def test_deterministic(self):
        assert build_marking(2, 2) == build_marking(2, 2)

    @pytest.mark.parametrize("g,n,match", [
        (0, 1, "unsupported surface: chi(S) = 1 >= 0"),
        (0, 2, "unsupported surface: chi(S) = 0 >= 0"),
        (0, 0, "need at least one boundary component, got n=0"),
        (1, 0, "need at least one boundary component, got n=0"),
        (2, 0, "need at least one boundary component, got n=0"),
        (-1, 6, "genus must be nonnegative, got g=-1"),
        (-2, 0, "genus must be nonnegative, got g=-2"),
    ])
    def test_rejects_unsupported(self, g, n, match):
        with pytest.raises(DomainError, match=re.escape(match) + "$"):
            build_marking(g, n)

    def test_pants_arc_seeds(self):
        m = build_marking(0, 3)
        kinds = sorted(a.kind for a in m.arcs)
        assert kinds == ["between"] * 3 + ["self"] * 3

    def test_one_holed_torus_arcs(self):
        m = build_marking(1, 1)
        assert [a.kind for a in m.arcs] == ["self"]

    def test_spanning_tree_excludes_loops(self):
        m = build_marking(2, 2)
        loops = {e.index for e in m.edges if e.left[0] == e.right[0]}
        assert loops == {0, 1}
        assert not (loops & m.tree)
        assert len(m.tree) == m.pants_count - 1


class TestFNPoint:
    def test_json_roundtrip(self):
        x = FNPoint(g=1, n=2, lengths=[1.5, 2.0], twists=[0.25, -1.0],
                    boundary=[1.0, 0.5])
        y = FNPoint.from_json(x.to_json())
        assert x == y

    def test_json_field_order(self):
        x = FNPoint(g=0, n=3, lengths=[], twists=[], boundary=[1, 2, 3])
        assert list(json.loads(x.to_json())) == ["g", "n", "lengths", "twists", "boundary"]

    def test_validates_counts(self):
        with pytest.raises(DomainError):
            FNPoint(g=1, n=1, lengths=[1, 2], twists=[0, 0], boundary=[1])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError, match="cuff lengths must be positive"):
            FNPoint(g=1, n=1, lengths=[0.0], twists=[0.0], boundary=[1])

    # (g, n, lengths, twists, boundary) and the exact message: the surface
    # first, then the counts, then lengths, twists and boundary in turn.
    @pytest.mark.parametrize("args,message", [
        ((1, 1, [0.0], [0.0], [1.0]), "cuff lengths must be positive, got 0.0"),
        ((1, 1, [-1], [0.0], [1.0]), "cuff lengths must be positive, got -1.0"),
        ((1, 1, [math.nan], [0.0], [1.0]), "cuff lengths must be positive, got nan"),
        ((1, 1, [math.inf], [0.0], [1.0]), "cuff lengths must be positive, got inf"),
        ((1, 1, [-math.inf], [0.0], [1.0]),
         "cuff lengths must be positive, got -inf"),
        ((1, 1, [1.0], [0.0], [-1]), "boundary lengths must be nonnegative, got -1.0"),
        ((1, 1, [1.0], [0.0], [math.nan]),
         "boundary lengths must be nonnegative, got nan"),
        ((1, 1, [1.0], [0.0], [math.inf]),
         "boundary lengths must be nonnegative, got inf"),
        ((1, 2, [1.0, 0.0], [math.nan, 0.0], [-1.0, 1.0]),
         "cuff lengths must be positive, got 0.0"),
        ((1, 2, [1.0, 2.0], [0.0, math.nan], [-1.0, 1.0]),
         "twists must be finite, got nan"),
        ((1, 1, [math.nan, 1.0], [0.0, 0.0], [-1.0]),
         "expected 1 lengths/twists for (g, n)=(1,1)"),
        ((1, 1, [math.nan], [0.0, 0.0], [-1.0]),
         "expected 1 lengths/twists for (g, n)=(1,1)"),
        ((1, 1, [math.nan], [0.0], [-1.0, 1.0]), "expected 1 boundary lengths"),
        ((-1, 6, [], [], [1.0] * 6), "genus must be nonnegative, got g=-1"),
        ((-1, -1, [], [], []), "genus must be nonnegative, got g=-1"),
        ((2, -1, [1.0] * 2, [0.0] * 2, []),
         "boundary count must be nonnegative, got n=-1"),
        ((0, 2, [], [], [1.0, 1.0]), "unsupported surface: chi(S) = 0 >= 0"),
        ((0, 1, [], [], [1.0]), "unsupported surface: chi(S) = 1 >= 0"),
        ((1, 0, [1.0], [0.0], []), "unsupported surface: chi(S) = 0 >= 0"),
        ((0, 0, [math.nan], [], [-1.0]), "unsupported surface: chi(S) = 2 >= 0"),
    ])
    def test_rejects_with_message_in_order(self, args, message):
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            FNPoint(*args)

    def test_accepts_negative_zero_boundary_and_ints(self):
        x = FNPoint(g=1, n=2, lengths=[2, 1], twists=[0, -3], boundary=[-0.0, 1])
        assert x.is_punctured() is False
        assert math.copysign(1.0, x.boundary[0]) == -1.0
        for vector, want in ((x.lengths, (2.0, 1.0)), (x.twists, (0.0, -3.0)),
                             (x.boundary, (0.0, 1.0))):
            assert type(vector) is tuple and vector == want
            assert all(type(v) is float for v in vector)

    def test_accepts_closed_surfaces(self):
        x = FNPoint(g=2, n=0, lengths=[1.0] * 3, twists=[0.0] * 3, boundary=[])
        assert x.boundary == ()

    def test_frozen(self):
        x = FNPoint(1, 1, [1.0], [0.0], [1.0])
        for name, value in (("g", 2), ("lengths", (2.0,)), ("extra", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del x.twists
        assert x.lengths == (1.0,) and not hasattr(x, "extra")

    def test_eq_hash_repr_and_construction_forms(self):
        x = FNPoint(1, 2, [1.5, 2], [0.25, -1], (1, 0.5))
        y = FNPoint(g=1, n=2, lengths=(1.5, 2.0), twists=[0.25, -1.0],
                    boundary=[1.0, 0.5])
        z = FNPoint(1, 2, boundary=[1.0, 0.5], twists=[0.25, -1.0],
                    lengths=[1.5, 2.0])
        assert x == y == z and hash(x) == hash(y) == hash(z)
        assert x != FNPoint(1, 2, [1.5, 2.0], [0.25, -1.0], [1.0, 0.75])
        assert repr(x) == ("FNPoint(g=1, n=2, lengths=(1.5, 2.0), "
                           "twists=(0.25, -1.0), boundary=(1.0, 0.5))")
        assert [f.name for f in dataclasses.fields(FNPoint)] == [
            "g", "n", "lengths", "twists", "boundary"]

    def test_replace_checks_like_construction(self):
        x = FNPoint(1, 1, [1.0], [0.0], [1.0])
        with pytest.raises(DomainError,
                           match=r"^cuff lengths must be positive, got 0\.0$"):
            dataclasses.replace(x, lengths=[0.0])
        y = dataclasses.replace(x, twists=[2])
        assert y == FNPoint(1, 1, [1.0], [2.0], [1.0]) and type(y.twists[0]) is float

    @pytest.mark.parametrize("twist", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_twist(self, twist):
        with pytest.raises(DomainError, match="twists must be finite"):
            FNPoint(1, 1, [1.0], [twist], [1.0])

    def test_json_is_dumped_dict(self):
        x = FNPoint(g=1, n=2, lengths=[1.5, 2.0], twists=[0.25, -1.0],
                    boundary=[1.0, 0.5])
        assert x.to_json() == json.dumps(x.to_dict())
        assert json.loads(x.to_json()) == x.to_dict()

    @pytest.mark.parametrize("change,match", [
        ({"g": None}, "missing point key: g"),
        ({"genus": 1}, "unknown point keys: genus"),
        ({"g": True}, "point key g must be an integer, got True"),
        ({"g": "1"}, "point key g must be an integer, got '1'"),
        ({"boundary": 1.0}, "point key boundary must be a list of numbers"),
        ({"twists": ["0"]}, "point key twists must be a list of numbers"),
    ])
    def test_from_json_rejects_malformed_fields(self, change, match):
        d = {"g": 1, "n": 1, "lengths": [2.0], "twists": [0.0],
             "boundary": [1.0]}
        d.update(change)
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(DomainError, match=match):
            FNPoint.from_json(json.dumps(d))

    def test_from_json_rejects_non_object(self):
        with pytest.raises(DomainError, match="point must be a JSON object"):
            FNPoint.from_json("[1, 1, [2.0], [0.0], [1.0]]")

    def test_boundary_zero_allowed(self):
        x = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.0], boundary=[0.0])
        assert x.is_punctured()


class TestPhiGamma:
    def test_forgets_boundary(self):
        x = FNPoint(g=1, n=2, lengths=[1, 2], twists=[0.5, -0.5], boundary=[1, 2])
        y = phi_gamma(x)
        assert y.boundary == (0.0, 0.0)
        assert y.lengths == x.lengths and y.twists == x.twists

    def test_idempotent(self):
        x = FNPoint(g=1, n=1, lengths=[2], twists=[1], boundary=[3])
        assert phi_gamma(phi_gamma(x)) == phi_gamma(x)


class TestHolonomy:
    @pytest.mark.parametrize("g,n", [(1, 1), (0, 3), (1, 2), (2, 1)])
    def test_trace_consistency(self, g, n):
        m = build_marking(g, n)
        rng = np.random.default_rng(100 * g + n)
        for _ in range(20):
            fn = random_point(m, rng)
            h = holonomy(fn, m)
            for k in range(m.ncurves):
                assert curve_length(h, gamma_word(m, k)) == pytest.approx(
                    fn.lengths[k], rel=1e-12)
            for i in range(n):
                assert curve_length(h, boundary_word(m, i)) == pytest.approx(
                    fn.boundary[i], rel=1e-12)
            assert h.relation_residual < 1e-30
            assert h.det_residual < 1e-30

    def test_punctured_boundary_parabolic(self):
        m = build_marking(1, 2)
        fn = FNPoint(g=1, n=2, lengths=[1.5, 2.5], twists=[0.3, -0.7],
                     boundary=[0.0, 0.0])
        h = holonomy(fn, m)
        for i in range(2):
            tr = float(abs(np.trace(h.evaluate(boundary_word(m, i)))))
            assert tr == pytest.approx(2.0, abs=1e-15)
            assert curve_length(h, boundary_word(m, i)) == 0.0

    def test_twist_invariance_of_cuff_lengths(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(4)
        base = random_point(m, rng)
        twisted = FNPoint(g=1, n=2, lengths=base.lengths,
                          twists=(5.0, -7.5), boundary=base.boundary)
        h0, h1 = holonomy(base, m), holonomy(twisted, m)
        for k in range(m.ncurves):
            assert curve_length(h0, gamma_word(m, k)) == pytest.approx(
                curve_length(h1, gamma_word(m, k)), rel=1e-12)

    def test_twists_move_dual_curves(self):
        m = build_marking(1, 1)
        fn0 = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.0], boundary=[1.0])
        fn1 = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.8], boundary=[1.0])
        w = mu_word(m, 0)
        assert curve_length(holonomy(fn1, m), w) > curve_length(holonomy(fn0, m), w)

    def test_word_and_inverse_have_equal_length(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(8)
        h = holonomy(random_point(m, rng), m)
        w = mu_word(m, 1)
        w_inv = tuple((t, -e) for t, e in reversed(w))
        assert curve_length(h, w) == pytest.approx(curve_length(h, w_inv), abs=1e-12)

    def test_elliptic_rejected(self):
        m = build_marking(1, 1)
        fn = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.0], boundary=[1.0])
        h = holonomy(fn, m)
        # Elliptic element: commutator-like word on a thin configuration is
        # hard to hit by accident, so inject a rotation directly.
        h.slot_mats[(0, 0)] = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotGeodesicError):
            curve_length(h, gamma_word(m, 0))

    def test_one_holed_torus_against_direct_assembly(self):
        # Independent assembly: cuff along the imaginary axis, dual along
        # the perpendicular through i; the dual length follows from the
        # commutator trace identity
        #   tr[u,v] = x^2 + y^2 + z^2 - xyz - 2 = -2 cosh(lam/2)
        # with z = xy/2 for perpendicular axes.
        m = build_marking(1, 1)
        for ell, lam in [(2.0, 2.0), (1.0, 0.7), (3.0, 4.0)]:
            y_sq = (4 * math.cosh(ell / 2) ** 2 - 2 + 2 * math.cosh(lam / 2)) \
                / math.sinh(ell / 2) ** 2
            dual_expected = 2 * math.acosh(math.sqrt(y_sq) / 2)
            fn = FNPoint(g=1, n=1, lengths=[ell], twists=[0.0], boundary=[lam])
            h = holonomy(fn, m)
            assert curve_length(h, boundary_word(m, 0)) == pytest.approx(lam, rel=1e-12)
            assert curve_length(h, mu_word(m, 0)) == pytest.approx(
                dual_expected, rel=1e-12)
            u = np.array([[math.exp(ell / 4), 0], [0, math.exp(-ell / 4)]]) @ \
                np.array([[math.exp(ell / 4), 0], [0, math.exp(-ell / 4)]])
            mhalf = math.sqrt(y_sq) / 2
            v = np.array([[mhalf, math.sqrt(mhalf * mhalf - 1)],
                          [math.sqrt(mhalf * mhalf - 1), mhalf]])
            comm = u @ v @ np.linalg.inv(u) @ np.linalg.inv(v)
            assert abs(np.trace(comm)) == pytest.approx(2 * math.cosh(lam / 2),
                                                        abs=1e-9)

    def test_word_level_dehn_twist_matches_twist_shift(self):
        # tau^k applied to the handle dual appends u^k to its word; the
        # length of the twisted class equals the seed length at T - k L.
        m = build_marking(1, 1)
        ell, lam, t0 = 2.0, 2.0, 0.7
        h = holonomy(FNPoint(g=1, n=1, lengths=[ell], twists=[t0],
                             boundary=[lam]), m)
        for k in (-2, -1, 1, 2):
            twisted_word = mu_word(m, 0) + ((("slot", 0, 0), k),)
            shifted = holonomy(FNPoint(g=1, n=1, lengths=[ell],
                                       twists=[t0 - k * ell],
                                       boundary=[lam]), m)
            assert curve_length(h, twisted_word) == pytest.approx(
                curve_length(shifted, mu_word(m, 0)), rel=1e-12)

    # Cuffs far from 1, where float64 traces lose the seed lengths near
    # trace 2 or the gluing relations no longer close.
    @pytest.mark.parametrize("g,n,cuff,twist", [
        (2, 2, 1e-3, 0.0), (2, 2, 1e-4, 0.5), (2, 2, 20.0, 0.0),
        (3, 2, 20.0, 0.0), (1, 2, 40.0, 0.0),
    ])
    def test_seed_words_match_closed_forms(self, g, n, cuff, twist):
        m = build_marking(g, n)
        x = FNPoint(g=g, n=n, lengths=[cuff] * m.ncurves,
                    twists=[twist] * m.ncurves, boundary=[1.0] * n)
        h = holonomy(x, m)
        words = {"gamma": gamma_word, "mu": mu_word, "beta": boundary_word}
        seeds = enumerate_curves(m, 0)
        for c, want in zip(seeds, family_lengths(x, m, seeds)):
            kind, k = c.seed
            got = curve_length(h, words[kind](m, k))
            assert abs(got - want) <= 1e-12 * want, c.label()

    def test_precision_is_loaded_on_first_use_and_private(self):
        # Importing the module loads neither decimal nor mpmath, so it costs
        # the benchmark's set-up no memory; an assembly leaves the caller's
        # decimal context as it was.
        code = ("import sys\n"
                "from teichspace import surface as s\n"
                "assert 'decimal' not in sys.modules\n"
                "assert 'mpmath' not in sys.modules\n"
                "m = s.build_marking(1, 1)\n"
                "x = s.FNPoint(1, 1, [1.0], [0.0], [1.0])\n"
                "s.curve_length(s.holonomy(x, m), s.mu_word(m, 0))\n"
                "import decimal\n"
                "assert decimal.getcontext().prec == decimal.DefaultContext.prec\n")
        subprocess.run([sys.executable, "-c", code], check=True)

def figure_eights(m):
    """One non-simple closed geodesic per pants: slot 0 times slot 1 inverse."""
    return [((("slot", p, 0), 1), (("slot", p, 1), -1)) for p in range(m.pants_count)]


def limit_gap(m, fn, eps=1e-4):
    """Largest length change of the essential depth-1 family and the
    figure eights when every cusp of ``fn`` opens to a boundary of
    length ``eps``."""
    opened = FNPoint(g=fn.g, n=fn.n, lengths=fn.lengths, twists=fn.twists,
                     boundary=[v if v else eps for v in fn.boundary])
    classes = [c for c in enumerate_curves(m, 1) if c.essential]
    gaps = [abs(a - b) for a, b in zip(family_lengths(fn, m, classes),
                                       family_lengths(opened, m, classes))]
    h, h_opened = holonomy(fn, m), holonomy(opened, m)
    gaps += [abs(curve_length(h, w) - curve_length(h_opened, w))
             for w in figure_eights(m)]
    return max(gaps)


class TestCuspLimit:
    """A cusp is the zero-length limit of a boundary: lengths at boundary 0
    and at boundary 1e-4 agree, whichever pants slots carry the cusps."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2),
                                     (1, 3), (2, 1), (2, 2), (3, 2)])
    def test_punctured_is_limit_of_bordered(self, g, n):
        m = build_marking(g, n)
        rng = np.random.default_rng(70 + 10 * g + n)
        for _ in range(3):
            fn = random_point(m, rng, boundary=[0.0] * n)
            assert limit_gap(m, fn) < 1e-6

    @pytest.mark.parametrize("boundary", [
        [0.0, 1.0, 1.2], [1.0, 0.0, 1.2],
        [0.0, 1.0, 1.2, 0.8], [1.0, 0.0, 1.2, 0.8],
        [1.0, 1.2, 0.0, 0.8], [1.0, 1.2, 0.8, 0.0], [0.0, 1.0, 0.0, 0.8]])
    def test_mixed_cusps_and_boundaries(self, boundary):
        n = len(boundary)
        m = build_marking(0, n)
        rng = np.random.default_rng(n)
        fn = random_point(m, rng, boundary=boundary)
        h = holonomy(fn, m)
        assert h.det_residual < 1e-30
        for i, b in enumerate(boundary):
            assert curve_length(h, boundary_word(m, i)) == pytest.approx(b, rel=1e-12)
        assert limit_gap(m, fn) < 1e-6


class TestDouble:
    def test_pants_double_is_genus_two(self):
        m = build_marking(0, 3)
        fn = FNPoint(g=0, n=3, lengths=[], twists=[], boundary=[1, 2, 3])
        d = double(fn, m)
        assert d.marking.genus == 2
        assert d.marking.nboundary == 0
        assert d.fn.lengths == (1.0, 2.0, 3.0)

    def test_double_fn_layout(self):
        m = build_marking(1, 2)
        fn = FNPoint(g=1, n=2, lengths=[1.5, 2.5], twists=[0.3, -0.7],
                     boundary=[1.0, 2.0])
        d = double(fn, m)
        assert d.marking.genus == 2 * 1 + 2 - 1
        assert d.fn.lengths == (1.5, 2.5, 1.5, 2.5, 1.0, 2.0)
        assert d.fn.twists == (0.3, -0.7, -0.3, 0.7, 0.0, 0.0)

    @pytest.mark.parametrize("g,n,tree", [
        (2, 2, {2, 3, 4, 7, 8, 9, 10}),
        (3, 2, {3, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16}),
    ])
    def test_spanning_tree_pinned(self, g, n, tree):
        assert marking_and_double(g, n)[1].tree == tree

    def test_rejects_cusped_boundary(self):
        m = build_marking(1, 1)
        fn = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.0], boundary=[0.0])
        with pytest.raises(DomainError):
            double(fn, m)

    def test_gluing_curves_have_boundary_lengths(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(6)
        fn = random_point(m, rng)
        d = double(fn, m)
        h = d.holonomy()
        for i, k in enumerate(d.boundary_edge):
            assert curve_length(h, gamma_word(d.marking, k)) == pytest.approx(
                fn.boundary[i], rel=1e-12)

    @pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2)])
    def test_interior_curves_embed_isometrically(self, g, n):
        m = build_marking(g, n)
        rng = np.random.default_rng(10 * g + n)
        fn = random_point(m, rng)
        d = double(fn, m)
        h_x, h_d = holonomy(fn, m), d.holonomy()
        for k in range(m.ncurves):
            assert curve_length(h_x, gamma_word(m, k)) == pytest.approx(
                curve_length(h_d, gamma_word(m, k)), rel=1e-12)
        for w in (mu_word(m, k) for k in range(m.ncurves)):
            assert curve_length(h_x, w) == pytest.approx(
                curve_length(h_d, w), rel=1e-12)

    def test_mirror_involution_preserves_lengths(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(13)
        fn = random_point(m, rng)
        d = double(fn, m)
        h = d.holonomy()
        for w in (mu_word(d.marking, k)
                  for k in range(d.marking.ncurves)):
            iw = tuple((d.involution.get(t, t), e) for t, e in w)
            assert curve_length(h, w) == pytest.approx(
                curve_length(h, iw), rel=1e-12)


# The sampling of the verify-arcs-g1n6 benchmark workload.
G1N6_CONFIG = ExperimentConfig(g=1, n=6, boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75))


class TestArcLength:
    @pytest.mark.parametrize("g,n,sampled", [
        *(pytest.param(g, n, False, id=f"{g}-{n}")
          for g, n in [(0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 6)]),
        pytest.param(1, 6, True, id="1-6-verify-arcs-g1n6"),
    ])
    def test_matches_closed_forms(self, g, n, sampled):
        # Whole-surface doubles: the doubled words of far pants run through
        # long conjugator chains.
        m = build_marking(g, n)
        rng = np.random.default_rng(50 + 10 * g + n)
        for i in range(15):
            fn = sample_point(G1N6_CONFIG, i) if sampled else random_point(m, rng)
            d = double(fn, m)
            h = d.holonomy()
            for arc in m.arcs:
                p = arc.pants
                if arc.kind == "between":
                    si, sj = arc.slots
                    want = orthogeodesic_between(
                        slot_length(m, fn, p, si), slot_length(m, fn, p, sj),
                        slot_length(m, fn, p, 3 - si - sj))
                else:
                    (s,) = arc.slots
                    others = [t for t in range(3) if t != s]
                    want = orthogeodesic_self(
                        slot_length(m, fn, p, s),
                        slot_length(m, fn, p, others[0]),
                        slot_length(m, fn, p, others[1]))
                assert abs(arc_length(d, arc, h) - want) <= 1e-12 * want

    def test_arc_lengths_positive(self):
        m = build_marking(1, 2)
        rng = np.random.default_rng(3)
        fn = random_point(m, rng)
        d = double(fn, m)
        h = d.holonomy()
        for arc in m.arcs:
            assert arc_length(d, arc, h) > 0

    def test_arc_lengths_twist_independent(self):
        m = build_marking(1, 2)
        fn0 = FNPoint(g=1, n=2, lengths=[1.5, 2.0], twists=[0.0, 0.0],
                      boundary=[1.0, 1.5])
        fn1 = FNPoint(g=1, n=2, lengths=[1.5, 2.0], twists=[2.2, -3.1],
                      boundary=[1.0, 1.5])
        d0, d1 = double(fn0, m), double(fn1, m)
        h0, h1 = d0.holonomy(), d1.holonomy()
        for a0, a1 in zip(m.arcs, m.arcs):
            assert arc_length(d0, a0, h0) == pytest.approx(
                arc_length(d1, a1, h1), rel=1e-12)

    def test_doubled_word_crosses_gluing(self):
        m = build_marking(0, 3)
        fn = FNPoint(g=0, n=3, lengths=[], twists=[], boundary=[1, 2, 3])
        d = double(fn, m)
        for arc in m.arcs:
            w = doubled_arc_word(d, arc)
            assert w, "doubled word must be nonempty"
