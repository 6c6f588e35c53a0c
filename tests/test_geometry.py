"""Unit and property tests for the exact planar primitives."""

import math
import random
from fractions import Fraction as F

import pytest

from seshadri.geometry import (AffineForm, Axis, ConvexPolygon, DegenerateInput,
                               Interval, Point, cut_polygon, parse_rational, point,
                               x_projection)
from seshadri._input import rational
from seshadri.reorder import PiecewiseLinear, height_profile, monotone_reorder

import fraction_reference as ref
from conftest import random_polygon

SIMPLEX = ref.polygon([(0, 0), (1, 0), (0, 1)])
SQUARE = ref.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
GKE = ref.polygon([("5/13", 0), ("7/13", "6/13"), ("9/13", "4/13")])
NMKL = ref.polygon([("3/13", "6/13"), ("6/13", "3/13"),
                    ("7/13", "6/13"), ("6/13", "7/13")])


class TestRationalStrings:
    def test_parse(self):
        assert parse_rational("4/13") == F(4, 13)
        assert parse_rational("-3/2") == F(-3, 2)
        assert parse_rational("7") == 7

    def test_rejects_decimals_and_junk(self):
        for bad in ("0.5", "1e3", "4/0", "4/-13", "", "a/b", "1/03"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_rejects_non_strings(self):
        for bad in (4, F(4, 13), 0.5, None):
            with pytest.raises(TypeError, match=type(bad).__name__):
                parse_rational(bad)

    def test_one_rule_for_every_constructor(self):
        # point, AffineForm and PiecewiseLinear read rationals alike
        for good in (F(1, 3), 3, "1/3", " -2 "):
            assert point(good, 0).x == rational(good)
        for bad in (0.5, True, "0.5", "1e3", None, [1]):
            for build in (lambda v: point(v, 0), lambda v: AffineForm(0, v, 1),
                          lambda v: PiecewiseLinear((0, v), (0, 0))):
                with pytest.raises((TypeError, ValueError)):
                    build(bad)


class TestMakePolygon:
    """Polygons as ``ConvexPolygon.from_json`` loads them, the chains
    coming from the reference hull ``fraction_reference.make_polygon``."""

    def test_unit_simplex(self):
        assert ref.area(SIMPLEX) == F(1, 2)
        assert SIMPLEX.vertices[0] == Point(F(0), F(0))

    def test_table_triangle(self):
        assert ref.area(GKE) == F(8, 169)
        assert Point(F(9, 13), F(4, 13)) in GKE.vertices

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon.from_json([[0, 0], [1, 0], [2, 0]])
        with pytest.raises(DegenerateInput):
            ConvexPolygon.from_json([[0, 0], [1, 1]])

    def test_interior_point_refused(self):
        with pytest.raises(DegenerateInput, match="vertex 4"):
            ConvexPolygon.from_json([[0, 0], [2, 0], [0, 2], ["1/2", "1/2"]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ConvexPolygon.from_json([[0.0, 0], [1, 0], [0, 1]])

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_polygon(rng)
            assert ConvexPolygon.from_json(p.to_json()) == p

    def test_canonical_start_and_ccw(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_polygon(rng)
            assert ref.area(p) > 0
            lowest = min(p.vertices, key=lambda v: (v.y, v.x))
            assert p.vertices[0] == lowest


class TestArea:
    def test_square(self):
        assert ref.area(SQUARE) == 1

    def test_pentagon_piece(self):
        pent = ref.polygon([("2/13", "2/13"), ("4/13", 0), ("5/13", 0),
                            ("6/13", "3/13"), ("9/26", "9/26")])
        assert ref.area(pent) == F(41, 676)


class TestCutPolygon:
    def test_simplex_corner_cut(self):
        cut = AffineForm(F(-4, 13), 1, 1)
        neg, pos = cut_polygon(SIMPLEX, cut)
        assert neg == ref.polygon([(0, 0), (F(4, 13), 0), (0, F(4, 13))])
        assert ref.area(neg) == F(8, 169)
        assert ref.area(neg) + ref.area(pos) == F(1, 2)
        assert len(pos.vertices) == 4

    def test_missing_cut(self):
        neg, pos = cut_polygon(SQUARE, AffineForm(-2, 1, 0))  # x - 2 < 0 on all of it
        assert neg == SQUARE and pos is None

    def test_symmetric_halves(self):
        neg, pos = cut_polygon(SIMPLEX, AffineForm(0, 1, -1))  # x - y
        assert ref.area(neg) == F(1, 4)
        assert ref.area(pos) == F(1, 4)

    def test_touching_cut_reports_absent_side(self):
        neg, pos = cut_polygon(SIMPLEX, AffineForm(-1, 1, 1))  # x + y - 1
        assert pos is None and neg == SIMPLEX
        neg, pos = cut_polygon(SIMPLEX, AffineForm(0, 1, 0))   # x = 0 at edge OB
        assert neg is None and pos == SIMPLEX

    def test_additivity_property(self):
        rng = random.Random(7)
        for _ in range(150):
            p = random_polygon(rng)
            r1, r2 = rng.randint(-3, 3), rng.randint(-3, 3)
            if r1 == 0 and r2 == 0:
                continue
            form = AffineForm(F(rng.randint(-8, 8), rng.randint(1, 3)), r1, r2)
            neg, pos = cut_polygon(p, form)
            total = sum(ref.area(q) for q in (neg, pos) if q is not None)
            assert total == ref.area(p)
            for part in (neg, pos):
                if part is None:
                    continue
                for axis in (Axis.X, Axis.Y):
                    assert ref.interval_contains(x_projection(p, axis),
                                                 x_projection(part, axis))


class TestProjection:
    def test_table_values(self):
        assert x_projection(GKE) == Interval(F(5, 13), F(9, 13))
        assert x_projection(SIMPLEX) == Interval(0, 1)
        assert x_projection(NMKL) == Interval(F(3, 13), F(7, 13))

    def test_axis_y(self):
        assert x_projection(GKE, Axis.Y) == Interval(0, F(6, 13))


class TestHeightProfile:
    def test_simplex(self):
        prof = height_profile(SIMPLEX)
        assert prof.breakpoints == (0, 1)
        assert prof.values == (1, 0)

    def test_square_constant(self):
        prof = height_profile(SQUARE)
        assert prof.values == (1, 1)

    def test_table_chords(self):
        prof = height_profile(GKE)
        assert ref.evaluate(prof, F(7, 13)) == F(4, 13)
        assert max(prof.values) == F(4, 13)
        prof8 = height_profile(NMKL)
        assert max(prof8.values) == F(4, 13)
        assert ref.evaluate(prof8, F(6, 13)) == F(4, 13)

    def test_widest_chord_simplex(self):
        assert max(height_profile(SIMPLEX).values) == 1
        assert max(height_profile(SIMPLEX, Axis.Y).values) == 1

    def test_integral_equals_area(self):
        rng = random.Random(11)
        for _ in range(150):
            p = random_polygon(rng)
            for axis in (Axis.X, Axis.Y):
                assert ref.integral(height_profile(p, axis)) == ref.area(p)

    def test_concavity_sampled(self):
        rng = random.Random(13)
        for _ in range(80):
            p = random_polygon(rng)
            f = height_profile(p)
            a, b = ref.domain(f)
            for _ in range(10):
                t1 = a + (b - a) * F(rng.randint(0, 16), 16)
                t2 = a + (b - a) * F(rng.randint(0, 16), 16)
                lam = F(rng.randint(0, 8), 8)
                mid = lam * t1 + (1 - lam) * t2
                assert (ref.evaluate(f, mid)
                        >= lam * ref.evaluate(f, t1) + (1 - lam) * ref.evaluate(f, t2))

    def test_nonnegative(self):
        rng = random.Random(17)
        for _ in range(100):
            p = random_polygon(rng)
            assert min(height_profile(p).values) >= 0


def _slice_length(P, axis, t):
    """Reference chord: the spread of P's boundary over coordinate t,
    intersecting every edge with the slice."""
    hits = []
    for a, b in ref.edges(P):
        ca, cb = ref.coord(axis, a), ref.coord(axis, b)
        if ca == cb:
            if ca == t:
                hits.append(ref.other(axis, a))
                hits.append(ref.other(axis, b))
            continue
        if (ca - t) * (cb - t) <= 0:
            s = (t - ca) / (cb - ca)
            hits.append(ref.other(axis, a) + s * (ref.other(axis, b) - ref.other(axis, a)))
    return max(hits) - min(hits)


def _axis_edged_polygon(rng):
    """Random polygon with a horizontal bottom edge and a vertical right
    edge: the corners of a box plus points inside it."""
    x0, y0 = F(rng.randint(0, 4), rng.randint(1, 3)), F(rng.randint(0, 4), rng.randint(1, 3))
    w, h = F(rng.randint(1, 6), rng.randint(1, 3)), F(rng.randint(1, 6), rng.randint(1, 3))
    pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h)]
    for _ in range(rng.randint(1, 5)):
        pts.append((x0 + w * F(rng.randint(0, 6), 6), y0 + h * F(rng.randint(0, 6), 6)))
    return ref.polygon(pts)


def _polygons(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        yield rng, (_axis_edged_polygon(rng) if k % 3 == 0 else random_polygon(rng))


def _line_through(p, q):
    """Affine form vanishing at the distinct points p and q."""
    r1, r2 = p.y - q.y, q.x - p.x
    return AffineForm(-(r1 * p.x + r2 * p.y), r1, r2)


def _cuts(rng, P):
    """Random cuts, diagonals through two vertices, lines along each edge
    and axis-parallel lines at vertex coordinates, both orientations."""
    vs = P.vertices
    forms = [AffineForm(F(rng.randint(-8, 8), rng.randint(1, 3)), r1, r2)
             for r1, r2 in ((rng.randint(-3, 3), rng.randint(1, 3)),
                            (rng.randint(1, 3), rng.randint(-3, 3)))]
    forms += [_line_through(*rng.sample(vs, 2)) for _ in range(3)]
    forms += [_line_through(a, b) for a, b in ref.edges(P)]
    v = rng.choice(vs)
    forms += [AffineForm(-v.x, 1, 0), AffineForm(-v.y, 0, 1)]
    return forms + [AffineForm(-f.r0, -f.r1, -f.r2) for f in forms]


class TestLinearCut:
    """``cut_polygon`` builds each side as the chain it walks, rotated to
    its canonical start; the hull of the same points must agree."""

    def test_sides_are_their_own_hulls(self):
        sides = 0
        for rng, P in _polygons(19, 150):
            for form in _cuts(rng, P):
                for side in cut_polygon(P, form):
                    if side is not None:
                        assert side == ref.polygon(side.vertices), (P, form)
                        sides += 1
        assert sides > 2000


class TestLinearProfile:
    """``height_profile`` walks both boundary chains once; the reference
    slices every edge at every breakpoint."""

    def test_equals_reference_slices(self):
        for _, P in _polygons(23, 300):
            for axis in (Axis.X, Axis.Y):
                prof = height_profile(P, axis)
                ts = sorted({ref.coord(axis, v) for v in P.vertices})
                assert prof.breakpoints == tuple(ts)
                assert prof.values == tuple(_slice_length(P, axis, t) for t in ts)


def _off_grid_cuts(rng, P):
    """Cuts through a point near the middle of P, moved by a multiple of
    1/97, so that their chord ends leave P's grid, in random directions."""
    vs = P.vertices
    cx, cy = sum(v.x for v in vs) / len(vs), sum(v.y for v in vs) / len(vs)
    forms = []
    for _ in range(3):
        r1 = F(rng.randint(-5, 5), rng.randint(1, 5))
        r2 = F(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            r1, r2 = r2, r1
        forms.append(AffineForm(F(rng.randint(-3, 3), 97) - r1 * cx - r2 * cy, r1, r2))
    return forms


class TestEqualsFractionReference:
    """The integer loader, cut and profile equal the former ``Fraction``
    bodies kept in ``fraction_reference``."""

    def test_hull(self):
        # the loader takes the reference hull's chain from any vertex and
        # either way round, and keeps its canonical vertices
        rng = random.Random(29)
        for _ in range(500):
            pts = [(F(rng.randint(-9, 9), rng.randint(1, 7)),
                    F(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(rng.randint(1, 9))]
            try:
                expected = ref.make_polygon(pts)
            except DegenerateInput:
                continue
            k = rng.randrange(len(expected))
            chain = [list(v) for v in expected[k:] + expected[:k]]
            for data in (chain, chain[::-1]):
                assert ConvexPolygon.from_json(data).vertices == expected

    def test_cuts_and_profiles(self):
        seen = {"off grid": 0, "through a vertex": 0, "split": 0}
        for rng, P in _polygons(31, 760):  # 506 random_polygons, 254 axis-edged
            for form in _cuts(rng, P) + _off_grid_cuts(rng, P):
                sides = cut_polygon(P, form)
                expected = ref.cut_polygon(P.vertices, form)
                assert tuple(s and s.vertices for s in sides) == expected, (P, form)
                if None in sides:
                    continue
                seen["split"] += 1
                seen["off grid"] += P.den % sides[0].den != 0
                seen["through a vertex"] += any(form(v) == 0 for v in P.vertices)
                for side in sides:
                    for axis in (Axis.X, Axis.Y):
                        profile = height_profile(side, axis)
                        assert profile == ref.height_profile(side.vertices, axis)
                        assert monotone_reorder(profile) == ref.monotone_reorder(profile)
        assert seen["split"] > 3000 and seen["off grid"] > 2000
        assert seen["through a vertex"] > 1000

    def test_stated_fields_are_the_vertices_over_one_denominator(self):
        for _, P in _polygons(37, 200):
            assert P.den > 0 and math.gcd(P.den, *(c for xy in P.pairs for c in xy)) == 1
            assert P.vertices == tuple(Point(F(x, P.den), F(y, P.den)) for x, y in P.pairs)
            again = ConvexPolygon.from_json([list(v) for v in reversed(P.vertices)])
            assert again == P and hash(again) == hash(P)


class TestAffineForm:
    def test_zero_linear_part_rejected(self):
        with pytest.raises(DegenerateInput):
            AffineForm(1, 0, 0)

    def test_evaluate_and_scale(self):
        form = AffineForm(F(-4, 13), 1, 1)
        assert form(point(F(2, 13), F(2, 13))) == 0
        assert form.scaled_eval(13, 3, 0) == -1

    def test_json_round_trip(self):
        form = AffineForm(F(15, 13), -3, 1)
        assert AffineForm.from_json(form.to_json()) == form
