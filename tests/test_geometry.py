"""Unit and property tests for the exact planar primitives."""

import random
from fractions import Fraction as F

import pytest

from seshadri.geometry import (AffineForm, Axis, DegenerateInput, Interval,
                               Point, cut_polygon, height_profile,
                               make_polygon, parse_rational, point,
                               x_projection)
from seshadri._input import rational
from seshadri.reorder import PiecewiseLinear

from conftest import random_polygon

SIMPLEX = make_polygon([(0, 0), (1, 0), (0, 1)])
SQUARE = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
GKE = make_polygon([("5/13", 0), ("7/13", "6/13"), ("9/13", "4/13")])
NMKL = make_polygon([("3/13", "6/13"), ("6/13", "3/13"),
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
    def test_unit_simplex(self):
        assert SIMPLEX.area == F(1, 2)
        assert SIMPLEX.vertices[0] == Point(F(0), F(0))

    def test_table_triangle(self):
        assert GKE.area == F(8, 169)
        assert Point(F(9, 13), F(4, 13)) in GKE.vertices

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            make_polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateInput):
            make_polygon([(0, 0), (1, 1)])

    def test_interior_points_dropped(self):
        poly = make_polygon([(0, 0), (2, 0), (0, 2), (F(1, 2), F(1, 2))])
        assert len(poly.vertices) == 3

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            make_polygon([(0.0, 0), (1, 0), (0, 1)])

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_polygon(rng)
            assert make_polygon(p.vertices) == p

    def test_canonical_start_and_ccw(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_polygon(rng)
            assert p.area > 0
            lowest = min(p.vertices, key=lambda v: (v.y, v.x))
            assert p.vertices[0] == lowest


class TestArea:
    def test_square(self):
        assert SQUARE.area == 1

    def test_pentagon_piece(self):
        pent = make_polygon([("2/13", "2/13"), ("4/13", 0), ("5/13", 0),
                             ("6/13", "3/13"), ("9/26", "9/26")])
        assert pent.area == F(41, 676)


class TestCutPolygon:
    def test_simplex_corner_cut(self):
        cut = AffineForm(F(-4, 13), 1, 1)
        neg, pos = cut_polygon(SIMPLEX, cut)
        assert neg == make_polygon([(0, 0), (F(4, 13), 0), (0, F(4, 13))])
        assert neg.area == F(8, 169)
        assert neg.area + pos.area == F(1, 2)
        assert len(pos.vertices) == 4

    def test_missing_cut(self):
        neg, pos = cut_polygon(SQUARE, AffineForm(-2, 1, 0))  # x - 2 < 0 on all of it
        assert neg == SQUARE and pos is None

    def test_symmetric_halves(self):
        neg, pos = cut_polygon(SIMPLEX, AffineForm(0, 1, -1))  # x - y
        assert neg.area == F(1, 4)
        assert pos.area == F(1, 4)

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
            total = sum(q.area for q in (neg, pos) if q is not None)
            assert total == p.area
            for part in (neg, pos):
                if part is None:
                    continue
                for axis in (Axis.X, Axis.Y):
                    assert x_projection(p, axis).contains(x_projection(part, axis))


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
        assert prof(F(7, 13)) == F(4, 13)
        assert max(prof.values) == F(4, 13)
        prof8 = height_profile(NMKL)
        assert max(prof8.values) == F(4, 13)
        assert prof8(F(6, 13)) == F(4, 13)

    def test_widest_chord_simplex(self):
        assert max(height_profile(SIMPLEX).values) == 1
        assert max(height_profile(SIMPLEX, Axis.Y).values) == 1

    def test_integral_equals_area(self):
        rng = random.Random(11)
        for _ in range(150):
            p = random_polygon(rng)
            for axis in (Axis.X, Axis.Y):
                assert height_profile(p, axis).integral() == p.area

    def test_concavity_sampled(self):
        rng = random.Random(13)
        for _ in range(80):
            p = random_polygon(rng)
            f = height_profile(p)
            a, b = f.domain
            for _ in range(10):
                t1 = a + (b - a) * F(rng.randint(0, 16), 16)
                t2 = a + (b - a) * F(rng.randint(0, 16), 16)
                lam = F(rng.randint(0, 8), 8)
                mid = lam * t1 + (1 - lam) * t2
                assert f(mid) >= lam * f(t1) + (1 - lam) * f(t2)

    def test_nonnegative(self):
        rng = random.Random(17)
        for _ in range(100):
            p = random_polygon(rng)
            assert min(height_profile(p).values) >= 0


def _slice_length(P, axis, t):
    """Reference chord: the spread of P's boundary over coordinate t,
    intersecting every edge with the slice."""
    hits = []
    for a, b in P.edges():
        ca, cb = axis.coord(a), axis.coord(b)
        if ca == cb:
            if ca == t:
                hits.append(axis.other(a))
                hits.append(axis.other(b))
            continue
        if (ca - t) * (cb - t) <= 0:
            s = (t - ca) / (cb - ca)
            hits.append(axis.other(a) + s * (axis.other(b) - axis.other(a)))
    return max(hits) - min(hits)


def _axis_edged_polygon(rng):
    """Random polygon with a horizontal bottom edge and a vertical right
    edge: the corners of a box plus points inside it."""
    x0, y0 = F(rng.randint(0, 4), rng.randint(1, 3)), F(rng.randint(0, 4), rng.randint(1, 3))
    w, h = F(rng.randint(1, 6), rng.randint(1, 3)), F(rng.randint(1, 6), rng.randint(1, 3))
    pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h)]
    for _ in range(rng.randint(1, 5)):
        pts.append((x0 + w * F(rng.randint(0, 6), 6), y0 + h * F(rng.randint(0, 6), 6)))
    return make_polygon(pts)


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
    forms += [_line_through(a, b) for a, b in P.edges()]
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
                        assert side == make_polygon(side.vertices), (P, form)
                        sides += 1
        assert sides > 2000


class TestLinearProfile:
    """``height_profile`` walks both boundary chains once; the reference
    slices every edge at every breakpoint."""

    def test_equals_reference_slices(self):
        for _, P in _polygons(23, 300):
            for axis in (Axis.X, Axis.Y):
                prof = height_profile(P, axis)
                ts = sorted({axis.coord(v) for v in P.vertices})
                assert prof.breakpoints == tuple(ts)
                assert prof.values == tuple(_slice_length(P, axis, t) for t in ts)


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
