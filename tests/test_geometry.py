"""Unit and property tests for the exact planar primitives."""

import random
from fractions import Fraction as F

import pytest

from seshadri.geometry import (AffineForm, Axis, DegenerateInput, Interval,
                               Point, cut_polygon, format_rational,
                               height_profile, make_polygon, max_chord,
                               parse_rational, point, x_projection)

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

    def test_format(self):
        assert format_rational(F(4, 13)) == "4/13"
        assert format_rational(F(6, 2)) == "3"
        assert format_rational(F(-1, 2)) == "-1/2"


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
        assert max_chord(GKE) == F(4, 13)
        assert prof.argmax() == (F(7, 13), F(4, 13))
        prof8 = height_profile(NMKL)
        assert max_chord(NMKL) == F(4, 13)
        assert prof8.argmax() == (F(6, 13), F(4, 13))

    def test_max_chord_simplex(self):
        assert max_chord(SIMPLEX) == 1
        assert max_chord(SIMPLEX, Axis.Y) == 1

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
            assert height_profile(p).min_value() >= 0


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
