"""Unit and property tests for lattice sets and the parallel-lines witness."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

import pytest

from seshadri.dissection import builtin_dissection_eckl10
from seshadri import SizeGuardrail
from seshadri.geometry import AffineForm
from seshadri.lattice import (ColumnProfile, Direction, EmptySet, LatticeSet,
                              MultiplicitySpec, WitnessSelection, WitnessTooLarge,
                              _transpose, column_profile, expected_dimension,
                              max_parallel_witness, scaled_points,
                              select_witness_subset, split_by_affine)

import fraction_reference as ref

SIMPLEX = ref.polygon([(0, 0), (1, 0), (0, 1)])
GKE = ref.polygon([("5/13", 0), ("7/13", "6/13"), ("9/13", "4/13")])
SIMPLEX2 = LatticeSet(((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)))


def _coordinate(direction):
    """Index into a point (alpha, beta) of the coordinate fixed on a line."""
    return 0 if direction is Direction.VERTICAL else 1


def _runs_from_points(points, direction):
    """Maximal runs (line, first, count) of the points along the direction,
    built point by point from the points sorted by (line, along)."""
    k = _coordinate(direction)
    runs = []
    for p in sorted(points, key=lambda p: (p[k], p[1 - k])):
        line, along = p[k], p[1 - k]
        if runs and runs[-1][0] == line and sum(runs[-1][1:]) == along:
            runs[-1][2] += 1
        else:
            runs.append([line, along, 1])
    return tuple(map(tuple, runs))


def _random_sets(seed, count, side=12):
    """Seeded random lattice sets, sparse to dense, so lines have gaps."""
    rng = random.Random(seed)
    for _ in range(count):
        yield LatticeSet(tuple((rng.randint(0, side), rng.randint(0, side))
                               for _ in range(rng.randint(0, 4 * side * side // 3))))


def _eckl10_lattice_sets(n):
    """Every set the finite certificate builds for eckl10 at scale n."""
    dis = builtin_dissection_eckl10()
    remaining = scaled_points(n)
    sets = [remaining]
    for step in dis.steps:
        mine, remaining = split_by_affine(remaining, step.cut, n)
        sets += [mine, remaining]
    for piece in sets[1::2] + [remaining]:
        for direction in Direction:
            m = max_parallel_witness(column_profile(piece, direction))
            sets.append(select_witness_subset(piece, direction, m).subset)
    return sets


class TestScaledPoints:
    def test_simplex_scale_two(self):
        assert scaled_points(2) == SIMPLEX2

    def test_simplex_matches_fraction_reference(self):
        # equal sets have equal runs, so the runs are checked canonical too
        for n in [*range(1, 61), 208]:
            pts = scaled_points(n)
            assert pts == LatticeSet(ref._scaled_points_reference(SIMPLEX, n))
            assert len(pts) == (n + 1) * (n + 2) // 2

    def test_table_triangle_scale_13(self):
        # the reference that tests read the points of other polygons from
        pts = ref._scaled_points_reference(GKE, 13)
        assert (7, 2) in pts and (7, 6) in pts
        assert len(pts) == 13

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="^scale must be a positive integer$"):
            scaled_points(0)


class TestSplitByAffine:
    CUT = AffineForm(F(-4, 13), 1, 1)

    def test_corner_split(self):
        d1, d2 = split_by_affine(SIMPLEX2, self.CUT, 2)
        assert d1 == LatticeSet(((0, 0),))
        assert len(d2) == 5

    def test_tie_goes_to_second(self):
        d1, d2 = split_by_affine(SIMPLEX2, AffineForm(-1, 1, 1), 2)  # a+b = 2 ties
        assert all(a + b < 2 for a, b in d1)
        assert all(a + b >= 2 for a, b in d2)
        assert (2, 0) in d2 and (1, 1) in d2 and (0, 2) in d2

    def test_all_positive(self):
        d1, d2 = split_by_affine(SIMPLEX2, AffineForm(1, 1, 1), 2)
        assert len(d1) == 0 and d2 == SIMPLEX2

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_below_one_refused(self, scale):
        with pytest.raises(ValueError, match="^scale must be a positive integer$"):
            split_by_affine(SIMPLEX2, self.CUT, scale)

    def test_partition_property(self):
        rng = random.Random(7)
        for _ in range(100):
            pts = LatticeSet(tuple((rng.randint(0, 9), rng.randint(0, 9))
                                   for _ in range(rng.randint(1, 25))))
            r1, r2 = rng.randint(-3, 3), rng.randint(-3, 3)
            if (r1, r2) == (0, 0):
                continue
            form = AffineForm(F(rng.randint(-9, 9), rng.randint(1, 4)), r1, r2)
            d1, d2 = split_by_affine(pts, form, rng.randint(1, 6))
            assert set(d1) | set(d2) == set(pts)
            assert not set(d1) & set(d2)

    def test_integer_split_matches_rational_value(self):
        # The split must agree point by point with the sign of the exact
        # rational value n*r0 + r1*a + r2*b, ties going to the second part.
        rng = random.Random(2024)
        ties = 0
        for trial in range(600):
            pts = LatticeSet(tuple((rng.randint(0, 40), rng.randint(0, 40))
                                   for _ in range(rng.randint(1, 60))))
            scale = rng.randint(1, 12)
            r1 = F(rng.randint(-30, 30), rng.randint(1, 60))
            r2 = F(rng.randint(-30, 30), rng.randint(1, 60))
            if trial % 3 == 1:
                r1 = F(0)
            elif trial % 3 == 2:
                r2 = F(0)
            if r1 == 0 and r2 == 0:
                r1 = F(rng.choice([-1, 1]), rng.randint(1, 60))
            if rng.random() < 0.5:
                a, b = rng.choice(pts.points)  # put this point on the cut
                r0 = -(r1 * a + r2 * b) / scale
            else:
                r0 = F(rng.randint(-400, 400), rng.randint(1, 60))
            form = AffineForm(r0, r1, r2)
            d1, d2 = split_by_affine(pts, form, scale)
            values = [form.scaled_eval(scale, a, b) for a, b in pts]
            assert d1.points == tuple(p for p, v in zip(pts, values) if v < 0)
            assert d2.points == tuple(p for p, v in zip(pts, values) if v >= 0)
            ties += any(v == 0 for v in values)
        assert ties >= 250


class TestTranspose:
    def test_row_runs_match_the_points(self):
        for D in _random_sets(45, 200):
            rows = _transpose(D.runs)
            assert rows == _runs_from_points(D.points, Direction.HORIZONTAL)
            assert _transpose(rows) == D.runs

    def test_both_directions_on_scaled_pieces(self):
        # the transposed set of a set is the set of its reflected points
        for D in _eckl10_lattice_sets(26):
            flipped = LatticeSet(tuple((b, a) for a, b in D.points))
            assert _transpose(D.runs) == flipped.runs
            assert _transpose(flipped.runs) == D.runs

    def test_lines_with_gaps_and_missing_lines(self):
        runs = ((0, 0, 2), (0, 4, 1), (1, 1, 4), (3, 0, 1), (3, 2, 3))
        assert _transpose(runs) == ((0, 0, 1), (0, 3, 1), (1, 0, 2), (2, 1, 1), (2, 3, 1),
                                    (3, 1, 1), (3, 3, 1), (4, 0, 2), (4, 3, 1))
        assert _transpose(_transpose(runs)) == runs
        assert _transpose(()) == ()


class TestColumnProfile:
    def test_profiles_match_point_counts(self):
        for D in _random_sets(44, 200):
            if len(D) == 0:
                continue
            for direction in Direction:
                counts = Counter(p[_coordinate(direction)] for p in D.points)
                assert column_profile(D, direction).counts == tuple(sorted(counts.items()))

    def test_simplex_profiles(self):
        vert = column_profile(SIMPLEX2, Direction.VERTICAL)
        assert vert.counts == ((0, 3), (1, 2), (2, 1))
        horiz = column_profile(SIMPLEX2, Direction.HORIZONTAL)
        assert horiz.counts == ((0, 3), (1, 2), (2, 1))

    def test_table_triangle_profile(self):
        pts = LatticeSet(ref._scaled_points_reference(GKE, 13))
        prof = column_profile(pts, Direction.VERTICAL)
        assert dict(prof.counts) == {5: 1, 6: 3, 7: 5, 8: 3, 9: 1}

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            column_profile(LatticeSet(()), Direction.VERTICAL)

    def test_rows_far_apart_refused_before_allocating(self):
        """A row profile lists every row between D's lowest and highest:
        rows 10^9 apart are refused by the cell cap, through the public
        witness selection too, while a span the cap allows is profiled."""
        far = LatticeSet(((0, 0), (1, 10**9), (2, 5)))
        shown = "^a row profile of 3 points spanning 1000000001 rows, a count that exceeds"
        with pytest.raises(SizeGuardrail, match=shown):
            column_profile(far, Direction.HORIZONTAL)
        with pytest.raises(SizeGuardrail, match=shown):
            select_witness_subset(far, Direction.HORIZONTAL, 1)
        assert column_profile(far, Direction.VERTICAL).counts == ((0, 1), (1, 1), (2, 1))
        near = LatticeSet(((0, 0), (1, 10**3)))
        assert column_profile(near, Direction.HORIZONTAL).counts == ((0, 1), (1000, 1))


def _max_witness_by_matching(counts):
    """Independent oracle: bipartite matching of sizes 1..m into lines."""
    ncols = len(counts)

    def feasible(m):
        owner = [0] * ncols  # 0 = free, else the size parked on that line

        def assign(size, visited):
            for j in range(ncols):
                if counts[j] >= size and not visited[j]:
                    visited[j] = True
                    if owner[j] == 0 or assign(owner[j], visited):
                        owner[j] = size
                        return True
            return False

        return all(assign(size, [False] * ncols) for size in range(1, m + 1))

    best = 0
    for m in range(1, ncols + 1):
        if feasible(m):
            best = m
    return best


class TestMaxParallelWitness:
    @pytest.mark.parametrize("counts,expected", [
        ((3, 2, 1), 3),
        ((4, 4, 3, 1), 4),
        ((1, 1, 1), 1),
        ((8,), 1),
        ((2, 2), 2),
    ])
    def test_examples(self, counts, expected):
        prof = ColumnProfile(Direction.VERTICAL,
                             tuple(enumerate(counts)))
        assert max_parallel_witness(prof) == expected

    def test_exhaustive_against_matching(self):
        # all count multisets with <= 8 lines and <= 8 points per line
        for k in range(1, 9):
            for counts in combinations_with_replacement(range(1, 9), k):
                prof = ColumnProfile(Direction.VERTICAL, tuple(enumerate(counts)))
                assert max_parallel_witness(prof) == _max_witness_by_matching(counts)


class TestSelectWitness:
    def test_exact_fit(self):
        w = select_witness_subset(SIMPLEX2, Direction.VERTICAL, 3)
        assert w.subset == SIMPLEX2
        assert ref.assignment(w) == ((0, 3), (1, 2), (2, 1))

    def test_partial_fit_deterministic(self):
        w = select_witness_subset(SIMPLEX2, Direction.VERTICAL, 2)
        assert w.subset == LatticeSet(((0, 0), (0, 1), (1, 0)))
        again = select_witness_subset(SIMPLEX2, Direction.VERTICAL, 2)
        assert again == w

    def test_too_large(self):
        with pytest.raises(WitnessTooLarge):
            select_witness_subset(SIMPLEX2, Direction.VERTICAL, 4)

    @pytest.mark.parametrize("m", [0, -2])
    def test_size_below_one_refused(self, m):
        with pytest.raises(ValueError, match="^witness size must be positive$"):
            select_witness_subset(SIMPLEX2, Direction.VERTICAL, m)

    def test_witness_certifies_dimension_minus_one(self):
        rng = random.Random(11)
        for _ in range(60):
            pts = LatticeSet(tuple((rng.randint(0, 6), rng.randint(0, 6))
                                   for _ in range(rng.randint(3, 20))))
            if len(pts) == 0:
                continue
            direction = rng.choice(list(Direction))
            m = max_parallel_witness(column_profile(pts, direction))
            if m == 0:
                continue
            w = select_witness_subset(pts, direction, m)
            assert len(w.subset) == m * (m + 1) // 2
            assert expected_dimension((m,), count=len(w.subset)) == -1
            assert set(w.subset) <= set(pts)

    def test_runs_state_the_lowest_points_of_each_line(self):
        """Runs built by bisection equal a one-pass fill of the chosen lines
        (lines by count descending, then index; lowest points first), on
        sets whose lines have gaps."""
        rng = random.Random(12)
        gaps = 0
        for _ in range(200):
            pts = LatticeSet(tuple((rng.randint(0, 12), rng.randint(0, 12))
                                   for _ in range(rng.randint(1, 60))))
            for direction in Direction:
                k = _coordinate(direction)
                m = max_parallel_witness(column_profile(pts, direction))
                w = select_witness_subset(pts, direction, m)
                counts = Counter(p[k] for p in pts)
                lines = sorted(counts, key=lambda line: (-counts[line], line))[:m]
                expected = []
                for j, line in enumerate(lines):
                    expected += sorted((p for p in pts if p[k] == line),
                                       key=lambda p: p[1 - k])[:m - j]
                assert w.subset == LatticeSet(tuple(expected))
                assert ref.assignment(w) == tuple((line, m - j) for j, line in enumerate(lines))
                assert WitnessSelection.from_json(w.to_json()) == w
                gaps += len(w.runs) > m
        assert gaps > 100


class TestExpectedDimension:
    def test_formula_examples(self):
        # all monomials of degree <= d are (d + 1)(d + 2)/2: 15 at d = 4,
        # 253 at d = 21 and 21 at d = 5
        assert expected_dimension((2,) * 5, count=15) == -1
        assert expected_dimension((3,), count=6) == -1
        assert expected_dimension((7,) * 6 + (6,) * 4 + (1,), count=253) == -1
        assert expected_dimension((), count=21) == 20

    def test_independent_summation(self):
        rng = random.Random(13)
        for _ in range(60):
            d = rng.randint(0, 30)
            ms = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 8)))
            monomials = sum(1 for i in range(d + 1) for j in range(d + 1 - i))
            conditions = sum(comb(m + 1, 2) for m in ms)
            assert (expected_dimension(ms, count=(d + 1) * (d + 2) // 2)
                    == max(-1, monomials - 1 - conditions))

    def test_argument_validation(self):
        with pytest.raises(TypeError):
            expected_dimension((1,))
        with pytest.raises(ValueError):
            MultiplicitySpec((0,))


class TestLatticeSet:
    @pytest.mark.parametrize("n", [13, 52, 208])
    def test_built_sets_satisfy_the_validated_form(self, n):
        # Enumeration, splits and witness subsets skip the validating
        # constructor; rebuilding their points through it must give the
        # same canonical runs and size.
        for s in _eckl10_lattice_sets(n):
            assert type(s.runs) is tuple
            assert all(type(r) is tuple and len(r) == 3 and set(map(type, r)) == {int}
                       and r[1] >= 0 and r[2] >= 1 for r in s.runs)
            rebuilt = LatticeSet(s.points)
            assert rebuilt.runs == s.runs and len(rebuilt) == len(s) == len(s.points)

    def test_rejects_non_integer_exponents(self):
        for bad in ((1.5, 0), (0, True), (F(1), 0), ("1", 0)):
            with pytest.raises(ValueError, match="integers"):
                LatticeSet((bad,))
            with pytest.raises(ValueError, match="integers"):
                LatticeSet.from_json([[0, 0], list(bad)])
        for bad in ((1.9,), (True,), (F(2),)):
            with pytest.raises(ValueError, match="not an integer"):
                MultiplicitySpec(bad)

    def test_sorted_dedup(self):
        pts = LatticeSet(((2, 0), (0, 1), (2, 0)))
        assert pts.points == ((0, 1), (2, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatticeSet(((-1, 0),))

    def test_json_round_trip(self):
        assert LatticeSet.from_json(ref.lattice_to_json(SIMPLEX2)) == SIMPLEX2

    def test_runs_are_the_maximal_column_runs(self):
        for D in _random_sets(43, 200):
            assert D.runs == _runs_from_points(D.points, Direction.VERTICAL)
            assert len(D) == len(set(D.points))

    def test_malformed_point_is_named(self):
        with pytest.raises(ValueError, match=r"^point 2 \[0, 0, 0\] is not a list of 2"):
            LatticeSet.from_json([[1, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"^point 1 '12' is not a list of 2"):
            LatticeSet.from_json(["12"])
        with pytest.raises(ValueError, match=r"^point 3 \[0, -1\]: .* nonnegative"):
            LatticeSet.from_json([[0, 0], [1, 0], [0, -1]])

    def test_json_refuses_a_repeated_point_that_the_constructor_drops(self):
        with pytest.raises(ValueError, match=r"^point 4 \[0, 0\] repeats point 1$"):
            LatticeSet.from_json([[0, 0], [1, 0], [0, 1], [0, 0]])
        with pytest.raises(ValueError, match=r"^point 3 \[2, 3\] repeats point 2$"):
            LatticeSet.from_json([(1, 0), [2, 3], (2, 3), [1, 0]])
        assert LatticeSet([(0, 0), (1, 0), (0, 0)]) == LatticeSet([(0, 0), (1, 0)])

    def test_membership_matches_sets(self):
        rng = random.Random(41)
        for _ in range(300):
            a = LatticeSet(tuple((rng.randint(0, 5), rng.randint(0, 5))
                                 for _ in range(rng.randint(0, 12))))
            for q in [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(5)]:
                assert ref.lattice_contains(a, q) == (q in set(a))
                assert ref.lattice_contains(a, list(q)) == (q in set(a))
