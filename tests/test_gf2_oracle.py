"""The GF(2) step of the point-free one-point oracle.

Both oracle modes decide the binomial matrix B of a one-point system mod 2
first, and fall back to their own field only when its rank there is short.
B is the condition matrix at (1, 1) of the set moved to touch both axes.
A staircase (m lines carrying 1, ..., m points) is decided by the parity
of det B's closed form, any other set by an XOR elimination of Lucas
bitmask rows.  These tests pin B against its binomial form, the masks and
the XOR rank against it and the reference kernel, the closed form against
the elimination and, as an integer identity, against det B itself, the
route each system takes, and drive both fallbacks.
"""

import itertools
import random
from collections import Counter
from math import comb, factorial, prod

import pytest

import seshadri.oracle as oracle
from seshadri._kernels import pyref
from seshadri.certify import (EmptyPolygonAtScale, builtin_dissection_eckl10,
                              finite_certificate)
from seshadri.lattice import LatticeSet
from seshadri.oracle import (_condition_rows, _gf2_rank, _lucas_rows,
                             _staircase_full_mod_2, fraction_free_rank,
                             system_dimension_exact, system_dimension_modp)

from conftest import random_dissection

BUILTIN = builtin_dissection_eckl10()
# GF(2) rank 1, rank 3 over Q: C(2, 1) = 2 vanishes mod 2
SHORT_MOD_2 = LatticeSet(((0, 0), (2, 0), (0, 2)))
# rank 2 over Q as well: three points on a line cannot carry multiplicity 2
SPECIAL = LatticeSet(((0, 0), (1, 0), (2, 0)))


def point_free_matrix(D, m, prime=None):
    """B: the condition rows at (1, 1) of D moved to touch both axes, over
    Z or mod ``prime``."""
    s, t = min(alpha for alpha, _ in D), min(beta for _, beta in D)
    moved = LatticeSet([(alpha - s, beta - t) for alpha, beta in D])
    return _condition_rows(moved, [(1, 1)], (m,), prime)


def binomial_matrix(D, m):
    """B written out: row (a, b) holds C(alpha - s, a) * C(beta - t, b) for
    each exponent of D, in its order, where (s, t) moves D to touch both
    axes."""
    s, t = min(alpha for alpha, _ in D), min(beta for _, beta in D)
    return [[comb(alpha - s, a) * comb(beta - t, order - a) for alpha, beta in D]
            for order in range(m) for a in range(order + 1)]


def seeded_systems(count, seed, offset):
    """Seeded one-point systems (D, m) with D shifted off the axes by up to
    ``offset``."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        s, t = rng.randint(offset[0], offset[1]), rng.randint(offset[0], offset[1])
        D = LatticeSet(tuple((s + rng.randint(0, 9), t + rng.randint(0, 9))
                             for _ in range(rng.randint(1, 24))))
        systems.append((D, rng.randint(1, 6)))
    return systems


def seeded_staircases(count, seed):
    """Seeded witness shapes (D, m): 1..m points on m parallel lines, m up
    to 12, in either direction, the lines consecutive or with gaps, the
    counts shuffled and each line's first point drawn at random."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        m = rng.randint(2, 12)
        lines = (range(m) if rng.random() < 0.5
                 else sorted(rng.sample(range(3 * m), m)))
        counts = list(range(1, m + 1))
        rng.shuffle(counts)
        vertical = rng.random() < 0.5
        points = []
        for line, size in zip(lines, counts):
            first = rng.randint(0, 8)
            for along in range(first, first + size):
                points.append((line, along) if vertical else (along, line))
        systems.append((LatticeSet(points), m))
    return systems


def seeded_gapped_staircases(count, seed, top=12):
    """Seeded staircases (D, m), m up to ``top``, in either direction,
    whose lines may hold several runs: a line of k points draws them from
    a window of k to 2k consecutive places."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        m = rng.randint(2, top)
        lines = (range(m) if rng.random() < 0.3
                 else sorted(rng.sample(range(3 * m), m)))
        counts = list(range(1, m + 1))
        rng.shuffle(counts)
        vertical = rng.random() < 0.5
        points = []
        for line, size in zip(lines, counts):
            first = rng.randint(0, 8)
            for along in rng.sample(range(first, first + size + rng.randint(0, size)), size):
                points.append((line, along) if vertical else (along, line))
        systems.append((LatticeSet(points), m))
    return systems


def staircase_lines(D):
    """D's lines as (position, sorted exponents along it), by decreasing
    count, along the first direction, columns then rows, in which they
    carry 1, ..., m points; None if neither does."""
    for pairs in (D.points, [(beta, alpha) for alpha, beta in D.points]):
        lines = {}
        for line, along in pairs:
            lines.setdefault(line, []).append(along)
        if sorted(map(len, lines.values())) == list(range(1, len(lines) + 1)):
            return sorted(lines.items(), key=lambda item: -len(item[1]))
    return None


def vandermonde_quotient(xs):
    """prod_{i<j} (xs[j] - xs[i]) / prod_{a<len(xs)} a!, an exact int."""
    num = prod(xs[j] - xs[i] for j in range(len(xs)) for i in range(j))
    den = prod(factorial(a) for a in range(len(xs)))
    assert num % den == 0
    return num // den


def closed_form_factors(D):
    """The Delta_k, k = 1..m, and the V(S_j) of the staircase D."""
    lines = staircase_lines(D)
    alphas = [line for line, _ in lines]
    return ([vandermonde_quotient(alphas[:k]) for k in range(1, len(alphas) + 1)],
            [vandermonde_quotient(along) for _, along in lines])


def certificate_witnesses(dis, scales):
    """(D, m) of every witness of ``dis``'s mode-none certificates at
    ``scales``, skipping a scale with an empty piece."""
    systems = []
    for n in scales:
        try:
            cert = finite_certificate(dis, n)
        except EmptyPolygonAtScale:
            continue
        systems += [(row.witness.subset, row.m) for row in cert.per_polygon]
    return systems


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def lucas_rows_per_point(D, m):
    """``_lucas_rows`` as it was built before its beta table came from one
    sweep over the rows: each point's bit is added to its row in turn."""
    runs = D.runs
    s = runs[0][0] if runs else 0
    t = min((first for _, first, _ in runs), default=0)
    by_alpha, by_beta = {}, {}
    j = 0
    for alpha, first, count in runs:
        by_alpha[alpha - s] = by_alpha.get(alpha - s, 0) | ((1 << count) - 1) << j
        for beta in range(first - t, first - t + count):
            by_beta[beta] = by_beta.get(beta, 0) | 1 << j
            j += 1
    xs, ys = oracle._odd_masks(by_alpha, m), oracle._odd_masks(by_beta, m)
    return [x & y for order in range(m) for x, y in zip(xs, ys[order::-1])]


def seeded_run_sets(count, seed):
    """Seeded (D, m) whose columns hold up to three runs each, with rows
    that runs of other columns start, end, skip or leave uncovered."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        points = []
        for alpha in rng.sample(range(12), rng.randint(1, 6)):
            beta = rng.randint(0, 6)
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, 5)
                points += [(alpha, b) for b in range(beta, beta + size)]
                beta += size + rng.randint(1, 4)
        systems.append((LatticeSet(points), rng.randint(1, 7)))
    return systems


class TestLucasRows:
    def test_row_sweep_equals_per_point_tables(self):
        systems = (seeded_run_sets(300, seed=61) + seeded_staircases(100, seed=67)
                   + seeded_systems(100, seed=71, offset=(0, 50)))
        # two points far apart in beta, as an ``oracle --system`` file may state
        systems += [(LatticeSet(((0, 0), (1, 10**12))), m) for m in (1, 2)]
        systems += [(LatticeSet(((5, 10**15), (5, 10**15 + 1), (0, 3))), 2)]
        for D, m in systems:
            assert _lucas_rows(D, m) == lucas_rows_per_point(D, m), (D.runs, m)

    def test_builder_at_one_one_is_the_binomial_matrix(self):
        for D, m in (seeded_systems(150, seed=37, offset=(0, 40))
                     + seeded_staircases(50, seed=41)):
            assert point_free_matrix(D, m) == binomial_matrix(D, m), (D.runs, m)

    def test_masks_equal_binomial_matrix_mod_2(self):
        for D, m in seeded_systems(150, seed=31, offset=(1, 5)):
            B = point_free_matrix(D, m, 2)
            masks = _lucas_rows(D, m)
            assert len(masks) == len(B)
            for mask, row in zip(masks, B):
                assert [mask >> j & 1 for j in range(len(row))] == row
                assert mask >> len(row) == 0

    def test_rank_equals_reference_kernel_mod_2(self):
        systems = seeded_systems(300, seed=47, offset=(0, 3))
        short = 0
        for D, m in systems:
            B = point_free_matrix(D, m)
            rank = _gf2_rank(_lucas_rows(D, m))
            assert rank == pyref.modrank(B, 2), (D, m)
            short += rank < min(len(D), m * (m + 1) // 2)
        assert 0 < short < len(systems)  # full and short ranks both occur

    def test_staircase_witnesses(self):
        # Witness shapes are what the certificate ranks; most of these fall
        # short mod 2, so both the full and the short path are checked.
        systems = seeded_staircases(200, seed=59)
        short = 0
        for D, m in systems:
            B = point_free_matrix(D, m)
            masks = _lucas_rows(D, m)
            assert masks == [sum((e & 1) << j for j, e in enumerate(row)) for row in B]
            rank = _gf2_rank(masks)
            assert rank == pyref.modrank(B, 2), (D, m)
            short += rank < len(D)
        assert 0 < short < len(systems)

    def test_rank_of_random_bit_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            nrows, ncols = rng.randint(0, 12), rng.randint(1, 12)
            rows = [[rng.random() < 0.3 for _ in range(ncols)] for _ in range(nrows)]
            packed = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
            assert _gf2_rank(packed) == pyref.modrank([[int(b) for b in row]
                                                       for row in rows], 2)


class TestClosedForm:
    """A staircase's rank mod 2 is read from the parity of det B, which is
    +-prod Delta_k * prod V(S_j) (the ``seshadri.oracle`` docstring)."""

    def test_parity_equals_the_elimination(self):
        """On eckl10's witnesses at n = 1..150, the corpus's at n = 13, 26,
        40 and 52, and staircases whose lines hold several runs, in both
        directions.  Beyond eckl10, whose determinants are odd but one,
        the sweep holds odd determinants, even Delta factors and, with
        every Delta odd, even line Vandermondes, each counted by the
        factors themselves; so dropping v2(k!), taking the lines by
        ascending count or skipping a line's V each fail it."""
        for D, m in certificate_witnesses(BUILTIN, range(1, 151)):
            assert _staircase_full_mod_2(D, m) == (_gf2_rank(_lucas_rows(D, m)) == len(D)), \
                (D.runs, m)
        systems = seeded_gapped_staircases(3000, seed=83)
        for seed in range(60):
            systems += certificate_witnesses(random_dissection(random.Random(seed)),
                                             (13, 26, 40, 52))
        kinds = Counter()
        for D, m in systems:
            full = _staircase_full_mod_2(D, m)
            assert full == (_gf2_rank(_lucas_rows(D, m)) == len(D)), (D.runs, m)
            deltas, vs = closed_form_factors(D)
            kind = all(d % 2 for d in deltas), all(v % 2 for v in vs)
            assert full == all(kind), (D.runs, m)
            kinds[kind] += 1
        assert kinds[True, True] and kinds[False, True] and kinds[True, False], kinds

    def test_determinant_identity(self):
        """det B = +-prod Delta_k * prod V(S_j) over the integers."""
        systems = (certificate_witnesses(BUILTIN, (13, 26))
                   + seeded_gapped_staircases(200, seed=89, top=6))
        for D, m in systems:
            deltas, vs = closed_form_factors(D)
            det = prod(deltas) * prod(vs)
            assert det and bareiss_det(point_free_matrix(D, m)) in (det, -det), (D.runs, m)

    def test_sets_that_are_not_staircases_are_none(self):
        for D, m in seeded_systems(200, seed=97, offset=(0, 20)):
            lines = staircase_lines(D)
            if lines is None or len(lines) != m:
                assert _staircase_full_mod_2(D, m) is None


class TestRoute:
    """Which GF(2) step a one-point system takes."""

    def test_certificates_build_no_lucas_row(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a Lucas row was built")
        monkeypatch.setattr(oracle, "_lucas_rows", refuse)
        for mode in ("modular", "exact"):
            for n in range(13, 105):
                cert = finite_certificate(BUILTIN, n, oracle_mode=mode)
                assert all(row.oracle.prime == 2 for row in cert.per_polygon), (mode, n)

    def test_other_sets_are_eliminated(self, monkeypatch):
        built = []

        def spy(D, m):
            built.append(D)
            return _lucas_rows(D, m)
        monkeypatch.setattr(oracle, "_lucas_rows", spy)
        square = LatticeSet(((0, 0), (1, 0), (0, 1), (1, 1)))  # 4 points, 3 conditions
        for D in (SPECIAL, square):  # SPECIAL: 3 points, but on 3 columns or 1 row
            modular, exact = _both_modes(D, 2)
            assert built[-2:] == [D, D]
            assert modular.rank == exact.rank == (2 if D is SPECIAL else 3)

    def test_even_staircase_goes_straight_to_the_fallback(self, monkeypatch):
        # SHORT_MOD_2: columns of 2 and 1 points, Delta_2 = 2 and V({0, 2}) = 2
        def refuse(*_args):
            raise AssertionError("a Lucas row was built")
        monkeypatch.setattr(oracle, "_lucas_rows", refuse)
        modular, exact = _both_modes(SHORT_MOD_2, 2)
        for v, prime in ((modular, 97), (exact, None)):
            assert (v.rank, v.actual_dimension, v.non_special, v.prime) == (3, -1, True, prime)
            assert v.caveat.startswith("point-free:") and "mod 2" not in v.caveat


class TestFallback:
    def test_short_rank_mod_2_is_not_final(self):
        assert _gf2_rank(_lucas_rows(SHORT_MOD_2, 2)) == 1
        assert fraction_free_rank(point_free_matrix(SHORT_MOD_2, 2)) == 3

    def test_both_modes_fall_back_to_full_rank(self):
        modular = system_dimension_modp(SHORT_MOD_2, (2,), prime=97)
        exact = system_dimension_exact(SHORT_MOD_2, (2,))
        for v in (modular, exact):
            assert v.non_special and v.rank == 3 and v.actual_dimension == -1
            assert v.caveat.startswith("point-free:") and "mod 2" not in v.caveat
        assert modular.prime == 97 and modular.to_json()["prime"] == 97
        assert exact.prime is None and exact.to_json()["prime"] is None
        assert system_dimension_modp(SHORT_MOD_2, (2,)).prime == oracle.MODULAR_DEFAULT_PRIME

    def test_fallback_ranks_the_set_moved_to_touch_both_axes(self, monkeypatch):
        seen = []

        def spy(D, pairs, spec, prime=None):
            seen.append((D.points, list(pairs)))
            return _condition_rows(D, pairs, spec, prime)
        monkeypatch.setattr(oracle, "_condition_rows", spy)
        # SHORT_MOD_2 moved off both axes: the rank mod 2 still falls short
        D = LatticeSet(((3, 5), (5, 5), (3, 7)))
        modular = system_dimension_modp(D, (2,), prime=97)
        exact = system_dimension_exact(D, (2,))
        assert seen == [(SHORT_MOD_2.points, [(1, 1)])] * 2
        assert modular.rank == exact.rank == 3 and modular.prime == 97

    def test_special_system_stays_special(self):
        for v in (system_dimension_modp(SPECIAL, (2,), prime=97),
                  system_dimension_exact(SPECIAL, (2,))):
            assert not v.non_special
            assert (v.rank, v.actual_dimension, v.expected_dimension) == (2, 0, -1)
        assert system_dimension_modp(SPECIAL, (2,), prime=97).prime == 97

    def test_full_rank_mod_2_decides_without_the_fallback(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the fallback ran on a full GF(2) rank")
        monkeypatch.setattr(oracle, "_condition_rows", refuse)
        monkeypatch.setattr(oracle, "modrank", refuse)
        monkeypatch.setattr(oracle, "fraction_free_rank", refuse)
        for mode in ("modular", "exact"):
            cert = finite_certificate(BUILTIN, 26, oracle_mode=mode)
            for row in cert.per_polygon:
                v = row.oracle
                assert v.non_special and v.prime == 2 and v.seed is None
                assert v.caveat.startswith("point-free:")
                assert "full rank mod 2" in v.caveat


def _both_modes(D, m):
    return (system_dimension_modp(D, (m,), prime=97), system_dimension_exact(D, (m,)))


class TestCellCap:
    """The cap counts the matrix each step of a one-point system builds,
    the same in both modes: GF(2) rows in 64-bit words, then B in cells."""

    def test_gf2_rows_count_64_bit_words(self, monkeypatch):
        wide = LatticeSet(tuple((a, 0) for a in range(65)))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "1")
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail,
                               match="^1x2 GF\\(2\\) word matrix exceeds the cell cap"):
                mode(wide, (1,))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "2")
        for v in _both_modes(wide, 1):
            assert v.non_special and v.prime == 2

    def test_fallback_matrix_counts_cells(self, monkeypatch):
        # GF(2) needs 3 words, the fallback a 3x3 matrix
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "8")
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail, match="^3x3 point-free matrix"):
                mode(SHORT_MOD_2, (2,))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "9")
        for v in _both_modes(SHORT_MOD_2, 2):
            assert v.non_special and v.rank == 3

    def test_gf2_decides_what_the_cells_of_b_would_refuse(self, monkeypatch):
        # B is 3x4 = 12 cells; GF(2) ranks it in 3 words and decides
        D = LatticeSet(((0, 0), (3, 0), (0, 1), (1, 1)))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "5")
        modular, exact = _both_modes(D, 2)
        assert modular.non_special and exact.non_special
        assert modular.prime == exact.prime == 2 and modular.rank == exact.rank == 3

    def test_huge_multiplicity_refused_before_any_row(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a row was built")
        monkeypatch.setattr(oracle, "_lucas_rows", refuse)
        monkeypatch.setattr(oracle, "_condition_rows", refuse)
        D = LatticeSet(((0, 0), (1, 0), (2, 0)))
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail, match="^200010000x1 GF"):
                mode(D, (20000,))


@pytest.mark.parametrize("n", [13, 26])
def test_eckl10_witness_matrices_are_unimodular(n):
    # An independent route to full rank over Q; soundness rests on the
    # GF(2) step alone.  The determinant identity explains the +-1: each
    # eckl10 witness's lines, by decreasing count, grow a block of
    # consecutive positions, and each line is one run, so every Delta_k
    # and every V(S_j) is +-1.
    cert = finite_certificate(BUILTIN, n, "none")
    for row in cert.per_polygon:
        B = point_free_matrix(row.witness.subset, row.m)
        assert len(B) == len(row.witness.subset)
        assert bareiss_det(B) in (1, -1), (n, row.polygon)


def test_bareiss_matches_leibniz():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) * (rng.random() < 0.7) for _ in range(k)]
                for _ in range(k)]
        assert bareiss_det(rows) == leibniz_det(rows)
