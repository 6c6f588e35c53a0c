"""The staircase identity and the GF(2) step of the point-free oracle.

B is the condition matrix at (1, 1) of a one-point system's set moved to
touch both axes.  A staircase (m lines carrying 1, ..., m points) is
decided by the identity det B = +-prod Delta_k * prod V(S_j), a nonzero
integer, with no matrix built.  Any other set has B built once and
ranked mod 2 by ``modrank``, and both modes fall back to their own field
only when that rank is short.  These tests pin B against its binomial
form, the reference Lucas masks and XOR rank (``fraction_reference``)
against it and the kernel, the identity against det B itself and against
a fresh rank of B, which staircases take the identity, the route each
system takes, the verdicts against the XOR rank, and drive both
fallbacks.
"""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

import seshadri.oracle as oracle
from seshadri._kernels import pyref
from seshadri.certify import EmptyPolygonAtScale, finite_certificate
from seshadri.dissection import builtin_dissection_eckl10
from seshadri.lattice import LatticeSet
from seshadri.oracle import (_GF2_FULL, MODULAR_DEFAULT_PRIME, _condition_rows,
                             _is_staircase, _staircase_verdict, fraction_free_rank,
                             system_dimension_exact, system_dimension_modp)

from conftest import random_dissection
from fraction_reference import _gf2_rank, _lucas_rows

BUILTIN = builtin_dissection_eckl10()
# no staircase: three columns and three rows of one point each; GF(2)
# rank 1, rank 3 over Q: C(2, 1) and C(4, 1) vanish mod 2
SHORT_MOD_2 = LatticeSet(((0, 0), (2, 4), (4, 2)))
# a staircase of columns of 2 and 1 points whose det B = Delta_2 * V({0, 2})
# = 2 * 2 is even: GF(2) rank 1, decided by the identity
EVEN_STAIRCASE = LatticeSet(((0, 0), (2, 0), (0, 2)))
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


class TestLucasRows:
    def test_builder_at_one_one_is_the_binomial_matrix(self):
        for D, m in (seeded_systems(150, seed=37, offset=(0, 40))
                     + seeded_staircases(50, seed=41)):
            assert point_free_matrix(D, m) == binomial_matrix(D, m), (D.runs, m)

    def test_masks_equal_binomial_matrix_mod_2(self):
        systems = seeded_systems(150, seed=31, offset=(1, 5))
        # points far apart in beta, as an ``oracle --system`` file may state
        systems += [(LatticeSet(((0, 0), (1, 10**12))), m) for m in (1, 2)]
        systems += [(LatticeSet(((5, 10**15), (5, 10**15 + 1), (0, 3))), 2)]
        for D, m in systems:
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
        # Staircases, the shape of every witness, which the identity
        # decides; most of these fall short mod 2, so both the full and
        # the short path are checked.
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

    def test_fresh_rank_is_full(self):
        """A second route to the identity's verdict: B of every staircase
        has full rank mod 2^61 - 1, and over Q where m <= 8, on eckl10's
        witnesses at n = 1..40, the corpus's at n = 13 and 26, and
        staircases whose lines hold several runs, in both directions.
        The sweep holds even determinants, both from an even Delta and,
        with every Delta odd, from an even line Vandermonde, counted by
        the factors themselves."""
        systems = certificate_witnesses(BUILTIN, range(1, 41))
        for seed in range(60):
            systems += certificate_witnesses(random_dissection(random.Random(seed)),
                                             (13, 26))
        systems += seeded_gapped_staircases(300, seed=83, top=10)
        kinds = Counter()
        for D, m in systems:
            assert _is_staircase(D, m), (D.runs, m)
            B = point_free_matrix(D, m)
            assert pyref.modrank(B, MODULAR_DEFAULT_PRIME) == len(D), (D.runs, m)
            if m <= 8:
                assert fraction_free_rank(B) == len(D), (D.runs, m)
            deltas, vs = closed_form_factors(D)
            kinds[all(d % 2 for d in deltas), all(v % 2 for v in vs)] += 1
        assert kinds[True, True] and kinds[False, True] and kinds[True, False], kinds

    def test_determinant_identity(self):
        """det B = +-prod Delta_k * prod V(S_j) over the integers."""
        systems = (certificate_witnesses(BUILTIN, (13, 26))
                   + seeded_gapped_staircases(200, seed=89, top=6))
        for D, m in systems:
            deltas, vs = closed_form_factors(D)
            det = prod(deltas) * prod(vs)
            assert det and bareiss_det(point_free_matrix(D, m)) in (det, -det), (D.runs, m)

    def test_staircases_are_recognised_in_both_directions(self):
        """``_is_staircase`` holds exactly when the columns, or else the
        rows, carry 1, ..., m points, on seeded sets, their transposes and
        sets of m(m+1)/2 points that are not staircases."""
        systems = (seeded_systems(200, seed=97, offset=(0, 20))
                   + seeded_staircases(200, seed=101)
                   + seeded_gapped_staircases(200, seed=103, top=8))
        systems += [(LatticeSet([(b, a) for a, b in D]), m) for D, m in systems]
        # m(m+1)/2 points, but not 1, ..., m on any m parallel lines
        systems += [(SPECIAL, 2), (SHORT_MOD_2, 2),
                    (LatticeSet(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 5))), 3),
                    (LatticeSet(((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0))), 3)]
        kinds = Counter()
        for D, m in systems:
            lines = staircase_lines(D)
            want = lines is not None and len(lines) == m
            assert _is_staircase(D, m) == want, (D.runs, m)
            columns = sorted(Counter(alpha for alpha, _ in D).values())
            kinds[want, len(D) == m * (m + 1) // 2, columns == list(range(1, m + 1))] += 1
        # staircases of rows only, and sets of the size of one that are not
        assert kinds[True, True, False] and kinds[False, True, False], kinds

    def test_rows_far_apart_are_transposed_not_listed(self):
        """Rows 10^15 apart: a row staircase is found among the columns of
        the transposition, which lists only the rows that hold points, and
        a stretch of rows of one count is none."""
        far = 10**15
        rows = LatticeSet(((0, 0), (1, 0), (5, far)))
        assert _is_staircase(rows, 2)
        assert not _is_staircase(LatticeSet(((0, 0), (0, 1), (0, far))), 2)
        assert not _is_staircase(LatticeSet(((0, 0), (1, 1), (2, far))), 2)
        for v in _both_modes(rows, 2):
            assert v == _staircase_verdict(2, v.method)


class TestRoute:
    """Which route a one-point system takes: the identity or elimination."""

    def test_certificates_build_no_matrix(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a row was built or ranked")
        for name in ("_condition_rows", "modrank", "fraction_free_rank"):
            monkeypatch.setattr(oracle, name, refuse)
        for mode, method in (("modular", "modular"), ("exact", "exact-rational")):
            for n in range(13, 105):
                cert = finite_certificate(BUILTIN, n, oracle_mode=mode)
                for row in cert.per_polygon:
                    assert row.oracle == _staircase_verdict(row.m, method), (mode, n)
                    assert row.oracle.prime is None and row.oracle.caveat.startswith(
                        "staircase:")

    def test_other_sets_are_eliminated(self, monkeypatch):
        """B is built once per mode and ranked mod 2 first; only a short
        rank takes the mode's own field."""
        built, primes = [], []

        def build(D, pairs, spec, prime=None):
            built.append(D)
            return _condition_rows(D, pairs, spec, prime)

        def rank(rows, prime):
            primes.append(prime)
            return pyref.modrank(rows, prime)
        monkeypatch.setattr(oracle, "_condition_rows", build)
        monkeypatch.setattr(oracle, "modrank", rank)
        square = LatticeSet(((0, 0), (1, 0), (0, 1), (1, 1)))  # 4 points, 3 conditions
        # SPECIAL: 3 points, but on 3 columns or 1 row, and short mod 2
        for D, want in ((SPECIAL, [2, 97, 2]), (square, [2, 2])):
            built.clear()
            primes.clear()
            modular, exact = _both_modes(D, 2)
            assert built == [D, D] and primes == want
            assert modular.rank == exact.rank == (2 if D is SPECIAL else 3)

    def test_even_staircase_takes_the_identity(self, monkeypatch):
        # EVEN_STAIRCASE: columns of 2 and 1 points, Delta_2 = 2 and V({0, 2}) = 2
        def refuse(*_args):
            raise AssertionError("a row was built or ranked")
        monkeypatch.setattr(oracle, "_condition_rows", refuse)
        monkeypatch.setattr(oracle, "modrank", refuse)
        assert _gf2_rank(_lucas_rows(EVEN_STAIRCASE, 2)) == 1
        modular, exact = _both_modes(EVEN_STAIRCASE, 2)
        for v in (modular, exact):
            assert (v.rank, v.actual_dimension, v.non_special, v.prime) == (3, -1, True, None)
            assert v == _staircase_verdict(2, v.method)
        assert system_dimension_modp(EVEN_STAIRCASE, (2,), prime=2) == modular


class TestFallback:
    """Sets that are not staircases: GF(2) first, then the mode's field."""

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
        D = LatticeSet(((3, 5), (5, 9), (7, 7)))
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
        full = [(D, m) for D, m in seeded_systems(200, seed=107, offset=(0, 20))
                if not _is_staircase(D, m)
                and _gf2_rank(_lucas_rows(D, m)) == min(len(D), m * (m + 1) // 2)]
        assert len(full) > 20
        primes = []

        def rank(rows, prime):
            primes.append(prime)
            return pyref.modrank(rows, prime)

        def refuse(*_args):
            raise AssertionError("the fallback ran on a full rank mod 2")
        monkeypatch.setattr(oracle, "modrank", rank)
        monkeypatch.setattr(oracle, "fraction_free_rank", refuse)
        for D, m in full:
            for v in _both_modes(D, m):
                assert v.prime == 2 and v.seed is None and v.rank == min(len(D), m * (m + 1) // 2)
                assert v.caveat.startswith("point-free:")
                assert "full rank mod 2" in v.caveat
        assert primes == [2] * (2 * len(full))  # one rank mod 2 per mode, no other

    def test_verdicts_follow_the_reference_xor_rank(self):
        """A second route to the mod 2 step: on seeded sets that are not
        staircases, rows and columns far apart included, both modes record
        prime 2 and the full-rank caveat exactly when the reference XOR
        rank of the Lucas rows is full, and otherwise rank at their own
        field."""
        far = 10**12
        rng = random.Random(109)
        systems = seeded_systems(300, seed=113, offset=(0, 20))
        for _ in range(60):
            lines = [rng.randint(0, 3) * far + rng.randint(0, 3) for _ in range(3)]
            pts = [(rng.randint(0, 5), rng.choice(lines)) for _ in range(rng.randint(2, 16))]
            D = LatticeSet(pts if rng.random() < 0.5 else [(b, a) for a, b in pts])
            systems.append((D, rng.randint(1, 4)))
        kinds = Counter()
        for D, m in systems:
            if _is_staircase(D, m):
                continue
            full = _gf2_rank(_lucas_rows(D, m)) == min(len(D), m * (m + 1) // 2)
            for v, own in zip(_both_modes(D, m), (97, None)):
                assert (v.prime, v.caveat == _GF2_FULL) == ((2, True) if full else (own, False)), \
                    (D.runs, m)
            kinds[full, max(b for _, b in D) >= far or max(a for a, _ in D) >= far] += 1
        # full and short ranks, both near the axes and far apart
        assert min(kinds[k] for k in itertools.product((True, False), repeat=2)) > 5, kinds


def _both_modes(D, m):
    return (system_dimension_modp(D, (m,), prime=97), system_dimension_exact(D, (m,)))


class TestCellCap:
    """The cap counts the matrix a one-point system builds, the same in
    both modes: none for a staircase, else B, one cell per entry, before
    it is built."""

    def test_staircases_build_nothing_to_count(self, monkeypatch):
        # 210 points: B would be 44,100 cells
        D = LatticeSet([(line, along) for line in range(20) for along in range(line + 1)])
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "1")
        for v in _both_modes(D, 20):
            assert v == _staircase_verdict(20, v.method)

    @pytest.mark.parametrize("mode", ["modular", "exact"])
    def test_eckl10_certifies_up_to_the_bounding_box_cap(self, mode):
        """n = 1999 is the last scale whose bounding box, 2000^2 points,
        is within the default cap; the witnesses add nothing to count."""
        cert = finite_certificate(BUILTIN, 1999, oracle_mode=mode)
        assert cert.min_ratio == Fraction(614, 1999)
        assert all(row.oracle.non_special for row in cert.per_polygon)
        with pytest.raises(oracle.SizeGuardrail, match=re.escape(
                "scale n = 2000: the scaled polygon's bounding box holds 4004001 integer "
                "points, a count that exceeds the cell cap; set SESHADRI_MAX_CELLS")):
            finite_certificate(BUILTIN, 2000, oracle_mode=mode)

    def test_full_rank_mod_2_counts_the_cells_of_b(self, monkeypatch):
        # B is 1x65: refused at 64 cells, decided mod 2 at 65
        wide = LatticeSet(tuple((a, 0) for a in range(65)))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "64")
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail,
                               match="^1x65 point-free matrix exceeds the cell cap"):
                mode(wide, (1,))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "65")
        for v in _both_modes(wide, 1):
            assert v.non_special and v.prime == 2

    def test_fallback_matrix_counts_cells(self, monkeypatch):
        # SHORT_MOD_2 is no staircase and short mod 2: B is 3x3, ranked
        # mod 2 and then in the mode's field, and counted once
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "8")
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail, match="^3x3 point-free matrix"):
                mode(SHORT_MOD_2, (2,))
        monkeypatch.setenv("SESHADRI_MAX_CELLS", "9")
        for v in _both_modes(SHORT_MOD_2, 2):
            assert v.non_special and v.rank == 3

    def test_huge_multiplicity_refused_before_any_row(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a row was built or ranked")
        monkeypatch.setattr(oracle, "_condition_rows", refuse)
        monkeypatch.setattr(oracle, "modrank", refuse)
        D = LatticeSet(((0, 0), (1, 0), (2, 0)))
        for mode in (system_dimension_modp, system_dimension_exact):
            with pytest.raises(oracle.SizeGuardrail, match="^200010000x3 point-free matrix"):
                mode(D, (20000,))


@pytest.mark.parametrize("n", [13, 26])
def test_eckl10_witness_matrices_are_unimodular(n):
    # An independent route to full rank over Q; soundness rests on the
    # determinant identity, which also explains the +-1: each
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
