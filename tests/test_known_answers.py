"""Known answers the tool's claims may not contradict.

For r very general points of the plane the Seshadri constant ε_r is known
for r <= 9, and it is at most 1/√r for every r.  The tool claims
ε_r >= ``certified_bound``, so a bound above either value is a false
claim.  For r <= 9 the dimension of every plane system is known too (the
SHGH conjecture is a theorem there), so a certificate's statement of a
dimension can be checked against it.  For every r, a (-1)-class E that a
stated system L meets with L·E <= -2 would make L special, so every
statement meets every (-1)-class with L·E >= -1.  Each piece's score also has a
ceiling of its own, √(2·area) on every axis (see ``_lemma_breaks``), with
the area taken from the reference cutter.  These checks use no lattice, no
matrix and no code of the pipeline beyond the scores, the bound and the
statement.  The corpus is eckl10 and the seeded random dissections of
``conftest.random_dissection``.
"""

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from seshadri import certify, dissection
from seshadri.certify import EmptyPolygonAtScale, finite_certificate
from seshadri.dissection import builtin_dissection_eckl10, certified_bound
from seshadri.geometry import ConvexPolygon, point

import fraction_reference as ref
from conftest import random_dissection

# ε_r for r = 1..9 very general points (Nagata; see Bauer et al., "A primer
# on Seshadri constants", 2009)
EPSILON = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2),
           5: Fraction(2, 5), 6: Fraction(2, 5), 7: Fraction(3, 8), 8: Fraction(6, 17),
           9: Fraction(1, 3)}
SEEDS = range(300)


def _above_the_ceiling(dis) -> bool:
    """Whether the bound of ``dis`` exceeds what is known of ε_r."""
    bound, r = certified_bound(dis), len(dis.steps) + 1
    return bound > EPSILON[r] if r in EPSILON else bound * bound * r > 1


def _corpus():
    return [random_dissection(random.Random(seed), f"random-{seed}") for seed in SEEDS]


def test_no_bound_exceeds_the_known_constant():
    eckl10 = builtin_dissection_eckl10()
    assert certified_bound(eckl10) ** 2 * 10 == Fraction(160, 169)
    corpus = _corpus()
    assert {len(dis.steps) + 1 for dis in corpus} == set(range(2, 11))
    assert [dis.name for dis in [eckl10, *corpus] if _above_the_ceiling(dis)] == []


def test_a_score_that_ignores_the_crossing_breaks_the_ceiling(monkeypatch):
    # planted fault: each axis scores its projection width, not the first
    # crossing of its rearranged profile under the identity
    monkeypatch.setattr(dissection, "_first_crossing", lambda reordered: reordered.width)
    assert sum(map(_above_the_ceiling, _corpus())) > 0


def _piece_areas(dis) -> list:
    """The area of each piece of ``dis``, re-cut from the simplex by the
    reference cutter, independently of the package's peel."""
    def area(vertices):
        return ref.area(ConvexPolygon.from_json([list(v) for v in vertices]))
    remainder, areas = (point(0, 0), point(1, 0), point(0, 1)), []
    for step in dis.steps:
        peeled, remainder = ref.cut_polygon(remainder, step.cut)
        areas.append(area(peeled))
    return areas + [area(remainder)]


@lru_cache(maxsize=1)
def _areas_corpus() -> tuple:
    """(dissection, piece areas) for eckl10 and the corpus; a planted fault
    reaches a score through a new analysis, never through these objects'."""
    return tuple((dis, _piece_areas(dis)) for dis in [builtin_dissection_eckl10(), *_corpus()])


def _lemma_breaks(dis, areas) -> list:
    """Where the scores of ``dis`` break the area ceiling.

    A piece's chord profile f on [0, ℓ] has score t* = inf{s > 0 :
    |{f <= s}| > s}, capped at ℓ.  For s < t*, |{f > s}| >= ℓ - s >= t* - s,
    so area = ∫ |{f > s}| ds >= ∫₀^t* (t* - s) ds = t*²/2: every axis
    has score² <= 2·area.  The areas sum to 1/2, so the squares of the
    pieces' best scores sum to at most 1.
    """
    pieces = dissection._Analysis(dis.polygons()).pieces
    breaks = [f"{dis.name} P{i} {d.axis.value}"
              for i, (pair, area) in enumerate(zip(pieces, areas, strict=True), start=1)
              for d in pair if d.score ** 2 > 2 * area]
    if sum(max(x.score, y.score) ** 2 for x, y in pieces) > 1:
        breaks.append(f"{dis.name} sum")
    return breaks


def _broken() -> list:
    """The names of the dissections whose scores break the area ceiling."""
    return [dis.name for dis, areas in _areas_corpus() if _lemma_breaks(dis, areas)]


def test_every_score_is_within_its_area_ceiling():
    corpus = _areas_corpus()
    assert len(corpus) == 301
    assert all(sum(areas) == Fraction(1, 2) for _, areas in corpus)
    assert _broken() == []
    # eight of eckl10's ten pieces meet the ceiling on their better axis
    eckl10, areas = corpus[0]
    best = [max(x.score, y.score) for x, y in dissection._require_valid(eckl10).pieces]
    assert sum(score ** 2 == 2 * area for score, area in zip(best, areas)) == 8


def test_a_width_score_breaks_the_area_ceiling(monkeypatch):
    # planted fault, as above: each axis scores its projection width
    monkeypatch.setattr(dissection, "_first_crossing", lambda reordered: reordered.width)
    assert len(_broken()) == len(_areas_corpus())


def test_a_crossing_one_breakpoint_late_breaks_the_area_ceiling(monkeypatch):
    # planted fault: each score is the first breakpoint of the rearranged
    # profile past its true crossing, or the width when none is past it
    crossing = dissection._first_crossing

    def late(reordered):
        t = crossing(reordered)
        return next((b for b in reordered.breakpoints if b > t), reordered.width)
    monkeypatch.setattr(dissection, "_first_crossing", late)
    broken = _broken()
    assert "eckl10" in broken and len(broken) > len(_areas_corpus()) * 9 // 10


# a certificate's statement: its degree, its multiplicities and its dimension
STATEMENT = re.compile(r"the degree-(\d+) plane system with multiplicities \(([\d, ]+)\) at "
                       r"\d+ very general points is non-special of dimension (-?\d+)")


def shgh_dimension(d: int, ms) -> int:
    """Dimension of the degree-d system with multiplicities ``ms`` at r <= 9
    very general points.

    A Cremona move on the three largest multiplicities, with
    k = d - m1 - m2 - m3 < 0, gives (d + k; m1 + k, m2 + k, m3 + k, ...)
    and keeps the dimension.  A multiplicity -e < 0 makes the exceptional
    curve over its point a fixed component e times, and the system without
    it has multiplicity 0 there and the same dimension; d < 0 leaves no
    curve.  The moves end in standard form,
    d >= m1 + m2 + m3, where for r <= 9 the system is non-special (Nagata,
    Harbourne, Gimigliano): its dimension is the expected one.
    """
    ms = list(ms) + [0, 0, 0]  # a move needs three points
    while True:
        ms = sorted((max(m, 0) for m in ms), reverse=True)
        if d < 0:
            return -1
        k = d - ms[0] - ms[1] - ms[2]
        if k >= 0:
            return max(-1, (d + 1) * (d + 2) // 2 - 1 - sum(m * (m + 1) // 2 for m in ms))
        d += k
        ms[:3] = [m + k for m in ms[:3]]


def _scaled(dis, scales) -> list:
    """Certificates of ``dis`` at ``scales``, but for a scale at which a
    piece holds no point."""
    certs = []
    for n in scales:
        try:
            certs.append(finite_certificate(dis, n))
        except EmptyPolygonAtScale:
            pass
    return certs


@lru_cache(maxsize=1)
def _certificates() -> tuple:
    """Certificates of the corpus's dissections with r <= 9 at a few scales."""
    certs = []
    for seed in range(100):
        dis = random_dissection(random.Random(seed), f"random-{seed}")
        if len(dis.steps) + 1 <= 9:
            certs += _scaled(dis, (5, 13, 26, 40))
    return tuple(certs)


def _contradicted() -> list:
    """The statements of ``_certificates()`` whose dimension is not the
    SHGH dimension of their degree and multiplicities."""
    wrong = []
    for cert in _certificates():
        d, ms, dim = STATEMENT.fullmatch(cert.statement).groups()
        if shgh_dimension(int(d), map(int, ms.split(", "))) != int(dim):
            wrong.append(cert.statement)
    return wrong


def test_shgh_dimension_of_known_systems():
    assert shgh_dimension(3, [1] * 9) == 0     # the cubic through nine points
    assert shgh_dimension(2, [1] * 5) == 0     # the conic through five
    assert shgh_dimension(1, [1, 1]) == 0      # the line through two
    assert shgh_dimension(4, [2] * 5) == 0     # the conic, doubled: expected -1
    assert shgh_dimension(4, [3, 3]) == 3      # the line through both fixed twice, expected 2
    assert shgh_dimension(13, [4] * 9) == 14   # in standard form: the expected dimension


def test_every_statement_below_ten_points_has_the_shgh_dimension():
    certs = _certificates()
    assert len(certs) > 150
    assert {len(cert.per_polygon) for cert in certs} == set(range(2, 10))
    assert _contradicted() == []


def test_every_m_raised_by_one_is_caught(monkeypatch):
    # planted fault: each row states one more than its witness proves
    monkeypatch.setattr(certify.PolygonWitness, "m",
                        property(lambda row: row.witness.m + 1))
    assert len(_contradicted()) > len(_certificates()) // 4


# (-1)-classes (e; e_1, ..., e_k): e² - Σ e_i² = -1 and 3e - Σ e_i = 1
MINUS_ONE_CLASSES = ((1, (1, 1)),              # the line through two points
                     (2, (1,) * 5),            # the conic through five
                     (3, (2,) + (1,) * 6))     # the cubic double at one of seven


def least_intersection(d: int, ms, minus_one_class) -> int:
    """The least L·E = d·e - Σ e_i·m_i over the ways to put E's points
    among L's: by the rearrangement inequality, E's largest e_i meets L's
    largest m_i, and a point of only one of them meets a 0."""
    e, es = minus_one_class
    return d * e - sum(a * b for a, b in zip(es, sorted(ms, reverse=True)))


def _below_minus_one(cert) -> bool:
    """Whether the system that ``cert`` states meets a (-1)-class with L·E <= -2."""
    d, ms, _ = STATEMENT.fullmatch(cert.statement).groups()
    return any(least_intersection(int(d), map(int, ms.split(", ")), E) <= -2
               for E in MINUS_ONE_CLASSES)


@lru_cache(maxsize=1)
def _ten_point_certificates() -> tuple:
    """Certificates of eckl10 at n = 5..40 and of the corpus's other
    dissections with r = 10, which need larger scales, at n = 80 and 160."""
    eckl10, *corpus = (dis for dis, _ in _areas_corpus() if len(dis.steps) + 1 == 10)
    return tuple(_scaled(eckl10, range(5, 41))
                 + [cert for dis in corpus for cert in _scaled(dis, (80, 160))])


def test_the_classes_are_minus_one_classes_and_make_systems_special():
    # L·E = -t <= -2 fixes E t times in L: dim L >= v(L - tE) = v(L) + t(t-1)/2,
    # so a system of virtual dimension v >= -1 is special; SHGH agrees on
    # every system of degree <= 8 with up to seven points of multiplicity <= 4
    for e, es in MINUS_ONE_CLASSES:
        assert e * e - sum(x * x for x in es) == -1 and 3 * e - sum(es) == 1
    special = 0
    for r in range(1, 8):
        for ms in combinations_with_replacement(range(4, 0, -1), r):
            for d in range(1, 9):
                v = (d + 1) * (d + 2) // 2 - 1 - sum(m * (m + 1) // 2 for m in ms)
                if v >= -1 and any(least_intersection(d, ms, E) <= -2
                                   for E in MINUS_ONE_CLASSES):
                    assert shgh_dimension(d, ms) > v, (d, ms)
                    special += 1
    assert special > 50


def test_every_statement_meets_every_minus_one_class_at_least_minus_one():
    # eckl10 and five of the corpus's seven; the other two hold an empty
    # piece at both scales
    ten = _ten_point_certificates()
    assert len({cert.dissection for cert in ten}) == 6
    assert [cert for cert in ten + _certificates() if _below_minus_one(cert)] == []


def test_every_m_raised_by_one_meets_a_minus_one_class_below_minus_one(monkeypatch):
    # planted fault, as above; eckl10 is caught at n = 5, its first scale
    # with a point in every piece, and last at n = 14
    monkeypatch.setattr(certify.PolygonWitness, "m",
                        property(lambda row: row.witness.m + 1))
    caught = [cert.scale for cert in _ten_point_certificates()
              if cert.dissection == "eckl10" and _below_minus_one(cert)]
    assert caught == [5, 6, 7, 8, 9, 10, 11, 12, 14]
    assert sum(map(_below_minus_one, _certificates())) > len(_certificates()) // 2
