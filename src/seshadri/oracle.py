"""Brute-force (non-)specialty verification by condition-matrix rank.

A linear system restricted to monomial exponents D with multiplicities
m1, ..., mr at chosen points is non-special exactly when its vanishing
conditions are independent to the expected extent; this module builds the
condition matrix and computes its rank, either exactly over the rationals
(fraction-free elimination) or over a prime field.

Row (a, b) of a condition matrix at (x, y) holds Hasse derivatives, the
(a, b)-partials over a! b!: C(alpha, a) * C(beta, b) * x^(alpha-a) *
y^(beta-b) in column (alpha, beta).  A one-point system (D, m) needs no
point at all.  At any (x, y) with xy != 0, scaling row (a, b) by x^a y^b
and column (alpha, beta) by x^-alpha y^-beta gives the matrix at (1, 1),
B[(a, b), (alpha, beta)] = C(alpha, a) * C(beta, b).  So rank over Q of B
is the generic rank, and as B has integer entries its rank modulo any
prime is at most that.  B is built after moving D to touch both axes: a
monomial factor is a unit near such a point, and the binomials stay small.

Every certificate witness is a staircase: m distinct parallel lines,
columns or rows, carrying exactly 1, ..., m points.  Then B is square,
and its determinant has a closed form.  Take columns (for rows, swapping
the coordinates permutes B's rows and columns) in order of decreasing
count: line j lies at alpha_j and holds the set S_j of m - j exponents
beta.  Then

    det B = +-prod_{k=1..m} Delta_k * prod_{j<m} V(S_j), where
    Delta_k = det[C(alpha_i, a)]_{a,i<k}
            = prod_{i<i'<k} (alpha_i' - alpha_i) / prod_{a<k} a!,
    V(S)    = det[C(beta, b)]_{b<|S|, beta in S}
            = prod_{beta<beta' in S} (beta' - beta) / prod_{b<|S|} b!.

Both quotients are Vandermonde's determinant, as C(x, a) is a polynomial
of degree a with leading coefficient 1/a!.  Proof of the product: the
leading minors Delta_k of X = [C(alpha_j, a)]_{a,j<m} are nonzero, so
X = LU over Q, L unit lower triangular and U_jj = Delta_{j+1} / Delta_j.
The rows (a, b) of B with one b, a < m - b, are the first m - b rows of
X, entry (a, j) times C(beta, b) in column (alpha_j, beta); the inverse of
L's leading (m - b) x (m - b) block turns entry (a, j) into U_aj, which
is 0 for j < a.  With the rows ordered by a and the columns by line, B is
then block upper triangular, and its diagonal block a = j is U_jj times
[C(beta, b)]_{b<m-j, beta in S_j}, square of side m - j.  So det B is
+-prod_j U_jj^(m-j) V(S_j), and the powers of U_jj telescope to the
product of the Delta_k.

Corollary: every factor is a quotient of differences of distinct ints,
so det B != 0 and B has full rank over Q.  The one-point system of a
staircase is non-special of dimension -1 at every point with xy != 0
(Dumnicki's parallel-lines lemma).  Both modes state that verdict for
every staircase, at any prime asked for, without building B: it records
no prime, as the rank it states is the rank over Q.

Any other set, such as a system read by ``oracle --system``, has B built
once and ranked mod 2 first, by the same kernel as at any other prime.
A full rank mod 2 forces full rank over Q, so that verdict is conclusive
in either mode.  Only when the rank mod 2 falls short does the modular
mode rank B modulo its prime and the exact mode rank it over Q.

A system of several points is ranked at its points, explicit or seeded,
by one integer condition matrix in both modes.  Explicit rational points
are first scaled by the lcm L of their denominators: that multiplies the
entry in row (a, b) and column (alpha, beta) by L^(alpha+beta) / L^(a+b),
a row scaling times a column scaling, which keeps the rank.  Seeded points
are ints already; the modular mode draws its own and reduces mod its prime.

Its records are ``typing.NamedTuple``s, as in :mod:`seshadri.geometry`;
``GenericPointSet`` checks its points in ``__new__``, which ``_replace`` skips.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

# SizeGuardrail is re-exported
from ._input import SizeGuardrail, _over_common, check_cells, field, items
from ._kernels import modrank
from .geometry import point
from .lattice import (Direction, LatticeSet, MultiplicitySpec, _coerce_spec, _transpose,
                      column_profile, expected_dimension)

Matrix = List[List[int]]

MODULAR_DEFAULT_PRIME = 2**61 - 1
MODULUS_LIMIT = 2**63  # bound on a modulus from outside input (`oracle --prime`)
_SEED_COORDINATE_MAX = 2**16
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# every composite below this fails Miller-Rabin to one of the bases above
_MILLER_RABIN_PROVEN = 318_665_857_834_031_151_167_461
_POINT_FREE = ("point-free: the binomial matrix C(alpha,a)*C(beta,b) has the rank "
               "of the one-point system at every point with xy != 0")
_GF2_FULL = (_POINT_FREE + "; it has full rank mod 2, which forces full rank over Q: "
             "the verdict is conclusive")
_STAIRCASE = ("staircase: m parallel lines carrying 1, ..., m points, whose point-free "
              "binomial matrix has determinant +-prod Delta_k * prod V(S_j), a product of "
              "nonzero Vandermonde quotients: it has full rank over Q, the generic rank, "
              "and the verdict is conclusive")


class ArityMismatch(ValueError):
    """Point count and multiplicity count disagree."""


class PrimeTooSmall(ValueError):
    """Prime cannot represent the derivative coefficients faithfully."""


class BadModulus(ValueError):
    """Modulus of the modular oracle is not a prime below MODULUS_LIMIT."""


class GenericPointSet(NamedTuple("GenericPointSet", [("points", Tuple[Tuple, ...]),
                                                       ("seed", Optional[int])])):
    """Plane points standing in for points in general position: explicit
    ``Point``s, or int pairs drawn with ``seed``, which is None otherwise."""

    __slots__ = ()

    def __new__(cls, points: Tuple[Tuple, ...], seed: Optional[int] = None):
        if len(set(points)) != len(points):
            raise ValueError("points must be pairwise distinct")
        return tuple.__new__(cls, (points, seed))

    @classmethod
    def explicit(cls, pts: Sequence) -> "GenericPointSet":
        """Points read by :func:`point`; a refusal names the point's index,
        and a point equal as rationals to an earlier one names both."""
        first = {}  # point: its index
        for i, xy in enumerate(pts, start=1):
            x, y = items(f"point {i}", xy, 2)
            try:
                p = point(x, y)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"point {i}: {exc}") from None
            if p in first:
                raise ValueError(f"point {i} {[str(x), str(y)]} repeats point {first[p]}")
            first[p] = i
        return cls(tuple(first))

    @classmethod
    def seeded(cls, r: int, seed: int) -> "GenericPointSet":
        """r distinct int points with coordinates in [1, 2^16]; the same
        seed always reproduces the same set."""
        return cls(tuple(_distinct_pairs(r, seed, _SEED_COORDINATE_MAX)), seed=seed)


def _distinct_pairs(r: int, seed: int, top: int) -> List[Tuple[int, int]]:
    """r distinct pairs of ints in [1, top], drawn in order from a generator
    seeded with ``seed``; a repeated pair is drawn again, so r must not
    exceed top^2."""
    rng = random.Random(seed)
    pairs = {}  # an ordered set
    while len(pairs) < r:
        pairs[rng.randint(1, top), rng.randint(1, top)] = None
    return list(pairs)


class OracleVerdict(NamedTuple):
    """Dimension count of a system together with how it was obtained."""

    actual_dimension: int
    expected_dimension: int
    non_special: bool
    method: str  # "exact-rational" | "modular"
    prime: Optional[int] = None
    caveat: Optional[str] = None
    rank: int = 0
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {"actual_dimension": self.actual_dimension,
                "expected_dimension": self.expected_dimension,
                "non_special": self.non_special, "method": self.method,
                "prime": self.prime, "caveat": self.caveat, "rank": self.rank,
                "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "OracleVerdict":
        """The verdict ``data``, refused unless it states every key and its
        ``non_special`` is whether its two dimensions agree."""
        data = field("oracle", data, dict)
        verdict = cls(field("actual_dimension", data["actual_dimension"], int),
                      field("expected_dimension", data["expected_dimension"], int),
                      field("non_special", data["non_special"], bool),
                      field("method", data["method"], str,
                            choices=("exact-rational", "modular")),
                      field("prime", data["prime"], int, optional=True),
                      field("caveat", data["caveat"], str, optional=True),
                      field("rank", data["rank"], int),
                      field("seed", data["seed"], int, optional=True))
        if verdict.non_special != (verdict.actual_dimension == verdict.expected_dimension):
            raise ValueError(f"oracle non_special {verdict.non_special} contradicts "
                             f"actual_dimension {verdict.actual_dimension} and "
                             f"expected_dimension {verdict.expected_dimension}")
        return verdict


# perfbench's self-test plants a wrong verdict through dataclasses.replace,
# which reads only these attributes of each field (see ROADMAP.md)
OracleVerdict.__dataclass_fields__ = {f: SimpleNamespace(name=f, init=True, _field_type=None)
                                      for f in OracleVerdict._fields}


def interpolation_matrix(D: LatticeSet, points: GenericPointSet, spec) -> Matrix:
    """Integer condition matrix of the system (see ``_condition_rows``) at
    ``points`` scaled by the lcm of their denominators, which keeps the rank
    (see the module docstring)."""
    ms = _coerce_spec(spec).multiplicities
    if len(points.points) != len(ms):
        raise ArityMismatch(f"{len(points.points)} points for {len(ms)} multiplicities")
    coords, _ = _over_common([c for xy in points.points for c in xy])
    return _condition_rows(D, zip(coords[::2], coords[1::2]), ms)


def _condition_rows(D: LatticeSet, pairs, ms: Sequence[int],
                    prime: Optional[int] = None) -> Matrix:
    """Condition matrix at the int points ``pairs``, over Z or mod ``prime``:
    one row per point and derivative order (a, b) below its multiplicity
    in ``ms``, by total order, then by a, and one column per exponent in D.

    The row for point (x, y) and order (a, b) holds the (a, b) Hasse
    derivative of each monomial: C(alpha, a) * C(beta, b) * x^(alpha-a)
    * y^(beta-b), zero whenever a > alpha or b > beta.  Each point's
    factors in x and in y are tabled once per order.
    """
    cols = list(D)
    rows = []
    for (x, y), m in zip(pairs, ms):
        xs = [[comb(alpha, a) * pow(x, alpha - a, prime) if a <= alpha else 0
               for alpha, _ in cols] for a in range(m)]
        ys = [[comb(beta, b) * pow(y, beta - b, prime) if b <= beta else 0
               for _, beta in cols] for b in range(m)]
        for order in range(m):
            for a in range(order + 1):
                row = [u * v for u, v in zip(xs[a], ys[order - a])]
                rows.append(row if prime is None else [e % prime for e in row])
    return rows


def _is_staircase(D: LatticeSet, m: int) -> bool:
    """Whether D is m(m+1)/2 points on m columns or m rows carrying
    exactly 1, ..., m of them.

    Both are counted by a column profile: the rows of D are the columns
    of its transposition, which lists only the rows that hold points,
    however far apart they lie.  It is built only when the columns fail.
    """
    if len(D) != comb(m + 1, 2):
        return False
    sizes = list(range(m, 0, -1))

    def counts(S: LatticeSet) -> List[int]:
        return [count for _, count in column_profile(S, Direction.VERTICAL).by_count]
    return (counts(D) == sizes
            or counts(LatticeSet._of_runs(_transpose(D.runs), len(D))) == sizes)


def _staircase_verdict(m: int, method: str) -> OracleVerdict:
    """The verdict of ``method`` on a staircase of size m: by the module
    docstring's corollary its m(m+1)/2 conditions are independent, so its
    one-point system is non-special of dimension -1."""
    return OracleVerdict(-1, -1, True, method, None, _STAIRCASE, comb(m + 1, 2), None)


def _verdict(D: LatticeSet, spec: MultiplicitySpec, rank: int, method: str,
             prime: Optional[int], caveat: Optional[str],
             seed: Optional[int]) -> OracleVerdict:
    """The verdict of the system (D, spec) whose condition matrix has ``rank``."""
    actual = len(D) - 1 - rank
    expected = expected_dimension(spec, count=len(D))
    return OracleVerdict(actual, expected, actual == expected, method, prime,
                         caveat, rank, seed)


def _point_free_verdict(D: LatticeSet, spec: MultiplicitySpec, method: str,
                        prime: Optional[int], caveat: str) -> OracleVerdict:
    """Verdict of the one-point system (D, spec) from its point-free matrix
    B.  A staircase gets :func:`_staircase_verdict`, and no matrix is
    built.  Any other D has B built once over Z, after the cell cap is
    checked for its entries, and ranked by ``modrank`` mod 2: a full rank
    is conclusive and recorded with prime 2; else ``_rank`` ranks B at
    ``prime``, unless that is 2 again, and the verdict records ``prime``
    and ``caveat``."""
    m = spec.multiplicities[0]
    if _is_staircase(D, m):
        return _staircase_verdict(m, method)
    conditions = comb(m + 1, 2)
    _check_cells(conditions, len(D), "point-free")
    runs = D.runs
    s = runs[0][0] if runs else 0  # the runs are sorted by alpha
    t = min((first for _, first, _ in runs), default=0)
    moved = LatticeSet._of_runs(tuple((alpha - s, first - t, count)
                                      for alpha, first, count in runs), len(D))
    B = _condition_rows(moved, [(1, 1)], (m,))
    rank = modrank(B, 2)
    if rank == min(len(D), conditions):
        prime, caveat = 2, _GF2_FULL
    elif prime != 2:
        rank = _rank(B, prime)
    return _verdict(D, spec, rank, method, prime, caveat, None)


def _rank(rows: Matrix, prime: Optional[int]) -> int:
    """Rank of ``rows`` over Q when ``prime`` is None, else mod ``prime``."""
    return fraction_free_rank(rows) if prime is None else modrank(rows, prime)


def fraction_free_rank(rows: Matrix) -> int:
    """Exact rank over Q by one-step fraction-free elimination.

    Entries are Fractions or ints.  Rows are first scaled to integers; the
    elimination keeps every intermediate entry an exact minor of the integer
    matrix, so divisions are exact and there is no rational blow-up mid-run.
    """
    m = [_over_common(row)[0] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, nrows):
            head = m[r][col]
            row, prow = m[r], m[rank]
            for j in range(col, ncols):
                row[j] = (piv * row[j] - head * prow[j]) // prev
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def _check_cells(rows: int, cols: int, kind: str) -> None:
    """Refuse a rows x cols matrix of more cells than the cap."""
    check_cells(rows * cols, f"{rows}x{cols} {kind} matrix")


def system_dimension_exact(D: LatticeSet, spec,
                           points: Optional[GenericPointSet] = None,
                           seed: int = 0) -> OracleVerdict:
    """Projective dimension of the system over Q, |D| - 1 - rank.

    With no explicit points, a one-point system is ranked point-free, which
    gives the generic rank exactly and ignores ``seed``: a staircase by
    its determinant identity, any other set by its matrix B, mod 2 when
    that rank is full (the verdict then records prime 2), else over Q.
    Several points without explicit coordinates are a seeded sample; if
    the sampled rank falls short of making the system non-special, one
    retry with a fresh seed guards against an unlucky (non-generic)
    sample, and a differing outcome is recorded in the caveat.
    """
    spec = _coerce_spec(spec)
    if points is None and len(spec.multiplicities) == 1:
        caveat = _POINT_FREE + "; its rank over Q is exact: either verdict is conclusive"
        return _point_free_verdict(D, spec, "exact-rational", None, caveat)
    _check_cells(spec.conditions(), len(D), "exact")
    if points is None:
        points = GenericPointSet.seeded(len(spec.multiplicities), seed)
    rank = _rank(interpolation_matrix(D, points, spec), None)
    caveat, used_seed = None, points.seed
    if used_seed is not None and rank < min(len(D), spec.conditions()):
        retry_seed = used_seed + 1
        retry = GenericPointSet.seeded(len(spec.multiplicities), retry_seed)
        rank2 = _rank(interpolation_matrix(D, retry, spec), None)
        if rank2 != rank:
            caveat = (f"seed {used_seed} sampled a non-generic configuration "
                      f"(dimension {len(D) - 1 - rank}); seed {retry_seed} gives "
                      f"{len(D) - 1 - rank2}")
            if rank2 > rank:
                rank, used_seed = rank2, retry_seed
    return _verdict(D, spec, rank, "exact-rational", None, caveat, used_seed)


@lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the first twelve primes.

    The answer is proven, not probable, for every n below 3.18 * 10^23;
    larger n raise ValueError.  The last few answers are kept, so a run
    that ranks many systems modulo one prime proves it once.
    """
    if n >= _MILLER_RABIN_PROVEN:
        raise ValueError(f"{n} is beyond the proven range of the primality test")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def system_dimension_modp(D: LatticeSet, spec, seed: int = 0,
                          prime: int = MODULAR_DEFAULT_PRIME) -> OracleVerdict:
    """Dimension via rank over GF(prime), an upper bound for the generic one.

    ``prime`` must be a prime below MODULUS_LIMIT.  A one-point system is
    ranked point-free and ignores ``seed``: a staircase by its determinant
    identity, which states its rank over Q and records no prime, any
    other set by its matrix B, mod 2 first and mod ``prime`` only when the
    rank mod 2 is short; any prime will do.
    Several points are placed at seeded random points of GF(prime)^2, and
    there the prime must also exceed every exponent in D, so that no a! b!
    of a Hasse row vanishes.  Either way the rank never exceeds the generic
    rank over Q: a non-special verdict is a certificate, while a special
    one may mean an unlucky prime or sample (Schwartz-Zippel), as the
    caveat records.
    """
    spec = _coerce_spec(spec)
    if prime >= MODULUS_LIMIT:
        raise BadModulus(f"modulus {prime} is not below 2^63, the oracle's limit")
    if not is_prime(prime):
        raise BadModulus(f"modulus {prime} is not prime")
    r = len(spec.multiplicities)
    if r == 1:
        caveat = (_POINT_FREE + "; its rank mod p never exceeds that rank: a non-special "
                  "verdict is a certificate; a special verdict is inconclusive")
        return _point_free_verdict(D, spec, "modular", prime, caveat)
    max_exp = max((max(a, b) for a, b in D), default=0)
    if prime <= max(max_exp, 2):
        raise PrimeTooSmall(
            f"prime {prime} must exceed every derivative factor (max exponent {max_exp})")
    if r > (prime - 1) ** 2:
        raise PrimeTooSmall(f"prime {prime} leaves {(prime - 1) ** 2} distinct points with "
                            f"nonzero coordinates, fewer than the system's {r} points")
    _check_cells(spec.conditions(), len(D), "modular")
    rows = _condition_rows(D, _distinct_pairs(r, seed, prime - 1), spec.multiplicities, prime)
    caveat = ("rank over a prime field at random points never exceeds the generic "
              "rank: a non-special verdict is a certificate; a special verdict is "
              "inconclusive")
    return _verdict(D, spec, _rank(rows, prime), "modular", prime, caveat, seed)
