"""Brute-force (non-)specialty verification by condition-matrix rank.

A linear system restricted to monomial exponents D with multiplicities
m1, ..., mr at chosen points is non-special exactly when its vanishing
conditions are independent to the expected extent; this module builds the
condition matrix and computes its rank, either exactly over the rationals
(fraction-free elimination) or over a prime field.

A one-point system (D, m) needs no point at all.  At any point (x, y) with
xy != 0, scaling row (a, b) of the interpolation matrix by
x^a y^b / (a! b!) and column (alpha, beta) by x^-alpha y^-beta turns it
into the integer matrix B[(a, b), (alpha, beta)] = C(alpha, a) * C(beta, b).
So rank over Q of B is the rank at every such point, the generic rank, and
as B has integer entries its rank modulo any prime is at most that.

Both modes rank B over GF(2) first.  By Lucas's theorem C(x, k) is odd
exactly when k & ~x == 0, so with one bit per column of D every row of B
mod 2 is the AND of a mask for a and a mask for b, and the rank is an XOR
basis of these ints.  A full rank mod 2 forces full rank over Q, so that
verdict is conclusive in either mode.  Only when the GF(2) rank falls short
does the modular mode rank B modulo its prime and the exact mode rank it
over Q.  Every finite-scale witness is a one-point system and is ranked
this way, without a seed.  Systems of several points keep seeded random
points.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._input import field
from ._kernels import modrank
from .geometry import Point, point
from .lattice import LatticeSet, _coerce_spec

Matrix = List[List[Fraction]]

MODULAR_DEFAULT_PRIME = 2**61 - 1
MODULUS_LIMIT = 2**63  # bound on a modulus from outside input (`oracle --prime`)
CELL_CAP = 4_000_000
_SEED_NUMERATOR_MAX = 2**16
_SEED_DENOMINATOR = 2**16 + 1
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# every composite below this fails Miller-Rabin to one of the bases above
_MILLER_RABIN_PROVEN = 318_665_857_834_031_151_167_461
_POINT_FREE = ("point-free: the binomial matrix C(alpha,a)*C(beta,b) has the rank "
               "of the one-point system at every point with xy != 0")
_GF2_FULL = (_POINT_FREE + "; it has full rank mod 2, which forces full rank over Q: "
             "the verdict is conclusive")


class ArityMismatch(ValueError):
    """Point count and multiplicity count disagree."""


class PrimeTooSmall(ValueError):
    """Prime cannot represent the derivative coefficients faithfully."""


class BadModulus(ValueError):
    """Modulus of the modular oracle is not a prime below MODULUS_LIMIT."""


class SizeGuardrail(RuntimeError):
    """A request exceeds the desk-scale cell cap."""


@dataclass(frozen=True)
class GenericPointSet:
    """Plane points standing in for points in general position."""

    points: Tuple[Point, ...]
    source: str = "explicit"
    seed: Optional[int] = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    @classmethod
    def explicit(cls, pts: Sequence) -> "GenericPointSet":
        """Points read by :func:`point`; a refusal names the point's index."""
        out = []
        for i, xy in enumerate(pts, start=1):
            try:
                out.append(point(*xy))
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"point {i}: {exc}") from None
        return cls(tuple(out))

    @classmethod
    def seeded(cls, r: int, seed: int) -> "GenericPointSet":
        """r distinct points with 16-bit numerators over a fixed prime-ish
        denominator; the same seed always reproduces the same set."""
        rng = random.Random(seed)
        pts = []
        seen = set()
        while len(pts) < r:
            p = Point(Fraction(rng.randint(1, _SEED_NUMERATOR_MAX), _SEED_DENOMINATOR),
                      Fraction(rng.randint(1, _SEED_NUMERATOR_MAX), _SEED_DENOMINATOR))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        return cls(tuple(pts), source="seeded-random", seed=seed)


@dataclass(frozen=True)
class OracleVerdict:
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
                "non_special": self.non_special,
                "method": self.method,
                "prime": self.prime,
                "caveat": self.caveat,
                "rank": self.rank,
                "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "OracleVerdict":
        return cls(field("actual_dimension", data["actual_dimension"], int),
                   field("expected_dimension", data["expected_dimension"], int),
                   field("non_special", data["non_special"], bool),
                   field("method", data["method"], str,
                         choices=("exact-rational", "modular")),
                   field("prime", data.get("prime"), int, optional=True),
                   field("caveat", data.get("caveat"), str, optional=True),
                   field("rank", data.get("rank", 0), int),
                   field("seed", data.get("seed"), int, optional=True))


def _derivative_orders(m: int):
    """All (a, b) with a + b < m, ordered by total order, then by a."""
    for order in range(m):
        for a in range(order + 1):
            yield (a, order - a)


def interpolation_matrix(D: LatticeSet, points: GenericPointSet, spec) -> Matrix:
    """Condition matrix of the system: one row per point and derivative
    order below its multiplicity, one column per exponent in D.

    The row for point (x, y) and order (a, b) holds the (a, b)-partial of
    each monomial: perm(alpha, a) * perm(beta, b) * x^(alpha-a) * y^(beta-b),
    zero whenever a > alpha or b > beta.
    """
    spec = _coerce_spec(spec)
    if len(points) != len(spec):
        raise ArityMismatch(f"{len(points)} points for {len(spec)} multiplicities")
    cols = list(D)
    rows: Matrix = []
    for pt, m in zip(points.points, spec):
        for a, b in _derivative_orders(m):
            row = []
            for alpha, beta in cols:
                if a > alpha or b > beta:
                    row.append(Fraction(0))
                else:
                    row.append(perm(alpha, a) * perm(beta, b)
                               * pt.x ** (alpha - a) * pt.y ** (beta - b))
            rows.append(row)
    return rows


def _shifted_columns(D: LatticeSet) -> List[Tuple[int, int]]:
    """Exponents of D, in its order, shifted to touch both axes."""
    cols = list(D)
    s = min((alpha for alpha, _ in cols), default=0)
    t = min((beta for _, beta in cols), default=0)
    return [(alpha - s, beta - t) for alpha, beta in cols]


def _binomial_matrix(D: LatticeSet, m: int) -> List[List[int]]:
    """Point-free condition matrix of the one-point system (D, m).

    Row (a, b), in the order of ``_derivative_orders``, holds
    C(alpha, a) * C(beta, b) for each exponent of D after shifting D to
    touch both axes.
    """
    cols = _shifted_columns(D)
    xs = [[comb(alpha, a) for alpha, _ in cols] for a in range(m)]
    ys = [[comb(beta, b) for _, beta in cols] for b in range(m)]
    return [[u * v for u, v in zip(xs[a], ys[b])] for a, b in _derivative_orders(m)]


def _lucas_rows(D: LatticeSet, m: int) -> List[int]:
    """Rows of ``_binomial_matrix(D, m)`` mod 2, bit j standing for column j.

    By Lucas's theorem C(x, k) is odd exactly when k & ~x == 0, so row
    (a, b) is the mask of columns whose alpha passes that test for a,
    ANDed with the mask of those whose beta passes it for b.
    """
    by_alpha: Dict[int, int] = {}
    by_beta: Dict[int, int] = {}
    for j, (alpha, beta) in enumerate(_shifted_columns(D)):
        by_alpha[alpha] = by_alpha.get(alpha, 0) | 1 << j
        by_beta[beta] = by_beta.get(beta, 0) | 1 << j

    def odd(masks: Dict[int, int], k: int) -> int:
        out = 0
        for x, mask in masks.items():
            if not k & ~x:
                out |= mask
        return out

    xs = [odd(by_alpha, a) for a in range(m)]
    ys = [odd(by_beta, b) for b in range(m)]
    return [xs[a] & ys[b] for a, b in _derivative_orders(m)]


def _gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of rows packed one bit per column into ints.

    Each row is reduced against an XOR basis keyed by top bit and joins it
    when something is left.
    """
    basis: Dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length()
            w = basis.get(top)
            if w is None:
                basis[top] = v
                break
            v ^= w
    return len(basis)


def _point_free_verdict(D: LatticeSet, m: int, method: str, prime: Optional[int],
                        caveat: str, fallback_rank: Callable[[List[List[int]]], int]
                        ) -> OracleVerdict:
    """Verdict of the one-point system (D, m) from its point-free matrix B.

    B has integer entries, so its rank mod 2 is at most its rank over Q: a
    full rank mod 2 is full rank over Q and the verdict, recorded with
    prime 2, is conclusive.  Otherwise ``fallback_rank(B)`` decides, and
    the verdict records ``prime`` and ``caveat``.  The cell cap is checked
    before each matrix is built, in both modes: the GF(2) rows count one
    cell per 64-bit word, B one cell per entry.
    """
    conditions = comb(m + 1, 2)
    _check_cells(conditions, -(-len(D) // 64), "GF(2) word")
    rank = _gf2_rank(_lucas_rows(D, m))
    if rank == min(len(D), conditions):
        prime, caveat = 2, _GF2_FULL
    else:
        _check_cells(conditions, len(D), "point-free")
        rank = fallback_rank(_binomial_matrix(D, m))
    actual = len(D) - 1 - rank
    expected = max(-1, len(D) - 1 - conditions)
    return OracleVerdict(actual, expected, actual == expected, method, prime,
                         caveat, rank, None)


def fraction_free_rank(rows: Matrix) -> int:
    """Exact rank over Q by one-step fraction-free elimination.

    Entries are Fractions or ints.  Rows are first scaled to integers; the
    elimination keeps every intermediate entry an exact minor of the integer
    matrix, so divisions are exact and there is no rational blow-up mid-run.
    """
    m = []
    for row in rows:
        den = lcm(*(e.denominator for e in row)) if row else 1
        m.append([int(e * den) for e in row])
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


def _cell_cap() -> int:
    env = os.environ.get("SESHADRI_MAX_CELLS")
    if not env:
        return CELL_CAP
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ValueError(f"SESHADRI_MAX_CELLS={env!r} is not a positive integer")
    return int(env)


def _check_cells(rows: int, cols: int, kind: str) -> None:
    """Refuse a rows x cols matrix of more cells than the cap."""
    if rows * cols > _cell_cap():
        raise SizeGuardrail(f"{rows}x{cols} {kind} matrix exceeds the cell cap; "
                            "set SESHADRI_MAX_CELLS")


def system_dimension_exact(D: LatticeSet, spec,
                           points: Optional[GenericPointSet] = None,
                           seed: int = 0) -> OracleVerdict:
    """Projective dimension of the system over Q, |D| - 1 - rank.

    With no explicit points, a one-point system is ranked point-free, which
    gives the generic rank exactly and ignores ``seed``: over GF(2) when
    that rank is full (the verdict then records prime 2), else over Q.
    Several points without explicit coordinates are a seeded sample; if
    the sampled rank falls short of making the system non-special, one
    retry with a fresh seed guards against an unlucky (non-generic)
    sample, and a differing outcome is recorded in the caveat.
    """
    spec = _coerce_spec(spec)
    if points is None and len(spec) == 1:
        caveat = _POINT_FREE + "; its rank over Q is exact: either verdict is conclusive"
        return _point_free_verdict(D, spec.multiplicities[0], "exact-rational", None,
                                   caveat, fraction_free_rank)
    _check_cells(spec.conditions(), len(D), "exact")
    expected = max(-1, len(D) - 1 - spec.conditions())
    if points is None:
        points = GenericPointSet.seeded(len(spec), seed)

    def run(ps: GenericPointSet):
        rank = fraction_free_rank(interpolation_matrix(D, ps, spec))
        return rank, len(D) - 1 - rank

    rank, actual = run(points)
    caveat = None
    used_seed = points.seed
    if actual > expected and points.source == "seeded-random":
        retry_seed = (points.seed or 0) + 1
        rank2, actual2 = run(GenericPointSet.seeded(len(spec), retry_seed))
        if actual2 != actual:
            caveat = (f"seed {points.seed} sampled a non-generic configuration "
                      f"(dimension {actual}); seed {retry_seed} gives {actual2}")
            if actual2 < actual:
                rank, actual, used_seed = rank2, actual2, retry_seed
    return OracleVerdict(actual, expected, actual == expected,
                         "exact-rational", None, caveat, rank, used_seed)


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the first twelve primes.

    The answer is proven, not probable, for every n below 3.18 * 10^23;
    larger n raise ValueError.
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
    ranked point-free (see the module docstring) and ignores ``seed``: over
    GF(2) first, and over GF(prime) only when the rank mod 2 is short, so
    the verdict records the field that decided it.  Its matrix has integer
    entries, so any prime will do.  Several points are placed at seeded
    random points of GF(prime)^2, and there the prime must also exceed
    every exponent in D, so that no derivative factor vanishes mod prime.
    Either way the rank never exceeds the generic rank over Q, so a
    non-special verdict is a genuine certificate, while a special verdict
    may just mean an unlucky prime or sample (Schwartz-Zippel).  The
    caveat field records this asymmetry.
    """
    spec = _coerce_spec(spec)
    if prime >= MODULUS_LIMIT:
        raise BadModulus(f"modulus {prime} is not below 2^63, the oracle's limit")
    if not is_prime(prime):
        raise BadModulus(f"modulus {prime} is not prime")
    if len(spec) == 1:
        caveat = (_POINT_FREE + "; its rank mod p never exceeds that rank: a non-special "
                  "verdict is a certificate; a special verdict is inconclusive")
        # modrank reduces B's entries mod prime
        return _point_free_verdict(D, spec.multiplicities[0], "modular", prime, caveat,
                                   lambda rows: modrank(rows, prime))
    max_exp = max((max(a, b) for a, b in D), default=0)
    if prime <= max(max_exp, 2):
        raise PrimeTooSmall(
            f"prime {prime} must exceed every derivative factor (max exponent {max_exp})")
    _check_cells(spec.conditions(), len(D), "modular")
    rows = _random_point_rows(D, spec, seed, prime)
    rank = modrank(rows, prime) if rows else 0
    actual = len(D) - 1 - rank
    expected = max(-1, len(D) - 1 - spec.conditions())
    caveat = ("rank over a prime field at random points never exceeds the generic "
              "rank: a non-special verdict is a certificate; a special verdict is "
              "inconclusive")
    return OracleVerdict(actual, expected, actual == expected, "modular", prime,
                         caveat, rank, seed)


def _random_point_rows(D: LatticeSet, spec, seed: int, prime: int) -> List[List[int]]:
    """Condition matrix over GF(prime) at seeded random points."""
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < len(spec):
        p = (rng.randint(1, prime - 1), rng.randint(1, prime - 1))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    cols = list(D)
    rows = []
    for (x, y), m in zip(pts, spec):
        for a, b in _derivative_orders(m):
            row = []
            for alpha, beta in cols:
                if a > alpha or b > beta:
                    row.append(0)
                else:
                    coeff = _perm_mod(alpha, a, prime) * _perm_mod(beta, b, prime) % prime
                    row.append(coeff * pow(x, alpha - a, prime)
                               * pow(y, beta - b, prime) % prime)
            rows.append(row)
    return rows


def _perm_mod(n: int, k: int, p: int) -> int:
    r = 1
    for i in range(k):
        r = r * ((n - i) % p) % p
    return r


def monomials_up_to(degree: int):
    """Exponent pairs (i, j) with i + j <= degree, lexicographic."""
    return [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def points_on_curve(D: LatticeSet, degree: int) -> bool:
    """Whether all exponent points of D satisfy a nonzero polynomial of
    total degree at most ``degree`` (exact rank of the evaluation matrix)."""
    mons = monomials_up_to(degree)
    rows = [[Fraction(alpha**i * beta**j) for i, j in mons] for alpha, beta in D]
    return fraction_free_rank(rows) < len(mons)
