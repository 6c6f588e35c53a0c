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

Both modes decide B over GF(2) first.  A full rank mod 2 forces full
rank over Q, so that verdict is conclusive in either mode.  Only when the
GF(2) rank falls short does the modular mode rank B modulo its prime and
the exact mode rank it over Q.  Every finite-scale witness is a one-point
system and is ranked this way, without a seed.

Every certificate witness is a staircase: m distinct parallel lines,
columns or rows, carrying exactly 1, ..., m points.  Then B is square,
and its determinant has a closed form, so its parity decides GF(2).  Take columns
(for rows, swapping the coordinates permutes B's rows and columns) in
order of decreasing count: line j lies at alpha_j and holds the set S_j
of m - j exponents beta.  Then

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
product of the Delta_k.  Every Delta_k and V(S) is the determinant of an
integer matrix, so det B is odd exactly when all of them are: when
v2(prod_{i<k} (alpha_k - alpha_i)) = v2(k!) for every k < m, the 2-adic
valuation of Delta_{k+1} / Delta_k with Delta_1 = 1, and when each line's
prod (beta' - beta) has the valuation of prod_{b<|S|} b!, as a line of
one run does: its V is 1.  Only differences enter, so the shift that
moves D to touch both axes changes nothing.  An odd determinant is full
rank mod 2; an even one sends the system straight to its mode's field.

Other sets, such as a system read by ``oracle --system``, are ranked mod
2 by elimination.  By Lucas's theorem C(x, k) is odd exactly when
k & ~x == 0, so with one bit per column of D every row of B mod 2 is the
AND of a mask for a and a mask for b.  The masks are read off D's
vertical runs, and the rank is an XOR basis of the rows, taken last first
and keyed by lowest set bit.

A system of several points is ranked at its points, explicit or seeded,
by one integer condition matrix in both modes.  Explicit rational points
are first scaled by the lcm L of their denominators: that multiplies the
entry in row (a, b) and column (alpha, beta) by L^(alpha+beta) / L^(a+b),
a row scaling times a column scaling, which keeps the rank.  Seeded points
are ints already; the modular mode draws its own and reduces mod its prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# SizeGuardrail is re-exported
from ._input import SizeGuardrail, _over_common, check_cells, field, items
from ._kernels import modrank
from .geometry import point
from .lattice import (LatticeSet, MultiplicitySpec, Run, _coerce_spec, _transpose,
                      expected_dimension)

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


class ArityMismatch(ValueError):
    """Point count and multiplicity count disagree."""


class PrimeTooSmall(ValueError):
    """Prime cannot represent the derivative coefficients faithfully."""


class BadModulus(ValueError):
    """Modulus of the modular oracle is not a prime below MODULUS_LIMIT."""


@dataclass(frozen=True)
class GenericPointSet:
    """Plane points standing in for points in general position: explicit
    ``Point``s, or int pairs drawn with ``seed``, which is None otherwise."""

    points: Tuple[Tuple, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

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
        # the fields in their order
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


def interpolation_matrix(D: LatticeSet, points: GenericPointSet, spec) -> Matrix:
    """Integer condition matrix of the system (see ``_condition_rows``) at
    ``points`` scaled by the lcm of their denominators, which keeps the rank
    (see the module docstring)."""
    spec = _coerce_spec(spec)
    if len(points) != len(spec):
        raise ArityMismatch(f"{len(points)} points for {len(spec)} multiplicities")
    coords, _ = _over_common([c for xy in points.points for c in xy])
    return _condition_rows(D, zip(coords[::2], coords[1::2]), spec)


def _condition_rows(D: LatticeSet, pairs, spec: MultiplicitySpec,
                    prime: Optional[int] = None) -> Matrix:
    """Condition matrix at the int points ``pairs``, over Z or mod ``prime``:
    one row per point and derivative order (a, b) below its multiplicity,
    by total order, then by a, and one column per exponent in D.

    The row for point (x, y) and order (a, b) holds the (a, b) Hasse
    derivative of each monomial: C(alpha, a) * C(beta, b) * x^(alpha-a)
    * y^(beta-b), zero whenever a > alpha or b > beta.  Each point's
    factors in x and in y are tabled once per order.
    """
    cols = list(D)
    rows = []
    for (x, y), m in zip(pairs, spec):
        xs = [[comb(alpha, a) * pow(x, alpha - a, prime) if a <= alpha else 0
               for alpha, _ in cols] for a in range(m)]
        ys = [[comb(beta, b) * pow(y, beta - b, prime) if b <= beta else 0
               for _, beta in cols] for b in range(m)]
        for order in range(m):
            for a in range(order + 1):
                row = [u * v for u, v in zip(xs[a], ys[order - a])]
                rows.append(row if prime is None else [e % prime for e in row])
    return rows


def _odd_masks(masks: Dict[int, int], m: int) -> List[int]:
    """For each k < m, the OR of ``masks[x]`` over the keys x with C(x, k) odd.

    By Lucas's theorem those are the x of which k is a submask, so each key
    hands its mask to the submasks of x below m.  They all lie among the
    submasks of x's low bits up to m's length, at most 2m of them.
    """
    out = [0] * m
    low = (1 << (m - 1).bit_length()) - 1
    for x, mask in masks.items():
        k = x = x & low
        while True:
            if k < m:
                out[k] |= mask
            if not k:
                break
            k = (k - 1) & x
    return out


def _lucas_rows(D: LatticeSet, m: int) -> List[int]:
    """Rows of B mod 2, the condition matrix at (1, 1) of the one-point
    system (D, m) after moving D to touch both axes, bit j standing for
    the j-th point of D.

    By Lucas's theorem C(x, k) is odd exactly when k & ~x == 0, so row
    (a, b) is the mask of points whose shifted alpha passes that test for
    a, ANDed with the mask of those whose shifted beta passes it for b.
    Both tables are read off D's vertical runs, without expanding a point:
    a run is one block of bits in its column's alpha mask.  The beta table
    comes from one sweep up the covered rows: a run starting at bit j on
    row r holds bit j + k on row r + k, so the next row's mask is this
    row's shifted left by one, less the runs that end here, plus the runs
    that start there; a row no run covers is skipped.
    """
    runs = D.runs
    s = runs[0][0] if runs else 0
    t = min((first for _, first, _ in runs), default=0)
    by_alpha: Dict[int, int] = {}
    starts: Dict[int, int] = {}  # row: the first bits of the runs starting there
    ends: Dict[int, int] = {}    # row: the last bits of the runs ending there
    j = 0
    for alpha, first, count in runs:
        by_alpha[alpha - s] = by_alpha.get(alpha - s, 0) | ((1 << count) - 1) << j
        starts[first - t] = starts.get(first - t, 0) | 1 << j
        ends[first - t + count - 1] = ends.get(first - t + count - 1, 0) | 1 << (j + count - 1)
        j += count
    by_beta: Dict[int, int] = {}
    todo, mask, row = sorted(starts, reverse=True), 0, 0
    while todo or mask:
        if not mask:
            row = todo[-1]
        if todo and todo[-1] == row:
            mask |= starts[todo.pop()]
        by_beta[row] = mask
        mask = (mask & ~ends.get(row, 0)) << 1
        row += 1
    xs, ys = _odd_masks(by_alpha, m), _odd_masks(by_beta, m)
    # (a, b) in the order of _condition_rows: a rises as b falls
    return [x & y for order in range(m) for x, y in zip(xs, ys[order::-1])]


def _gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of rows packed one bit per column into ints.

    The rows are taken last first and each is reduced against an XOR basis
    keyed by the index of its lowest set bit, joining it when something is
    left.  The rank depends on neither the row order nor the pivots; on
    the Lucas rows of eckl10's witnesses, the highest derivative orders
    first with low-bit pivots take about a quarter of the reduction steps
    of the natural order with top-bit pivots.  The key is a bit index, not
    the bit itself: hashing a wide int costs a pass over its words.
    """
    basis: Dict[int, int] = {}
    for v in reversed(rows):
        while v:
            low = (v & -v).bit_length()
            w = basis.get(low)
            if w is None:
                basis[low] = v
                break
            v ^= w
    return len(basis)


def _excesses(xs: Sequence[int]) -> Iterator[int]:
    """For each k from 1 on, v2(prod_{i<k} (xs[k] - xs[i])) - v2(k!), the
    2-adic valuation of the k-th factor of the Vandermonde quotient of
    ``xs`` (distinct ints); v2(k!) is k less the set bits of k."""
    for k in range(1, len(xs)):
        x, p = xs[k], 1
        for y in xs[:k]:
            p *= x - y
        yield (p & -p).bit_length() - 1 - k + k.bit_count()


def _odd_staircase_det(runs: Sequence[Run], m: int) -> Optional[bool]:
    """Whether det B of the one-point system (D, m) is odd, when D's
    canonical ``runs`` along one direction lie on m lines carrying 1, ...,
    m points; None when they do not.

    By the module docstring's identity it is odd exactly when the line
    positions, by decreasing count, have every factor of their Delta
    quotients odd, and each line of several runs an odd V.
    """
    sizes: Dict[int, int] = {}
    for line, _first, count in runs:
        sizes[line] = sizes.get(line, 0) + count
    if len(sizes) != m or set(sizes.values()) != set(range(1, m + 1)):
        return None
    if any(_excesses(sorted(sizes, key=sizes.__getitem__, reverse=True))):
        return False
    if len(runs) > m:  # some line holds several runs
        for _line, group in groupby(runs, itemgetter(0)):
            group = list(group)
            if len(group) > 1 and sum(_excesses([b for _, first, count in group
                                                 for b in range(first, first + count)])):
                return False
    return True


def _staircase_full_mod_2(D: LatticeSet, m: int) -> Optional[bool]:
    """Whether B of the one-point system (D, m) has full rank mod 2, when
    D is a staircase along its columns or else its rows; None when it is
    neither.  B of a staircase is square, so full rank is an odd det B."""
    if len(D) != comb(m + 1, 2):  # a staircase has as many points as conditions
        return None
    odd = _odd_staircase_det(D.runs, m)
    return _odd_staircase_det(_transpose(D.runs), m) if odd is None else odd


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
    B: a full rank mod 2 is conclusive and recorded with prime 2; else B
    is built over Z (``modrank`` reduces each entry once) and ranked by
    ``_rank`` at ``prime``, and the verdict records ``prime`` and
    ``caveat``.  The rank mod 2 of a staircase along either direction is
    the parity of det B (``_staircase_full_mod_2``); any other D has its
    Lucas rows eliminated.  The cell cap is checked before each matrix
    is built, or would be: the GF(2) rows count one cell per 64-bit word,
    B one cell per entry."""
    m = spec.multiplicities[0]
    conditions = comb(m + 1, 2)
    rank = min(len(D), conditions)
    _check_cells(conditions, -(-len(D) // 64), "GF(2) word")
    full = _staircase_full_mod_2(D, m)
    if full is None:
        full = _gf2_rank(_lucas_rows(D, m)) == rank
    if full:
        prime, caveat = 2, _GF2_FULL
    else:
        _check_cells(conditions, len(D), "point-free")
        s, t = D.runs[0][0], min(first for _, first, _ in D.runs)
        moved = LatticeSet._of_runs(tuple((alpha - s, first - t, count)
                                          for alpha, first, count in D.runs), len(D))
        rank = _rank(_condition_rows(moved, [(1, 1)], spec), prime)
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
        return _point_free_verdict(D, spec, "exact-rational", None, caveat)
    _check_cells(spec.conditions(), len(D), "exact")
    if points is None:
        points = GenericPointSet.seeded(len(spec), seed)
    rank = _rank(interpolation_matrix(D, points, spec), None)
    caveat, used_seed = None, points.seed
    if used_seed is not None and rank < min(len(D), spec.conditions()):
        retry_seed = used_seed + 1
        retry = GenericPointSet.seeded(len(spec), retry_seed)
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
    ranked point-free and ignores ``seed``, over GF(2) first and over
    GF(prime) only when the rank mod 2 is short; any prime will do.
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
    if len(spec) == 1:
        caveat = (_POINT_FREE + "; its rank mod p never exceeds that rank: a non-special "
                  "verdict is a certificate; a special verdict is inconclusive")
        return _point_free_verdict(D, spec, "modular", prime, caveat)
    max_exp = max((max(a, b) for a, b in D), default=0)
    if prime <= max(max_exp, 2):
        raise PrimeTooSmall(
            f"prime {prime} must exceed every derivative factor (max exponent {max_exp})")
    if len(spec) > (prime - 1) ** 2:
        raise PrimeTooSmall(f"prime {prime} leaves {(prime - 1) ** 2} distinct points with "
                            f"nonzero coordinates, fewer than the system's {len(spec)} points")
    _check_cells(spec.conditions(), len(D), "modular")
    rows = _condition_rows(D, _distinct_pairs(len(spec), seed, prime - 1), spec, prime)
    caveat = ("rank over a prime field at random points never exceeds the generic "
              "rank: a non-special verdict is a certificate; a special verdict is "
              "inconclusive")
    return _verdict(D, spec, _rank(rows, prime), "modular", prime, caveat, seed)
