"""The oracle on systems of several points.

``MULTI_POINT_GOLDEN`` pins the sha256 of ``oracle --system`` stdout for a
few multi-point system files, recorded while the matrix at explicit or
seeded points was still built in ``Fraction`` arithmetic.  The cases cover
both modes at seeded points, three primes, a special system whose exact
verdict goes through the seed retry, and exact mode at explicit points with
zero and negative coordinates.  The integer matrix must leave every byte
as it was; the one later change is the caveat that the seeded special
exact verdict states, that it is inconclusive.

The other tests check the integer condition matrix against the ``Fraction``
references in ``fraction_reference``: entry for entry against the Hasse
form at the points scaled by the lcm of their denominators, in rank
against the ordinary partials at the points themselves, and reduced mod p
for the modular mode.  The Hasse rows are the partial-derivative rows over
a! b!, so the two forms have one rank over Q, and mod every prime above
every exponent.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from math import lcm

import pytest

from seshadri._kernels import pyref
from seshadri.cli import run
from seshadri.lattice import LatticeSet
from seshadri.oracle import (GenericPointSet, _condition_rows, _distinct_pairs,
                             fraction_free_rank, interpolation_matrix)

import fraction_reference as ref


def _simplex(d):
    return [[a, b] for a in range(d + 1) for b in range(d + 1 - a)]


SYSTEMS = {
    "quartic_2211": {"D": _simplex(4), "multiplicities": [2, 2, 1, 1], "seed": 3},
    # a quartic with two triple points contains their line twice: special
    "quartic_33": {"D": _simplex(4), "multiplicities": [3, 3], "seed": 5},
    "quintic_explicit": {"D": _simplex(5), "multiplicities": [3, 2, 1],
                         "points": [[0, "1/2"], ["-3/4", 2], ["5/3", "-1/7"]]},
    # four of five points on the line y = x: the conics through them form a pencil
    "conic_collinear_explicit": {"D": _simplex(2), "multiplicities": [1, 1, 1, 1, 1],
                                 "points": [[0, 0], [-1, -1], [2, 2], ["1/2", "1/2"],
                                            [1, 5]]},
}

# (system, mode, prime or None): (exit code, sha256 of stdout)
MULTI_POINT_GOLDEN = {
    ("conic_collinear_explicit", "exact", None):
        (1, "9991b5d30ecfef133479fa1a30761094f74198cfb0afebfcc2f8e8f2aa4761cf"),
    ("quartic_2211", "exact", None):
        (0, "49242138f81eeea9f7113f3aaa5f7a25a5b546632a10ca63f47ba56202153a6b"),
    ("quartic_2211", "modular", 101):
        (0, "a981758e5933b0ce4b1b9923b6d4b67143fa45528172e6ba763b128810393b58"),
    ("quartic_2211", "modular", 65521):
        (0, "08c9cfe2a96831f4aca6112886062795a5d5f07fc332c8c9df00592cd356329f"),
    ("quartic_2211", "modular", None):
        (0, "d905766b50d3c31b0226393c238ecd80df06db31796e92366fea5569024a1b78"),
    ("quartic_33", "exact", None):
        (1, "7b4faebd39606ae917243f27c85f6829b7406b09b86e1b714fb589f40cf8a272"),
    ("quartic_33", "modular", None):
        (1, "fc8e08f9b06ba72284d5c0d1b5d0777ff5b7789726d1ec77c2a75670b1480884"),
    ("quintic_explicit", "exact", None):
        (0, "1b4af16993822b6a0d8d1a297b7da8c279f2e411f807d920fe1b7c8ea6b333e1"),
}


def _oracle_output(case, tmp_path, capsys):
    name, mode, prime = case
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SYSTEMS[name]))
    argv = ["oracle", "--system", str(path), "--mode", mode]
    code = run(argv + (["--prime", str(prime)] if prime else []))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(MULTI_POINT_GOLDEN, key=str), ids=str)
def test_oracle_system_output_is_pinned(case, tmp_path, capsys):
    code, out = _oracle_output(case, tmp_path, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MULTI_POINT_GOLDEN[case]


def test_a_seeded_special_exact_verdict_changed_only_its_caveat(tmp_path, capsys):
    # the verdict once stated no caveat, as if a rank at sampled points
    # were the generic rank; with a null caveat it is that output again
    code, out = _oracle_output(("quartic_33", "exact", None), tmp_path, capsys)
    data = json.loads(out)
    assert code == 1 and not data["non_special"] and data["seed"] == 5
    assert data["caveat"] == ("rank over Q at seeded random points never exceeds the "
                              "generic rank: a special verdict is inconclusive")
    former = json.dumps({**data, "caveat": None}, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(former.encode()).hexdigest() == (
        "447a82241e5df9c4a51f79a32deb01403c039ef7235f09256e342fcc952ad63c")


def _random_system(rng):
    D = LatticeSet([(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 20))])
    spec = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
    pts = set()
    while len(pts) < len(spec):
        pts.add((F(rng.randint(-5, 5), rng.randint(1, 6)),
                 F(rng.randint(-5, 5), rng.randint(1, 6))))
    return D, spec, GenericPointSet.explicit(sorted(pts))


def test_integer_matrix_is_the_reference_at_cleared_points():
    rng = random.Random(22)
    for _ in range(60):
        D, spec, points = _random_system(rng)
        mat = interpolation_matrix(D, points, spec)
        assert all(type(e) is int for row in mat for e in row)
        L = lcm(*[c.denominator for xy in points.points for c in xy])
        cleared = GenericPointSet.explicit([(x * L, y * L) for x, y in points.points])
        assert mat == ref.hasse_matrix(D, cleared, spec)
        assert fraction_free_rank(mat) == fraction_free_rank(
            ref.interpolation_matrix(D, points, spec))


def test_seeded_points_are_the_reference_points():
    rng = random.Random(23)
    for seed in range(20):
        D, spec, _ = _random_system(rng)
        points = GenericPointSet.seeded(len(spec), seed)
        assert points.seed == seed and all(type(c) is int for xy in points.points for c in xy)
        assert interpolation_matrix(D, points, spec) == ref.hasse_matrix(D, points, spec)


@pytest.mark.parametrize("prime", [101, 65521, 2**61 - 1])
def test_modular_rows_are_the_integer_rows_mod_p(prime):
    rng = random.Random(prime)
    for seed in range(20):
        D, spec, _ = _random_system(rng)
        pairs = _distinct_pairs(len(spec), seed, prime - 1)
        integer = _condition_rows(D, pairs, spec)
        assert integer == ref.hasse_matrix(D, GenericPointSet(tuple(pairs)), spec)
        assert _condition_rows(D, pairs, spec, prime) == [[e % prime for e in row]
                                                          for row in integer]


def test_hasse_rows_have_the_rank_of_the_partials():
    """Over Q for every system, and mod each prime that exceeds every
    exponent of D, at int points with zero and negative coordinates."""
    rng = random.Random(25)
    primes = (101, 65521, 2**61 - 1)
    checked = dict.fromkeys(primes, 0)
    for _ in range(150):
        top = rng.choice((6, 6, 6, 150))
        D = LatticeSet([(rng.randint(0, top), rng.randint(0, 6))
                        for _ in range(rng.randint(1, 16))])
        spec = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        pts = set()
        while len(pts) < len(spec):
            pts.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        pairs = sorted(pts)
        hasse = _condition_rows(D, pairs, spec)
        partials = [[int(e) for e in row]
                    for row in ref.interpolation_matrix(D, GenericPointSet(tuple(pairs)), spec)]
        assert fraction_free_rank(hasse) == fraction_free_rank(partials), (D, spec, pairs)
        for prime in primes:
            if prime > max(max(a, b) for a, b in D):
                rank = pyref.modrank(_condition_rows(D, pairs, spec, prime), prime)
                assert rank == pyref.modrank(partials, prime), (D, spec, pairs, prime)
                checked[prime] += 1
    assert 0 < checked[101] < checked[65521] == checked[2**61 - 1] == 150
