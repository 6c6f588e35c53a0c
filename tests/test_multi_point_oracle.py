"""The oracle on systems of several points.

``MULTI_POINT_GOLDEN`` pins the exit code and the sha256 of ``oracle
--system`` stdout for a few multi-point system files, recorded while the
matrix was still built in ``Fraction`` arithmetic.  The cases cover the
modular mode at seeded points and three primes, and the exact mode at
explicit points with zero and negative coordinates.  The integer matrix
must leave every byte as it was.  The exact mode once ranked the seeded
files too, at seeded points, where a special verdict proved nothing; it
now refuses them, with exit 2 and no output.

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
import time
from fractions import Fraction as F
from math import lcm

import pytest

from seshadri import oracle
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
REFUSED = (2, hashlib.sha256(b"").hexdigest())
MULTI_POINT_GOLDEN = {
    ("conic_collinear_explicit", "exact", None):
        (1, "9991b5d30ecfef133479fa1a30761094f74198cfb0afebfcc2f8e8f2aa4761cf"),
    ("quartic_2211", "exact", None): REFUSED,
    ("quartic_2211", "modular", 101):
        (0, "a981758e5933b0ce4b1b9923b6d4b67143fa45528172e6ba763b128810393b58"),
    ("quartic_2211", "modular", 65521):
        (0, "08c9cfe2a96831f4aca6112886062795a5d5f07fc332c8c9df00592cd356329f"),
    ("quartic_2211", "modular", None):
        (0, "d905766b50d3c31b0226393c238ecd80df06db31796e92366fea5569024a1b78"),
    ("quartic_33", "exact", None): REFUSED,
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


def test_several_points_without_points_are_refused_in_exact_mode(tmp_path, capsys,
                                                                 monkeypatch):
    # the seeded exact rank took 12.8 s on this file (x^2000000 at a
    # coordinate below 2^17), to give the modular mode's verdict; a
    # special one it could not prove.  Now no row is built
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"D": [[0, 0], [2000000, 0]], "multiplicities": [1, 1]}))
    real = oracle._condition_rows

    def refuse(*_args):
        raise AssertionError("a row was built")
    monkeypatch.setattr(oracle, "_condition_rows", refuse)
    t0 = time.perf_counter()
    assert run(["oracle", "--system", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--mode modular" in captured.err
    monkeypatch.setattr(oracle, "_condition_rows", real)
    assert run(["oracle", "--system", str(path), "--mode", "modular"]) == 0
    assert json.loads(capsys.readouterr().out)["non_special"] is True


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
