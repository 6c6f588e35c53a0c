"""Parity of the pure-Python prime-field rank kernel with a plain elimination,
and the contract it shares with the exact rank."""

import random

import pytest

from seshadri._kernels import pyref
from seshadri.oracle import fraction_free_rank

PRIMES = (2, 3, 7, 2**61 - 1)


def reference_rank(rows, p):
    """Textbook Gaussian elimination over GF(p), every entry kept reduced."""
    m = [[e % p for e in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, p):
    """Rows that are combinations of a few random rows, some columns zeroed,
    entries shifted by random multiples of p (negative ones included)."""
    nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
    k = rng.randint(0, min(nrows, ncols))
    basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    zero_cols = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randrange(p) for _ in range(k)]
        row = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)]
        row = [0 if j in zero_cols else x + p * rng.randint(-3, 3)
               for j, x in enumerate(row)]
        if rng.random() < 0.3:
            row = [-x for x in row]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_pyref_matches_reference(p):
    rng = random.Random(p % 1000 + 5)
    deficient = 0
    for _ in range(150):
        rows = random_matrix(rng, p)
        rank = reference_rank(rows, p)
        assert pyref.modrank(rows, p) == rank
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient >= 30


@pytest.mark.parametrize("p", [1, 0, -7])
def test_pyref_refuses_a_modulus_below_two(p):
    with pytest.raises(ValueError, match="^prime must be at least 2$"):
        pyref.modrank([[1, 2], [3, 4]], p)


def test_pyref_leaves_input_untouched():
    rows = [[4, -9, 2], [8, 5, -1], [12, -4, 1]]
    copy = [list(r) for r in rows]
    pyref.modrank(rows, 7)
    assert rows == copy


# fraction_free_rank once failed on the first of these with an IndexError
# and ranked the others 1, 0 and 1; both kernels keep one contract
RAGGED = [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1], [0, 1]]]


@pytest.mark.parametrize("rows", RAGGED)
def test_pyref_refuses_ragged_rows(rows):
    with pytest.raises(ValueError, match="^ragged matrix$"):
        pyref.modrank(rows, 7)


@pytest.mark.parametrize("rows", RAGGED)
def test_fraction_free_rank_refuses_ragged_rows(rows):
    with pytest.raises(ValueError, match="^ragged matrix$"):
        fraction_free_rank(rows)
