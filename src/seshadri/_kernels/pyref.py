"""Pure-Python reference for the prime-field row-reduction kernel."""

from __future__ import annotations

from typing import Sequence


def modrank(rows: Sequence[Sequence[int]], prime: int) -> int:
    """Rank over GF(prime) of an integer matrix given row-wise.

    Entries are reduced modulo ``prime`` on entry; ``prime`` must be prime
    (inverses are taken by Fermat exponentiation).  Rows of unequal length
    raise ``ValueError``.

    Below the pivot, entries are left unreduced: each elimination adds a
    multiple of the pivot row, which is normalised and negated once, and an
    entry is reduced only when it is read as a pivot candidate or its row
    becomes the pivot row.
    """
    if prime < 2:
        raise ValueError("prime must be at least 2")
    m = [[e % prime for e in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            v = m[r][col] % prime
            if v:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        ninv = prime - pow(v, prime - 2, prime)
        neg = [x * ninv % prime for x in m[rank][col + 1:]]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[col] % prime
            if f:
                row[col + 1:] = [x + f * y for x, y in zip(row[col + 1:], neg)]
        rank += 1
        if rank == nrows:
            break
    return rank
