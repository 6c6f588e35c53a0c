"""The former ``Fraction`` bodies of the asymptotic geometry, kept as
references for the integer versions in ``seshadri``.

A polygon here is its canonical vertex tuple: counterclockwise ``Point``s
starting at the lowest, then leftmost vertex, as ``ConvexPolygon.vertices``
states it.  Each function computes what its namesake in the package does,
in ``Fraction`` arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction

from seshadri.geometry import Axis, DegenerateInput, Point
from seshadri._input import rational
from seshadri.reorder import PiecewiseLinear


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def make_polygon(points):
    """Canonical CCW convex hull of the inputs; rejects zero-area hulls."""
    pts = sorted({Point(rational(p[0]), rational(p[1])) for p in points})
    if len(pts) < 3:
        raise DegenerateInput("need at least three distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear (zero-area hull)")
    return _canonical(hull)


def _canonical(chain):
    start = min(range(len(chain)), key=lambda i: (chain[i].y, chain[i].x))
    return tuple(chain[start:]) + tuple(chain[:start])


def cut_polygon(vertices, F):
    """(neg, pos) vertex tuples of the split along F = 0, None for a side
    without area."""
    vals = [F(v) for v in vertices]
    if all(v >= 0 for v in vals):
        return (None, vertices)
    if all(v <= 0 for v in vals):
        return (vertices, None)
    neg, pos = [], []
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        fa, fb = vals[i], vals[(i + 1) % n]
        if fa <= 0:
            neg.append(a)
        if fa >= 0:
            pos.append(a)
        if (fa < 0 < fb) or (fb < 0 < fa):
            t = fa / (fa - fb)
            crossing = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            neg.append(crossing)
            pos.append(crossing)
    return (_canonical(neg), _canonical(pos))


def height_profile(vertices, axis=Axis.X):
    """Chord-length profile by one walk along both boundary chains."""
    coords = [(axis.coord(v), axis.other(v)) for v in vertices]
    n = len(coords)
    low = min(coords)
    lo, hi = low[0], max(coords)[0]
    first = coords.index(low)
    chains = []
    for step in (1, -1):
        i = first
        if coords[(i + step) % n][0] == lo:
            i += step
        chain = [coords[i % n]]
        while chain[-1][0] != hi:
            i += step
            chain.append(coords[i % n])
        chains.append(chain)
    a, b = chains
    ts = [lo]
    vals = [abs(a[0][1] - b[0][1])]
    ia = ib = 0
    while ia + 1 < len(a):
        t = min(a[ia + 1][0], b[ib + 1][0])
        if a[ia + 1][0] == t:
            ia += 1
        if b[ib + 1][0] == t:
            ib += 1
        ts.append(t)
        vals.append(abs(_chain_at(a, ia, t) - _chain_at(b, ib, t)))
    return PiecewiseLinear(tuple(ts), tuple(vals))


def _chain_at(chain, i, t):
    c0, o0 = chain[i]
    if t == c0:
        return o0
    c1, o1 = chain[i + 1]
    return o0 + (t - c0) * (o1 - o0) / (c1 - c0)


def _level_decomposition(f):
    levels = sorted({v for v in f.values})
    index = {v: i for i, v in enumerate(levels)}
    masses = [Fraction(0)] * len(levels)
    densities = [Fraction(0)] * (len(levels) - 1)
    for t0, t1, v0, v1 in f.segments():
        w = t1 - t0
        if v0 == v1:
            masses[index[v0]] += w
        else:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            rate = w / (hi - lo)
            for j in range(index[lo], index[hi]):
                densities[j] += rate
    return tuple(levels), tuple(masses), tuple(densities)


def monotone_reorder(f):
    """Increasing rearrangement of f on [0, width of dom(f)]."""
    levels, masses, densities = _level_decomposition(f)
    bps = [Fraction(0)]
    vals = [levels[0]]
    t = Fraction(0)
    if masses[0] > 0:
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    for j in range(len(levels) - 1):
        dt = densities[j] * (levels[j + 1] - levels[j])
        assert dt > 0
        t += dt
        bps.append(t)
        vals.append(levels[j + 1])
        if masses[j + 1] > 0:
            t += masses[j + 1]
            bps.append(t)
            vals.append(levels[j + 1])
    if len(bps) == 1:
        t += masses[0]
        bps.append(t)
        vals.append(levels[0])
    assert t == f.width
    return PiecewiseLinear(tuple(bps), tuple(vals))


def first_crossing(fs):
    """First crossing of the rearrangement ``fs`` under the identity."""
    if fs.values[0] < 0:
        raise ValueError("profile must be nonnegative")
    for t0, t1, v0, v1 in fs.segments():
        g0, g1 = v0 - t0, v1 - t1
        if g1 >= 0:
            continue
        if g0 < 0:
            return t0
        return t0 + (t1 - t0) * g0 / (g0 - g1)
    return fs.width
