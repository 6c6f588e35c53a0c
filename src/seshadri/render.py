"""Deterministic SVG rendering of a dissection diagram.

One path per piece, dashed cut lines across the simplex, and text labels
for named points when a name table is supplied (the builtin dissection
carries one).  Geometry coordinates are written with six exact decimal
places; labels keep the exact rational strings in a data attribute.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from .dissection import SIMPLEX, Dissection, _require_valid
from .geometry import Point, cut_polygon


class RenderSpec(NamedTuple("RenderSpec", [("size", int), ("labels", bool)])):
    __slots__ = ()

    def __new__(cls, size: int = 600, labels: bool = True):
        if size < 100:
            raise ValueError("canvas must be at least 100 px")
        return tuple.__new__(cls, (size, labels))


def _decimal6(x: Fraction) -> str:
    """Fixed six-decimal rendering of a rational, exact rounding half-up."""
    scaled = Fraction(x) * 10**6
    n = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**6}.{n % 10**6:06d}"


def render_svg(dis: Dissection, spec: RenderSpec,
               point_names: Optional[Dict[str, Point]] = None) -> str:
    """Render the dissection to an SVG document string."""
    _require_valid(dis)
    # the simplex spans the unit square, drawn inside a margin
    margin = Fraction(spec.size, 12)
    scale = spec.size - 2 * margin

    def sx(x: Fraction) -> str:
        return _decimal6(margin + x * scale)

    def sy(y: Fraction) -> str:
        return _decimal6(spec.size - margin - y * scale)

    stroke = "#1d1d1d"
    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" '
        f'height="{spec.size}" viewBox="0 0 {spec.size} {spec.size}">',
        f'  <g fill="none" stroke="{stroke}" stroke-width="1.5">',
    ]
    for idx, poly in enumerate(dis.polygons(), start=1):
        d = " ".join(
            f"{'M' if i == 0 else 'L'} {sx(v.x)} {sy(v.y)}"
            for i, v in enumerate(poly.vertices)
        ) + " Z"
        lines.append(f'    <path id="piece-{idx}" d="{d}"/>')
    lines.append("  </g>")
    lines.append(f'  <g stroke="{stroke}" stroke-width="0.8" '
                 'stroke-dasharray="6 4">')
    for idx, step in enumerate(dis.steps, start=1):
        # a valid cut splits the simplex too: the chord is the edge of its
        # negative part that lies on the cut line
        part = cut_polygon(SIMPLEX, step.cut)[0]
        a, b = sorted(v for v in part.vertices if step.cut(v) == 0)
        lines.append(f'    <line id="cut-{idx}" x1="{sx(a.x)}" y1="{sy(a.y)}" '
                     f'x2="{sx(b.x)}" y2="{sy(b.y)}"/>')
    lines.append("  </g>")
    if spec.labels and point_names:
        lines.append('  <g font-family="monospace" font-size="14" '
                     f'fill="{stroke}" stroke="none">')
        for name in sorted(point_names):
            p = point_names[name]
            lines.append(f'    <text x="{sx(p.x)}" y="{sy(p.y)}" dx="4" dy="-4" '
                         f'data-exact="{p.x},{p.y}">{name}</text>')
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
