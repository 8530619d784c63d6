"""Deterministic SVG rendering of patches.

Output bytes are a pure function of the patch, the render options and the
float precision: vertices are emitted with a fixed significant-digit
format, colors come from a fixed palette keyed by prototile order, and
nothing depends on dict iteration or timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TilingError
from .tiles import Patch, SubstitutionSystem

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#76b7b2",
    "#edc948",
    "#b07aa1",
    "#9c755f",
)


@dataclass
class RenderSpec:
    out_path: str
    colors: tuple = ()  # overrides the palette, keyed by prototile order
    stroke: str = "#222222"
    stroke_width: float = 0.06
    scale: float = 40.0
    precision: int = 15

    def color_for(self, index: int) -> str:
        if self.colors:
            return self.colors[index % len(self.colors)]
        return PALETTE[index % len(PALETTE)]


def render_svg(system: SubstitutionSystem, patch: Patch, spec: RenderSpec) -> bytes:
    """Write the patch as SVG 1.1; returns the exact bytes written."""
    if system.dimension not in (1, 2):
        raise TilingError("rendering supports 1d and 2d patches only")
    if not (math.isfinite(spec.scale) and spec.scale > 0):
        raise TilingError(f"scale must be finite and positive, got {spec.scale}")
    body = _render_body(system, patch, spec)
    data = body.encode("utf-8")
    try:
        with open(spec.out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise TilingError(f"cannot write {spec.out_path}: {exc.strerror or exc}") from None
    return data


def _fmt(value: float, precision: int) -> str:
    out = format(value, f".{precision}g")
    return "0" if out == "-0" else out


def _render_body(system, patch, spec) -> str:
    pts = []
    shapes = []  # (prototile index, [(x, y) floats])
    index = {tid: i for i, tid in enumerate(system.order)}
    for t in patch:
        if system.dimension == 1:
            a, b = system.tile_interval(t)
            fa, fb = float(a), float(b)
            poly = [(fa, 0.0), (fb, 0.0), (fb, 1.0), (fa, 1.0)]
        else:
            poly = [
                (float(v[0]), float(v[1])) for v in system.tile_polygon(t).vertices
            ]
        shapes.append((index[t.proto], poly))
        pts.extend(poly)
    s = spec.scale
    if pts:
        minx = min(p[0] for p in pts)
        maxx = max(p[0] for p in pts)
        miny = min(p[1] for p in pts)
        maxy = max(p[1] for p in pts)
    else:
        minx = miny = 0.0
        maxx = maxy = 1.0
    pad = 2.0 * spec.stroke_width * s
    width = (maxx - minx) * s + 2 * pad
    height = (maxy - miny) * s + 2 * pad

    def tx(p):
        return (p[0] - minx) * s + pad, (maxy - p[1]) * s + pad

    fmt = lambda v: _fmt(v, spec.precision)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
    ]
    sw = fmt(spec.stroke_width * s)
    for color_idx, poly in shapes:
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in (tx(p) for p in poly))
        lines.append(
            f'<polygon points="{coords}" fill="{spec.color_for(color_idx)}" '
            f'stroke="{spec.stroke}" stroke-width="{sw}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
