"""Deterministic SVG rendering of patches.

Output bytes are a pure function of the patch and the scale: vertices
are emitted with a fixed significant-digit format, colors come from a
fixed palette keyed by prototile order, and nothing depends on dict
iteration or timestamps.
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
_STROKE = "#222222"
_STROKE_WIDTH = 0.06  # in tile units, scaled with the drawing
_PRECISION = 15  # significant digits of every emitted number


@dataclass
class RenderSpec:
    out_path: str
    scale: float = 40.0


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


def _fmt(value: float) -> str:
    out = format(value, f".{_PRECISION}g")
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
    pad = 2.0 * _STROKE_WIDTH * s
    width = (maxx - minx) * s + 2 * pad
    height = (maxy - miny) * s + 2 * pad

    def tx(p):
        return (p[0] - minx) * s + pad, (maxy - p[1]) * s + pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    sw = _fmt(_STROKE_WIDTH * s)
    for color_idx, poly in shapes:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (tx(p) for p in poly))
        lines.append(
            f'<polygon points="{coords}" fill="{PALETTE[color_idx % len(PALETTE)]}" '
            f'stroke="{_STROKE}" stroke-width="{sw}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
