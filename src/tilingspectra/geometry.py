"""Exact computational geometry over Q(theta)^2, on integer coordinates.

Orientation, point location, interior overlap, containment, polygon
simplicity and doubled areas take kernel points.  Every vertex lies in
(1/D) Z[theta]^2, so a point is the tuple of 2*s ints (x's power-basis
coordinates, then y's) of D times its value, over one common positive D
per call; scaling by D > 0 changes no sign.  theta is a monic algebraic
integer, so Z[theta] products stay integral.  A sign is
`NumberField.sign` of the integer coordinates, the one exact sign rule,
and points along a segment are put in order by `ordering.value_order`,
the one exact order.  A doubled area is its s power-basis coordinates
over D^2.  Nothing here ever rounds.  `Polygon` holds a support's
Q(theta) vertices and checks them on their kernel points.
"""

from __future__ import annotations

from math import lcm
from operator import add

from .errors import TilingError
from .field import QThetaVec
from .intlattice import embed_rows, int_array
from .ordering import value_order

# ---------------------------------------------------------------------------
# integer kernel: points are int tuples over one common denominator


class _Ring:
    """Signs of the kernel's expressions in degree s >= 2: an element is
    a list of s ints, a point a tuple of 2*s ints."""

    __slots__ = ("field", "s", "mul", "sign")

    def __init__(self, field):
        self.field = field
        self.s = field.degree
        self.mul = field.mul  # Z[theta] products stay integral: minpoly is monic
        self.sign = field.sign

    def wedge(self, u, v):
        """u.x * v.y - u.y * v.x."""
        s = self.s
        return [x - y for x, y in zip(self.mul(u[:s], v[s:]), self.mul(u[s:], v[:s]))]

    def orient(self, o, a, b) -> int:
        """Sign of (a - o) x (b - o)."""
        return self.sign(self.wedge([x - y for x, y in zip(a, o)], [x - y for x, y in zip(b, o)]))

    def along(self, p, a, b):
        """(p - a) . (b - a)."""
        s = self.s
        u = [x - y for x, y in zip(p, a)]
        v = [x - y for x, y in zip(b, a)]
        return [x + y for x, y in zip(self.mul(u[:s], v[:s]), self.mul(u[s:], v[s:]))]

    def ysign(self, a, b) -> int:
        """Sign of a.y - b.y."""
        return self.cmp(a[self.s :], b[self.s :])

    def cmp(self, e, f) -> int:
        """Sign of e - f for elements e, f."""
        return self.sign([x - y for x, y in zip(e, f)])

    def extremes(self, vs):
        """[(lo, hi)] of the points vs along x and along y: one scan of
        exact comparisons per axis."""
        s, cmp = self.s, self.cmp
        out = []
        for k in (0, s):
            lo = hi = vs[0][k : k + s]
            for v in vs[1:]:
                e = v[k : k + s]
                if cmp(e, lo) < 0:
                    lo = e
                elif cmp(e, hi) > 0:
                    hi = e
            out.append((lo, hi))
        return out

    def sort_along(self, pts, a, b):
        """Points of segment ab ordered from a to b."""
        pts = list(pts)
        along = int_array([self.along(p, a, b) for p in pts], self.s)
        return [pts[i] for i in value_order(self.field, along, 1).tolist()]


class _Ring1:
    """Degree 1: an element is one int, a point (x, y)."""

    __slots__ = ()

    def sign(self, e) -> int:
        return (e > 0) - (e < 0)

    def wedge(self, u, v):
        return u[0] * v[1] - u[1] * v[0]

    def orient(self, o, a, b) -> int:
        v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return (v > 0) - (v < 0)

    def along(self, p, a, b):
        return (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])

    def ysign(self, a, b) -> int:
        return (a[1] > b[1]) - (a[1] < b[1])

    def cmp(self, e, f) -> int:
        return (e > f) - (e < f)

    def extremes(self, vs):
        return [(min(c), max(c)) for c in zip(*vs)]

    def sort_along(self, pts, a, b):
        return sorted(pts, key=lambda p: self.along(p, a, b))


def _ring(field):
    return _Ring1() if field.degree == 1 else _Ring(field)


def _common(*forms):
    """(den, point lists): the (rows, den) forms rescaled to their lcm den."""
    den = lcm(*(d for _, d in forms))
    return den, [
        rows if d == den else [tuple(c * (den // d) for c in row) for row in rows]
        for rows, d in forms
    ]


def _edges(vs):
    return zip(vs, vs[1:] + vs[:1])


def _doubled(vs):
    return [tuple(2 * c for c in v) for v in vs]


def _on_segment(r, p, a, b) -> bool:
    return (
        r.orient(a, b, p) == 0
        and r.sign(r.along(p, a, b)) >= 0
        and r.sign(r.along(p, b, a)) >= 0
    )


def _properly_cross(r, a, b, c, d) -> bool:
    return (
        r.orient(c, d, a) * r.orient(c, d, b) < 0
        and r.orient(a, b, c) * r.orient(a, b, d) < 0
    )


def _touch(r, a, b, c, d) -> bool:
    return (
        _properly_cross(r, a, b, c, d)
        or _on_segment(r, c, a, b)
        or _on_segment(r, d, a, b)
        or _on_segment(r, a, c, d)
        or _on_segment(r, b, c, d)
    )


INSIDE, BOUNDARY, OUTSIDE = 2, 1, 0


def _locate(r, p, vs) -> int:
    for a, b in _edges(vs):
        if _on_segment(r, p, a, b):
            return BOUNDARY
    # half-open crossing rule on the rightward horizontal ray
    parity = 0
    for a, b in _edges(vs):
        if (r.ysign(a, p) > 0) != (r.ysign(b, p) > 0):
            if r.orient(p, a, b) == r.ysign(b, a):
                parity ^= 1
    return INSIDE if parity else OUTSIDE


def _midpoints(r, a, b, others):
    """Doubled midpoints of the pieces into which the vertices of
    `others` lying on segment ab cut it.  When no edge of `others`
    properly crosses ab, every point where the two boundaries meet on ab
    is a, b or such a vertex, so each piece lies wholly inside, on or
    outside the polygon `others` bounds, and its midpoint tells which."""
    pts = {a, b}
    pts.update(q for q in others if _on_segment(r, q, a, b))
    pts = r.sort_along(pts, a, b)
    return [tuple(map(add, p, q)) for p, q in zip(pts, pts[1:])]


def _apart(r, p, q, closed: bool) -> bool:
    """Are the boxes [(lo, hi)] per axis p and q (see `extremes`)
    separated along some axis, so that the polygons they bound share no
    interior point, or with `closed` no point at all?  Along an axis,
    boxes whose ranges only touch share no interior point."""
    least = 0 if closed else 1  # the ranges meet iff every sign(hi - lo) >= least
    return any(
        r.cmp(p_hi, q_lo) < least or r.cmp(q_hi, p_lo) < least
        for (p_lo, p_hi), (q_lo, q_hi) in zip(p, q)
    )


def _convex(r, vs) -> bool:
    """Is the simple counterclockwise polygon vs convex: no right turn?"""
    return all(r.orient(a, b, c) >= 0 for a, b, c in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1]))


def _same_cycle(p, q) -> bool:
    return len(p) == len(q) and any(p == q[k:] + q[:k] for k in range(len(q)))


def area2(field, vs) -> tuple:
    """Twice the signed area (positive for counterclockwise order) of the
    polygon with kernel points vs, as its s power-basis coordinates over
    the square of the points' denominator."""
    r = _ring(field)
    terms = [r.wedge(a, b) for a, b in _edges(vs)]
    if field.degree == 1:
        return (sum(terms),)
    return tuple(map(sum, zip(*terms)))


def interiors_overlap(field, p, q) -> bool:
    """Whether two simple polygons, given as kernel points over one
    denominator, share interior points; exact."""
    r = _ring(field)
    # the interiors lie inside the open bounding boxes
    if _apart(r, r.extremes(p), r.extremes(q), closed=False):
        return False
    if _same_cycle(p, q):
        return True
    for a, b in _edges(p):
        for c, d in _edges(q):
            if _properly_cross(r, a, b, c, d):
                return True
    if any(_locate(r, v, q) == INSIDE for v in p) or any(_locate(r, v, p) == INSIDE for v in q):
        return True
    for poly, other in ((p, q), (q, p)):
        other2 = _doubled(other)
        for a, b in _edges(poly):
            if any(_locate(r, m, other2) == INSIDE for m in _midpoints(r, a, b, other)):
                return True
    return False


def polygon_contains(field, outer, inner) -> bool:
    """inner subset of outer (closed regions) for two simple polygons
    given as kernel points over one denominator; exact."""
    r = _ring(field)
    if _convex(r, outer):
        # a closed convex set holds the hull of any points it holds, and
        # a point is in it iff it lies on the left of or on every edge
        return all(r.orient(a, b, v) >= 0 for v in inner for a, b in _edges(outer))
    if any(_locate(r, v, outer) == OUTSIDE for v in inner):
        return False
    outer2, inner2 = _doubled(outer), _doubled(inner)
    for a, b in _edges(inner):
        if any(_properly_cross(r, a, b, c, d) for c, d in _edges(outer)):
            return False
        if any(_locate(r, m, outer2) == OUTSIDE for m in _midpoints(r, a, b, outer)):
            return False
    # no part of outer's boundary may sit strictly inside inner
    for a, b in _edges(outer):
        if any(_locate(r, m, inner2) == INSIDE for m in _midpoints(r, a, b, inner)):
            return False
    return True


class Polygon:
    """Simple polygon with counterclockwise Q(theta) vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices, check: bool = True):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise TilingError("polygon needs at least 3 vertices")
        self.vertices = vertices
        if check:
            self.validate()

    def validate(self):
        vs, _ = embed_rows(self.vertices)
        field = self.vertices[0].field
        r = _ring(field)
        n = len(vs)
        for i in range(n):
            if vs[i] == vs[(i + 1) % n]:
                raise TilingError("repeated consecutive polygon vertex")
        if field.sign(area2(field, vs)) <= 0:
            raise TilingError("polygon vertices must be counterclockwise with positive area")
        for i in range(n):
            a, b = vs[i], vs[(i + 1) % n]
            for j in range(i + 1, n):
                c, d = vs[j], vs[(j + 1) % n]
                adjacent = (j == i + 1) or (i == 0 and j == n - 1)
                if adjacent:
                    # neighbors may only meet at their shared endpoint
                    shared = b if j == i + 1 else a
                    others = [v for v in (a, b, c, d) if v is not shared]
                    for v in others:
                        seg = (c, d) if v in (a, b) else (a, b)
                        if v != shared and _on_segment(r, v, *seg):
                            raise TilingError("polygon edges overlap at a vertex (spike)")
                    continue
                if _touch(r, a, b, c, d):
                    raise TilingError("polygon is not simple: non-adjacent edges intersect")

    def translated(self, g: QThetaVec) -> "Polygon":
        return Polygon(tuple(v + g for v in self.vertices), check=False)
