"""Exact computational geometry over Q(theta)^2.

Orientation, point location, interior overlap, containment and polygon
simplicity run on integer coordinates.  Every vertex a predicate touches
lies in (1/D) Z[theta]^2, so a point is the tuple of 2*s ints (x's
power-basis coordinates, then y's) of D times its value, over one common
positive D per call; scaling by D > 0 changes no sign.  theta is a monic
algebraic integer, so Z[theta] products stay integral.  A sign is the
int's own sign in degree 1 and `QThetaElem.sign()` of the integer element
otherwise: there is one exact sign rule.  Values that are not signs
(areas) are field elements.  Nothing here ever
rounds; callers wanting floats ask the field elements for views.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import lcm
from operator import add

from .errors import TilingError
from .field import QThetaElem, QThetaVec
from .intlattice import embed_rows


def cross(o: QThetaVec, a: QThetaVec, b: QThetaVec) -> QThetaElem:
    """(a - o) x (b - o), the doubled signed triangle area."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(a: QThetaVec, b: QThetaVec) -> QThetaElem:
    return a[0] * b[0] + a[1] * b[1]


def polygon_area2(vertices) -> QThetaElem:
    """Twice the signed area (positive for counterclockwise order)."""
    acc = None
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        term = a[0] * b[1] - a[1] * b[0]
        acc = term if acc is None else acc + term
    return acc


def coeff_sign(field, coeffs) -> int:
    """Exact sign of the element of `field` with integer power-basis
    coordinates `coeffs` (times any positive denominator)."""
    if field.degree == 1:
        return (coeffs[0] > 0) - (coeffs[0] < 0)
    if not any(coeffs):
        return 0
    return QThetaElem(field, tuple(coeffs)).sign()


# ---------------------------------------------------------------------------
# integer kernel: points are int tuples over one common denominator


class _Ring:
    """Signs of the kernel's expressions in degree s >= 2: an element is
    a list of s ints, a point a tuple of 2*s ints."""

    __slots__ = ("field", "s", "red")

    def __init__(self, field):
        self.field = field
        self.s = field.degree
        # x^k mod minpoly for k = s .. 2s-2; integral as minpoly is monic
        self.red = [[int(c) for c in row] for row in field._red]

    def mul(self, a, b):
        s = self.s
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:s]
        for c, row in zip(prod[s:], self.red):
            if c:
                for i, v in enumerate(row):
                    out[i] += c * v
        return out

    def sign(self, e) -> int:
        return coeff_sign(self.field, e)

    def orient(self, o, a, b) -> int:
        """Sign of (a - o) x (b - o)."""
        s = self.s
        u = [x - y for x, y in zip(a, o)]
        v = [x - y for x, y in zip(b, o)]
        return self.sign([x - y for x, y in zip(self.mul(u[:s], v[s:]), self.mul(u[s:], v[:s]))])

    def along(self, p, a, b):
        """(p - a) . (b - a)."""
        s = self.s
        u = [x - y for x, y in zip(p, a)]
        v = [x - y for x, y in zip(b, a)]
        return [x + y for x, y in zip(self.mul(u[:s], v[:s]), self.mul(u[s:], v[s:]))]

    def ysign(self, a, b) -> int:
        """Sign of a.y - b.y."""
        s = self.s
        return self.sign([x - y for x, y in zip(a[s:], b[s:])])

    def sort_along(self, pts, a, b):
        """Points of segment ab ordered from a to b."""
        keyed = [(self.along(p, a, b), p) for p in pts]
        keyed.sort(key=cmp_to_key(lambda u, v: self.sign([x - y for x, y in zip(u[0], v[0])])))
        return [p for _, p in keyed]


class _Ring1(_Ring):
    """Degree 1: an element is one int, a point (x, y)."""

    __slots__ = ()

    def sign(self, e) -> int:
        return (e > 0) - (e < 0)

    def orient(self, o, a, b) -> int:
        v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return (v > 0) - (v < 0)

    def along(self, p, a, b):
        return (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])

    def ysign(self, a, b) -> int:
        return (a[1] > b[1]) - (a[1] < b[1])

    def sort_along(self, pts, a, b):
        return sorted(pts, key=lambda p: self.along(p, a, b))


def _ring(field) -> _Ring:
    return _Ring1(field) if field.degree == 1 else _Ring(field)


def _kernel_points(vecs):
    """(ring, points) of QThetaVecs over their common denominator."""
    rows, _ = embed_rows(vecs)
    return _ring(vecs[0].field), rows


def _common(*forms):
    """The point lists of (rows, den) forms, rescaled to one denominator."""
    den = lcm(*(d for _, d in forms))
    return [
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


def _same_cycle(p, q) -> bool:
    return len(p) == len(q) and any(p == q[k:] + q[:k] for k in range(len(q)))


def contains_points(field, outer, inner) -> bool:
    """`polygon_contains` on the vertices of two simple polygons given as
    kernel points over one denominator."""
    r = _ring(field)
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


# ---------------------------------------------------------------------------
# public predicates on QThetaVecs and Polygons


def point_on_segment(p: QThetaVec, a: QThetaVec, b: QThetaVec) -> bool:
    r, (p, a, b) = _kernel_points((p, a, b))
    return _on_segment(r, p, a, b)


def segments_properly_cross(a, b, c, d) -> bool:
    """Strict interior crossing of segments ab and cd."""
    r, pts = _kernel_points((a, b, c, d))
    return _properly_cross(r, *pts)


def segments_touch(a, b, c, d) -> bool:
    """Any intersection at all (shared endpoints, T-junctions, overlap)."""
    r, pts = _kernel_points((a, b, c, d))
    return _touch(r, *pts)


def point_in_polygon(p: QThetaVec, vertices) -> int:
    """Exact location: INSIDE, BOUNDARY or OUTSIDE of a simple polygon."""
    r, pts = _kernel_points((p, *vertices))
    return _locate(r, pts[0], pts[1:])


class Polygon:
    """Simple polygon with counterclockwise Q(theta) vertices."""

    __slots__ = ("vertices", "_ints")

    def __init__(self, vertices, check: bool = True):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise TilingError("polygon needs at least 3 vertices")
        self.vertices = vertices
        # embed_rows of the vertices, filled on first use; the vertices
        # never change, so a racing fill stores an equal value
        self._ints = None
        if check:
            self.validate()

    def ints(self):
        """(rows, den): the vertices as kernel points over den."""
        form = self._ints
        if form is None:
            form = self._ints = embed_rows(self.vertices)
        return form

    def validate(self):
        vs, _ = self.ints()
        r = _ring(self.vertices[0].field)
        n = len(vs)
        for i in range(n):
            if vs[i] == vs[(i + 1) % n]:
                raise TilingError("repeated consecutive polygon vertex")
        area2 = polygon_area2(self.vertices)
        if area2.sign() <= 0:
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

    def area2(self) -> QThetaElem:
        return polygon_area2(self.vertices)

    def translated(self, g: QThetaVec) -> "Polygon":
        return Polygon(tuple(v + g for v in self.vertices), check=False)

    def scaled(self, s) -> "Polygon":
        return Polygon(tuple(v.scale(s) for v in self.vertices), check=False)

    def locate(self, p: QThetaVec) -> int:
        vs, (p,) = _common(self.ints(), embed_rows([p]))
        return _locate(_ring(self.vertices[0].field), p, vs)

    def interior_point(self) -> QThetaVec:
        """Some exact interior point (lowest-lex vertex construction)."""
        vs = self.vertices
        n = len(vs)
        vi = min(range(n), key=vs.__getitem__)
        v = vs[vi]
        a, b = vs[(vi - 1) % n], vs[(vi + 1) % n]
        inside = []
        for j, q in enumerate(vs):
            if j in (vi, (vi - 1) % n, (vi + 1) % n):
                continue
            if _strictly_in_triangle(q, a, v, b):
                inside.append(q)
        if not inside:
            half = v.field.rational(1) / 3
            centroid = (a + v + b).scale(half)
            return centroid
        # farthest such vertex from the line ab, by exact comparison
        best = inside[0]
        best_d = cross(a, b, best)
        if best_d.sign() < 0:
            best_d = -best_d
        for q in inside[1:]:
            d = cross(a, b, q)
            if d.sign() < 0:
                d = -d
            if (d - best_d).sign() > 0:
                best, best_d = q, d
        half = v.field.rational(1) / 2
        return (v + best).scale(half)


def _strictly_in_triangle(p, a, b, c) -> bool:
    s1 = cross(a, b, p).sign()
    s2 = cross(b, c, p).sign()
    s3 = cross(c, a, p).sign()
    if 0 in (s1, s2, s3):
        return False
    return s1 == s2 == s3


def interiors_overlap(p: Polygon, q: Polygon) -> bool:
    """Whether two simple polygons share interior points; exact."""
    r = _ring(p.vertices[0].field)
    p, q = _common(p.ints(), q.ints())
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


def polygon_contains(outer: Polygon, inner: Polygon) -> bool:
    """inner subset of outer (closed regions); exact."""
    return contains_points(outer.vertices[0].field, *_common(outer.ints(), inner.ints()))
