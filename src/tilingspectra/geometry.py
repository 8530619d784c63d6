"""Exact computational geometry over Q(theta)^2.

All predicates reduce to signs of Q(theta) elements, so they are exact for
simple polygons with field coordinates: orientation, point location,
interior overlap, containment, squared distances.  Nothing here ever
rounds; callers wanting floats ask the field elements for views.
"""

from __future__ import annotations

from .errors import TilingError
from .field import QThetaElem, QThetaVec


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


def point_on_segment(p: QThetaVec, a: QThetaVec, b: QThetaVec) -> bool:
    if cross(a, b, p).sign() != 0:
        return False
    ab = b - a
    t = dot(p - a, ab)
    if t.sign() < 0:
        return False
    return (t - dot(ab, ab)).sign() <= 0


def segments_properly_cross(a, b, c, d) -> bool:
    """Strict interior crossing of segments ab and cd."""
    d1 = cross(c, d, a).sign()
    d2 = cross(c, d, b).sign()
    d3 = cross(a, b, c).sign()
    d4 = cross(a, b, d).sign()
    return d1 * d2 < 0 and d3 * d4 < 0


def segments_touch(a, b, c, d) -> bool:
    """Any intersection at all (shared endpoints, T-junctions, overlap)."""
    if segments_properly_cross(a, b, c, d):
        return True
    return (
        point_on_segment(c, a, b)
        or point_on_segment(d, a, b)
        or point_on_segment(a, c, d)
        or point_on_segment(b, c, d)
    )


INSIDE, BOUNDARY, OUTSIDE = 2, 1, 0


def point_in_polygon(p: QThetaVec, vertices) -> int:
    """Exact location: INSIDE, BOUNDARY or OUTSIDE of a simple polygon."""
    n = len(vertices)
    for i in range(n):
        if point_on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return BOUNDARY
    # half-open crossing rule on the rightward horizontal ray
    parity = 0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        ya = (a[1] - p[1]).sign()
        yb = (b[1] - p[1]).sign()
        if (ya > 0) != (yb > 0):
            num = cross(p, a, b).sign()
            dy = (b[1] - a[1]).sign()
            if num == dy:
                parity ^= 1
    return INSIDE if parity else OUTSIDE


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
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            if (vs[i] - vs[(i + 1) % n]).is_zero():
                raise TilingError("repeated consecutive polygon vertex")
        area2 = polygon_area2(vs)
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
                        if not (v - shared).is_zero() and point_on_segment(v, *seg):
                            raise TilingError("polygon edges overlap at a vertex (spike)")
                    continue
                if segments_touch(a, b, c, d):
                    raise TilingError("polygon is not simple: non-adjacent edges intersect")

    def area2(self) -> QThetaElem:
        return polygon_area2(self.vertices)

    def translated(self, g: QThetaVec) -> "Polygon":
        return Polygon(tuple(v + g for v in self.vertices), check=False)

    def scaled(self, s) -> "Polygon":
        return Polygon(tuple(v.scale(s) for v in self.vertices), check=False)

    def edges(self):
        vs = self.vertices
        n = len(vs)
        return [(vs[i], vs[(i + 1) % n]) for i in range(n)]

    def locate(self, p: QThetaVec) -> int:
        return point_in_polygon(p, self.vertices)

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

    def key(self):
        return tuple(v.key() for v in self.vertices)


def _strictly_in_triangle(p, a, b, c) -> bool:
    s1 = cross(a, b, p).sign()
    s2 = cross(b, c, p).sign()
    s3 = cross(c, a, p).sign()
    if 0 in (s1, s2, s3):
        return False
    return s1 == s2 == s3


def _edge_fragment_params(a, b, other: Polygon):
    """Split parameters of segment ab against another polygon's edges."""
    field = a.field
    zero, one = field.rational(0), field.rational(1)
    params = [zero, one]
    ab = b - a
    ab_sq = dot(ab, ab)
    for c, d in other.edges():
        cd = d - c
        denom = ab[0] * cd[1] - ab[1] * cd[0]
        if denom.sign() != 0:
            # lines cross at a + t*ab; keep t when inside both segments
            t = ((c[0] - a[0]) * cd[1] - (c[1] - a[1]) * cd[0]) / denom
            u = ((c[0] - a[0]) * ab[1] - (c[1] - a[1]) * ab[0]) / denom
            if (
                t.sign() >= 0
                and (t - one).sign() <= 0
                and u.sign() >= 0
                and (u - one).sign() <= 0
            ):
                params.append(t)
        else:
            # parallel; collinear overlap contributes projected endpoints
            if cross(a, b, c).sign() == 0:
                for q in (c, d):
                    t = dot(q - a, ab) / ab_sq
                    if t.sign() > 0 and (t - field.one()).sign() < 0:
                        params.append(t)
    params.sort()
    dedup = [params[0]]
    for t in params[1:]:
        if not (t - dedup[-1]).is_zero():
            dedup.append(t)
    return dedup


def interiors_overlap(p: Polygon, q: Polygon) -> bool:
    """Whether two simple polygons share interior points; exact."""
    if p.key() == q.key():
        return True
    for a, b in p.edges():
        for c, d in q.edges():
            if segments_properly_cross(a, b, c, d):
                return True
    for v in p.vertices:
        if q.locate(v) == INSIDE:
            return True
    for v in q.vertices:
        if p.locate(v) == INSIDE:
            return True
    half = p.vertices[0].field.rational(1) / 2
    for poly, other in ((p, q), (q, p)):
        for a, b in poly.edges():
            ts = _edge_fragment_params(a, b, other)
            for t0, t1 in zip(ts, ts[1:]):
                tm = (t0 + t1) * half
                m = a + (b - a).scale(tm)
                if other.locate(m) == INSIDE:
                    return True
    # identical-boundary case was caught by key equality; also catch
    # cyclic rotations of the same vertex list
    if _same_cycle(p, q):
        return True
    return False


def _same_cycle(p: Polygon, q: Polygon) -> bool:
    pk, qk = list(p.key()), list(q.key())
    if len(pk) != len(qk):
        return False
    for shift in range(len(qk)):
        if pk == qk[shift:] + qk[:shift]:
            return True
    return False


def polygon_contains(outer: Polygon, inner: Polygon) -> bool:
    """inner subset of outer (closed regions); exact."""
    for v in inner.vertices:
        if outer.locate(v) == OUTSIDE:
            return False
    half = outer.vertices[0].field.rational(1) / 2
    for a, b in inner.edges():
        for c, d in outer.edges():
            if segments_properly_cross(a, b, c, d):
                return False
        ts = _edge_fragment_params(a, b, outer)
        for t0, t1 in zip(ts, ts[1:]):
            m = a + (b - a).scale((t0 + t1) * half)
            if outer.locate(m) == OUTSIDE:
                return False
    # no part of outer's boundary may sit strictly inside inner
    for a, b in outer.edges():
        ts = _edge_fragment_params(a, b, inner)
        for t0, t1 in zip(ts, ts[1:]):
            m = a + (b - a).scale((t0 + t1) * half)
            if inner.locate(m) == INSIDE:
                return False
    return True


def dist_sq_point_segment(p: QThetaVec, a: QThetaVec, b: QThetaVec) -> QThetaElem:
    ab = b - a
    ap = p - a
    denom = dot(ab, ab)
    t = dot(ap, ab)
    if t.sign() <= 0:
        return dot(ap, ap)
    if (t - denom).sign() >= 0:
        bp = p - b
        return dot(bp, bp)
    # |ap|^2 - (ap.ab)^2/|ab|^2
    return dot(ap, ap) - t * t / denom


def dist_sq_point_polygon(p: QThetaVec, poly: Polygon) -> QThetaElem:
    """Squared distance to the closed region (0 when inside/boundary)."""
    if poly.locate(p) != OUTSIDE:
        return p.field.rational(0)
    best = None
    for a, b in poly.edges():
        d = dist_sq_point_segment(p, a, b)
        if best is None or (d - best).sign() < 0:
            best = d
    return best


def points_diameter_sq(points) -> QThetaElem:
    """Max pairwise squared distance over points of any dimension."""
    if len(points) < 2:
        return points[0].field.rational(0)
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            v = (points[i] - points[j]).norm_sq()
            if best is None or (v - best).sign() > 0:
                best = v
    return best
