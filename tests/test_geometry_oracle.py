"""The integer geometry kernel against field-element reference predicates.

The reference functions below compute every predicate and the doubled
area with `QThetaElem` arithmetic, solving for edge intersection
parameters by division in Q(theta); the library computes the same
predicates on integer kernel points and splits edges at the other
polygon's vertices.  Both must agree on every input, over Q and over
Q(golden ratio).
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import IntPoly, NumberField, TilingError, golden_field, make_algebraic
from tilingspectra.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Polygon,
    _common,
    _locate,
    _on_segment,
    _properly_cross,
    _ring,
    _touch,
    area2,
    interiors_overlap,
    polygon_contains,
)
from tilingspectra.intlattice import embed_rows

# ---------------------------------------------------------------------------
# reference predicates on field elements


def cross(o, a, b):
    """(a - o) x (b - o), the doubled signed triangle area."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def ref_area2(vertices):
    """Twice the signed area (positive for counterclockwise order)."""
    acc = None
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        term = a[0] * b[1] - a[1] * b[0]
        acc = term if acc is None else acc + term
    return acc


def ref_on_segment(p, a, b):
    if cross(a, b, p).sign() != 0:
        return False
    ab = b - a
    t = dot(p - a, ab)
    if t.sign() < 0:
        return False
    return (t - dot(ab, ab)).sign() <= 0


def ref_properly_cross(a, b, c, d):
    d1 = cross(c, d, a).sign()
    d2 = cross(c, d, b).sign()
    d3 = cross(a, b, c).sign()
    d4 = cross(a, b, d).sign()
    return d1 * d2 < 0 and d3 * d4 < 0


def ref_touch(a, b, c, d):
    if ref_properly_cross(a, b, c, d):
        return True
    return (
        ref_on_segment(c, a, b)
        or ref_on_segment(d, a, b)
        or ref_on_segment(a, c, d)
        or ref_on_segment(b, c, d)
    )


def ref_locate(p, vertices):
    n = len(vertices)
    for i in range(n):
        if ref_on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return BOUNDARY
    parity = 0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        ya = (a[1] - p[1]).sign()
        yb = (b[1] - p[1]).sign()
        if (ya > 0) != (yb > 0):
            if cross(p, a, b).sign() == (b[1] - a[1]).sign():
                parity ^= 1
    return INSIDE if parity else OUTSIDE


def ref_edges(vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def ref_fragment_params(a, b, other):
    """Split parameters of segment ab against the edges of `other`."""
    field = a.field
    zero, one = field.rational(0), field.rational(1)
    params = [zero, one]
    ab = b - a
    ab_sq = dot(ab, ab)
    for c, d in ref_edges(other):
        cd = d - c
        denom = ab[0] * cd[1] - ab[1] * cd[0]
        if denom.sign() != 0:
            t = ((c[0] - a[0]) * cd[1] - (c[1] - a[1]) * cd[0]) / denom
            u = ((c[0] - a[0]) * ab[1] - (c[1] - a[1]) * ab[0]) / denom
            if t.sign() >= 0 and (t - one).sign() <= 0 and u.sign() >= 0 and (u - one).sign() <= 0:
                params.append(t)
        elif cross(a, b, c).sign() == 0:
            for q in (c, d):
                t = dot(q - a, ab) / ab_sq
                if t.sign() > 0 and (t - one).sign() < 0:
                    params.append(t)
    params.sort()
    dedup = [params[0]]
    for t in params[1:]:
        if not (t - dedup[-1]).is_zero():
            dedup.append(t)
    return dedup


def ref_midpoints(a, b, other):
    half = a.field.rational(1) / 2
    ts = ref_fragment_params(a, b, other)
    return [a + (b - a).scale((t0 + t1) * half) for t0, t1 in zip(ts, ts[1:])]


def ref_same_cycle(p, q):
    pk, qk = [v.key() for v in p], [v.key() for v in q]
    return len(pk) == len(qk) and any(pk == qk[k:] + qk[:k] for k in range(len(qk)))


def ref_overlap(p, q):
    if ref_same_cycle(p, q):
        return True
    for a, b in ref_edges(p):
        for c, d in ref_edges(q):
            if ref_properly_cross(a, b, c, d):
                return True
    if any(ref_locate(v, q) == INSIDE for v in p) or any(ref_locate(v, p) == INSIDE for v in q):
        return True
    for poly, other in ((p, q), (q, p)):
        for a, b in ref_edges(poly):
            if any(ref_locate(m, other) == INSIDE for m in ref_midpoints(a, b, other)):
                return True
    return False


def ref_contains(outer, inner):
    if any(ref_locate(v, outer) == OUTSIDE for v in inner):
        return False
    for a, b in ref_edges(inner):
        if any(ref_properly_cross(a, b, c, d) for c, d in ref_edges(outer)):
            return False
        if any(ref_locate(m, outer) == OUTSIDE for m in ref_midpoints(a, b, outer)):
            return False
    for a, b in ref_edges(outer):
        if any(ref_locate(m, inner) == INSIDE for m in ref_midpoints(a, b, inner)):
            return False
    return True


def ref_polygon_error(vs):
    """The TilingError message Polygon(vs) must raise, or None."""
    n = len(vs)
    for i in range(n):
        if (vs[i] - vs[(i + 1) % n]).is_zero():
            return "repeated consecutive polygon vertex"
    if ref_area2(vs).sign() <= 0:
        return "polygon vertices must be counterclockwise with positive area"
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = vs[j], vs[(j + 1) % n]
            if (j == i + 1) or (i == 0 and j == n - 1):
                shared = b if j == i + 1 else a
                for v in (a, b, c, d):
                    if v is shared:
                        continue
                    seg = (c, d) if v in (a, b) else (a, b)
                    if not (v - shared).is_zero() and ref_on_segment(v, *seg):
                        return "polygon edges overlap at a vertex (spike)"
                continue
            if ref_touch(a, b, c, d):
                return "polygon is not simple: non-adjacent edges intersect"
    return None


# ---------------------------------------------------------------------------
# small simple polygons over a field


RATIONAL = NumberField(make_algebraic(IntPoly([-2, 1]), 2))
GOLDEN = golden_field()


def coordinate_pool(field):
    """Eight increasing field values: halves over Q, a + b*theta over
    Q(golden), whose gaps are wide enough for float ordering."""
    if field.degree == 1:
        return [field.rational(Fraction(k, 2)) for k in range(-2, 6)]
    vals = [field.elem([a, b]) for a in range(-1, 3) for b in (0, 1)]
    return sorted(vals, key=float)


@st.composite
def polygons(draw, field):
    pool = coordinate_pool(field)
    idx = st.integers(0, len(pool) - 1)
    kind = draw(st.sampled_from(["rect", "ell", "tri"]))
    if kind == "tri":
        pts = [field.vec([pool[draw(idx)], pool[draw(idx)]]) for _ in range(3)]
        area = cross(*pts).sign()
        if area == 0:
            pts = [field.vec([pool[0], pool[0]]), field.vec([pool[2], pool[0]]), field.vec([pool[0], pool[3]])]
        elif area < 0:
            pts.reverse()
        return Polygon(pts)
    size = 2 if kind == "rect" else 3
    xs = sorted(draw(st.lists(idx, min_size=size, max_size=size, unique=True)))
    ys = sorted(draw(st.lists(idx, min_size=size, max_size=size, unique=True)))
    if kind == "rect":
        (x0, x1), (y0, y1) = [pool[i] for i in xs], [pool[i] for i in ys]
        return Polygon([field.vec(v) for v in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))])
    (x0, x1, x2), (y0, y1, y2) = [pool[i] for i in xs], [pool[i] for i in ys]
    # a rectangle with one corner square cut out, counterclockwise
    corner = draw(st.integers(0, 3))
    shapes = [
        [(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)],
        [(x0, y0), (x1, y0), (x1, y1), (x2, y1), (x2, y2), (x0, y2)],
        [(x0, y1), (x1, y1), (x1, y0), (x2, y0), (x2, y2), (x0, y2)],
        [(x0, y0), (x2, y0), (x2, y2), (x1, y2), (x1, y1), (x0, y1)],
    ]
    pts = shapes[corner]
    shift = draw(st.integers(0, len(pts) - 1))  # any starting vertex
    return Polygon([field.vec(v) for v in pts[shift:] + pts[:shift]])


@st.composite
def points(draw, field):
    pool = coordinate_pool(field)
    idx = st.integers(0, len(pool) - 1)
    x, y = pool[draw(idx)], pool[draw(idx)]
    if draw(st.booleans()):  # a midpoint, off the grid
        half = field.rational(Fraction(1, 2))
        x = (x + pool[draw(idx)]) * half
        y = (y + pool[draw(idx)]) * half
    return field.vec([x, y])


FIELDS = pytest.mark.parametrize("field", [RATIONAL, GOLDEN], ids=["Q", "Q(golden)"])


def overlap(p, q):
    return interiors_overlap(
        p.vertices[0].field, *_common(embed_rows(p.vertices), embed_rows(q.vertices))[1]
    )


def contains(outer, inner):
    return polygon_contains(
        outer.vertices[0].field, *_common(embed_rows(outer.vertices), embed_rows(inner.vertices))[1]
    )


@FIELDS
def test_overlap_and_containment_match_reference(field):
    @settings(max_examples=80, deadline=None)
    @given(polygons(field), polygons(field))
    def check(p, q):
        assert overlap(p, q) == ref_overlap(p.vertices, q.vertices)
        assert contains(p, q) == ref_contains(p.vertices, q.vertices)
        assert contains(q, p) == ref_contains(q.vertices, p.vertices)
        # translated copies share edges, vertices and collinear pieces
        shifted = q.translated(p.vertices[1] - q.vertices[0])
        assert overlap(p, shifted) == ref_overlap(p.vertices, shifted.vertices)
        assert contains(p, shifted) == ref_contains(p.vertices, shifted.vertices)

    check()


@FIELDS
def test_point_and_segment_predicates_match_reference(field):
    @settings(max_examples=120, deadline=None)
    @given(polygons(field), points(field), points(field), points(field), points(field))
    def check(poly, p, a, b, c):
        r = _ring(field)
        den, (vs, (kp, ka, kb, kc)) = _common(embed_rows(poly.vertices), embed_rows([p, a, b, c]))
        assert field.elem(area2(field, vs)) / (den * den) == ref_area2(poly.vertices)
        assert _locate(r, kp, vs) == ref_locate(p, poly.vertices)
        assert _on_segment(r, kp, ka, kb) == ref_on_segment(p, a, b)
        assert _properly_cross(r, kp, ka, kb, kc) == ref_properly_cross(p, a, b, c)
        assert _touch(r, kp, ka, kb, kc) == ref_touch(p, a, b, c)

    check()


@FIELDS
def test_polygon_simplicity_matches_reference(field):
    @settings(max_examples=120, deadline=None)
    @given(st.lists(points(field), min_size=3, max_size=6))
    def check(vs):
        expected = ref_polygon_error(vs)
        if expected is None:
            Polygon(vs)
        else:
            with pytest.raises(TilingError, match=re.escape(expected)):
                Polygon(vs)

    check()


def test_mixed_denominators_and_collinear_pieces():
    # vertices over denominators 3 and 4 with a collinear partial overlap
    # of the bottom edges and a shared vertex of an irrational polygon
    for field in (RATIONAL, GOLDEN):
        third, quarter = Fraction(1, 3), Fraction(1, 4)
        p = Polygon([field.vec(v) for v in ((0, 0), (2 * third, 0), (2 * third, 1), (0, 1))])
        q = Polygon([field.vec(v) for v in ((quarter, 0), (2, 0), (2, quarter), (quarter, quarter))])
        for a, b in ((p, q), (q, p)):
            assert overlap(a, b) == ref_overlap(a.vertices, b.vertices) is True
            assert contains(a, b) == ref_contains(a.vertices, b.vertices) is False
    t = GOLDEN.gen()
    tri = Polygon([GOLDEN.vec([0, 0]), GOLDEN.vec([t, 0]), GOLDEN.vec([0, t])])
    sq = Polygon([GOLDEN.vec(v) for v in ((t, 0), (t + 1, 0), (t + 1, 1), (t, 1))])
    assert overlap(tri, sq) == ref_overlap(tri.vertices, sq.vertices) is False


# overlapping pairs in which no vertex and no edge midpoint of either
# polygon lies strictly inside the other: only splitting an edge at the
# other polygon's vertices finds the shared interior
SPLIT_ONLY = [
    ([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (0, 2)]),
    ([(0, 2), (3, 2), (3, 3), (0, 3)], [(0, 2), (2, 2), (2, 0), (3, 0), (3, 3), (0, 3)]),
    (
        [(1, 0), (2, 0), (2, 2), (3, 2), (3, 3), (1, 3)],
        [(0, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)],
    ),
]


@FIELDS
def test_overlap_found_only_by_splitting_edges(field):
    # an increasing map of the grid keeps these axis-parallel shapes' combinatorics
    pool = coordinate_pool(field)
    for p, q in SPLIT_ONLY:
        p, q = (Polygon([field.vec([pool[x], pool[y]]) for x, y in vs]) for vs in (p, q))
        assert ref_overlap(p.vertices, q.vertices)
        assert overlap(p, q) and overlap(q, p)


@st.composite
def convex_polygons(draw, field):
    """Convex polygons with three to five vertices, some of them
    collinear: a rectangle with an extra vertex on its bottom edge, or
    with one corner cut off, or a triangle."""
    pool = coordinate_pool(field)
    idx = st.integers(0, len(pool) - 1)
    xs = sorted(draw(st.lists(idx, min_size=3, max_size=3, unique=True)))
    ys = sorted(draw(st.lists(idx, min_size=3, max_size=3, unique=True)))
    (x0, x1, x2), (y0, y1, y2) = [pool[i] for i in xs], [pool[i] for i in ys]
    pts = draw(st.sampled_from([
        [(x0, y0), (x1, y0), (x2, y0), (x2, y2), (x0, y2)],
        [(x0, y0), (x2, y0), (x2, y1), (x1, y2), (x0, y2)],
        [(x0, y0), (x2, y0), (x1, y2)],
    ]))
    shift = draw(st.integers(0, len(pts) - 1))
    return Polygon([field.vec(v) for v in pts[shift:] + pts[:shift]])


def box(vertices):
    """(x_lo, x_hi, y_lo, y_hi) of field-element vertices."""
    xs, ys = [v[0] for v in vertices], [v[1] for v in vertices]
    return min(xs), max(xs), min(ys), max(ys)


@FIELDS
def test_box_and_convex_shortcuts_match_reference(field):
    """Pairs whose bounding boxes touch along an edge or a corner, share
    a box edge, or overlap a little, with convex and non-convex outers:
    the shortcuts must not change an answer."""
    pool = coordinate_pool(field)
    steps = [pool[i + 1] - pool[i] for i in range(len(pool) - 1)]
    zero = field.rational(0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(convex_polygons(field), polygons(field)),
        st.one_of(convex_polygons(field), polygons(field)),
        st.sampled_from(["x", "y", "corner", "edge"]),
        st.sampled_from([zero, *steps]),
    )
    def check(p, q, touch, slack):
        px0, px1, py0, py1 = box(p.vertices)
        qx0, qx1, qy0, qy1 = box(q.vertices)
        # q moved so its box meets p's on the right, above or at the
        # corner, then pulled back by `slack` into p's box
        dx = {"x": px1 - qx0, "y": px0 - qx0, "corner": px1 - qx0, "edge": px0 - qx0}[touch]
        dy = {"x": py0 - qy0, "y": py1 - qy0, "corner": py1 - qy0, "edge": py0 - qy0}[touch]
        if touch != "edge":
            dx, dy = (dx - slack, dy) if touch == "x" else (dx, dy - slack)
        moved = q.translated(field.vec([dx, dy]))
        for a, b in ((p, moved), (moved, p)):
            assert overlap(a, b) == ref_overlap(a.vertices, b.vertices)
            assert contains(a, b) == ref_contains(a.vertices, b.vertices)

    check()


def test_box_rejection_skips_the_location_tests(monkeypatch):
    """Squares whose boxes share only an edge are told apart before any
    point is located; a convex outer is decided by its edges alone."""
    import tilingspectra.geometry as geometry

    located = []
    monkeypatch.setattr(geometry, "_locate", lambda *args: located.append(args))
    for field in (RATIONAL, GOLDEN):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        p = Polygon([field.vec(v) for v in sq])
        q = Polygon([field.vec((x + 1, y)) for x, y in sq])
        big = Polygon([field.vec((2 * x, 2 * y)) for x, y in sq])
        assert not overlap(p, q) and not overlap(q, p)
        assert contains(big, p) and contains(big, q) and not contains(p, big)
    assert located == []
