from fractions import Fraction

import pytest

from tilingspectra import IntPoly, NumberField, TilingError, make_algebraic
from tilingspectra.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Polygon,
    _common,
    _locate,
    _properly_cross,
    _ring,
    area2,
    interiors_overlap,
    polygon_contains,
)
from tilingspectra.intlattice import embed_rows


@pytest.fixture(scope="module")
def K():
    return NumberField(make_algebraic(IntPoly([-2, 1]), 2))


def v(K, x, y):
    return K.vec([x, y])


def square(K, x0, y0, size=1):
    return Polygon(
        [
            v(K, x0, y0),
            v(K, x0 + size, y0),
            v(K, x0 + size, y0 + size),
            v(K, x0, y0 + size),
        ]
    )


def ell(K):
    # 2x2 square minus its NE unit square
    pts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    return Polygon([v(K, x, y) for x, y in pts])


def kernel(*polys):
    """The polygons' vertices as kernel points over one denominator."""
    return _common(*(embed_rows(p.vertices) for p in polys))[1]


def locate(poly, p):
    vs, (p,) = _common(embed_rows(poly.vertices), embed_rows([p]))[1]
    return _locate(_ring(poly.vertices[0].field), p, vs)


def overlap(p, q):
    return interiors_overlap(p.vertices[0].field, *kernel(p, q))


def contains(outer, inner):
    return polygon_contains(outer.vertices[0].field, *kernel(outer, inner))


def test_area_and_orientation(K):
    assert area2(K, embed_rows(square(K, 0, 0).vertices)[0]) == (2,)
    assert area2(K, embed_rows(ell(K).vertices)[0]) == (6,)
    with pytest.raises(TilingError):
        Polygon(list(reversed(square(K, 0, 0).vertices)))  # clockwise


def test_simplicity_rejects_bowtie(K):
    with pytest.raises(TilingError):
        Polygon([v(K, 0, 0), v(K, 2, 2), v(K, 2, 0), v(K, 0, 2)])


def test_point_location(K):
    p = ell(K)
    assert locate(p, v(K, Fraction(1, 2), Fraction(1, 2))) == INSIDE
    assert locate(p, v(K, Fraction(3, 2), Fraction(3, 2))) == OUTSIDE
    assert locate(p, v(K, 1, 1)) == BOUNDARY
    assert locate(p, v(K, 0, 1)) == BOUNDARY
    assert locate(p, v(K, 3, 0)) == OUTSIDE
    # ray through a vertex must not double count
    assert locate(p, v(K, Fraction(1, 2), 1)) == INSIDE


def test_proper_crossing(K):
    def cross(*pts):
        rows, _ = embed_rows([v(K, x, y) for x, y in pts])
        return _properly_cross(_ring(K), *rows)

    assert cross((0, 0), (2, 2), (0, 2), (2, 0))
    assert not cross((0, 0), (1, 1), (1, 1), (2, 0))


def test_overlap_disjoint_and_touching(K):
    a = square(K, 0, 0)
    assert not overlap(a, square(K, 1, 0))  # shared edge only
    assert not overlap(a, square(K, 1, 1))  # shared vertex only
    assert not overlap(a, square(K, 3, 3))
    assert overlap(a, square(K, 0, 0))  # identical
    assert overlap(a, ell(K))  # containment
    assert overlap(ell(K), a)


def test_overlap_partial_with_tangential_boundaries(K):
    # [0,2]x[0,1] vs [1,3]x[0,1]: no proper crossings, no strictly
    # interior vertices, but the interiors share (1,2)x(0,1)
    r1 = Polygon([v(K, 0, 0), v(K, 2, 0), v(K, 2, 1), v(K, 0, 1)])
    r2 = Polygon([v(K, 1, 0), v(K, 3, 0), v(K, 3, 1), v(K, 1, 1)])
    assert overlap(r1, r2)


def test_containment(K):
    big = square(K, 0, 0, 4)
    assert contains(big, square(K, 1, 1))
    assert contains(big, square(K, 0, 0, 4))  # equality
    assert contains(big, square(K, 0, 0))  # shares corner
    assert not contains(big, square(K, 3, 3, 2))  # sticks out
    assert not contains(square(K, 1, 1), big)
    # L contains its corner square but not the notch square
    assert contains(ell(K), square(K, 0, 0))
    assert not contains(ell(K), square(K, 1, 1))


def test_exact_coordinates_in_golden_field():
    from tilingspectra import golden_field

    K = golden_field()
    t = K.gen()
    tri = Polygon([K.vec([0, 0]), K.vec([t, 0]), K.vec([0, t])])
    vs, den = embed_rows(tri.vertices)
    assert K.elem(area2(K, vs)) / (den * den) == t * t
    assert locate(tri, K.vec([Fraction(1, 4), Fraction(1, 4)])) == INSIDE
