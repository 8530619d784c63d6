from fractions import Fraction

import pytest

from tilingspectra import IntPoly, NumberField, TilingError, make_algebraic
from tilingspectra.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Polygon,
    interiors_overlap,
    polygon_area2,
    polygon_contains,
    segments_properly_cross,
)


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


def test_area_and_orientation(K):
    assert polygon_area2(square(K, 0, 0).vertices) == K.rational(2)
    assert ell(K).area2() == K.rational(6)
    with pytest.raises(TilingError):
        Polygon(list(reversed(square(K, 0, 0).vertices)))  # clockwise


def test_simplicity_rejects_bowtie(K):
    with pytest.raises(TilingError):
        Polygon([v(K, 0, 0), v(K, 2, 2), v(K, 2, 0), v(K, 0, 2)])


def test_point_location(K):
    p = ell(K)
    assert p.locate(v(K, Fraction(1, 2), Fraction(1, 2))) == INSIDE
    assert p.locate(v(K, Fraction(3, 2), Fraction(3, 2))) == OUTSIDE
    assert p.locate(v(K, 1, 1)) == BOUNDARY
    assert p.locate(v(K, 0, 1)) == BOUNDARY
    assert p.locate(v(K, 3, 0)) == OUTSIDE
    # ray through a vertex must not double count
    assert p.locate(v(K, Fraction(1, 2), 1)) == INSIDE


def test_interior_point_is_inside(K):
    for poly in (square(K, 0, 0), ell(K), square(K, -3, -3, 2)):
        assert poly.locate(poly.interior_point()) == INSIDE


def test_proper_crossing(K):
    assert segments_properly_cross(v(K, 0, 0), v(K, 2, 2), v(K, 0, 2), v(K, 2, 0))
    assert not segments_properly_cross(v(K, 0, 0), v(K, 1, 1), v(K, 1, 1), v(K, 2, 0))


def test_overlap_disjoint_and_touching(K):
    a = square(K, 0, 0)
    assert not interiors_overlap(a, square(K, 1, 0))  # shared edge only
    assert not interiors_overlap(a, square(K, 1, 1))  # shared vertex only
    assert not interiors_overlap(a, square(K, 3, 3))
    assert interiors_overlap(a, square(K, 0, 0))  # identical
    assert interiors_overlap(a, ell(K))  # containment
    assert interiors_overlap(ell(K), a)


def test_overlap_partial_with_tangential_boundaries(K):
    # [0,2]x[0,1] vs [1,3]x[0,1]: no proper crossings, no strictly
    # interior vertices, but the interiors share (1,2)x(0,1)
    r1 = Polygon([v(K, 0, 0), v(K, 2, 0), v(K, 2, 1), v(K, 0, 1)])
    r2 = Polygon([v(K, 1, 0), v(K, 3, 0), v(K, 3, 1), v(K, 1, 1)])
    assert interiors_overlap(r1, r2)


def test_containment(K):
    big = square(K, 0, 0, 4)
    assert polygon_contains(big, square(K, 1, 1))
    assert polygon_contains(big, square(K, 0, 0, 4))  # equality
    assert polygon_contains(big, square(K, 0, 0))  # shares corner
    assert not polygon_contains(big, square(K, 3, 3, 2))  # sticks out
    assert not polygon_contains(square(K, 1, 1), big)
    # L contains its corner square but not the notch square
    assert polygon_contains(ell(K), square(K, 0, 0))
    assert not polygon_contains(ell(K), square(K, 1, 1))


def test_exact_coordinates_in_golden_field():
    from tilingspectra import golden_field

    K = golden_field()
    t = K.gen()
    tri = Polygon([K.vec([0, 0]), K.vec([t, 0]), K.vec([0, t])])
    assert tri.area2() == t * t
    assert tri.locate(K.vec([Fraction(1, 4), Fraction(1, 4)])) == INSIDE
