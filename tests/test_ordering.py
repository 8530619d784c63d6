from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import IntPoly, NumberField, golden_field, make_algebraic
from tilingspectra.ordering import _FEW, sorted_by_value


def exact_key(vec):
    """Sort key of a QThetaVec under the exact lexicographic order of its
    entries, by QThetaElem comparisons: the reference for value_order."""
    return vec.entries


FIELDS = {
    2: golden_field(),
    3: NumberField(make_algebraic(IntPoly((-1, -1, 0, 1)), Fraction(133, 100))),
}

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def tagged_vectors(draw):
    """(field, [(tag, vector)]) with small coordinates, so ties are common."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    dim = draw(st.integers(1, 2))
    elem = st.lists(rationals, min_size=field.degree, max_size=field.degree).map(field.elem)
    vec = st.lists(elem, min_size=dim, max_size=dim).map(field.vec)
    items = draw(st.lists(st.tuples(st.sampled_from("ab"), vec), max_size=12))
    return field, items


@settings(max_examples=60, deadline=None)
@given(tagged_vectors(), st.booleans())
def test_sorted_by_value_matches_exact_order(case, grouped):
    _, items = case
    if grouped:
        got = sorted_by_value(items, lambda it: it[1], pre_key=lambda it: it[0])
        assert got == sorted(items, key=lambda it: (it[0], exact_key(it[1])))
    else:
        got = sorted_by_value(items, lambda it: it[1])
        assert got == sorted(items, key=lambda it: exact_key(it[1]))


@pytest.mark.parametrize("pre_key", [None, lambda v: 0])
def test_exact_fallback_on_sub_snapshot_gaps(monkeypatch, pre_key):
    """Rationals within 1e-60 of theta on both sides: no interval of theta
    that value_order uses (at most 1e-30 wide) can separate them, so its
    approximate order puts one on the wrong side of theta and the exact
    order has to take over."""
    K = golden_field()
    scale = 10**60
    lo = Fraction(scale + isqrt(5 * scale * scale), 2 * scale)  # (1 + sqrt 5) / 2
    hi = lo + Fraction(1, 2 * scale)
    # below them, enough integers to take the sort past its exact-only size
    far = [K.vec([-k]) for k in range(_FEW, 0, -1)]
    expected = far + [K.vec([lo]), K.vec([K.gen()]), K.vec([hi])]

    exact_comparisons = []
    exact_sign = NumberField.sign

    def spy(field, nums):
        exact_comparisons.append(nums)
        return exact_sign(field, nums)

    monkeypatch.setattr(NumberField, "sign", spy)
    got = sorted_by_value(expected[::-1], lambda v: v, pre_key=pre_key)
    assert got == expected
    assert exact_comparisons


def test_fresh_theta_sorts_at_the_coarse_snapshot():
    """Keys far apart are certified at the first, coarse snapshot of
    theta: a fresh field is not refined to the 1e-30 snapshot."""
    K = NumberField(make_algebraic(IntPoly((-1, -1, 1)), Fraction(8, 5)))
    vecs = [K.vec([K.elem([a, b])]) for a in range(-3, 3) for b in range(-2, 2)]
    expected = sorted(vecs, key=exact_key)
    assert sorted_by_value(vecs[::-1], lambda v: v) == expected
    assert K.theta.width() > Fraction(1, 10**30)
