from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilingspectra import (
    AlgebraicReal,
    FieldMismatchError,
    IntPoly,
    NumberField,
    TilingError,
    golden_field,
    make_algebraic,
    parse_rational,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


@pytest.fixture(scope="module")
def K():
    return golden_field()


def elems(field):
    return st.tuples(rationals, rationals).map(lambda t: field.elem(t))


def test_theta_squared_reduces(K):
    t = K.gen()
    assert (t * t).coeffs == (Fraction(1), Fraction(1))  # theta^2 = 1 + theta


def test_inverse_identity(K):
    x = K.elem((2, 3))  # 2 + 3*theta
    assert (x * x.inverse()) == K.one()
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()


def test_theta_inverse_is_theta_minus_one(K):
    t = K.gen()
    assert t.inverse() == t - 1


def test_compare_to_rational(K):
    t = K.gen()
    assert (t - 1) > Fraction(1, 2)  # theta - 1 ~ 0.618
    assert (t - 1) < Fraction(2, 3)
    assert K.rational(Fraction(1, 2)) == Fraction(1, 2)


def test_field_mismatch_raises(K):
    K2 = NumberField(make_algebraic(IntPoly([-2, 1]), 2))
    with pytest.raises(FieldMismatchError):
        K.one() + K2.one()


def test_same_polynomial_different_root_is_mismatch():
    # x^2 - 3x + 1 has roots (3 +- sqrt5)/2 ~ 2.618, 0.382 - wait, reducible? no: irrational
    p = IntPoly([1, -3, 1])
    big = NumberField(make_algebraic(p, Fraction(26, 10)))
    small = NumberField(make_algebraic(p, Fraction(4, 10)))
    assert not big.same_field(small)
    assert big.same_field(NumberField(make_algebraic(p, Fraction(27, 10))))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(data):
    K = golden_field()
    x = data.draw(elems(K))
    y = data.draw(elems(K))
    z = data.draw(elems(K))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == K.one()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_total_order_consistent_with_floats(data):
    K = golden_field()
    x = data.draw(elems(K))
    y = data.draw(elems(K))
    cmp = x.cmp(y)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-12:
        assert cmp == (1 if fx > fy else -1)
    else:
        assert (cmp == 0) == (x.coeffs == y.coeffs)


def test_high_precision_order_oracle():
    # order agrees with 60-digit evaluation via mpmath
    import mpmath

    mpmath.mp.dps = 60
    root = mpmath.findroot(lambda v: v**2 - v - 1, mpmath.mpf("1.6"))
    K = golden_field()
    samples = [K.elem((a, b)) for a in (-2, 0, 1, 3) for b in (-1, 0, 2)]
    vals = [mpmath.mpf(s.coeffs[0].numerator) / s.coeffs[0].denominator
            + mpmath.mpf(s.coeffs[1].numerator) / s.coeffs[1].denominator * root
            for s in samples]
    for i in range(len(samples)):
        for j in range(len(samples)):
            assert samples[i].cmp(samples[j]) == (
                0 if vals[i] == vals[j] else (1 if vals[i] > vals[j] else -1)
            )


def test_serialization_roundtrip(K):
    x = K.elem((Fraction(3, 4), Fraction(-2, 5)))
    assert x.serialize() == ["3/4", "-2/5"]
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    with pytest.raises(Exception):
        parse_rational("2/4")
    with pytest.raises(Exception):
        parse_rational("1/-2")


def test_vec_ops(K):
    v = K.vec((1, K.gen()))
    w = K.vec((K.gen(), 0))
    assert (v + w).entries[0] == K.one() + K.gen()
    assert v.dot(w) == K.gen()
    assert v.key() != w.key()


# one field per degree 1-4, plus two with larger minimal-polynomial coefficients
FIELD_CASES = {
    1: ((-3, 1), 3),
    2: ((-1, -1, 1), Fraction(8, 5)),
    3: ((-1, -1, -1, 1), Fraction(184, 100)),  # tribonacci
    4: ((-1, -1, -1, -1, 1), Fraction(193, 100)),  # tetranacci
    "x^3 - 7x^2 + 3x - 2": ((-2, 3, -7, 1), Fraction(656, 100)),
    "x^5 - x - 1": ((-1, -1, 0, 0, 0, 1), Fraction(117, 100)),
}


@cache
def field_case(key):
    coeffs, approx = FIELD_CASES[key]
    return NumberField(make_algebraic(IntPoly(coeffs), approx))


@pytest.mark.parametrize("key", list(FIELD_CASES))
def test_reduction_rows_match_sympy_rem(key):
    """Row k - s of _red holds the coordinates of x^k mod minpoly, k = s .. 2s-2."""
    K = field_case(key)
    s = K.degree
    x = sympy.Symbol("x")
    p = sympy.Poly(list(reversed(K.minpoly.coeffs)), x)
    expected = []
    for k in range(s, 2 * s - 1):
        r = [int(c) for c in reversed(sympy.rem(sympy.Poly(x**k, x), p).all_coeffs())]
        expected.append(r + [0] * (s - len(r)))
    assert K._red == expected


def _rp_strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rp_divmod(p, q):
    rem, quot = _rp_strip(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        k, f = len(rem) - len(q), rem[-1] / q[-1]
        quot[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = _rp_strip(rem)
    return _rp_strip(quot), rem


def _rp_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def euclid_inverse(coeffs, minpoly):
    """Reference inverse of sum c_k theta^k: extended Euclid over Q[x] on
    Fraction lists, then reduction modulo the minimal polynomial."""
    r0, r1 = [Fraction(c) for c in minpoly], _rp_strip(coeffs)
    t0, t1 = [], [Fraction(1)]
    while True:
        q, r = _rp_divmod(r0, r1)
        if not r:
            break
        qt = _rp_mul(q, t1)
        n = max(len(t0), len(qt))
        t0, t1 = t1, [a - b for a, b in zip(t0 + [0] * (n - len(t0)), qt + [0] * (n - len(qt)))]
        r0, r1 = r1, r
    if len(r1) != 1:
        raise ZeroDivisionError("zero divisor")
    inv = _rp_divmod([c / r1[0] for c in t1], [Fraction(c) for c in minpoly])[1]
    return tuple(inv + [Fraction(0)] * (len(minpoly) - 1 - len(inv)))


@settings(max_examples=150, deadline=None)
@given(key=st.integers(1, 4), data=st.data())
def test_inverse_matches_euclid(key, data):
    K = field_case(key)
    coeffs = data.draw(st.lists(rationals, min_size=K.degree, max_size=K.degree))
    x = K.elem(coeffs)
    assume(not x.is_zero())
    inv = x.inverse()
    assert inv.coeffs == euclid_inverse(x.coeffs, K.minpoly.coeffs)
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert x * inv == K.one()


def test_inverse_of_zero_divisor_raises():
    """On a root of a reducible polynomial, built without the
    irreducibility checks of make_algebraic, a factor has no inverse."""
    p = IntPoly([2, 2, -3, -1, 1])  # (x^2 - x - 1)(x^2 - 2), root near 1.618
    K = NumberField(AlgebraicReal(p, Fraction(3, 2), Fraction(17, 10)))
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        K.elem((-1, -1, 1, 0)).inverse()
    with pytest.raises(ZeroDivisionError):
        euclid_inverse((-1, -1, 1), p.coeffs)
    x = K.elem((1, 1, 0, 0))
    assert x.inverse().coeffs == euclid_inverse(x.coeffs, p.coeffs)


def parse_rational_reference(text):
    """Reference parse_rational: the lowest-terms test on a second Fraction
    built from the parts of 'p/q'."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise TilingError(f"rational must be a string, got {type(text).__name__}")
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TilingError(f"bad rational {text!r}: {exc}") from None
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) <= 0 or Fraction(int(num), int(den)) != f or abs(
            Fraction(int(num), int(den)).numerator
        ) != abs(int(num)):
            raise TilingError(f"rational {text!r} is not in lowest terms p/q with q > 0")
    return f


digit_runs = st.from_regex(r"\A[0-9]{1,4}(_[0-9]{1,3})?\Z")
rational_texts = st.one_of(
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", " ", "\t"]),
            st.sampled_from(["", "-", "+"]),
            digit_runs,
            st.one_of(st.just(""), digit_runs.map("/".__add__), st.just("/0")),
            st.sampled_from(["", " "]),
        ),
    ),
    st.text(alphabet=" \t+-_/.eE0123456789", max_size=10),
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
)


@settings(max_examples=500, deadline=None)
@given(text=rational_texts)
def test_parse_rational_matches_reference(text):
    """The same strings are accepted, with the same value, and the same
    ones rejected, with the same message."""

    def outcome(parse):
        try:
            value = parse(text)
        except TilingError as exc:
            return "error", str(exc)
        return "ok", value, type(value)

    assert outcome(parse_rational) == outcome(parse_rational_reference)
