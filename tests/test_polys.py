import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import TilingError, make_algebraic

from tilingspectra.polys import (
    IntPoly,
    chain_count,
    derivative,
    exact_quotient,
    primitive_gcd,
    rational_roots,
    reciprocal,
    sturm_chain,
    sturm_count,
)


def is_squarefree(p: IntPoly) -> bool:
    """The last element of the Sturm chain (p, p') is gcd(p, p') up to a
    constant, and p is square-free iff that element is a constant."""
    return len(sturm_chain(p.coeffs, derivative(p.coeffs))[-1]) == 1


def cauchy_index(den, num):
    """Cauchy index of num/den over the whole real line.

    Counts jumps of num/den from -inf to +inf minus jumps the other way,
    via sign variations of the signed remainder sequence.
    """
    if not any(den) or not any(num):
        return 0
    return chain_count(sturm_chain(den, num), "-inf", "inf")


def test_intpoly_strips_and_checks():
    p = IntPoly([-1, -1, 1, 0, 0])
    assert p.degree == 2
    assert p.is_monic()
    assert p(2) == 1
    assert p(Fraction(1, 2)) == Fraction(-5, 4)


def int_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_exact_quotient_reconstructs():
    b = (1, 2, 1)
    q = exact_quotient(int_mul((3, 0, -2, 1, 4), b), b)
    assert q == (3, 0, -2, 1, 4)
    # 4x^4 + x^3 - 2x^2 + 3 leaves the remainder -9x - 5 on division by (x + 1)^2
    with pytest.raises(TilingError, match="remainder"):
        exact_quotient((3, 0, -2, 1, 4), b)


def test_gcd_of_coprime_is_one():
    assert primitive_gcd((-1, -1, 1), (-2, 1)) == (1,)


def test_gcd_detects_common_factor():
    # (x-1)(x+2) and (x-1)(x-3) share x-1
    assert primitive_gcd((-2, 1, 1), (3, -4, 1)) == (-1, 1)


int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda c: c[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(common=int_polys, a=int_polys, b=int_polys, sign=st.sampled_from((1, -1)))
def test_integer_gcd_and_quotient_match_sympy(common, a, b, sign):
    """primitive_gcd is sympy's gcd made primitive with a positive leading
    coefficient, and exact_quotient the primitive form of sympy's exact
    quotient; a nonzero remainder raises."""
    x = sympy.Symbol("x")

    def poly(c):
        return sympy.Poly(list(reversed(c)), x)

    def ints(p):
        c = [int(v) for v in reversed(p.all_coeffs())]
        return tuple(-v for v in c) if c[-1] < 0 else tuple(c)

    p = int_mul(common, a)
    q = tuple(sign * c for c in int_mul(common, b))
    g = primitive_gcd(p, q)
    assert g == ints(sympy.gcd(poly(p), poly(q)).primitive()[1])
    quot, rem = sympy.div(poly(p), poly(g), domain="QQ")
    assert rem.is_zero
    expected = ints(quot.clear_denoms()[1].primitive()[1])
    # exact_quotient keeps the sign of a / b; sympy's primitive part is made positive above
    got = exact_quotient(p, g)
    assert (tuple(-v for v in got) if got[-1] < 0 else got) == expected
    quot, rem = sympy.div(poly(p), poly(b), domain="QQ")
    if len(b) > 1 and not rem.is_zero:
        with pytest.raises(TilingError):
            exact_quotient(p, b)


@pytest.mark.parametrize(
    "coeffs,lo,hi,expected",
    [
        ((-1, -1, 1), 0, 2, 1),  # golden ratio in (0, 2]
        ((-1, -1, 1), -1, 0, 1),  # conjugate in (-1, 0]
        ((-1, -1, 1), "-inf", "inf", 2),
        ((-2, 0, 1), 1, 2, 1),  # sqrt(2)
        ((1, 0, 1), "-inf", "inf", 0),  # x^2 + 1 has no real roots
        ((0, -1, 0, 1), "-inf", "inf", 3),  # x^3 - x
    ],
)
def test_sturm_counts(coeffs, lo, hi, expected):
    f = lambda v: v if isinstance(v, str) else Fraction(v)
    assert sturm_count(tuple(map(Fraction, coeffs)), f(lo), f(hi)) == expected


def test_cauchy_index_simple_pole():
    # 1/x jumps -inf -> +inf at 0
    assert cauchy_index((Fraction(0), Fraction(1)), (Fraction(1),)) == 1
    # -1/x jumps the other way
    assert cauchy_index((Fraction(0), Fraction(1)), (Fraction(-1),)) == -1


def test_squarefree():
    assert is_squarefree(IntPoly([-1, -1, 1]))
    assert not is_squarefree(IntPoly([1, 2, 1]))  # (x+1)^2
    assert not is_squarefree(IntPoly([0, 0, 1]))  # x^2


def test_rational_roots():
    # (x-1)(x+1) = x^2 - 1
    assert rational_roots(IntPoly([-1, 0, 1])) == [Fraction(-1), Fraction(1)]
    # 2x - 3
    assert rational_roots(IntPoly([-3, 2])) == [Fraction(3, 2)]
    assert rational_roots(IntPoly([-1, -1, 1])) == []


def test_reciprocal():
    assert reciprocal(IntPoly([-1, -1, 1])).coeffs == (1, -1, -1)


def test_rational_roots_of_large_constant_term_are_fast():
    """Finding the root 10^20 + 1 takes a few dozen Sturm bisections, not
    a divisor search of the constant term."""
    p = IntPoly([-(10**20) - 1, 1])
    start = time.perf_counter()
    theta = make_algebraic(p, 10**20 + 1)
    assert time.perf_counter() - start < 0.1
    assert theta.interval[0] < 10**20 + 1 < theta.interval[1]
    assert rational_roots(IntPoly([-(10**20), 1])) == [Fraction(10**20)]
    roots = rational_roots(IntPoly([10**20, -3 * 10**20 - 1, 3]))
    assert roots == [Fraction(1, 3), Fraction(10**20)]


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=4),
    cofactor=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    scale=st.integers(1, 6),
)
def test_rational_roots_match_sympy(roots, cofactor, scale):
    """Products of linear factors (repeats allowed) and a random integer
    polynomial, against sympy's factorization over Q."""
    x = sympy.Symbol("x")
    expr = scale * sympy.Poly(list(reversed(cofactor)) or [1], x).as_expr()
    for r in roots:
        expr *= r.denominator * x - r.numerator
    poly = sympy.Poly(sympy.expand(expr), x)
    if poly.is_zero or poly.degree() == 0:
        return
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    linear = [f.all_coeffs() for f, _ in poly.factor_list()[1] if f.degree() == 1]
    expected = sorted({Fraction(-int(b), int(a)) for a, b in linear})
    assert rational_roots(IntPoly(coeffs)) == expected
