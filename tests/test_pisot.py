from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilingspectra import IntPoly, TilingError, is_pisot, make_algebraic
from tilingspectra.pisot import _conjugate_moduli, circle_root_count, inside_unit_disc_count

from test_polys import cauchy_index, is_squarefree


def inside_unit_disc_count_winding(p: IntPoly) -> int:
    """Independent inside-count via the argument principle.

    Parameterize the circle rationally, z(t) = ((1-t^2) + 2it)/(1+t^2);
    then (1+t^2)^n p(z(t)) = A(t) + iB(t) with integer A, B, and the
    winding number of p over the circle equals -I(B/A)/2 with I the
    Cauchy index over the real line.  Requires no roots on the circle
    (in particular p(-1) != 0, where the parameterization closes up).
    """
    n = p.degree
    if n == 0:
        return 0

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def padd(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, x in enumerate(b):
            out[i] += x
        return out

    re_z, im_z = [1, 0, -1], [0, 2]  # numerator of z(t): (1 - t^2) + i 2t
    one_plus = [1, 0, 1]
    pw = [[1]]
    for _ in range(n):
        pw.append(pmul(pw[-1], one_plus))
    acc_re, acc_im = [0], [0]
    zp_re, zp_im = [1], [0]
    for k, a in enumerate(p.coeffs):
        if a:
            acc_re = padd(acc_re, [a * c for c in pmul(zp_re, pw[n - k])])
            acc_im = padd(acc_im, [a * c for c in pmul(zp_im, pw[n - k])])
        zp_re, zp_im = (
            padd(pmul(zp_re, re_z), [-c for c in pmul(zp_im, im_z)]),
            padd(pmul(zp_re, im_z), pmul(zp_im, re_z)),
        )
    idx = cauchy_index(acc_re, acc_im)
    if idx % 2 != 0:
        raise TilingError("odd Cauchy index: root on the unit circle?")
    return -idx // 2


def float_root_census(coeffs, tol=1e-9):
    """Floating oracle: (inside, on, outside) counts via numpy roots."""
    roots = np.roots([float(c) for c in reversed(coeffs)])
    inside = sum(1 for r in roots if abs(r) < 1 - tol)
    on = sum(1 for r in roots if abs(abs(r) - 1) <= tol)
    outside = sum(1 for r in roots if abs(r) > 1 + tol)
    return inside, on, outside


@pytest.mark.parametrize(
    "coeffs,approx,expected",
    [
        ([-2, 1], 2, True),  # integers >= 2 are Pisot
        ([-1, -1, 1], Fraction(8, 5), True),  # golden ratio
        ([-5, -2, 1], Fraction(345, 100), False),  # conjugate 1 - sqrt(6)
        ([-1, -1, 0, 1], Fraction(133, 100), True),  # smallest Pisot (plastic number)
        ([-2, -1, 0, 1], Fraction(152, 100), False),  # x^3 - x - 2: complex pair outside
    ],
)
def test_pisot_verdicts_match_float_oracle(coeffs, approx, expected):
    theta = make_algebraic(IntPoly(coeffs), approx)
    cert = is_pisot(theta)
    inside, on, outside = float_root_census(coeffs)
    assert (cert.inside, cert.on_circle, cert.outside) == (inside, on, outside)
    assert cert.pisot == expected
    assert cert.inside + cert.on_circle + cert.outside == cert.degree


def test_certificate_counts_golden():
    theta = make_algebraic(IntPoly([-1, -1, 1]), Fraction(8, 5))
    cert = is_pisot(theta)
    assert (cert.inside, cert.on_circle, cert.outside) == (1, 0, 1)
    assert cert.conjugate_moduli and abs(cert.conjugate_moduli[0] - 0.618034) < 1e-5


def test_non_pisot_counts():
    theta = make_algebraic(IntPoly([-5, -2, 1]), Fraction(345, 100))
    cert = is_pisot(theta)
    assert (cert.inside, cert.on_circle, cert.outside) == (0, 0, 2)
    assert not cert.pisot


def test_salem_like_circle_roots():
    # Lehmer's polynomial: degree 10, Salem number; 8 roots on the circle.
    lehmer = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert circle_root_count(lehmer) == 8
    theta = make_algebraic(lehmer, Fraction(117628, 100000))
    cert = is_pisot(theta)
    assert not cert.pisot
    assert (cert.inside, cert.on_circle, cert.outside) == (1, 0 + 8, 1)


def test_cyclotomic_circle_count():
    # x^2 + x + 1: both roots on the circle
    assert circle_root_count(IntPoly([1, 1, 1])) == 2
    # x^2 - 2: none
    assert circle_root_count(IntPoly([-2, 0, 1])) == 0
    # (x-1) factor counts once
    assert circle_root_count(IntPoly([-1, 1])) == 1


def test_schur_cohn_agrees_with_winding_on_random_polys():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        deg = int(rng.integers(1, 6))
        coeffs = [int(c) for c in rng.integers(-6, 7, size=deg + 1)]
        if coeffs[-1] == 0 or coeffs[0] == 0:
            continue
        p = IntPoly(coeffs)
        roots = np.roots([float(c) for c in reversed(coeffs)])
        if any(abs(abs(r) - 1) < 1e-6 for r in roots):
            continue  # too close to the circle for the float filter
        expected = sum(1 for r in roots if abs(r) < 1)
        assert inside_unit_disc_count(p) == expected
        assert inside_unit_disc_count_winding(p) == expected
        checked += 1


@settings(max_examples=100, deadline=None)
@given(
    cyclotomic=st.sets(st.integers(1, 10), max_size=3),
    factor=st.lists(st.integers(-5, 5), min_size=2, max_size=5).filter(
        lambda c: c[0] != 0 and c[-1] != 0
    ),
)
def test_circle_root_count_matches_nroots(cyclotomic, factor):
    """Square-free products of cyclotomic factors (x - 1 and x + 1 among
    them) and a random integer factor, against sympy's numerical roots."""
    x = sympy.Symbol("x")
    expr = sympy.Poly(list(reversed(factor)), x).as_expr()
    for n in cyclotomic:
        expr *= sympy.cyclotomic_poly(n, x)
    poly = sympy.Poly(sympy.expand(expr), x)
    p = IntPoly([int(c) for c in reversed(poly.all_coeffs())])
    assume(is_squarefree(p))
    gaps = [abs(abs(complex(r)) - 1) for r in poly.nroots(n=20, maxsteps=200)]
    assume(not any(1e-12 <= g < 1e-6 for g in gaps))  # too close to call numerically
    assert circle_root_count(p) == sum(g < 1e-12 for g in gaps)


def ref_conjugate_moduli(theta):
    """The moduli of every np.roots value but the one nearest float(theta)."""
    roots = np.roots([float(c) for c in reversed(theta.minpoly.coeffs)])
    target = float(theta)
    idx = min(range(len(roots)), key=lambda i: abs(roots[i] - target))
    return tuple(sorted(float(abs(r)) for i, r in enumerate(roots) if i != idx))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d)),
    st.integers(0, 5),
)
def test_conjugate_moduli_pick_nearest_root(low, which):
    """On a fresh theta, whose isolating interval is wide, the display
    picks the same root as the nearest one to float(theta)."""
    coeffs = [*low, 1]
    real = sorted(r.real for r in np.roots(list(reversed(coeffs))) if abs(r.imag) < 1e-9)
    assume(real)
    approx = Fraction(real[which % len(real)]).limit_denominator(10**6)
    try:
        make_algebraic(IntPoly(coeffs), approx)
    except TilingError:
        assume(False)  # reducible, uncertified or ambiguous
    fresh, reference = (make_algebraic(IntPoly(coeffs), approx) for _ in range(2))
    assert _conjugate_moduli(fresh) == ref_conjugate_moduli(reference)


@pytest.mark.parametrize("coeffs, approx", [([-1, -1, 1], "1.6"), ([-1, -1, -1, 1], "1.8")])
def test_pisot_display_does_not_refine_theta_far(coeffs, approx):
    # the conjugates are far from theta: the fresh interval picks its root
    theta = make_algebraic(IntPoly(coeffs), Fraction(approx))
    assert is_pisot(theta).pisot
    assert theta.width() > Fraction(1, 10**6)


def test_verdict_computes_no_conjugate_moduli(monkeypatch):
    """The verdict reads no float roots; the moduli are computed once,
    on first read, with the same values a fresh theta gives."""
    from tilingspectra import pisot

    calls = []
    real = pisot._conjugate_moduli

    def spy(theta):
        calls.append(theta)
        return real(theta)

    monkeypatch.setattr(pisot, "_conjugate_moduli", spy)
    theta = make_algebraic(IntPoly([-1, -1, -1, 1]), Fraction(18, 10))
    cert = is_pisot(theta)
    assert cert.pisot and calls == []
    moduli = cert.conjugate_moduli
    assert cert.conjugate_moduli is moduli and calls == [theta]
    assert moduli == real(make_algebraic(IntPoly([-1, -1, -1, 1]), Fraction(18, 10)))
    assert "conjugate_moduli" in cert.as_dict() and len(calls) == 1
