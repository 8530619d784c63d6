"""Exact root location relative to the unit circle, and the Pisot test.

A real algebraic integer theta > 1 is Pisot when every Galois conjugate
lies strictly inside the unit disc.  Everything here is certified by
integer arithmetic:

* roots ON the circle divide gcd(p, p~) where p~ reverses the
  coefficients; that gcd is self-reciprocal, so after stripping roots at
  +-1 the substitution y = x + 1/x halves the degree and Sturm chains
  count the real roots of the transform in (-2, 2), each standing for a
  conjugate pair on the circle;
* roots INSIDE the disc are counted by Schur-Cohn reduction on integer
  coefficients.  The plain reduction is singular whenever |a_0| = |a_n|
  (every algebraic unit, e.g. x^2 - x - 1), so the count runs at rational
  radii (2^k -+ 1)/2^k bracketing 1 and tightens k until both sides
  agree; with no circle roots the moduli stay clear of 1 and the loop
  terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .algebraic import AlgebraicReal
from .errors import PrecisionError, TilingError
from .polys import (
    IntPoly,
    exact_quotient,
    hom_value,
    primitive_gcd,
    reciprocal,
    sturm_count,
)


_ROOT_TOL = 1e-9  # how far np.roots may put theta from its true value
_PICK_WIDTH = Fraction(1, 10**20)  # the width float(theta) refines below


class _Degenerate(Exception):
    """Schur-Cohn hit a vanishing reflection coefficient."""


def _schur_count(coeffs) -> int:
    """Schur-Cohn count of roots strictly inside the unit disc.

    Valid only when the polynomial has no roots on the circle.  A circle
    zero of the input survives every reduction step, so a run that never
    degenerates doubles as a certificate that there were none.
    """
    cur = [int(c) for c in coeffs]
    while cur and cur[-1] == 0:
        cur.pop()
    if not cur:
        raise _Degenerate("zero polynomial")
    n = len(cur) - 1
    if n == 0:
        return 0
    a0, an = cur[0], cur[-1]
    t = [a0 * p - an * q for p, q in zip(cur, reversed(cur))]
    while t and t[-1] == 0:
        t.pop()
    if not t or t[0] == 0:
        raise _Degenerate("vanishing Schur transform")
    g = gcd(*t)
    t = [c // g for c in t]
    if t[0] > 0:
        # |a0| > |an|: the transform keeps the inside count.
        return _schur_count(t)
    # |a0| < |an|: the transform counts the reciprocal's roots instead.
    return n - _schur_count(t)


def _scaled(coeffs, num: int, den: int):
    """Integer coefficients of den^n * p(num*x/den)."""
    n = len(coeffs) - 1
    return [coeffs[k] * num**k * den ** (n - k) for k in range(n + 1)]


def inside_unit_disc_count(p: IntPoly) -> int:
    """Number of roots with |z| < 1, exact; requires no roots with |z| = 1."""
    coeffs = list(p.coeffs)
    if len(coeffs) == 1:
        return 0
    for k in range(3, 300):
        den = 1 << k
        try:
            n_lo = _schur_count(_scaled(coeffs, den - 1, den))
            n_hi = _schur_count(_scaled(coeffs, den + 1, den))
        except _Degenerate:
            continue
        if n_lo == n_hi:
            return n_lo
    raise PrecisionError(
        "Schur-Cohn radii did not converge; is there a root on the unit circle?"
    )


def _strip_pm1_roots(coeffs):
    """Divide out any factors (x - 1), (x + 1); return (reduced, count)."""
    count = 0
    cur = coeffs
    for r in (1, -1):
        while hom_value(cur, r, 1) == 0:
            cur = exact_quotient(cur, (-r, 1))
            count += 1
    return cur, count


def _chebyshev_transform(coeffs):
    """For palindromic g of even degree 2k, the h with g(x) = x^k h(x + 1/x).

    Uses x^j + x^-j = P_j(x + 1/x) with P_0 = 2, P_1 = y,
    P_{j+1} = y*P_j - P_{j-1}.
    """
    c = coeffs
    deg = len(c) - 1
    if deg % 2 != 0:
        raise TilingError("palindromic polynomial of odd degree slipped through")
    k = deg // 2
    for j in range(deg + 1):
        if c[j] != c[deg - j]:
            raise TilingError("transform requires palindromic coefficients")
    h = [c[k]] + [0] * k
    p_prev, p_cur = [2], [0, 1]
    for j in range(1, k + 1):
        for i, v in enumerate(p_cur):
            h[i] += c[k + j] * v
        nxt = [0] + p_cur
        for i, v in enumerate(p_prev):
            nxt[i] -= v
        p_prev, p_cur = p_cur, nxt
    return tuple(h)


def circle_root_count(p: IntPoly) -> int:
    """Exact number of roots with |z| = 1 (p square-free, p(0) != 0)."""
    if p.degree == 0:
        return 0
    if p.coeffs[0] == 0:
        raise TilingError("zero constant term: factor x out first")
    g = primitive_gcd(p.coeffs, reciprocal(p).coeffs)
    if len(g) - 1 <= 0:
        return 0
    reduced, on_pm1 = _strip_pm1_roots(g)
    if len(reduced) - 1 == 0:
        return on_pm1
    h = _chebyshev_transform(reduced)
    # Real roots x of g map to |x + 1/x| >= 2 and complex off-circle pairs
    # map to non-real y, so roots of h in (-2, 2) are exactly the circle
    # conjugate pairs.
    pairs = sturm_count(h, -2, 2)
    return on_pm1 + 2 * pairs


@dataclass(frozen=True)
class PisotCertificate:
    """Exact root-location counts; inside + on + outside = degree."""

    pisot: bool
    degree: int
    inside: int
    on_circle: int
    outside: int
    theta: AlgebraicReal = field(repr=False, compare=False)

    @cached_property
    def conjugate_moduli(self) -> tuple:
        """Floats, approximate view only, computed when first read: only
        the `pisot` output and the convergence reference rate show them."""
        return _conjugate_moduli(self.theta)

    def as_dict(self):
        return {
            "pisot": self.pisot,
            "degree": self.degree,
            "counts": {
                "inside": self.inside,
                "on": self.on_circle,
                "outside": self.outside,
            },
            "conjugate_moduli": [format(m, ".15g") for m in self.conjugate_moduli],
        }


def is_pisot(theta: AlgebraicReal) -> PisotCertificate:
    """Decide Pisot-ness of theta > 1 with an exact root-count certificate."""
    if theta.cmp_rational(1) <= 0:
        raise TilingError("Pisot test requires theta > 1")
    p = theta.minpoly
    s = p.degree
    on = circle_root_count(p)
    if on == 0:
        inside = inside_unit_disc_count(p)
    else:
        # Circle roots all divide g = gcd(p, p~); g's off-circle roots come
        # in z, 1/z pairs, one inside and one outside each.
        g = primitive_gcd(p.coeffs, reciprocal(p).coeffs)
        q = exact_quotient(p.coeffs, g)
        inside = (len(g) - 1 - on) // 2
        if len(q) - 1 > 0:
            inside += inside_unit_disc_count(IntPoly(q))
    outside = s - on - inside
    return PisotCertificate(
        pisot=(on == 0 and inside == s - 1),
        degree=s,
        inside=inside,
        on_circle=on,
        outside=outside,
        theta=theta,
    )


def _conjugate_moduli(theta: AlgebraicReal):
    """Approximate conjugate moduli (display only, never used in verdicts):
    the moduli of every `np.roots` value but theta's own."""
    import numpy as np

    coeffs = list(reversed(theta.minpoly.coeffs))
    if len(coeffs) <= 2:
        return ()
    roots = np.roots([float(c) for c in coeffs])
    idx = _theta_root(theta, roots)
    moduli = sorted(abs(r) for i, r in enumerate(roots) if i != idx)
    return tuple(float(m) for m in moduli)


def _theta_root(theta: AlgebraicReal, roots) -> int:
    """Index of theta's value among the float roots: the one root within
    _ROOT_TOL (relative) of the real line and of theta's isolating
    interval, bisected only while more than one root is that close.
    Every other root lies farther than _ROOT_TOL from theta, so when
    np.roots puts theta within _ROOT_TOL of its true value this is the
    root nearest theta.  With no such root, or several left at an
    interval narrower than _PICK_WIDTH, the root nearest theta's
    midpoint is taken."""
    def close(z, lo, hi) -> bool:
        tol = _ROOT_TOL * max(1.0, abs(z))
        return abs(z.imag) <= tol and lo - tol <= z.real <= hi + tol

    while True:
        a, b, m = theta.scaled_interval
        near = [i for i, z in enumerate(roots) if close(z, a / m, b / m)]
        if len(near) == 1:
            return near[0]
        if not near or theta.width() < _PICK_WIDTH:
            target = float(theta)
            return min(range(len(roots)), key=lambda i: abs(roots[i] - target))
        theta.refine(4)
