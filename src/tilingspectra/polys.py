"""Exact univariate polynomial arithmetic over the integers and rationals.

Polynomials are coefficient sequences in ascending degree order.  Integer
polynomials get a thin immutable wrapper (IntPoly); the rational helpers
work on plain tuples of Fraction and are the workhorses for Sturm chains,
gcds and root isolation.  Everything here is exact; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import TilingError

Rat = Fraction


def _strip(coeffs):
    """Drop trailing zero coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, ascending coefficients, nonzero leading term."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in _strip(coeffs))
        if not coeffs:
            raise TilingError("zero polynomial has no leading coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            raise TilingError("derivative of a constant is zero")
        return IntPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def as_fractions(self):
        return tuple(Fraction(c) for c in self.coeffs)

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x" if c not in (1, -1) else ("x" if c == 1 else "-x"))
            else:
                terms.append(f"{c}*x^{k}" if c not in (1, -1) else (f"x^{k}" if c == 1 else f"-x^{k}"))
        return " + ".join(reversed(terms)).replace("+ -", "- ") or "0"


# ---------------------------------------------------------------------------
# rational-coefficient helpers on tuples of Fraction


def rp_normalize(p):
    return tuple(_strip([Fraction(c) for c in p]))


def rp_degree(p):
    return len(p) - 1


def rp_is_zero(p):
    return len(p) == 0


def rp_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rp_neg(p):
    return tuple(-c for c in p)


def rp_mul(p, q):
    if rp_is_zero(p) or rp_is_zero(q):
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(_strip(out))


def rp_divmod(p, q):
    """Euclidean division; q must be nonzero."""
    if rp_is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    while len(_strip(rem)) - 1 >= dq and not rp_is_zero(tuple(_strip(rem))):
        rem = _strip(rem)
        k = len(rem) - 1 - dq
        f = rem[-1] / lead
        quot[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = rem[:-1]  # the leading term cancels exactly
    return tuple(_strip(quot)), tuple(_strip(rem))


def rp_derivative(p):
    return tuple(_strip([k * c for k, c in enumerate(p)][1:]))


def rp_monic(p):
    if rp_is_zero(p):
        return p
    return tuple(c / p[-1] for c in p)


def rp_gcd(p, q):
    """Monic gcd by the Euclidean algorithm."""
    a, b = rp_normalize(p), rp_normalize(q)
    while not rp_is_zero(b):
        _, r = rp_divmod(a, b)
        a, b = b, r
    return rp_monic(a)


def int_content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(int(c)))
    return g


def rp_to_int_primitive(p):
    """Scale a rational polynomial to a primitive integer polynomial
    with positive leading coefficient."""
    p = rp_normalize(p)
    if rp_is_zero(p):
        return ()
    from math import lcm

    den = 1
    for c in p:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = int_content(ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# Sturm machinery


def sturm_chain(p0, p1):
    """Signed remainder sequence starting from (p0, p1).

    With p1 = p0' this is the classical Sturm chain; in general the sign
    variations at the interval ends compute the Cauchy index of p1/p0.
    """
    chain = [rp_normalize(p0), rp_normalize(p1)]
    while not rp_is_zero(chain[-1]):
        _, r = rp_divmod(chain[-2], chain[-1])
        chain.append(rp_neg(r))
    chain.pop()  # drop the zero remainder
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sign_variations(values):
    signs = [_sign(v) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def chain_variations_at(chain, x):
    return sign_variations([rp_eval(p, x) for p in chain])


def chain_variations_at_inf(chain, positive: bool):
    vals = []
    for p in chain:
        if rp_is_zero(p):
            continue
        lead = p[-1]
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if rp_degree(p) % 2 == 0 else -lead)
    return sign_variations(vals)


def sturm_count(p, lo, hi):
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be Fractions or the strings '-inf'/'inf'.
    """
    p = rp_normalize(p)
    if rp_degree(p) <= 0:
        return 0
    chain = sturm_chain(p, rp_derivative(p))
    if lo == "-inf":
        va = chain_variations_at_inf(chain, positive=False)
    else:
        va = chain_variations_at(chain, Fraction(lo))
    if hi == "inf":
        vb = chain_variations_at_inf(chain, positive=True)
    else:
        vb = chain_variations_at(chain, Fraction(hi))
    return va - vb


def cauchy_index(den, num):
    """Cauchy index of num/den over the whole real line.

    Counts jumps of num/den from -inf to +inf minus jumps the other way,
    via sign variations of the signed remainder sequence.
    """
    den = rp_normalize(den)
    num = rp_normalize(num)
    if rp_is_zero(den) or rp_is_zero(num):
        return 0
    chain = sturm_chain(den, num)
    return chain_variations_at_inf(chain, positive=False) - chain_variations_at_inf(
        chain, positive=True
    )


# ---------------------------------------------------------------------------
# structural checks used by AlgebraicReal construction


def is_squarefree(p: IntPoly) -> bool:
    if p.degree == 0:
        return True
    g = rp_gcd(p.as_fractions(), p.derivative().as_fractions())
    return rp_degree(g) == 0


def rational_roots(p: IntPoly):
    """All rational roots, exact, via the rational-root test."""
    a0, an = p.coeffs[0], p.leading
    if a0 == 0:
        # x divides p
        reduced = IntPoly(p.coeffs[1:]) if p.degree >= 1 else None
        roots = {Fraction(0)}
        if reduced is not None:
            roots |= set(rational_roots(reduced))
        return sorted(roots)
    roots = set()
    for num in _divisors(abs(a0)):
        for den in _divisors(abs(an)):
            for sgn in (1, -1):
                cand = Fraction(sgn * num, den)
                if p(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reciprocal(p: IntPoly) -> IntPoly:
    """x^deg * p(1/x): the coefficient sequence reversed."""
    return IntPoly(tuple(reversed(p.coeffs)))
