"""Exact univariate polynomial arithmetic over the integers and rationals.

Polynomials are coefficient sequences in ascending degree order.  Integer
polynomials get a thin immutable wrapper (IntPoly); the rational helpers
work on plain tuples of Fraction and are the workhorses for Sturm chains,
gcds and root isolation.  Everything here is exact; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

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
    """All rational roots, exact and sorted.

    A rational root u/v in lowest terms has v dividing the leading
    coefficient a_n, so it is k/|a_n| for an integer k.  Sturm sequences of
    the square-free part isolate the real roots: intervals (lo, hi] are
    halved from the Cauchy bound down, and one that still holds a root
    once narrower than 1/|a_n| holds at most one fraction k/|a_n|, which
    is tested exactly.  That takes about log2(bound * |a_n|) bisections
    per real root instead of a search over divisors."""
    if p.degree == 0:
        return []
    f = p.as_fractions()
    sqfree, _ = rp_divmod(f, rp_gcd(f, rp_derivative(f)))
    chain = sturm_chain(sqfree, rp_derivative(sqfree))
    lead = abs(p.leading)
    bound = 1 + max(abs(Fraction(c, lead)) for c in p.coeffs[:-1])  # |root| < bound
    roots = []
    stack = [(-bound, bound, *(chain_variations_at(chain, x) for x in (-bound, bound)))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:  # no root in (lo, hi]
            continue
        if (hi - lo) * lead < 1:
            cand = Fraction(floor(hi * lead), lead)
            if cand > lo and p(cand) == 0:
                roots.append(cand)
            continue
        mid = (lo + hi) / 2
        v_mid = chain_variations_at(chain, mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def reciprocal(p: IntPoly) -> IntPoly:
    """x^deg * p(1/x): the coefficient sequence reversed."""
    return IntPoly(tuple(reversed(p.coeffs)))


# ---------------------------------------------------------------------------
# irreducibility certificate: distinct-degree factorization modulo primes

IRREDUCIBILITY_PRIMES = 50


def certify_irreducible(p: IntPoly) -> bool:
    """True when the monic square-free p is proven irreducible over Q.

    A factor of p over Q of degree k reduces modulo a prime to a product
    of irreducible factors there, so k is a sum of some of their degrees.
    Modulo each prime that keeps p square-free, distinct-degree
    factorization gives those degrees, and the degrees a rational factor
    can have lie in the intersection of their subset sums over the primes
    tried (Musser 1978).  p is irreducible once that intersection is
    {0, deg p}.  False means no certificate within IRREDUCIBILITY_PRIMES
    such primes:
    p may be reducible, or irreducible with a Galois group whose cycle
    types never separate the degrees (x^4 + 1 splits modulo every prime).
    """
    n = p.degree
    possible = set(range(n + 1))
    q, used = 1, 0
    while used < IRREDUCIBILITY_PRIMES:
        q = _next_prime(q)
        f = [c % q for c in p.coeffs]
        df = _trim_mod([i * c % q for i, c in enumerate(f)][1:])
        if len(_gcd_mod(f, df, q)) > 1:
            continue  # q divides the discriminant
        used += 1
        sums = {0}
        for d in _ddf_degrees(f, q):
            sums |= {x + d for x in sums}
        possible &= sums
        if possible == {0, n}:
            return True
    return False


def _next_prime(q: int) -> int:
    q += 1
    while any(q % k == 0 for k in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def _trim_mod(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_mod(f, g, q):
    """(quotient, remainder) of f by g over GF(q); g nonzero."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, q)
    quot = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * inv % q
        if c:
            quot[i - dg] = c
            for j, gj in enumerate(g):
                f[i - dg + j] = (f[i - dg + j] - c * gj) % q
    return _trim_mod(quot), _trim_mod(f[:dg])


def _gcd_mod(f, g, q):
    while g:
        f, g = g, _divmod_mod(f, g, q)[1]
    return f


def _mulmod(a, b, m, q):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % q
    return _divmod_mod(_trim_mod(prod), m, q)[1]


def _ddf_degrees(f, q):
    """Degrees, with multiplicity, of the irreducible factors of the
    monic square-free f over GF(q)."""
    degrees = []
    h = [0, 1]  # x^(q^d) mod f, starting from d = 0
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        power, base, e = [1], h, q
        while e:
            if e & 1:
                power = _mulmod(power, base, f, q)
            base = _mulmod(base, base, f, q)
            e >>= 1
        h = power
        diff = h + [0] * (2 - len(h))  # h - x
        diff[1] = (diff[1] - 1) % q
        g = _gcd_mod(f, _trim_mod(diff), q)
        if len(g) > 1:
            # g is the product of the factors of degree d
            degrees += [d] * ((len(g) - 1) // d)
            f = _divmod_mod(f, g, q)[0]
            h = _divmod_mod(h, f, q)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees

