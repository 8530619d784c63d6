"""Exact univariate polynomial arithmetic on integer coefficients.

Polynomials are coefficient sequences in ascending degree order; IntPoly
is a thin immutable wrapper.  Gcds, exact quotients, Sturm chains, root
counting and root isolation all run on integer coefficients through one
pseudo-division, with a rational polynomial replaced by a positive
integer multiple of itself where it occurs.  Everything here is exact; no
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import TilingError


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
# Sturm machinery on integer coefficients
#
# A chain element, or any polynomial whose signs alone matter, may be
# replaced by a positive multiple of itself: every sign it takes stays the
# same.  So the chains here hold primitive integer polynomials, remainders
# come from pseudo-division scaled by |leading coefficient| only, and a
# value p(num/den) is read as the integer den^deg(p) * p(num/den), which
# has its sign for den > 0.


def _integer(p):
    """A positive multiple of the (int or Fraction) polynomial p with
    coprime integer coefficients, trailing zeros dropped."""
    p = _strip(p)
    if not p:
        return ()
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def derivative(p):
    """Coefficients of p' for a coefficient sequence p (empty for constants)."""
    return tuple(k * c for k, c in enumerate(p))[1:]


def _pseudo_divmod(a, b):
    """Integer (q, r) with m^k * a = q * b + r and deg r < deg b, where
    m = |leading coefficient of b| > 0 and k counts the division steps."""
    r = list(a)
    m, db = abs(b[-1]), len(b) - 1
    sb = 1 if b[-1] > 0 else -1
    q = [0] * max(len(a) - db, 0)
    while r and len(r) - 1 >= db:
        c, k = r[-1] * sb, len(r) - 1 - db
        r = [m * x for x in r]
        q = [m * x for x in q]
        q[k] += c
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
        r.pop()  # the leading term cancels exactly
        while r and r[-1] == 0:
            r.pop()
    return q, r


def sturm_chain(p0, p1):
    """Signed remainder sequence starting from (p0, p1), as primitive
    integer polynomials (each a positive multiple of the rational one).

    With p1 = p0' this is the classical Sturm chain, and its last element
    is gcd(p0, p0') up to a constant; in general the sign variations at
    the interval ends compute the Cauchy index of p1/p0.
    """
    chain = [_integer(p0)]
    r = _integer(p1)
    while r:
        chain.append(r)
        r = _integer([-c for c in _pseudo_divmod(chain[-2], r)[1]])
    return chain


def primitive_gcd(p, q):
    """gcd(p, q) as a primitive integer polynomial with positive leading
    coefficient: the last element of the remainder sequence of (p, q)."""
    g = sturm_chain(p, q)[-1]
    return tuple(-c for c in g) if g[-1] < 0 else g


def exact_quotient(a, b):
    """a / b as a primitive integer polynomial (a positive multiple of
    the rational quotient); b must divide a over Q."""
    q, r = _pseudo_divmod(a, b)
    if r:
        raise TilingError("internal defect: polynomial division leaves a remainder")
    return _integer(q)


def hom_value(p, num, den):
    """den^deg(p) * p(num/den), an integer with the sign of p(num/den)
    when den > 0."""
    acc, scale = p[-1], 1
    for c in reversed(p[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def variations(chain, num, den=1):
    """Sign variations of the chain at num/den (den > 0), zeros skipped."""
    count, last = 0, 0
    for p in chain:
        v = hom_value(p, num, den)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _variations_at(chain, x):
    """variations() at x: a Fraction or int, or '-inf'/'inf', where each
    element takes the sign of its leading term (times (-1)^degree)."""
    if x == "inf":
        return variations([p[-1:] for p in chain], 1)
    if x == "-inf":
        return variations([p[-1:] if len(p) % 2 else (-p[-1],) for p in chain], 1)
    return variations(chain, x.numerator, x.denominator)


def chain_count(chain, lo, hi):
    """Number of distinct real roots of chain[0] in the half-open interval
    (lo, hi], from its Sturm chain (p, p', ...)."""
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def sturm_count(p, lo, hi):
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be ints, Fractions or the strings '-inf'/'inf'.
    """
    p = _integer(p)
    if len(p) <= 1:
        return 0
    return chain_count(sturm_chain(p, derivative(p)), lo, hi)


# ---------------------------------------------------------------------------
# interval evaluation


def iv_mul(a, b):
    """Product of the intervals a and b (ints or Fractions)."""
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def interval_horner(p, a, b, m):
    """(lo, hi, scale) with lo/scale and hi/scale exactly the bounds that
    Horner's rule in interval arithmetic gives for p over [a/m, b/m]
    (m > 0): every step of the integer evaluation is the rational one
    times one positive power of m, which keeps min and max in place."""
    lo = hi = p[-1]
    scale = 1
    for c in reversed(p[:-1]):
        scale *= m
        lo, hi = iv_mul((lo, hi), (a, b))
        lo, hi = lo + c * scale, hi + c * scale
    return lo, hi, scale


# ---------------------------------------------------------------------------
# structural checks used by AlgebraicReal construction


def rational_roots(p: IntPoly, chain=None):
    """All rational roots, exact and sorted.

    A rational root u/v in lowest terms has v dividing the leading
    coefficient a_n, so it is k/|a_n| for an integer k.  Sturm sequences of
    the square-free part isolate the real roots: intervals (lo, hi] are
    halved from the Cauchy bound down, and one that still holds a root
    once narrower than 1/|a_n| holds at most one fraction k/|a_n|, which
    is tested exactly.  That takes about log2(bound * |a_n|) bisections
    per real root instead of a search over divisors.  `chain` is the
    Sturm chain of p's square-free part when the caller has it; endpoints
    are kept as integer numerators over one power-of-two multiple of |a_n|.
    """
    if p.degree == 0:
        return []
    if chain is None:
        chain = sturm_chain(p.coeffs, derivative(p.coeffs))
        if len(chain[-1]) > 1:  # repeated factors: divide out gcd(p, p')
            sqfree = exact_quotient(p.coeffs, chain[-1])
            chain = sturm_chain(sqfree, derivative(sqfree))
    lead = abs(p.leading)
    bound = lead + max(abs(c) for c in p.coeffs[:-1])  # |root| < bound / lead
    roots = []
    stack = [(-bound, bound, lead, *(variations(chain, x, lead) for x in (-bound, bound)))]
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()  # the interval (lo/den, hi/den]
        if v_lo == v_hi:  # no root in it
            continue
        if (hi - lo) * lead < den:
            k = hi * lead // den  # the candidate k/lead = floor(hi * lead) / lead
            if k * den > lo * lead and hom_value(p.coeffs, k, lead) == 0:
                roots.append(Fraction(k, lead))
            continue
        mid = lo + hi
        v_mid = variations(chain, mid, 2 * den)
        stack += [(2 * lo, mid, 2 * den, v_lo, v_mid), (mid, 2 * hi, 2 * den, v_mid, v_hi)]
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

