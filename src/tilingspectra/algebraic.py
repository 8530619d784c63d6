"""Real algebraic numbers as (minimal polynomial, isolating interval) pairs.

The isolating interval has rational endpoints, contains exactly one real
root of the polynomial, and only ever shrinks; every question about the
number (sign, comparison, decimal digits) is answered by refining it.
The number keeps the Sturm chain of its polynomial for root counts, and
bisects on integer numerators over one common denominator.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm

from .errors import PrecisionError, TilingError
from .polys import (
    IRREDUCIBILITY_PRIMES,
    IntPoly,
    certify_irreducible,
    chain_count,
    derivative,
    hom_value,
    rational_roots,
    sturm_chain,
    variations,
)


class AlgebraicReal:
    """A real root of a monic integer polynomial, selected by an interval.

    The interval invariant: minpoly changes sign strictly between lo and
    hi, and (lo, hi] contains exactly one root.  Refinement by bisection
    never changes the selected root.
    """

    __slots__ = ("minpoly", "_chain", "_state", "_lock")

    def __init__(self, minpoly: IntPoly, lo: Fraction, hi: Fraction, chain=None):
        """`chain` is minpoly's Sturm chain (p, p', ...) when the caller
        has built it already."""
        self.minpoly = minpoly
        self._chain = chain or sturm_chain(minpoly.coeffs, derivative(minpoly.coeffs))
        lo, hi = Fraction(lo), Fraction(hi)
        m = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (m // lo.denominator), hi.numerator * (m // hi.denominator)
        # one state, replaced whole and only by a narrower interval, so
        # concurrent readers see a consistent pair that never widens: the
        # interval (lo, hi) and the same as integers (a, b) over m > 0
        self._state = ((lo, hi), (a, b, m))
        self._lock = threading.Lock()
        if not (lo < hi):
            raise TilingError("empty isolating interval")
        if hom_value(minpoly.coeffs, a, m) == 0 or hom_value(minpoly.coeffs, b, m) == 0:
            raise TilingError("isolating interval endpoints must not be roots")
        if variations(self._chain, a, m) - variations(self._chain, b, m) != 1:
            raise TilingError("interval does not isolate exactly one root")

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def interval(self):
        return self._state[0]

    @property
    def scaled_interval(self):
        """(a, b, m): the interval as (a/m, b/m) with integers and m > 0."""
        return self._state[1]

    def width(self) -> Fraction:
        lo, hi = self._state[0]
        return hi - lo

    def count_roots(self, lo, hi) -> int:
        """Number of distinct real roots of minpoly in (lo, hi]."""
        return chain_count(self._chain, lo, hi)

    def refine(self, steps: int = 1):
        """Bisect the isolating interval `steps` times.  Another thread
        may have narrowed it meanwhile; the narrower interval is kept."""
        p = self.minpoly.coeffs
        a, b, m = self._state[1]
        slo = hom_value(p, a, m) > 0
        for _ in range(steps):
            mid = a + b  # the midpoint, over 2m
            a, b, m = 2 * a, 2 * b, 2 * m
            v = hom_value(p, mid, m)
            if v == 0:
                # mid is the (rational) root itself; renormalize to the
                # interval of width (b - a)/4 around it, over 8m.  Its ends
                # lie inside (a, b), which holds no other root, so they
                # are not roots.
                a, b, m = 8 * mid - (b - a), 8 * mid + (b - a), 8 * m
                slo = hom_value(p, a, m) > 0
                continue
            if (v > 0) == slo:
                a = mid
            else:
                b = mid
        with self._lock:
            _, (old_a, old_b, old_m) = self._state
            if (b - a) * old_m < (old_b - old_a) * m:
                self._state = ((Fraction(a, m), Fraction(b, m)), (a, b, m))
            return self._state[0]

    def refine_below(self, width: Fraction):
        """Shrink the interval until it is narrower than `width`."""
        width = Fraction(width)
        if width <= 0:
            raise TilingError("width must be positive")
        guard = 0
        while self.width() >= width:
            self.refine(8)
            guard += 1
            if guard > 100000:  # pragma: no cover - safety net
                raise PrecisionError("interval refinement did not converge")
        return self.interval

    def cmp_rational(self, r) -> int:
        """Exact sign of (self - r)."""
        r = Fraction(r)
        lo, hi = self.interval
        if lo < r < hi and hom_value(self.minpoly.coeffs, r.numerator, r.denominator) == 0:
            return 0
        while lo < r < hi:
            lo, hi = self.refine()
        if r <= lo:
            return 1
        return -1

    def __float__(self) -> float:
        lo, hi = self.refine_below(Fraction(1, 10**20))
        return float((lo + hi) / 2)

    def to_decimal(self, digits: int = 15) -> str:
        lo, hi = self.refine_below(Fraction(1, 10 ** (digits + 5)))
        mid = (lo + hi) / 2
        return format(float(mid), f".{digits}g")

    def __repr__(self):
        return f"AlgebraicReal({self.minpoly}, ~{float(self):.6f})"


def make_algebraic(minpoly, approx) -> AlgebraicReal:
    """Select the real root of `minpoly` nearest to `approx`.

    `minpoly` must be monic with integer coefficients, square-free and
    irreducible.  Irreducibility is decided exactly for degree <= 3 (a
    reducible cubic or quadratic over Q has a rational root); a higher
    degree must be certified by `certify_irreducible`, or it is rejected.
    One Sturm chain of (minpoly, minpoly') serves every check and count.
    """
    if not isinstance(minpoly, IntPoly):
        minpoly = IntPoly(minpoly)
    if not minpoly.is_monic():
        raise TilingError("minimal polynomial must be monic")
    if minpoly.degree == 0:
        raise TilingError("minimal polynomial must have positive degree")
    chain = sturm_chain(minpoly.coeffs, derivative(minpoly.coeffs))
    if len(chain[-1]) > 1:  # gcd(p, p') is not constant
        raise TilingError("polynomial is not square-free (shares a factor with its derivative)")

    approx = Fraction(approx) if not isinstance(approx, Fraction) else approx
    rroots = rational_roots(minpoly, chain)
    if minpoly.degree > 1 and rroots:
        raise TilingError(
            f"polynomial is reducible: rational root {rroots[0]} detected"
        )
    if minpoly.degree > 3 and not certify_irreducible(minpoly):
        raise TilingError(
            f"irreducibility could not be certified for {minpoly}: no "
            f"factorization pattern modulo {IRREDUCIBILITY_PRIMES} primes rules out "
            "a rational factor"
        )

    lo, hi = approx - Fraction(1, 4), approx + Fraction(1, 4)
    # Nudge endpoints off roots (possible only in the degree-1 case).
    while hom_value(minpoly.coeffs, lo.numerator, lo.denominator) == 0:
        lo -= Fraction(1, 1000)
    while hom_value(minpoly.coeffs, hi.numerator, hi.denominator) == 0:
        hi += Fraction(1, 1000)
    n = chain_count(chain, lo, hi)
    if n == 0:
        raise TilingError(f"no real root of {minpoly} within 1/4 of {approx}")
    if n > 1:
        raise TilingError(
            f"{n} real roots of {minpoly} within 1/4 of {approx}; ambiguous selection"
        )
    # The one root in (lo, hi] is simple and neither end is a root, so
    # minpoly changes sign across the interval: it is a valid bracket.
    return AlgebraicReal(minpoly, lo, hi, chain)
