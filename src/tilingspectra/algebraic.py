"""Real algebraic numbers as (minimal polynomial, isolating interval) pairs.

The isolating interval has rational endpoints, contains exactly one real
root of the polynomial, and only ever shrinks; every question about the
number (sign, comparison, decimal digits) is answered by refining it.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import PrecisionError, TilingError
from .polys import (
    IRREDUCIBILITY_PRIMES,
    IntPoly,
    certify_irreducible,
    is_squarefree,
    rational_roots,
    sturm_count,
)


class AlgebraicReal:
    """A real root of a monic integer polynomial, selected by an interval.

    The interval invariant: minpoly changes sign strictly between lo and
    hi, and (lo, hi] contains exactly one root.  Refinement by bisection
    never changes the selected root.
    """

    __slots__ = ("minpoly", "_interval", "_lock")

    def __init__(self, minpoly: IntPoly, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly
        lo, hi = Fraction(lo), Fraction(hi)
        # one (lo, hi) tuple, replaced whole and only by a narrower one, so
        # concurrent readers see a consistent pair that never widens
        self._interval = (lo, hi)
        self._lock = threading.Lock()
        if not (lo < hi):
            raise TilingError("empty isolating interval")
        if minpoly(lo) == 0 or minpoly(hi) == 0:
            raise TilingError("isolating interval endpoints must not be roots")
        if sturm_count(minpoly.as_fractions(), lo, hi) != 1:
            raise TilingError("interval does not isolate exactly one root")

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def interval(self):
        return self._interval

    def width(self) -> Fraction:
        lo, hi = self._interval
        return hi - lo

    def refine(self, steps: int = 1):
        """Bisect the isolating interval `steps` times.  Another thread
        may have narrowed it meanwhile; the narrower interval is kept."""
        p = self.minpoly
        lo, hi = self._interval
        slo = 1 if p(lo) > 0 else -1
        for _ in range(steps):
            mid = (lo + hi) / 2
            v = p(mid)
            if v == 0:
                # mid is the (rational) root itself; renormalize to a
                # narrow interval strictly around it.
                w = (hi - lo) / 8
                lo, hi = mid - w, mid + w
                while p(lo) == 0 or p(hi) == 0:
                    w /= 2
                    lo, hi = mid - w, mid + w
                slo = 1 if p(lo) > 0 else -1
                continue
            if (1 if v > 0 else -1) == slo:
                lo = mid
            else:
                hi = mid
        with self._lock:
            old_lo, old_hi = self._interval
            if hi - lo < old_hi - old_lo:
                self._interval = (lo, hi)
            return self._interval

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
        lo, hi = self._interval
        if self.minpoly(r) == 0 and lo < r < hi:
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
    """
    if not isinstance(minpoly, IntPoly):
        minpoly = IntPoly(minpoly)
    if not minpoly.is_monic():
        raise TilingError("minimal polynomial must be monic")
    if minpoly.degree == 0:
        raise TilingError("minimal polynomial must have positive degree")
    if not is_squarefree(minpoly):
        raise TilingError("polynomial is not square-free (shares a factor with its derivative)")

    approx = Fraction(approx) if not isinstance(approx, Fraction) else approx
    rroots = rational_roots(minpoly)
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
    while minpoly(lo) == 0:
        lo -= Fraction(1, 1000)
    while minpoly(hi) == 0:
        hi += Fraction(1, 1000)
    n = sturm_count(minpoly.as_fractions(), lo, hi)
    if n == 0:
        raise TilingError(f"no real root of {minpoly} within 1/4 of {approx}")
    if n > 1:
        raise TilingError(
            f"{n} real roots of {minpoly} within 1/4 of {approx}; ambiguous selection"
        )
    # Bisect down to a clean sign-change bracket.
    while True:
        if minpoly(lo) * minpoly(hi) < 0:
            break
        mid = (lo + hi) / 2
        if minpoly(mid) == 0:
            w = (hi - lo) / 8
            lo, hi = mid - w, mid + w
            continue
        if sturm_count(minpoly.as_fractions(), lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return AlgebraicReal(minpoly, lo, hi)


# ---------------------------------------------------------------------------
# rational interval arithmetic (endpoints are Fractions)


def iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def eval_poly_interval(coeffs, iv):
    """Horner evaluation of a Fraction polynomial over an interval."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(list(coeffs)):
        acc = iv_mul(acc, iv)
        acc = (acc[0] + c, acc[1] + c)
    return acc
