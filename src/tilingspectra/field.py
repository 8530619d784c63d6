"""Exact arithmetic in the real number field Q(theta).

Elements carry their coordinates in the power basis 1, theta, ...,
theta^(s-1) as Fractions.  Under them the field keeps only integers:
the reduction rows of its one reduced product (`NumberField.mul`), the
power traces, and the integer systems that inverses hand to the one
exact solver of `lattice`.
Order comparisons refine theta's isolating interval until the sign of the
difference is certain, with a pure-rational fast path for degree 1; the
interval evaluation runs on integer numerators over one denominator.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import repeat
from math import lcm

from .algebraic import AlgebraicReal, make_algebraic
from .errors import FieldMismatchError, PrecisionError, TilingError
from .lattice import field_solve
from .polys import IntPoly, interval_horner

_MAX_SIGN_REFINEMENTS = 5000


class NumberField:
    """Q(theta) for a fixed real algebraic theta."""

    def __init__(self, theta: AlgebraicReal):
        self.theta = theta
        self.minpoly = theta.minpoly
        self.degree = theta.minpoly.degree
        s = self.degree
        # x^k mod minpoly for k = s .. 2s-2 as int rows: the minpoly is
        # monic, so x^s = -(b_0 + ... + b_{s-1} x^{s-1}), and each next
        # row is the last one shifted up by x with x^s replaced again
        top = row = [-b for b in self.minpoly.coeffs[:-1]]
        self._red = []
        for _ in range(s - 1):
            self._red.append(row)
            row = [lo + row[-1] * t for lo, t in zip([0] + row[:-1], top)]
        # an immutable tuple, replaced whole, so concurrent readers never
        # see a half-built list
        self._power_traces = (s,)

    # -- constructors -------------------------------------------------

    def elem(self, coeffs) -> "QThetaElem":
        coeffs = list(coeffs)
        if len(coeffs) != self.degree:
            raise TilingError(
                f"expected {self.degree} power-basis coordinates, got {len(coeffs)}"
            )
        return QThetaElem(self, tuple(Fraction(c) for c in coeffs))

    def rational(self, r) -> "QThetaElem":
        coeffs = [Fraction(r)] + [Fraction(0)] * (self.degree - 1)
        return QThetaElem(self, tuple(coeffs))

    def zero(self) -> "QThetaElem":
        return self.rational(0)

    def one(self) -> "QThetaElem":
        return self.rational(1)

    def gen(self) -> "QThetaElem":
        """theta itself as a field element."""
        if self.degree == 1:
            return self.rational(-self.minpoly.coeffs[0])
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return QThetaElem(self, tuple(coeffs))

    def vec(self, entries) -> "QThetaVec":
        return QThetaVec(tuple(self._coerce(e) for e in entries))

    def _coerce(self, x) -> "QThetaElem":
        if isinstance(x, QThetaElem):
            if not self.same_field(x.field):
                raise FieldMismatchError("element from a different field")
            return x
        return self.rational(x)

    # -- structure ----------------------------------------------------

    def same_field(self, other: "NumberField") -> bool:
        if other is self:
            return True
        if other.minpoly.coeffs != self.minpoly.coeffs:
            return False
        # Same polynomial: same root iff the intersection of the two
        # isolating intervals still contains a root.
        lo1, hi1 = self.theta.interval
        lo2, hi2 = other.theta.interval
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo >= hi:
            return False
        return self.theta.count_roots(lo, hi) == 1

    def mul(self, a, b) -> list:
        """The power-basis coordinates of a * b for coordinate sequences
        a, b of ints or Fractions: the schoolbook product, then the terms
        of degree s .. 2s-2 folded back through the reduction rows.  The
        sums start at a[0] * 0, so Fraction inputs give Fraction
        coordinates even where a sum is empty."""
        s = self.degree
        zero = a[0] * 0
        prod = [zero] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:s]
        for c, row in zip(prod[s:], self._red):
            if c:
                for i, v in enumerate(row):
                    out[i] += c * v
        return out

    def power_traces(self, upto: int):
        """Tr(theta^k) for k = 0..upto as ints, by Newton's identities.

        For a monic polynomial x^s + b_{s-1} x^{s-1} + ... + b_0 the
        elementary symmetric functions are e_k = (-1)^k b_{s-k}; power
        sums follow from p_k = e_1 p_{k-1} - e_2 p_{k-2} + ...
        +/- k e_k, then from the recurrence for k >= s.
        """
        cached = self._power_traces
        if len(cached) > upto:
            return list(cached[: upto + 1])
        s = self.degree
        b = self.minpoly.coeffs
        e = [1] + [(-1) ** k * b[s - k] for k in range(1, s + 1)]
        p = list(cached)
        while len(p) <= upto:
            k = len(p)
            if k <= s:
                acc = 0
                for i in range(1, k):
                    acc += (-1) ** (i - 1) * e[i] * p[k - i]
                acc += (-1) ** (k - 1) * k * e[k]
                p.append(acc)
            else:
                acc = 0
                for i in range(1, s + 1):
                    acc += (-1) ** (i - 1) * e[i] * p[k - i]
                p.append(acc)
        self._power_traces = tuple(p)
        return p

    def __repr__(self):
        return f"NumberField({self.minpoly})"


def golden_field() -> NumberField:
    """Q(theta) for theta^2 = theta + 1; handy in examples and tests."""
    return NumberField(make_algebraic(IntPoly((-1, -1, 1)), Fraction(8, 5)))


class QThetaElem:
    """An element of Q(theta) in power-basis coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_rational_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    # -- ring operations ----------------------------------------------

    def _check(self, other) -> "QThetaElem":
        if isinstance(other, QThetaElem):
            if not self.field.same_field(other.field):
                raise FieldMismatchError("operands from different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        other = self._check(other)
        return QThetaElem(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return QThetaElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        if self.field.degree == 1:
            return QThetaElem(self.field, (self.coeffs[0] * other.coeffs[0],))
        return QThetaElem(self.field, tuple(self.field.mul(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "QThetaElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(theta)")
        if self.is_rational():
            return self.field.rational(1 / self.coeffs[0])
        # Solve sum_j c_j theta^j a = 1 for the c_j: with a = nums / den,
        # column j holds the coordinates of theta^j nums, the right side den
        field, s = self.field, self.field.degree
        nums, den = self._numerators()
        theta = [0, 1] + [0] * (s - 2)
        cols = [nums]
        for _ in range(s - 1):
            cols.append(field.mul(cols[-1], theta))
        sol = field_solve(list(zip(*cols)), [[den] + [0] * (s - 1)])
        if sol.rank < s:
            raise ZeroDivisionError(
                "element is a zero divisor: minimal polynomial is reducible"
            )
        return QThetaElem(field, tuple(Fraction(c, sol.det) for c in sol.columns[0]))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order and equality --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QThetaElem):
            return (
                self.field.same_field(other.field) and self.coeffs == other.coeffs
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def sign(self) -> int:
        """Exact sign: -1, 0, +1."""
        if self.is_zero():
            return 0
        if self.field.degree == 1:
            c = self.coeffs[0]
            return 1 if c > 0 else -1
        theta = self.field.theta
        nums, _ = self._numerators()
        for _ in range(_MAX_SIGN_REFINEMENTS):
            lo, hi, _ = interval_horner(nums, *theta.scaled_interval)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            theta.refine(4)
        raise PrecisionError(
            "sign refinement exhausted; is the minimal polynomial reducible?"
        )

    def _numerators(self):
        """(numerators, den): the coordinates as integers over one den > 0."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    def cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    # -- numeric views --------------------------------------------------

    def interval(self, width) -> tuple:
        """A rational interval of width < `width` containing the value."""
        width = Fraction(width)
        theta = self.field.theta
        nums, den = self._numerators()
        for _ in range(_MAX_SIGN_REFINEMENTS):
            lo, hi, scale = interval_horner(nums, *theta.scaled_interval)
            scale *= den
            if (hi - lo) * width.denominator < width.numerator * scale:
                return (Fraction(lo, scale), Fraction(hi, scale))
            theta.refine(8)
        raise PrecisionError("interval refinement exhausted")

    def __float__(self) -> float:
        if self.field.degree == 1:
            return float(self.coeffs[0])
        lo, hi = self.interval(Fraction(1, 10**25))
        return float((lo + hi) / 2)

    def serialize(self):
        """JSON form: list of 'p/q' strings in power-basis order."""
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"QThetaElem({list(map(str, self.coeffs))})"


class QThetaVec:
    """A d-vector with Q(theta) entries; all tiling geometry lives here."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise TilingError("empty vector")
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def field(self) -> NumberField:
        return self.entries[0].field

    def __add__(self, other):
        return QThetaVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return QThetaVec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return QThetaVec(tuple(-a for a in self.entries))

    def scale(self, s) -> "QThetaVec":
        return QThetaVec(tuple(a * s for a in self.entries))

    def dot(self, other) -> QThetaElem:
        acc = self.entries[0] * other.entries[0]
        for a, b in zip(self.entries[1:], other.entries[1:]):
            acc = acc + a * b
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def key(self):
        """Hashable structural key (power-basis coordinates)."""
        return tuple(e.coeffs for e in self.entries)

    def __eq__(self, other):
        return isinstance(other, QThetaVec) and self.key() == other.key()

    def __lt__(self, other):
        """Exact lexicographic order of the entries."""
        return self.entries < other.entries

    def __hash__(self):
        return hash(self.key())

    def __getitem__(self, i) -> QThetaElem:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def floats(self):
        return tuple(float(e) for e in self.entries)

    def serialize(self):
        return [e.serialize() for e in self.entries]

    def __repr__(self):
        return f"QThetaVec({[e.serialize() for e in self.entries]})"


def unchecked(cls, n: int, **slots):
    """n instances of the __slots__ class `cls`, slot `name` of instance i
    set to slots[name][i], without calling __init__: for values that the
    caller has already built in valid form (QThetaVec entries as a
    nonempty tuple of QThetaElems, say), so nothing is copied or checked
    again per instance."""
    objs = list(map(object.__new__, repeat(cls, n)))
    for name, values in slots.items():
        deque(map(getattr(cls, name).__set__, objs, values), maxlen=0)
    return objs


def parse_rational(text) -> Fraction:
    """Parse 'p/q' (or 'p') exactly; rejects non-canonical forms."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise TilingError(f"rational must be a string, got {type(text).__name__}")
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TilingError(f"bad rational {text!r}: {exc}") from None
    if "/" in text:
        # f is num/den exactly, so it is in lowest terms iff its numerator
        # is num up to sign
        num, den = text.split("/", 1)
        if int(den) <= 0 or abs(f.numerator) != abs(int(num)):
            raise TilingError(f"rational {text!r} is not in lowest terms p/q with q > 0")
    return f
