"""Exact arithmetic in the real number field Q(theta).

An element is integers over one denominator: its power-basis
coordinates in 1, theta, ..., theta^(s-1) are `nums / den`, with
`den > 0` and `gcd(den, *nums) == 1`, the integer form `intlattice`
gives a single entry.  Everything under it is integer work too: the
reduction rows of the one reduced product (`NumberField.mul`) and the
power traces.  `NumberField.solve` is the one embedding of a Q(theta)
linear system into Q: every inverse, rank and coordinate map over
Q(theta) goes through it to the one exact solver of `lattice`, in
Python ints.  There is one sign rule, `NumberField.sign` of
integer coordinates: the int's sign in degree 1, else the refinement of
theta's isolating interval until the interval value excludes zero.
Order comparisons are signs of differences.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

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
        """The element with the rational power-basis coordinates coeffs."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise TilingError(
                f"expected {self.degree} power-basis coordinates, got {len(coeffs)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        return QThetaElem(self, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def rational(self, r) -> "QThetaElem":
        r = Fraction(r)
        return QThetaElem(self, [r.numerator] + [0] * (self.degree - 1), r.denominator)

    def zero(self) -> "QThetaElem":
        return self.rational(0)

    def one(self) -> "QThetaElem":
        return self.rational(1)

    def gen(self) -> "QThetaElem":
        """theta itself as a field element."""
        if self.degree == 1:
            return self.rational(-self.minpoly.coeffs[0])
        return QThetaElem(self, [0, 1] + [0] * (self.degree - 2))

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
        """The integer power-basis coordinates of a * b for integer
        coordinate sequences a, b: the schoolbook product, then the terms
        of degree s .. 2s-2 folded back through the reduction rows."""
        s = self.degree
        prod = [0] * (2 * s - 1)
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

    def solve(self, rows, targets=()):
        """The one embedding of a Q(theta) system into Q: the
        `lattice.Solution` of y @ R = t for each target row t, where
        row j*s + m of R holds the coordinates of theta^m * rows[j].

        `rows` and `targets` are integer rows of s power-basis
        coordinates per entry, all of one width.  Column k holds, over
        det, the coordinates of the x_j in Q(theta) with sum_j x_j
        rows[j] = targets[k] (coordinate m of x_j at j*s + m), and
        rank // s is the Q(theta)-rank of the rows."""
        s = self.degree
        theta = self.gen().nums
        R = []
        for row in rows:
            row = list(map(int, row))
            blocks = [row[k : k + s] for k in range(0, len(row), s)]
            R.append(row)
            for _ in range(s - 1):
                blocks = [self.mul(b, theta) for b in blocks]
                R.append([c for b in blocks for c in b])
        return field_solve(list(zip(*R)), targets)

    def sign(self, nums) -> int:
        """Exact sign (-1, 0, +1) of the element with the integer
        power-basis coordinates nums (over any positive denominator): the
        int's own sign in degree 1, else theta's isolating interval is
        refined until the interval value of the polynomial excludes 0."""
        if self.degree == 1:
            return (nums[0] > 0) - (nums[0] < 0)
        if not any(nums):
            return 0
        theta = self.theta
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
    """An element of Q(theta): integer power-basis numerators `nums` over
    one positive denominator `den`, in lowest terms (zero is 0/1)."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums, den: int = 1):
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        self.field = field
        self.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        self.den = den // g

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_rational_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    # -- ring operations ----------------------------------------------

    def _check(self, other) -> "QThetaElem":
        if isinstance(other, QThetaElem):
            if not self.field.same_field(other.field):
                raise FieldMismatchError("operands from different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        other = self._check(other)
        den = lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        return QThetaElem(
            self.field, [a * u + b * v for a, b in zip(self.nums, other.nums)], den
        )

    __radd__ = __add__

    def __neg__(self):
        return QThetaElem(self.field, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return QThetaElem(
            self.field, self.field.mul(self.nums, other.nums), self.den * other.den
        )

    __rmul__ = __mul__

    def inverse(self) -> "QThetaElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(theta)")
        field, s = self.field, self.field.degree
        if self.is_rational():
            return QThetaElem(field, [self.den] + [0] * (s - 1), self.nums[0])
        # x * nums = den, with a = nums / den, is x = 1 / a
        sol = field.solve([self.nums], [[self.den] + [0] * (s - 1)])
        if sol.rank < s:
            raise ZeroDivisionError(
                "element is a zero divisor: minimal polynomial is reducible"
            )
        return QThetaElem(field, sol.columns[0], sol.det)

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
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if isinstance(other, QThetaElem):
            same = (self.nums, self.den) == (other.nums, other.den)
            return same and self.field.same_field(other.field)
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def sign(self) -> int:
        """Exact sign: -1, 0, +1."""
        return self.field.sign(self.nums)

    def cmp(self, other) -> int:
        other = self._check(other)  # a/d - b/e has the sign of a*e - b*d
        return self.field.sign([a * other.den - b * self.den for a, b in zip(self.nums, other.nums)])

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
        for _ in range(_MAX_SIGN_REFINEMENTS):
            lo, hi, scale = interval_horner(self.nums, *theta.scaled_interval)
            scale *= self.den
            if (hi - lo) * width.denominator < width.numerator * scale:
                return (Fraction(lo, scale), Fraction(hi, scale))
            theta.refine(8)
        raise PrecisionError("interval refinement exhausted")

    def __float__(self) -> float:
        if self.field.degree == 1:
            return self.nums[0] / self.den
        lo, hi = self.interval(Fraction(1, 10**25))
        return float((lo + hi) / 2)

    def serialize(self):
        """JSON form: list of 'p/q' strings in power-basis order."""
        out = []
        for c in self.nums:
            g = gcd(c, self.den)
            out.append(str(c // g) if g == self.den else f"{c // g}/{self.den // g}")
        return out

    def __repr__(self):
        return f"QThetaElem({self.serialize()})"


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
        """Hashable structural key: each entry's (nums, den)."""
        return tuple((e.nums, e.den) for e in self.entries)

    def __eq__(self, other):
        return isinstance(other, QThetaVec) and self.key() == other.key()

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
