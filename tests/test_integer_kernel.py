"""The integer Sturm/bisection/interval kernel and the integer Q(theta)
element against a plain Fraction reference kept here: the same root
counts, the same refined endpoints, the same signs and enclosures in
Q(theta), step for step, and the same field arithmetic."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilingspectra import AlgebraicReal, IntPoly, NumberField
from tilingspectra.polys import rational_roots, sturm_count

from test_field import field_case

# ---------------------------------------------------------------------------
# Fraction reference


def ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_rem(a, b):
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def ref_chain(p):
    chain = [[Fraction(c) for c in p], [Fraction(k * c) for k, c in enumerate(p)][1:]]
    while True:
        r = ref_rem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in r])


def ref_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi]."""

    def variations(x):
        if x == "-inf":
            values = [q[-1] * (-1) ** (len(q) - 1) for q in chain]
        elif x == "inf":
            values = [q[-1] for q in chain]
        else:
            values = [ref_eval(q, x) for q in chain]
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    chain = ref_chain(p)
    return variations(lo) - variations(hi)


def ref_refine(p, lo, hi, steps):
    slo = ref_eval(p, lo) > 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        v = ref_eval(p, mid)
        if v == 0:
            w = (hi - lo) / 8
            lo, hi = mid - w, mid + w
            while ref_eval(p, lo) == 0 or ref_eval(p, hi) == 0:
                w /= 2
                lo, hi = mid - w, mid + w
            slo = ref_eval(p, lo) > 0
            continue
        if (v > 0) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def ref_enclose(coeffs, lo, hi):
    """Horner's rule in rational interval arithmetic over [lo, hi]."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        ps = (acc[0] * lo, acc[0] * hi, acc[1] * lo, acc[1] * hi)
        acc = (min(ps) + c, max(ps) + c)
    return acc


def isolating_intervals(p):
    """Reference isolating intervals of the real roots of monic square-free
    p, with endpoints that are not roots."""
    bound = 1 + max(abs(Fraction(c)) for c in p[:-1])
    stack, out = [(-bound, bound)], []
    while stack:
        lo, hi = stack.pop()
        n = ref_count(p, lo, hi)
        if n == 1 and ref_eval(p, lo) and ref_eval(p, hi):
            out.append((lo, hi))
        elif n == 1 and not ref_eval(p, hi):
            # hi is the root, an integer (p is monic), so hi +- d is none
            d = Fraction(1, 2)
            while ref_count(p, hi - d, hi + d) != 1:
                d /= 2
            out.append((hi - d, hi + d))
        elif n >= 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


class RefElem:
    """A Q(theta) element as its s power-basis coordinates in Fractions,
    for the monic minimal polynomial p (ascending coefficients)."""

    def __init__(self, p, coeffs):
        self.p = p
        self.c = tuple(Fraction(x) for x in coeffs)

    def __add__(self, other):
        return RefElem(self.p, [a + b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return RefElem(self.p, [-a for a in self.c])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        s = len(self.c)
        prod = [Fraction(0)] * (2 * s - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                prod[i + j] += a * b
        for k in range(2 * s - 2, s - 1, -1):  # x^k = -x^(k-s) (p - x^s)
            for i in range(s):
                prod[k - s + i] -= prod[k] * self.p[i]
        return RefElem(self.p, prod[:s])

    def inverse(self):
        """Gauss-Jordan on the columns theta^j * self, right side e_0."""
        s = len(self.c)
        theta = RefElem(self.p, [0, 1] + [0] * (s - 2)) if s > 1 else RefElem(self.p, [-self.p[0]])
        cols = [self]
        for _ in range(s - 1):
            cols.append(cols[-1] * theta)
        rows = [[col.c[i] for col in cols] + [Fraction(int(i == 0))] for i in range(s)]
        for j in range(s):
            k = next(r for r in range(j, s) if rows[r][j])
            rows[j], rows[k] = rows[k], rows[j]
            rows[j] = [v / rows[j][j] for v in rows[j]]
            for r in range(s):
                if r != j and rows[r][j]:
                    rows[r] = [v - rows[r][j] * w for v, w in zip(rows[r], rows[j])]
        return RefElem(self.p, [row[-1] for row in rows])

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = RefElem(self.p, [1] + [0] * (len(self.c) - 1))
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_zero(self):
        return not any(self.c)

    def serialize(self):
        return [str(x) for x in self.c]

    def enclosure(self, lo, hi, width):
        """(enclosure of the value narrower than width, lo, hi), theta's
        isolating interval (lo, hi) refined as far as that needs."""
        while True:
            elo, ehi = ref_enclose(self.c, lo, hi)
            if ehi - elo < width:
                return (elo, ehi), lo, hi
            lo, hi = ref_refine(self.p, lo, hi, 8)

    def sign(self, lo, hi):
        if self.is_zero():
            return 0
        while True:
            elo, ehi = ref_enclose(self.c, lo, hi)
            if elo > 0 or ehi < 0:
                return 1 if elo > 0 else -1
            lo, hi = ref_refine(self.p, lo, hi, 4)


# ---------------------------------------------------------------------------
# strategies


def squarefree(p):
    return len(ref_chain(p)[-1]) == 1


@st.composite
def polys_with_root(draw, max_degree=6):
    """(monic square-free p, an isolating interval of one of its real
    roots), the interval shrunk from the reference one by a random
    rational amount on either side when that still isolates the root."""
    n = draw(st.integers(1, max_degree))
    p = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    assume(squarefree(p))
    intervals = isolating_intervals(p)
    assume(intervals)
    lo, hi = draw(st.sampled_from(intervals))
    fractions = st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=97)
    t1, t2 = draw(fractions), draw(fractions)
    lo2, hi2 = lo + (hi - lo) * t1, hi - (hi - lo) * t2
    if lo2 < hi2 and ref_count(p, lo2, hi2) == 1 and ref_eval(p, lo2) and ref_eval(p, hi2):
        lo, hi = lo2, hi2
    return p, lo, hi


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=64)


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(case=polys_with_root(), steps=st.integers(1, 40))
def test_refine_matches_fraction_bisection(case, steps):
    p, lo, hi = case
    theta = AlgebraicReal(IntPoly(p), lo, hi)
    assert theta.refine(steps) == ref_refine(p, lo, hi, steps)
    a, b, m = theta.scaled_interval
    assert theta.interval == (Fraction(a, m), Fraction(b, m))


@settings(max_examples=200, deadline=None)
@given(
    c=st.integers(-50, 50),
    e=st.integers(0, 6),
    i=st.integers(1, 40),
    j=st.integers(1, 40),
    steps=st.integers(1, 30),
)
def test_refine_renormalizes_at_a_rational_root(c, e, i, j, steps):
    """x - c on (c - i/2^e, c + j/2^e): the bisection midpoints are dyadic,
    so they reach c, and the interval is renormalized around it."""
    lo, hi = c - Fraction(i, 2**e), c + Fraction(j, 2**e)
    theta = AlgebraicReal(IntPoly([-c, 1]), lo, hi)
    assert theta.refine(steps) == ref_refine([-c, 1], lo, hi, steps)
    if i == j:  # the first midpoint is the root
        w = (hi - lo) / 8
        assert AlgebraicReal(IntPoly([-c, 1]), lo, hi).refine(1) == (c - w, c + w)


@settings(max_examples=300, deadline=None)
@given(
    case=polys_with_root(),
    ends=st.lists(st.one_of(rationals, st.sampled_from(["-inf", "inf"])), min_size=2, max_size=2),
)
def test_sturm_counts_match_fraction_chain(case, ends):
    p = case[0]
    lo, hi = ends
    expected = ref_count(p, lo, hi)
    assert sturm_count(p, lo, hi) == expected
    assert sturm_count(tuple(map(Fraction, p)), lo, hi) == expected
    assert AlgebraicReal(IntPoly(p), case[1], case[2]).count_roots(lo, hi) == expected


@settings(max_examples=300, deadline=None)
@given(
    case=polys_with_root(max_degree=3),
    coeffs=st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40), min_size=3, max_size=3),
    digits=st.integers(0, 30),
)
def test_field_sign_and_interval_match_fraction_reference(case, coeffs, digits):
    """Degree 1-3 fields with no rational root (so irreducible): the sign
    and a width-bounded enclosure of an element, and theta's interval
    after each, equal the Fraction computation with the same refinements."""
    p, lo, hi = case
    s = len(p) - 1
    # a rational root of monic p is an integer dividing p(0)
    assume(s == 1 or not any(
        ref_eval(p, d) == 0 for d in range(-abs(p[0]), abs(p[0]) + 1) if d == 0 or p[0] % d == 0
    ))
    coeffs = coeffs[:s]
    field = NumberField(AlgebraicReal(IntPoly(p), lo, hi))
    x = field.elem(coeffs)

    state = (lo, hi)
    if all(c == 0 for c in coeffs):
        expected = 0
    elif s == 1:
        expected = 1 if coeffs[0] > 0 else -1
    else:
        while True:
            elo, ehi = ref_enclose(coeffs, *state)
            if elo > 0 or ehi < 0:
                expected = 1 if elo > 0 else -1
                break
            state = ref_refine(p, *state, 4)
    assert x.sign() == expected
    assert field.theta.interval == state

    width = Fraction(1, 10**digits)
    while True:
        enclosure = ref_enclose(coeffs, *state)
        if enclosure[1] - enclosure[0] < width:
            break
        state = ref_refine(p, *state, 8)
    assert x.interval(width) == enclosure
    assert field.theta.interval == state


def test_rational_roots_at_a_bisection_point():
    """Root isolation on integer numerators: a root that is a bisection
    point is reported once, by the interval it closes, and not again as
    the open end of its neighbour."""
    # x (x^2 - 3x + 1): 0 is the first midpoint, and (0, 1/2] then holds
    # the irrational root 0.38..., whose candidate floor(1/2) = 0 is its open end
    assert rational_roots(IntPoly([0, 1, -3, 1])) == [0]
    assert rational_roots(IntPoly([0, -2, 1, 1])) == [-2, 0, 1]
    assert rational_roots(IntPoly([6, -5, -2, 1])) == [-2, 1, 3]


coordinates = st.fractions(min_value=-20, max_value=20, max_denominator=30) | st.sampled_from(
    [Fraction(0), Fraction(10**20, 3), Fraction(-7, 2**70)]
)


def assert_integer_form(x):
    """nums over den > 0 in lowest terms, zero as 0/1."""
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert any(x.nums) or x.den == 1


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_element_matches_fraction_reference(key, data):
    """Degree 1-4 fields: every operation of the integer element gives
    the Fraction reference's coordinates, strings, sign and value."""
    K = field_case(key)
    s, p = K.degree, K.minpoly.coeffs
    elems = st.lists(coordinates, min_size=s, max_size=s)
    ac = data.draw(elems)
    bc = data.draw(st.just(ac) | elems)
    n = data.draw(st.integers(-3, 4))
    a, b, ra, rb = K.elem(ac), K.elem(bc), RefElem(p, ac), RefElem(p, bc)
    assert (a == b) == (ra.c == rb.c)
    if a == b:
        assert hash(a) == hash(b)

    cases = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb)]
    if not rb.is_zero():
        cases += [(b.inverse(), rb.inverse()), (a / b, ra * rb.inverse())]
    if not ra.is_zero() or n >= 0:
        cases.append((a**n, ra**n))
    for x, r in cases:
        assert_integer_form(x)
        assert x.coeffs == r.c
        assert x.serialize() == r.serialize()
        same = K.elem(r.c)
        assert x == same and hash(x) == hash(same)
        lo, hi = K.theta.interval
        assert x.sign() == r.sign(lo, hi)
        (elo, ehi), _, _ = r.enclosure(lo, hi, Fraction(1, 10**30))
        if s == 1:
            assert float(x) == float(r.c[0])
        else:
            mid = float((elo + ehi) / 2)
            assert abs(float(x) - mid) <= 1e-15 * max(1.0, abs(mid))
