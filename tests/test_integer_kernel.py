"""The integer Sturm/bisection/interval kernel against a plain Fraction
reference kept here: the same root counts, the same refined endpoints and
the same signs and enclosures in Q(theta), step for step."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tilingspectra import AlgebraicReal, IntPoly, NumberField
from tilingspectra.polys import rational_roots, sturm_count

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
