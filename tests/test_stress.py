"""Randomized cross-checks of the exact kernels against simple oracles."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import IntPoly, NumberField, make_algebraic, trace
from tilingspectra.lattice import field_solve, hnf
from tilingspectra.traces import dist_to_int_limit


def plastic_field():
    return NumberField(make_algebraic(IntPoly([-1, -1, 0, 1]), Fraction(133, 100)))


small = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(a=st.tuples(small, small, small), b=st.tuples(small, small, small))
def test_degree3_field_axioms(a, b):
    K = plastic_field()
    x, y = K.elem(a), K.elem(b)
    assert (x + y) * (x - y) == x * x - y * y
    if not x.is_zero():
        assert x * x.inverse() == K.one()
    # multiplication agrees with float evaluation
    fx, fy, fxy = float(x), float(y), float(x * y)
    assert abs(fx * fy - fxy) < 1e-9 * (1 + abs(fx * fy))


def test_degree3_trace_recurrence():
    # traces satisfy t_{n+3} = t_{n+2} + t_n for x^3 - x - 1... careful:
    # monic coeffs (-1, -1, 0, 1): t_{n+3} = 0*t_{n+2} + 1*t_{n+1} + 1*t_n
    K = plastic_field()
    t = K.gen()
    seq = [trace(t**n) for n in range(40)]
    for n in range(37):
        assert seq[n + 3] == seq[n + 1] + seq[n]
    assert seq[0] == 3  # trace of 1 is the degree


def test_degree3_dist_engine():
    K = plastic_field()
    assert dist_to_int_limit(K.one()).eventually_integer
    rep = dist_to_int_limit(K.rational(Fraction(1, 2)))
    # Padovan-style residues mod 2 never vanish jointly
    assert isinstance(rep.eventually_integer, bool)
    assert rep.denominator == 2


def lattice_member(basis, vec):
    # coefficients c with c @ basis = vec: columns of basis are the equations
    sol = field_solve([list(col) for col in zip(*basis)], [vec])
    (x,) = sol.columns
    return x is not None and all(v % sol.det == 0 for v in x)


def test_hnf_random_lattice_properties():
    rng = random.Random(5)
    for _ in range(60):
        rows = [
            [rng.randint(-9, 9) for _ in range(3)]
            for _ in range(rng.randint(1, 5))
        ]
        h = hnf(rows)
        assert hnf(h) == h  # canonical
        # same lattice in both directions: membership against the
        # independent HNF rows, and appending h-rows changes nothing
        for r in rows:
            if any(r):
                assert lattice_member(h, r)
        for r in h:
            assert hnf(rows + [r]) == h
        # echelon with positive pivots, entries above reduced
        pivots = []
        for row in h:
            j = next(k for k, v in enumerate(row) if v)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, row in enumerate(h):
            j = next(k for k, v in enumerate(row) if v)
            for above in h[:i]:
                assert 0 <= above[j] < row[j]


def test_rectangle_overlap_against_interval_oracle():
    from tilingspectra.geometry import interiors_overlap

    K = NumberField(make_algebraic(IntPoly([-2, 1]), 2))

    def rect(x0, y0, w, h):
        # kernel points of a degree-1 field over denominator 1
        return [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]

    rng = random.Random(17)
    for _ in range(120):
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        x1, y1 = rng.randint(-4, 4), rng.randint(-4, 4)
        w0, h0 = rng.randint(1, 4), rng.randint(1, 4)
        w1, h1 = rng.randint(1, 4), rng.randint(1, 4)
        expected = (x0 < x1 + w1 and x1 < x0 + w0) and (y0 < y1 + h1 and y1 < y0 + h0)
        got = interiors_overlap(K, rect(x0, y0, w0, h0), rect(x1, y1, w1, h1))
        assert got == expected, ((x0, y0, w0, h0), (x1, y1, w1, h1))
