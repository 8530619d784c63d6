import sys
import threading
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import (
    IntPoly,
    NumberField,
    UndecidedError,
    dist_to_int_limit,
    golden_field,
    make_algebraic,
    trace,
)
from tilingspectra.spectra import exact_dist_sequence
from tilingspectra.traces import dist_to_int


def lucas_oracle(n):
    """Independent oracle: t_{k+2} = t_{k+1} + t_k from t0=2, t1=1."""
    seq = [2, 1]
    while len(seq) <= n:
        seq.append(seq[-1] + seq[-2])
    return seq[: n + 1]


def companion_trace_oracle(minpoly, upto):
    """Tr(theta^k) via companion-matrix powers (independent of Newton)."""
    s = minpoly.degree
    comp = [[0] * s for _ in range(s)]
    for i in range(1, s):
        comp[i][i - 1] = 1
    for i in range(s):
        comp[i][s - 1] = -minpoly.coeffs[i]
    out = []
    acc = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for _ in range(upto + 1):
        out.append(sum(acc[i][i] for i in range(s)))
        acc = [
            [sum(acc[i][k] * comp[k][j] for k in range(s)) for j in range(s)]
            for i in range(s)
        ]
    return out


@pytest.fixture(scope="module")
def K():
    return golden_field()


def test_trace_of_one_is_degree(K):
    assert trace(K.one()) == 2
    K1 = NumberField(make_algebraic(IntPoly([-2, 1]), 2))
    assert trace(K1.one()) == 1


def test_trace_of_theta_and_theta_squared(K):
    t = K.gen()
    assert trace(t) == 1  # sum of roots
    assert trace(t * t) == 3  # Newton: p2 = e1 p1 - 2 e2


def test_power_traces_are_lucas_numbers(K):
    lucas = lucas_oracle(50)
    t = K.gen()
    cur = K.one()
    for n in range(51):
        assert trace(cur) == lucas[n]
        cur = cur * t


def test_newton_matches_companion_oracle():
    cases = {
        (-1, -1, 1): Fraction(8, 5),
        (-5, -2, 1): Fraction(345, 100),
        (-1, -1, 0, 1): Fraction(133, 100),
        (-2, 1): Fraction(2),
    }
    for coeffs, approx in cases.items():
        mp = IntPoly(coeffs)
        K = NumberField(make_algebraic(mp, approx))
        assert K.power_traces(12) == [Fraction(v) for v in companion_trace_oracle(mp, 12)]


def test_power_traces_concurrent_fill():
    """Four threads filling one field's trace cache at once all get the
    single-thread traces; a fine switch interval makes them interleave."""
    mp = IntPoly((-1, -1, 0, 1))  # x^3 - x - 1
    approx = Fraction(133, 100)
    reference = NumberField(make_algebraic(mp, approx)).power_traces(300)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # without the immutable cache about half the trials were corrupted
        for _ in range(100):
            K = NumberField(make_algebraic(mp, approx))
            barrier = threading.Barrier(4)
            results = [None] * 4

            def fill(i):
                barrier.wait(timeout=30)
                results[i] = K.power_traces(300)

            threads = [threading.Thread(target=fill, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert all(r == reference for r in results)
    finally:
        sys.setswitchinterval(old_interval)


def test_lucas_mod3_never_eventually_zero(K):
    # brute-force oracle over one period
    lucas = lucas_oracle(40)
    residues = [v % 3 for v in lucas]
    assert 0 in residues  # single zeros do appear...
    # ...but the pair-state (v_n, v_{n+1}) mod 3 never hits (0, 0)
    assert all((residues[i], residues[i + 1]) != (0, 0) for i in range(39))
    report = dist_to_int_limit(K.rational(Fraction(1, 3)))
    assert not report.eventually_integer
    assert report.denominator == 3
    assert report.period == 8  # state cycle of Lucas pairs mod 3


def test_integer_start_is_immediately_periodic(K):
    report = dist_to_int_limit(K.one())
    assert report.eventually_integer
    assert report.denominator == 1
    assert report.preperiod == 0


def test_dyadic_in_degree_one():
    K = NumberField(make_algebraic(IntPoly([-2, 1]), 2))
    report = dist_to_int_limit(K.rational(Fraction(1, 2)))
    assert report.eventually_integer
    assert report.preperiod == 1
    assert report.period == 1


def test_budget_yields_undecided(K):
    with pytest.raises(UndecidedError):
        dist_to_int_limit(K.rational(Fraction(1, 10**9)), budget=100)


def test_dist_decay_for_verified_limit(K):
    # eventually-integer implies the exact distances drop below 1e-3
    report = dist_to_int_limit(K.one())
    assert report.eventually_integer
    lo_n = report.preperiod + 20
    dists = exact_dist_sequence(K.one(), report.preperiod + 40)[lo_n:]
    assert all(d < Fraction(1, 1000) for d in dists)


def test_dist_matches_conjugate_decay(K):
    # dist(theta^n, Z) = |theta'|^n exactly once below 1/2; theta' = 1-theta
    t = K.gen()
    conj = 1 - 1.6180339887498949
    for n in (5, 9, 14):
        d = dist_to_int(t**n)
        assert abs(float(d) - abs(conj) ** n) < 1e-12


def test_exact_rational_distance():
    K = NumberField(make_algebraic(IntPoly([-2, 1]), 2))
    assert dist_to_int(K.rational(Fraction(7, 3))) == Fraction(1, 3)
    assert dist_to_int(K.rational(5)) == 0


def dist_to_int_limit_reference(x, budget):
    """Reference residue walk on Fraction traces from the companion-matrix
    oracle: (eventually_integer, denominator, preperiod, period), or
    'undecided' when the state space D^s exceeds the budget."""
    field = x.field
    s = field.degree
    powers = companion_trace_oracle(field.minpoly, 2 * s - 2)
    t = [sum((c * powers[n + k] for k, c in enumerate(x.coeffs)), Fraction(0)) for n in range(s)]
    denom = lcm(*(v.denominator for v in t))
    if denom**s > budget:
        return "undecided"
    if denom == 1:
        return True, 1, 0, 1
    rec = [-c for c in field.minpoly.coeffs[:-1]]
    state = tuple(int(v * denom) % denom for v in t)
    order, seen = [state], {state: 0}
    while True:
        state = state[1:] + (sum(r * v for r, v in zip(rec, state)) % denom,)
        if state in seen:
            first = seen[state]
            break
        seen[state] = len(order)
        order.append(state)
    zero = (0,) * s
    eventually = all(st_ == zero for st_ in order[first:])
    pre = first
    while eventually and pre > 0 and order[pre - 1] == zero:
        pre -= 1
    return eventually, denom, pre, len(order) - first


TRACE_FIELDS = {
    "x - 2": ((-2, 1), 2),
    "x - 3": ((-3, 1), 3),
    "golden": ((-1, -1, 1), Fraction(8, 5)),
    "silver": ((-1, -2, 1), Fraction(24, 10)),
    "np26": ((-5, -2, 1), Fraction(345, 100)),
    "plastic": ((-1, -1, 0, 1), Fraction(133, 100)),
    "tribonacci": ((-1, -1, -1, 1), Fraction(184, 100)),
}


@cache
def trace_field(name):
    coeffs, approx = TRACE_FIELDS[name]
    return NumberField(make_algebraic(IntPoly(coeffs), approx))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(list(TRACE_FIELDS)), budget=st.integers(10, 3000), data=st.data())
def test_dist_to_int_limit_matches_fraction_walk(name, budget, data):
    """Degrees 1-3: the same verdict, denominator, preperiod and period as
    the Fraction walk, and UndecidedError at the same inputs."""
    K = trace_field(name)
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=30)
    x = K.elem(data.draw(st.lists(coord, min_size=K.degree, max_size=K.degree)))
    expected = dist_to_int_limit_reference(x, budget)
    try:
        r = dist_to_int_limit(x, budget=budget)
    except UndecidedError:
        assert expected == "undecided"
        return
    assert (r.eventually_integer, r.denominator, r.preperiod, r.period) == expected


@pytest.mark.parametrize("name", list(TRACE_FIELDS))
def test_dist_to_int_limit_matches_fraction_walk_on_small_denominators(name):
    """Every x with coordinates k/q, |k| <= q, for small q: this reaches the
    inputs whose traces share a factor with q, like 1/4 over the silver
    ratio (traces 2/4 and 2/4, so D = 2)."""
    K = trace_field(name)
    for q in range(1, 7 if K.degree < 3 else 5):
        for nums in product(range(-q, q + 1), repeat=K.degree):
            x = K.elem([Fraction(k, q) for k in nums])
            r = dist_to_int_limit(x)
            expected = dist_to_int_limit_reference(x, 10**6)
            assert (r.eventually_integer, r.denominator, r.preperiod, r.period) == expected
