import sys
import threading
from fractions import Fraction

import pytest

from tilingspectra import IntPoly, TilingError, make_algebraic


def bisect_root(coeffs, lo, hi, steps=80):
    """Independent bisection oracle: sign change assumed between lo, hi."""
    p = IntPoly(coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    assert p(lo) * p(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if p(lo) * p(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_degree_one_integer():
    theta = make_algebraic(IntPoly([-2, 1]), 2)
    assert theta.degree == 1
    assert theta.cmp_rational(2) == 0
    assert theta.cmp_rational(Fraction(3, 2)) == 1


def test_golden_ratio_against_bisection_oracle():
    oracle = bisect_root([-1, -1, 1], 1, 2)
    theta = make_algebraic(IntPoly([-1, -1, 1]), Fraction(8, 5))
    theta.refine_below(Fraction(1, 10**25))
    lo, hi = theta.interval
    assert lo < oracle < hi or abs(float(oracle) - float(theta)) < 1e-20
    # interval refinable into (1.61, 1.62)
    theta.refine_below(Fraction(1, 1000))
    lo, hi = theta.interval
    assert Fraction(161, 100) < (lo + hi) / 2 < Fraction(162, 100)


def test_rejects_non_squarefree_and_reducible():
    with pytest.raises(TilingError):
        make_algebraic(IntPoly([1, 2, 1]), -1)  # (x+1)^2
    with pytest.raises(TilingError):
        make_algebraic(IntPoly([-1, 0, 1]), 1)  # rational roots +-1
    with pytest.raises(TilingError):
        make_algebraic(IntPoly([-1, -1, 2]), 1)  # not monic


def test_rejects_uncertified_quartic():
    # (x^2 - x - 1)(x^2 - 2) has no rational root; its root near 1.618 is
    # the golden ratio, so it is not that number's minimal polynomial
    with pytest.raises(TilingError, match="irreducibility could not be certified"):
        make_algebraic(IntPoly([2, 2, -3, -1, 1]), Fraction(1618, 1000))
    # x^4 - x - 1 is irreducible and certified
    assert make_algebraic(IntPoly([-1, -1, 0, 0, 1]), Fraction(122, 100)).degree == 4


def test_rejects_ambiguous_or_missing_root():
    with pytest.raises(TilingError):
        make_algebraic(IntPoly([-1, -1, 1]), 5)  # no root near 5
    # x^2 - x has rational roots; reducibility detected first
    with pytest.raises(TilingError):
        make_algebraic(IntPoly([2, -3, 1]), Fraction(3, 2))  # roots 1 and 2... near 1.5 ambiguous? distance 1/2 away, outside 1/4 -> no root


def test_refinement_keeps_root():
    theta = make_algebraic(IntPoly([-1, -1, 1]), Fraction(8, 5))
    v1 = float(theta)
    theta.refine(40)
    assert abs(float(theta) - v1) < 1e-15


def test_comparisons():
    theta = make_algebraic(IntPoly([-1, -1, 1]), Fraction(8, 5))
    assert theta.cmp_rational(1) == 1
    assert theta.cmp_rational(2) == -1
    assert theta.cmp_rational(Fraction(1618, 1000)) == 1


def test_refine_concurrent_never_widens():
    """Four barrier-released threads refining one number: each call
    returns the stored interval, which must never widen, and the interval
    left at the end is at least as narrow as any one a call returned."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            theta = make_algebraic(IntPoly((-1, -1, 1)), Fraction(8, 5))
            barrier = threading.Barrier(4)
            widths = [[] for _ in range(4)]

            def work(i):
                barrier.wait(timeout=30)
                for _ in range(12):
                    lo, hi = theta.refine(1 + i)
                    widths[i].append(hi - lo)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            for seen in widths:
                assert len(seen) == 12
                assert all(b <= a for a, b in zip(seen, seen[1:]))
            assert theta.width() <= min(w for seen in widths for w in seen)
            lo, hi = theta.interval
            assert (lo * lo - lo - 1) * (hi * hi - hi - 1) < 0  # still brackets the root
    finally:
        sys.setswitchinterval(old_interval)
