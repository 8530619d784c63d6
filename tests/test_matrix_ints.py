"""Integer matrix arithmetic in `lattice`: Faddeev-LeVerrier on Python ints
against sympy's characteristic polynomial, and capped matrix powers (the
grow budget's tile count) against exact powers."""

import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingspectra import BudgetError, tiles
from tilingspectra.lattice import charpoly, int_matrix_power


def square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=60, deadline=None)
@given(square(st.integers(-(2**70), 2**70)))
def test_charpoly_matches_sympy(mat):
    expected = sympy.Matrix(mat).charpoly().all_coeffs()
    assert charpoly(mat).coeffs == tuple(int(c) for c in reversed(expected))


@settings(max_examples=80, deadline=None)
@given(square(st.integers(0, 5)), st.integers(0, 12), st.integers(1, 10**6))
def test_capped_power_is_capped_exact_power(mat, n, cap):
    exact = int_matrix_power(mat, n)
    assert int_matrix_power(mat, n, cap=cap) == [[min(cap, v) for v in row] for row in exact]


def test_grow_budget_bounds_the_work(fib, grid2, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^grow would produce more than 400000 tiles$"):
        fib.grow("a", 10**9)
    assert time.perf_counter() - start < 0.1
    # the count is exact up to the budget: omega^10(a) has 144 tiles
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 144)
    assert len(fib.grow("a", 10)) == 144
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 143)
    with pytest.raises(BudgetError, match="^grow would produce more than 143 tiles$"):
        fib.grow("a", 10)
    # one prototile: its one count alone crosses the budget
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 64)
    assert len(grid2.grow("sq", 3)) == 64
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 63)
    with pytest.raises(BudgetError, match="^grow would produce more than 63 tiles$"):
        grid2.grow("sq", 3)
