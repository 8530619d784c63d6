from fractions import Fraction

import pytest
import sympy

from tilingspectra import TilingError
from tilingspectra.lattice import charpoly, hnf
from tilingspectra.returns import (
    algebraic_integer_check,
    control_point_iteration_error,
    control_points,
    enumerate_returns,
    group_basis,
    kenyon_basis,
    phi_action,
    stabilized_module,
    verify_control_point_dynamics,
)
from tilingspectra.systemfile import serialize_system, system_from_dict


def test_depth_zero_is_empty(fib):
    sample = enumerate_returns(fib, 0)
    assert len(sample) == 0


def test_fibonacci_depth2_contains_theta_plus_one(fib):
    K = fib.field
    t = K.gen()
    sample = enumerate_returns(fib, 2)
    keys = {v.key() for v in sample.vectors}
    assert K.vec([t + 1]).key() in keys
    assert K.vec([-(t + 1)]).key() in keys  # symmetric


def test_grid_returns_contain_unit_vectors(grid2):
    K = grid2.field
    sample = enumerate_returns(grid2, 2)
    keys = {v.key() for v in sample.vectors}
    for vec in ([1, 0], [0, 1], [1, 1]):
        assert K.vec(vec).key() in keys


def test_group_basis_collinear_multiples(fib):
    K = fib.field
    t = K.gen()
    from tilingspectra.returns import ReturnSample

    sample = ReturnSample(
        depth=0, vectors=[K.vec([t + 1]), K.vec([(t + 1) * 2])], dimension=1
    )
    module = group_basis(sample, K)
    assert module.rank == 1
    assert module.generators[0].key() == K.vec([t + 1]).key()


def test_hnf_oracle_idempotent():
    rows = [[2, 0], [-1, 1], [0, 2]]
    h = hnf(rows)
    assert hnf(h) == h
    assert h == [[1, 1], [0, 2]]


def test_fibonacci_module_and_m(fib):
    K = fib.field
    module = stabilized_module(fib)
    assert module.stabilized
    assert module.rank == 2
    # canonical HNF basis: 1 and theta
    assert [v.serialize() for v in module.generators] == [[["1", "0"]], [["0", "1"]]]
    M = phi_action(module, fib)
    assert M == [[0, 1], [1, 1]]
    assert algebraic_integer_check(M, K)
    # charpoly oracle via sympy
    sym = sympy.Matrix(M).charpoly().all_coeffs()
    assert list(reversed([int(c) for c in sym])) == list(charpoly(M).coeffs)


def test_np26_module_and_m(np26):
    module = stabilized_module(np26)
    assert module.stabilized
    assert module.rank == 2
    # generators (1+theta)/2 and theta, canonical HNF ordering
    assert [v.serialize() for v in module.generators] == [
        [["1/2", "1/2"]],
        [["0", "1"]],
    ]
    M = phi_action(module, np26)
    assert M == [[5, 10], [-1, -3]]
    assert charpoly(M).coeffs == (-5, -2, 1)  # matches the minimal polynomial
    assert algebraic_integer_check(M, np26.field)


def test_grid_and_chair_modules(grid2, chair):
    for system, expected_m in ((grid2, [[2, 0], [0, 2]]), (chair, [[2, 0], [0, 2]])):
        module = stabilized_module(system)
        assert module.stabilized
        assert module.rank == 2
        M = phi_action(module, system)
        assert M == expected_m
        assert algebraic_integer_check(M, system.field)


def test_corrupted_m_fails_check(fib):
    module = stabilized_module(fib)
    M = phi_action(module, fib)
    M[0][0] += 1  # deliberate corruption
    assert not algebraic_integer_check(M, fib.field)


def test_phi_stability_of_sampled_returns(fib):
    K = fib.field
    t = K.gen()
    module = stabilized_module(fib)
    sample = enumerate_returns(fib, 4)
    for v in sample.vectors:
        assert module.member_coordinates(v.scale(t)) is not None


def test_control_points_default_gamma(systems):
    # default child 0 sits at offset 0 for every corpus rule
    for system in systems.values():
        cps = control_points(system)
        for tid in system.order:
            assert all(e.is_zero() for e in cps.points[tid].entries)


def test_control_points_nondefault_gamma(fib):
    data = serialize_system(fib)
    data["control_child"] = {"a": 1, "b": 0}
    system = system_from_dict(data)
    K = system.field
    t = K.gen()
    cps = control_points(system)
    # theta*c_a = theta + c_b, theta*c_b = c_a  =>  c_a = theta, c_b = 1
    assert cps.points["a"].key() == K.vec([t]).key()
    assert cps.points["b"].key() == K.vec([1]).key()
    errs = control_point_iteration_error(system, cps, steps=20)
    assert all(e < 1e-3 for e in errs.values())


def test_control_point_dynamics(systems):
    for system in systems.values():
        cps = control_points(system)
        assert verify_control_point_dynamics(system, cps, 3)


def test_control_point_iteration_exact_for_default(systems):
    for system in systems.values():
        cps = control_points(system)
        errs = control_point_iteration_error(system, cps, steps=20)
        assert all(e < 1e-9 for e in errs.values())


def test_kenyon_basis_fibonacci(fib):
    module = stabilized_module(fib)
    kb = kenyon_basis(fib, module, depth=6)
    assert kb.verified_count > 0
    # every sampled return must decompose with Z[theta] coordinates
    sample = enumerate_returns(fib, 6)
    assert all(kb.has_integer_coordinates(v) for v in sample.vectors)


def test_kenyon_basis_np26_needs_denominator(np26):
    module = stabilized_module(np26)
    kb = kenyon_basis(np26, module, depth=4)
    assert kb.denominator > 1  # returns include (theta-1)/2
    sample = enumerate_returns(np26, 4)
    assert all(kb.has_integer_coordinates(v) for v in sample.vectors)


def test_kenyon_basis_grid(grid2):
    module = stabilized_module(grid2)
    kb = kenyon_basis(grid2, module, depth=4)
    assert kb.denominator == 1
    assert len(kb.basis) == 2


def test_fft_and_pairwise_difference_paths_agree(grid2, chair, np26, monkeypatch):
    # the row path of enumerate_returns, FFT shortcut included, must give
    # exactly the pairwise set
    import tilingspectra.returns as returns
    from tilingspectra.intlattice import vectors

    fft_taken = []
    real = returns._autocorrelation_rows

    def spy(arr):
        rows = real(arr)
        fft_taken.append(rows is not None)
        return rows

    monkeypatch.setattr(returns, "_autocorrelation_rows", spy)
    for system, depth in ((grid2, 3), (chair, 3), (np26, 3)):
        rows, den = returns._return_rows(system, depth)
        fast = [v.key() for v in vectors(system.field, rows, den)]
        # pairwise reference: exact vector arithmetic
        slow = set()
        for tid in system.order:
            groups = {}
            for t in system.grow(tid, depth):
                groups.setdefault(t.proto, []).append(t.offset)
            for offsets in groups.values():
                for a in offsets:
                    for b in offsets:
                        if a != b:
                            slow.add((a - b).key())
        assert len(fast) == len(set(fast))
        assert set(fast) == slow
    assert any(fft_taken)
