import dataclasses
import io
import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from generated_systems import constant_length_system, draw_constant_length
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilingspectra import TilingError, intlattice
from tilingspectra import returns, tiles
from tilingspectra.cli import cli_dispatch
from tilingspectra.corpus import NAMES, corpus_path
from tilingspectra.errors import BudgetError
from tilingspectra.intlattice import embed, embed_rows
from tilingspectra.lattice import charpoly, hnf
from tilingspectra.returns import (
    ReturnSample,
    algebraic_integer_check,
    control_points,
    enumerate_returns,
    group_basis,
    kenyon_basis,
    phi_action,
    stabilized_module,
    verify_control_point_dynamics,
)
from tilingspectra.spectra import (
    Alpha,
    dual_basis,
    eigenvalue_module,
    eigenvalue_report,
    system_module,
)
from tilingspectra.systemfile import parse_system, serialize_system, system_from_dict
from tilingspectra.tiles import validate

TRIBONACCI = Path(__file__).resolve().parent.parent / "perfbench" / "systems" / "tribonacci.json"


def control_point_iteration_error(system, cps, steps: int = 20):
    """Float distance between c_j and theta^-n * (offset of the n-fold
    tile-map child), the numeric contraction view of the definition."""
    theta = system.theta_elem()
    field = system.field
    errors = {}
    for tid in system.order:
        cur_tid, offset = tid, system.zero_vec()
        for _ in range(steps):
            _, child = system.gamma(cur_tid)
            offset = offset.scale(theta) + child.offset
            cur_tid = child.proto
        inv = field.one() / (theta**steps)
        approx = offset.scale(inv)
        diff = approx - cps.points[tid]
        errors[tid] = max(abs(float(e)) for e in diff.entries)
    return errors


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
    vecs = [K.vec([t + 1]), K.vec([(t + 1) * 2])]
    coords, den = embed(vecs)
    sample = ReturnSample(depth=0, vectors=vecs, dimension=1, coords=coords, den=den)
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
    coords = module._coordinates(*embed_rows([v.scale(t) for v in sample.vectors]))
    assert all(c is not None for c in coords)


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


def test_control_point_dynamics_rejects_a_shifted_point(systems):
    # theta * (c + 1/7) keeps a 7 in its denominators, which no control
    # point of the next patch has, so the moved point must be caught
    for system in systems.values():
        cps = control_points(system)
        shift = system.field.vec([Fraction(1, 7)] + [0] * (system.dimension - 1))
        for tid in system.order:
            moved = dataclasses.replace(cps, points={**cps.points, tid: cps.points[tid] + shift})
            assert not verify_control_point_dynamics(system, moved, 3), (system.name, tid)


def test_control_points_and_kenyon_basis_shared_by_threads(chair):
    """Six barrier-released threads build one fresh system's control
    points, seeds and seed map at once; each result equals the serial
    one, and what the system keeps cannot be changed through it."""
    data = serialize_system(chair)
    data["control_child"] = {"NE": 3, "NW": 1, "SW": 2}  # nonzero points
    serial = system_from_dict(data)
    module = stabilized_module(serial)

    def run(system):
        return (
            control_points(system).serialize(),
            kenyon_basis(system, module, 3).serialize(),
        )

    expected = run(serial)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh = system_from_dict(data)
            barrier = threading.Barrier(6)
            results = [None] * 6

            def work(i):
                barrier.wait(timeout=30)
                results[i] = run(fresh)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old_interval)
    cps = control_points(fresh)
    with pytest.raises(TypeError):
        cps.points["NE"] = cps.points["NW"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cps.points = {}
    T, _ = fresh._controls.seed_map
    with pytest.raises(ValueError):
        T[0, 0] = 1


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
    assert kb.integral_rows(sample.coords, sample.den).all()


def test_kenyon_basis_np26_needs_denominator(np26):
    module = stabilized_module(np26)
    kb = kenyon_basis(np26, module, depth=4)
    assert kb.denominator > 1  # returns include (theta-1)/2
    sample = enumerate_returns(np26, 4)
    assert kb.integral_rows(sample.coords, sample.den).all()


def test_kenyon_basis_grid(grid2):
    module = stabilized_module(grid2)
    kb = kenyon_basis(grid2, module, depth=4)
    assert kb.denominator == 1
    assert len(kb.basis) == 2


# kenyon --depth 3 output (basis, seeds, denominator) of the Q(theta)
# Gauss-Jordan implementation the integer solver replaced
KENYON_FROZEN = {
    "fibonacci": ([[["1", "1"]]], [[["1", "1"]]], 1),
    "tm": ([[["1"]]], [[["3"]]], 3),
    "np26": ([[["0", "1/10"]]], [[["0", "1"]]], 10),
    "chair": ([[["0"], ["2"]], [["1/2"], ["1/2"]]], [[["0"], ["4"]], [["1"], ["1"]]], 2),
    "grid2": ([[["0"], ["1"]], [["1"], ["0"]]], [[["0"], ["1"]], [["1"], ["0"]]], 1),
    "tribonacci": ([[["0", "1", "0"]]], [[["0", "1", "0"]]], 1),
}


def test_kenyon_basis_frozen(systems):
    for name, system in {**systems, "tribonacci": parse_system(TRIBONACCI)}.items():
        out = kenyon_basis(system, stabilized_module(system), 3).serialize()
        assert (out["basis"], out["seeds"], out["denominator"]) == KENYON_FROZEN[name], name


def test_member_coordinates_round_trip(systems):
    for system in systems.values():
        module = stabilized_module(system)
        gens = module.generators
        coeffs = [(-1) ** i * (i + 2) for i in range(len(gens))]
        v = gens[0].scale(system.field.rational(coeffs[0]))
        for c, g in zip(coeffs[1:], gens[1:]):
            v = v + g.scale(system.field.rational(c))
        # half of a basis vector is in the Q-span but never in the group
        half = gens[0].scale(system.field.rational(Fraction(1, 2)))
        assert module._coordinates(*embed_rows([v, half])) == [coeffs, None], system.name


def fibonacci_squared(control_child=None):
    """The product of two Fibonacci tilings: rectangles with sides theta
    and 1, a plane system over Q(golden) (d = 2, s = 2), where every
    Q(theta) system of the library has more than one entry per block."""
    length = {"a": ["0", "1"], "b": ["1", "0"]}  # theta and 1
    rule = {"a": [("a", ["0", "0"]), ("b", ["0", "1"])], "b": [("a", ["0", "0"])]}
    zero = ["0", "0"]
    tiles, rules = [], {}
    for x in "ab":
        for y in "ab":
            w, h = length[x], length[y]
            corners = [[zero, zero], [w, zero], [w, h], [zero, h]]
            tiles.append({"id": x + y, "support": {"type": "polygon", "vertices": corners}})
            rules[x + y] = [
                {"tile": cx + cy, "offset": [ox, oy]} for cx, ox in rule[x] for cy, oy in rule[y]
            ]
    data = {
        "name": "fibonacci-squared",
        "dimension": 2,
        "theta": {"minpoly": [-1, -1, 1], "approx": "1.61803398875"},
        "prototiles": tiles,
        "rules": rules,
        "control_child": control_child or {},
    }
    return system_from_dict(data)


def test_plane_system_over_quadratic_field():
    # frozen values from the Q(theta) Gauss-Jordan implementation
    system = fibonacci_squared({"aa": 3, "ab": 1, "ba": 1})
    assert validate(system).valid
    K, t = system.field, system.field.gen()
    cps = control_points(system)
    assert cps.serialize()["points"] == {
        "aa": [["0", "1"], ["0", "1"]],
        "ab": [["0", "1"], ["1", "0"]],
        "ba": [["1", "0"], ["0", "1"]],
        "bb": [["1", "0"], ["1", "0"]],
    }
    for tid in system.order:
        image = cps.points[tid].scale(t)
        assert image == system.gamma(tid)[1].offset + cps.points[cps.child_type[tid]]
    assert verify_control_point_dynamics(system, cps, 3)
    module = stabilized_module(system)
    assert phi_action(module, system) == [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]
    kb = kenyon_basis(system, module, 4)
    assert kb.serialize() == {
        "basis": [[["0", "0"], ["1", "1"]], [["1", "1"], ["0", "0"]]],
        "seeds": [[["0", "0"], ["1", "1"]], [["1", "1"], ["0", "0"]]],
        "denominator": 1,
        "verified_returns": 168,
    }
    assert eigenvalue_module(system).serialize()["generators"] == [
        [["0", "0"], ["2", "-1"]],
        [["2", "-1"], ["0", "0"]],
    ]
    # a basis with theta-multiples in both entries: <b_i, b*_j> = delta_ij
    basis = [K.vec([t, 1 + t]), K.vec([t * t, Fraction(1, 3)])]
    dual = dual_basis(basis)
    for i, b in enumerate(basis):
        for j, e in enumerate(dual):
            assert b.dot(e) == (K.one() if i == j else K.zero())


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


# ---------------------------------------------------------------------------
# joint growth: every prototile grows as one patch, one step per depth

GRID2_PLAIN = TRIBONACCI.parent / "grid2-plain.json"


@pytest.fixture(scope="module")
def seven(systems):
    """The five corpus systems, tribonacci and grid2 without its periods."""
    extra = {"tribonacci": parse_system(TRIBONACCI), "grid2-plain": parse_system(GRID2_PLAIN)}
    return {**systems, **extra}


def reference_grow_lattice(system, tid, depth):
    """One prototile grown alone from the root tile, one substitution per
    depth: what grow_lattice did before prototiles grew together."""
    form = system.lattice_form()
    types = np.array([system.order.index(tid)], dtype=np.int64)
    coords = np.zeros((1, form.theta.shape[0]), dtype=np.int64)
    den = form.den
    for _ in range(depth):
        types, coords, den, _ = intlattice.substitute(form, types, coords, den)
    return types, coords, den


def assert_steps_match_growth(system, label, rows_until=6):
    """The blocks of the joint patch at depths 0-6 equal each prototile
    grown alone and grow_lattice, and up to `rows_until` the returns of
    the joint patch are the union of those of the blocks grown alone.
    Every step's carried bound, which keeps a step in int64, holds."""
    real = tiles.substitute
    bounds = []

    def spy(*args):
        out = real(*args)
        bounds.append(out[3] >= intlattice.abs_max(out[1]))
        return out

    depths = range(0, 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiles, "substitute", spy)
        grown_at = list(system.grow_lattices(system.order, depths))
    assert len(bounds) == 6 and all(bounds), label
    for depth, grown in zip(depths, grown_at):
        assert len(grown.parts()) == len(system.order), (label, depth)
        alone = []
        for tid, (types, coords) in zip(system.order, grown.parts()):
            expected = reference_grow_lattice(system, tid, depth)
            alone.append(expected)
            for got in ((types, coords, grown.den), system.grow_lattice(tid, depth)):
                assert np.array_equal(got[0], expected[0]), (label, tid, depth)
                assert np.array_equal(got[1], expected[1]), (label, tid, depth)
                assert got[2] == expected[2], (label, tid, depth)
        if depth <= rows_until:
            rows, den = returns._return_rows(system, depth)
            union = set()
            for patch in alone:
                one = tiles.JointPatch(*patch, (len(patch[0]),))
                union.update(map(tuple, returns._patch_returns(system, one)[0].tolist()))
            # the rows come in lexicographic order
            assert rows.tolist() == sorted(map(list, union)), (label, depth)
            assert den == grown.den, (label, depth)


def test_stepped_patches_match_growth(seven):
    for name, system in seven.items():
        assert_steps_match_growth(system, name)


def test_stepped_patches_match_growth_in_python_ints(seven, monkeypatch):
    """Object arrays throughout; the returns, n^2 Python-int differences
    per type group, are compared up to depth 4."""
    monkeypatch.setattr(intlattice, "INT64_LIMIT", 2)
    for name, system in seven.items():
        fresh = system_from_dict(serialize_system(system))
        assert fresh.grow_lattice(fresh.order[0], 2)[1].dtype == object, name
        assert_steps_match_growth(fresh, name, rows_until=4)


def pairwise_key(system, depth):
    """The group key of all same-type differences of each prototile's
    grown patch, or None when there is none."""
    rows, den = returns._return_rows(system, depth)
    return returns._basis_of(rows, den) if len(rows) else None


def test_sample_keys_give_the_pairwise_group(seven, monkeypatch):
    """At depths 0-6 the recursion over the rules gives the key of the
    group of all same-type differences within each prototile's patch
    (None where no patch holds two tiles of one type): same reduced
    denominator and same HNF rows, also against pairwise differences
    taken in Python ints.  In `c_no_child`, c's block at depth 1 has the
    difference 1, but every depth-2 patch is abab, with the group 2Z."""
    c_no_child = system_from_dict(constant_length_system(2, {"a": "ab", "b": "ab", "c": "bb"}))
    assert list(returns._sample_keys(c_no_child, range(3)))[1:] == [(1, [[1]]), (1, [[2]])]
    for name, system in {**seven, "c_no_child": c_no_child}.items():
        keys = list(returns._sample_keys(system, range(7)))
        for depth, key in enumerate(keys):
            assert key == pairwise_key(system, depth), (name, depth)
        assert keys[0] is None and keys[6] is not None, name
    monkeypatch.setattr(intlattice, "INT64_LIMIT", 2)
    for name, system in seven.items():
        fresh = system_from_dict(serialize_system(system))
        assert returns._return_rows(fresh, 2)[0].dtype == object, name
        keys = returns._sample_keys(fresh, range(5))
        for depth, key in enumerate(keys):
            assert key == pairwise_key(fresh, depth), (name, depth)


def lattice_key(module):
    return (module.denominator, tuple(map(tuple, module.hnf_rows)))


def reference_stabilized_module(system, start_depth=2, max_depth=6):
    """The depth loop as it was: each depth enumerated from depth 0 and
    given a module of its own."""
    prev = None
    for depth in range(start_depth, max_depth + 1):
        sample = enumerate_returns(system, depth)
        if not len(sample):
            continue
        module = group_basis(sample, system.field)
        if prev is not None and lattice_key(module) == lattice_key(prev):
            module.stabilized = True
            return module
        prev = module
    if prev is None:
        raise TilingError("no return vectors found up to the maximum depth")
    return prev


def test_stabilized_module_matches_depth_loop(seven):
    cases = [(2, 6), (2, 2), (2, 3), (3, 4), (1, 6)]
    seen_unstabilized = set()
    for name, system in seven.items():
        for start, stop in cases:
            got = stabilized_module(system, start, stop)
            expected = reference_stabilized_module(system, start, stop)
            label = (name, start, stop)
            assert got.serialize() == expected.serialize(), label
            assert lattice_key(got) == lattice_key(expected), label
            assert got.stabilized == expected.stabilized, label
            assert got.sample_depth == expected.sample_depth, label
            if not got.stabilized:
                seen_unstabilized.add(name)
    # fibonacci stabilizes at depth 4 and tribonacci at 5: max_depth 3 stops short
    assert {"fibonacci", "tribonacci"} <= seen_unstabilized
    with pytest.raises(TilingError, match="no return vectors found up to the maximum depth"):
        stabilized_module(seven["fibonacci"], 0, 0)
    with pytest.raises(TilingError, match="no return vectors found up to the maximum depth"):
        stabilized_module(seven["fibonacci"], 4, 3)


def dilation_system(n):
    """The unit interval cut into n unit tiles: theta = n, one prototile."""
    return system_from_dict(constant_length_system(n, {"a": "a" * n}, f"dilation{n}"))


def test_grow_budget_refuses_a_step_before_building_it(monkeypatch):
    """Depth 2 of a dilation by 700 has 490,000 tiles.  The module sample
    grows no patch, so it finds the group Z, stabilized at depth 2, with
    no substitution; growth to depth 2 is refused with grow_lattice's
    message before any substitution builds it."""
    system = dilation_system(700)
    sizes = []
    real = tiles.substitute

    def spy(form, types, *args, **kwargs):
        sizes.append(len(types))
        return real(form, types, *args, **kwargs)

    monkeypatch.setattr(tiles, "substitute", spy)
    module = stabilized_module(system, start_depth=1)
    assert lattice_key(module) == (1, ((1,),))
    assert module.stabilized and module.sample_depth == 2
    assert sizes == []
    grown = system.grow_lattices(["a"], [1, 2])
    assert len(next(grown).types) == 700
    with pytest.raises(BudgetError) as info:
        next(grown)
    assert str(info.value) == "grow would produce more than 400000 tiles"
    with pytest.raises(BudgetError) as info:
        system.grow_lattice("a", 2)
    assert str(info.value) == "grow would produce more than 400000 tiles"
    assert sizes == [1]  # the one step of the depth-1 growth, from the root tile


def test_module_path_builds_no_patch(seven, monkeypatch):
    """On freshly parsed systems the return module, and an eigenvalue
    report from it, substitute nothing and build no lattice form."""
    calls = []
    real = tiles.substitute

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(tiles, "substitute", spy)
    for name, system in seven.items():
        fresh = system_from_dict(serialize_system(system))
        system_module(fresh)
        assert fresh._lattice is None and not calls, name
    for name in ("fibonacci", "tribonacci"):
        fresh = system_from_dict(serialize_system(seven[name]))
        alpha = Alpha(fresh.field.vec([1]))
        eigenvalue_report(fresh, alpha)
        assert fresh._lattice is None and not calls, name
    with pytest.raises(TilingError, match="depth must be nonnegative"):
        stabilized_module(seven["fibonacci"], -1, 3)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.randoms(use_true_random=False))
def test_generated_constant_length_systems(tmp_path, rng):
    """On generated systems with theta = q (periodic, non-primitive, some
    letters no child): the recursion's keys are the pairwise keys at
    depths 0-4, the module is the depth loop's, and `weakmixing` ends in
    exit 0 or 1 with a message; on exit 0 it finds theta Pisot, so the
    system is not weak mixing."""
    data = draw_constant_length(rng)
    system = system_from_dict(data)
    for depth, key in enumerate(returns._sample_keys(system, range(5))):
        assert key == pairwise_key(system, depth), (data["rules"], depth)
    # depth 6 holds q^6 >= 64 tiles of at most four types: never empty
    got, expected = stabilized_module(system, 2, 6), reference_stabilized_module(system, 2, 6)
    assert got.serialize() == expected.serialize(), data["rules"]
    assert lattice_key(got) == lattice_key(expected), data["rules"]
    path = tmp_path / "generated.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(["weakmixing", str(path)], out, err)
    assert code in (0, 1) and "Traceback" not in err.getvalue(), err.getvalue()
    verdict = json.loads(out.getvalue())
    if code == 0:
        assert verdict["pisot"] is True and verdict["weak_mixing"] is False, data["rules"]
    else:
        assert verdict["error"] and err.getvalue(), data["rules"]


def test_pair_budget_bounds_return_enumeration(np26, monkeypatch):
    monkeypatch.setattr(returns, "DEFAULT_PAIR_BUDGET", 100)
    message = "return enumeration exceeds pair budget 100"
    with pytest.raises(BudgetError) as info:
        enumerate_returns(np26, 3)
    assert str(info.value) == message
    out, err = io.StringIO(), io.StringIO()
    assert cli_dispatch(["returns", str(corpus_path("np26")), "--depth", "3"], out, err) == 1
    assert json.loads(out.getvalue()) == {"error": message}
    assert err.getvalue() == f"error: {message}\n"


def test_grow_budget_refuses_one_block_over_it(fib, monkeypatch):
    """The budget bounds each prototile's block, not the joint patch: at
    depth 5 fibonacci's `a` grows to 13 tiles and `b` to 8.  With a
    budget of 12, `a` alone is refused, before the step to depth 5 is
    built; with 13 both grow, though together they hold 21 tiles."""
    steps = []
    real = tiles.substitute

    def spy(form, types, *args, **kwargs):
        steps.append(len(types))
        return real(form, types, *args, **kwargs)

    monkeypatch.setattr(tiles, "substitute", spy)
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 12)
    grown = fib.grow_lattices(["b", "a"], (4, 5))
    assert next(grown).sizes == (5, 8)
    assert len(steps) == 4
    with pytest.raises(BudgetError) as info:
        next(grown)
    assert str(info.value) == "grow would produce more than 12 tiles"
    assert len(steps) == 4  # nothing of depth 5 was built
    with pytest.raises(BudgetError) as info:
        fib.grow_lattice("a", 5)
    assert str(info.value) == "grow would produce more than 12 tiles"
    assert len(fib.grow_lattice("b", 5)[0]) == 8
    monkeypatch.setattr(tiles, "DEFAULT_GROW_BUDGET", 13)
    (grown,) = fib.grow_lattices(["b", "a"], [5])
    assert grown.sizes == (8, 13) and len(grown.types) == 21


def test_kenyon_at_the_sample_depth_holds_by_construction(seven):
    """Every return sampled at the module's depth has integer coordinates
    over the coordinate basis, which checks no rows, and kenyon_basis,
    which checks them, counts them and builds the same basis."""
    for name, system in seven.items():
        module = stabilized_module(system)
        basis = returns.coordinate_basis(system, module)
        rows, den = returns._return_rows(system, module.sample_depth)
        assert basis.integral_rows(rows, den).all(), name
        kb = kenyon_basis(system, module, module.sample_depth)
        assert kb.verified_count == len(rows), name
        assert kb.serialize() == {**basis.serialize(), "verified_returns": len(rows)}, name


def test_kenyon_enumerates_once_at_every_depth(seven, monkeypatch):
    """kenyon_basis enumerates the returns once at the depth asked, also
    at a stabilized module's sample depth, and a module from group_basis
    at that depth gives the same basis and count."""
    calls = []
    real = returns._return_rows

    def spy(system, depth):
        calls.append(depth)
        return real(system, depth)

    monkeypatch.setattr(returns, "_return_rows", spy)
    for name, system in seven.items():
        module = stabilized_module(system)
        depth = module.sample_depth
        calls.clear()
        kb = kenyon_basis(system, module, depth).serialize()
        assert calls == [depth], name
        assert kb["verified_returns"] == len(real(system, depth)[0]), name
        calls.clear()
        shallower = kenyon_basis(system, module, depth - 1).serialize()
        assert calls == [depth - 1], name
        assert shallower == {**kb, "verified_returns": len(real(system, depth - 1)[0])}, name
        sampled = group_basis(enumerate_returns(system, depth), system.field)
        calls.clear()
        assert kenyon_basis(system, sampled, depth).serialize() == kb, name
        assert calls == [depth], name


def test_kenyon_counts_the_returns_of_its_depth(seven):
    """`kenyon --depth D` verifies exactly the returns `returns --depth D`
    counts, for D from 0 to one past the module's sample depth."""

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        assert cli_dispatch(list(argv), out, err) == 0, argv
        return json.loads(out.getvalue())

    for name, system in seven.items():
        path = str(corpus_path(name) if name in NAMES else TRIBONACCI.parent / f"{name}.json")
        for depth in range(stabilized_module(system).sample_depth + 2):
            count = run("returns", path, "--depth", str(depth))["count"]
            verified = run("kenyon", path, "--depth", str(depth))["verified_returns"]
            assert verified == count, (name, depth)
