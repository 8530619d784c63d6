"""The integer patch core against per-tile exact references."""

import sys
import threading
from fractions import Fraction
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilingspectra import (
    IntPoly,
    NumberField,
    TilingError,
    golden_field,
    intlattice,
    make_algebraic,
)
from tilingspectra import geometry, returns, tiles
from tilingspectra.corpus import corpus_path
from tilingspectra.lattice import hnf
from tilingspectra.ordering import _FEW, value_order
from tilingspectra.returns import (
    ReturnSample,
    _autocorrelation_rows,
    _return_rows,
    control_points,
    coordinate_basis,
    enumerate_returns,
    group_basis,
    kenyon_basis,
    stabilized_module,
    verify_control_point_dynamics,
)
from tilingspectra.systemfile import parse_system, serialize_system, system_from_dict
from tilingspectra.tiles import Patch, PlacedTile

from test_ordering import exact_key

TRIBONACCI = Path(__file__).resolve().parent.parent / "perfbench" / "systems" / "tribonacci.json"


@pytest.fixture(scope="module")
def all_systems(systems):
    return {**systems, "tribonacci": parse_system(TRIBONACCI)}


def reference_substitute(system, tiles):
    """One substitution step, tile by tile, in exact Q(theta) arithmetic."""
    theta = system.theta_elem()
    return [
        PlacedTile(ch.proto, t.offset.scale(theta) + ch.offset)
        for t in tiles
        for ch in system.rules[t.proto]
    ]


def reference_patch(tiles):
    """Canonical order by exact comparisons only."""
    return Patch(sorted(tiles, key=lambda t: (t.proto, exact_key(t.offset))))


def reference_grow(system, tid, n):
    tiles = [PlacedTile(tid, system.zero_vec())]
    for _ in range(n):
        tiles = reference_substitute(system, tiles)
    return reference_patch(tiles)


def substitute_patch(system, patch):
    """One integer substitution step of an arbitrary patch, whose offsets
    may have any denominator, as a Patch."""
    index = {tid: i for i, tid in enumerate(system.order)}
    types = np.array([index[t.proto] for t in patch], dtype=np.int64)
    coords, den = intlattice.embed([t.offset for t in patch])
    if not len(types):
        coords = np.zeros((0, system.lattice_form().theta.shape[0]), dtype=np.int64)
    return system._patch_of(*intlattice.substitute(system.lattice_form(), types, coords, den)[:3])


def assert_same_patch(got, expected, label):
    assert [t.key() for t in got] == [t.key() for t in expected], label
    assert got.serialize() == expected.serialize(), label


def test_grow_matches_per_tile_reference(all_systems):
    for name, system in all_systems.items():
        for tid in system.order:
            for n in range(5):
                assert_same_patch(system.grow(tid, n), reference_grow(system, tid, n), (name, tid, n))


def test_substitute_translated_patch_with_new_denominator(all_systems):
    for name, system in all_systems.items():
        K = system.field
        shift = K.vec([K.elem([Fraction(1, 3)] + [Fraction(-2, 7)] * (K.degree - 1))] * system.dimension)
        for tid in system.order:
            # translation keeps the canonical order
            patch = Patch([PlacedTile(t.proto, t.offset + shift) for t in system.grow(tid, 2)])
            expected = reference_patch(reference_substitute(system, patch.tiles))
            assert_same_patch(substitute_patch(system, patch), expected, (name, tid))
    assert len(substitute_patch(system, Patch([]))) == 0


def test_object_fallback_gives_identical_output(all_systems, monkeypatch):
    """A tiny overflow limit sends every array through Python ints."""
    expected = {}
    for name, system in all_systems.items():
        tid = system.order[0]
        depth = 3 if system.dimension == 2 else 5
        sample = enumerate_returns(system, depth)
        expected[name] = (
            system.grow(tid, depth).serialize(),
            [v.serialize() for v in sample.vectors],
            kenyon_basis(system, stabilized_module(system), depth).serialize(),
        )
    monkeypatch.setattr(intlattice, "INT64_LIMIT", 2)
    for name, system in all_systems.items():
        fresh = system_from_dict(serialize_system(system))
        tid = fresh.order[0]
        depth = 3 if fresh.dimension == 2 else 5
        sample = enumerate_returns(fresh, depth)
        assert sample.coords.dtype == object
        got = (
            fresh.grow(tid, depth).serialize(),
            [v.serialize() for v in sample.vectors],
            kenyon_basis(fresh, stabilized_module(fresh), depth).serialize(),
        )
        assert got == expected[name], name
        assert verify_control_point_dynamics(fresh, control_points(fresh), 3), name


def test_one_gather_substitute_in_python_ints_matches_reference(all_systems, monkeypatch):
    """Every step on object arrays: the gather must not depend on int64."""
    monkeypatch.setattr(intlattice, "INT64_LIMIT", 2)
    for name, system in all_systems.items():
        fresh = system_from_dict(serialize_system(system))
        assert fresh.grow_lattice(fresh.order[0], 3)[1].dtype == object, name
        for tid in fresh.order:
            for n in range(4):
                label = (name, tid, n)
                assert_same_patch(fresh.grow(tid, n), reference_grow(fresh, tid, n), label)
            patch = fresh.grow(tid, 2)
            expected = reference_patch(reference_substitute(fresh, patch.tiles))
            assert_same_patch(substitute_patch(fresh, patch), expected, (name, tid))


def test_rows_in_checks_the_bounding_box_before_packing():
    table = np.array([[0, 0], [1, 0]])
    assert intlattice.rows_in(np.array([[1, 0], [0, 0]]), table)
    # (0, 1) lies outside the box (its y is not 0) and packs to the key
    # of (1, 0) under the box's radix
    assert not intlattice.rows_in(np.array([[0, 1]]), table)
    assert not intlattice.rows_in(np.array([[2, 0]]), table)
    assert intlattice.rows_in(np.zeros((0, 2), dtype=np.int64), table)


def test_lattice_form_is_read_only_and_shared_by_threads(chair):
    """Six threads (more than cores) fill one fresh system's lattice form
    and grow every prototile from it at once; each result equals the
    serial one, and no array of the form can be written."""
    expected = [chair.grow(tid, 4).serialize() for tid in chair.order]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh = system_from_dict(serialize_system(chair))
            barrier = threading.Barrier(6)
            results = [None] * 6

            def work(i):
                barrier.wait(timeout=30)
                results[i] = [fresh.grow(tid, 4).serialize() for tid in fresh.order]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old_interval)
    form = fresh.lattice_form()
    arrays = [v for v in form if isinstance(v, np.ndarray)]
    assert len(arrays) == 6 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        form.child_offsets[0, 0] = 1


@pytest.mark.parametrize("name", ["fibonacci", "np26", "chair"])
def test_parsing_embeds_the_rule_offsets_once(monkeypatch, name):
    """The system builds its rule form when it is parsed; legal pairs, the
    volume check, the lattice form and the control points all read that
    form, so the rule offsets go through embed_rows exactly once."""
    calls = []
    real = intlattice.embed_rows

    def spy(vecs):
        calls.append(list(vecs))
        return real(vecs)

    for module in (intlattice, tiles, geometry, returns):
        if hasattr(module, "embed_rows"):
            monkeypatch.setattr(module, "embed_rows", spy)
    system = parse_system(corpus_path(name))
    tiles.legal_pairs(system)
    tiles.perron_check(system)
    system.lattice_form()
    control_points(system)
    offsets = [ch.offset for tid in system.order for ch in system.rules[tid]]
    assert sum(any(v is o for v in vecs for o in offsets) for vecs in calls) == 1


def test_rule_form_is_made_of_tuples(all_systems):
    """No field of the rule form can be changed in place, and its
    denominator is the lattice form's."""

    def frozen(value):
        return isinstance(value, int) or (
            isinstance(value, (tuple, range)) and all(frozen(v) for v in value)
        )

    for name, system in all_systems.items():
        form = system.rule_form
        assert isinstance(form, tuple) and all(frozen(v) for v in form), name
        assert form.den == system.lattice_form().den, name
        with pytest.raises(AttributeError):
            form.den = 1


CUBIC = NumberField(make_algebraic(IntPoly((-1, -1, 0, 1)), Fraction(133, 100)))
# a field whose degree divides the row width, for group_basis
FIELD_OF_WIDTH = {
    1: NumberField(make_algebraic(IntPoly((-2, 1)), 2)),
    2: golden_field(),
    3: CUBIC,
    4: golden_field(),
}


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.integers(-40, 40) | st.sampled_from([10**20, -(10**19) - 7]), min_size=6, max_size=6
        ),
        max_size=30,
    ),
    den=st.integers(1, 12),
)
@example(rows=[[2**70, -(2**64) * 3, 6, 0, 0, 9], [4, 0, -(3**50), 2**63, 1, 2]], den=12)
def test_vectors_match_field_construction(rows, den):
    """d = 2 entries over a cubic field, over den, as int64 or Python ints;
    embed_rows and embed give back the rows over the lowest denominator."""
    field = CUBIC
    coords = intlattice.int_array(rows, 6)
    expected = [
        field.vec([field.elem([Fraction(c, den) for c in row[k : k + 3]]) for k in (0, 3)])
        for row in rows
    ]
    got = intlattice.vectors(field, coords, den)
    assert [v.serialize() for v in got] == [v.serialize() for v in expected]
    assert got == expected
    assert all(type(v.entries) is tuple and v.dim == 2 for v in got)
    back, back_den = intlattice.embed_rows(got)
    # the same values over the lcm of the entry denominators, a divisor of den
    assert den % back_den == 0
    assert [[c * (den // back_den) for c in row] for row in back] == [list(r) for r in rows]
    assert intlattice.vectors(field, *intlattice.embed(got)) == got


@st.composite
def lattice_rows(draw):
    """Integer rows of a lattice, with duplicates, zero rows and rank
    deficiency (rows are combinations of at most `width` generators),
    entries optionally beyond INT64_LIMIT."""
    width = draw(st.integers(1, 4))
    big = draw(st.booleans())
    entry = st.integers(-(2**70), 2**70) if big else st.integers(-9, 9)
    row = st.lists(entry, min_size=width, max_size=width)
    gens = draw(st.lists(row, min_size=1, max_size=width))
    combo = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    rows = [
        [sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(width)]
        for coeffs in draw(st.lists(combo, max_size=40))
    ]
    rows += draw(st.lists(st.sampled_from(rows or [[0] * width]), max_size=5))
    rows += [[0] * width] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    return width, [rows[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(lattice_rows(), st.integers(1, 5), st.integers(1, 6))
# the HNF of two int64 rows has an entry beyond int64, met with no rows left to test
@example((4, [[213_013_120_226, 0, 0, 0], [1, 0, 0, 43_299_549]]), 1, 1)
def test_incremental_basis_equals_full_hnf(case, chunk, den):
    width, rows = case
    coords = intlattice.int_array(rows, width)
    # every row passes the membership test against the HNF of all rows
    assert intlattice._in_span(hnf(rows), coords).all()
    with mock.patch.object(intlattice, "_HNF_CHUNK", chunk):
        assert intlattice.lattice_basis(coords) == hnf(rows)
        if not any(map(any, rows)):
            return
        # group_basis reduces rows / den to lowest terms first
        field = FIELD_OF_WIDTH[width]
        sample = ReturnSample(
            depth=0,
            vectors=intlattice.vectors(field, coords, den),
            dimension=width // field.degree,
            coords=coords,
            den=den,
        )
        module = group_basis(sample, field)
    reduced, rden = intlattice.reduce_rows(coords, den)
    assert (module.denominator, module.hnf_rows) == (rden, hnf(reduced.tolist()))
    # the key rule on rows of Python ints, as the module sample forms it
    assert returns._basis_of(rows, den) == (rden, hnf(reduced.tolist()))


# rows far below the others and far apart, which take value_order past
# the size it sorts by exact comparisons alone
FAR_ROWS = [[-(10**9) * k, 0] for k in range(1, _FEW + 1)]


def test_value_order_near_tie_takes_exact_comparison(monkeypatch):
    """F_41 and F_40 * theta differ by theta^-40 (about 4e-9) at size 1.7e8,
    below float64 resolution: the float keys tie, the bounds overlap, and
    one exact comparison decides."""
    K = golden_field()
    f40, f41 = 102334155, 165580141
    coords = np.array([[0, f40], [f41, 0], [f41 - 1, 0]] + FAR_ROWS, dtype=np.int64)
    exact = [K.vec([K.elem([Fraction(a), Fraction(b)])]) for a, b in coords.tolist()]
    n = len(coords)
    expected = sorted(range(n), key=lambda i: exact_key(exact[i]))
    calls = []
    exact_sign = NumberField.sign

    def spy(field, nums):
        calls.append(nums)
        return exact_sign(field, nums)

    monkeypatch.setattr(NumberField, "sign", spy)
    rest = list(range(3, n))
    for order in ([0, 1, 2] + rest, [1, 0] + rest[::-1] + [2], [2] + rest + [1, 0]):
        calls.clear()
        got = value_order(K, coords[order], 1)
        assert [order[i] for i in got] == expected
        assert calls


def test_value_order_float_inversion_within_bound():
    """q * theta is 0.0025 below the integer r, but the float keys, of
    size 3.4e17, put it 64 above: only the error bound keeps the float
    order from being trusted, and the exact comparison reverses it."""
    K = golden_field()
    q, r = 210837490566052479, 341142225838608218
    coords = np.array([[r, 0], [0, q]] + FAR_ROWS, dtype=np.int64)
    assert K.elem([Fraction(r), Fraction(0)]) > K.elem([Fraction(0), Fraction(q)])
    far = list(range(2, len(coords)))
    for order in ([0, 1] + far, [1, 0] + far[::-1]):
        assert [order[i] for i in value_order(K, coords[order], 1)] == far[::-1] + [1, 0]


def test_kenyon_rejects_non_integer_coordinates(fib, monkeypatch):
    """Rows that are no integer combination of the generators, planted at
    any depth, the module's sample depth included, fail verification."""
    module = stabilized_module(fib)
    K = fib.field
    rows, den = intlattice.embed([K.vec([Fraction(1, 3)]), K.vec([1]), K.vec([Fraction(-1, 3)])])
    planted = []

    def fake(system, at):
        planted.append(at)
        return rows, den

    monkeypatch.setattr(returns, "_return_rows", fake)
    message = (
        "return vector [['-1/3', '0']] has non-integer coordinates; "
        "unstabilized sample or defect"
    )
    depths = [module.sample_depth, module.sample_depth + 2]
    for depth in depths:
        with pytest.raises(TilingError) as info:
            kenyon_basis(fib, module, depth=depth)
        assert str(info.value) == message
    assert planted == depths
    kb = coordinate_basis(fib, module)
    assert kb.integral_rows(rows, den).tolist() == [False, True, False]


def pairwise_returns(system, depth):
    """Nonzero differences of same-type rows of every omega^depth(t)."""
    out = set()
    for tid in system.order:
        types, coords, _ = system.grow_lattice(tid, depth)
        for p in range(len(system.order)):
            rows = coords[types == p].tolist()
            out |= {tuple(a - b for a, b in zip(x, y)) for x in rows for y in rows if x != y}
    return out


def grid_group(chair):
    types, coords, _ = chair.grow_lattice("NE", 4)
    return coords[types == 0]


def test_broken_fft_counts_fall_back_to_dense(chair, monkeypatch):
    arr = grid_group(chair)
    assert len(arr) >= 64 and _autocorrelation_rows(arr) is not None
    expected, _ = _return_rows(chair, 4)
    real = np.fft.irfftn
    calls = []

    def off_by_one(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs) + 1.0  # every cell one pair too many

    monkeypatch.setattr(np.fft, "irfftn", off_by_one)
    assert _autocorrelation_rows(arr) is None
    rows, _ = _return_rows(chair, 4)
    assert calls
    assert np.array_equal(rows, expected)
    assert set(map(tuple, rows.tolist())) == pairwise_returns(chair, 4)


def test_dense_differences_in_small_blocks(chair, monkeypatch):
    import tilingspectra.returns as returns

    monkeypatch.setattr(returns, "_autocorrelation_rows", lambda arr: None)
    whole, _ = _return_rows(chair, 4)
    arr = grid_group(chair)
    monkeypatch.setattr(returns, "_DENSE_BLOCK_BYTES", 8 * arr.shape[1] * len(arr) * 3)
    blocked, _ = _return_rows(chair, 4)
    assert np.array_equal(whole, blocked)
    assert set(map(tuple, blocked.tolist())) == pairwise_returns(chair, 4)
