"""The integer patch core against per-tile exact references."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tilingspectra import TilingError, golden_field, intlattice
from tilingspectra.field import QThetaElem
from tilingspectra.ordering import value_order
from tilingspectra.returns import (
    ReturnSample,
    _autocorrelation_rows,
    _dense_differences,
    _difference_rows,
    enumerate_returns,
    kenyon_basis,
    stabilized_module,
)
from tilingspectra.systemfile import parse_system, serialize_system, system_from_dict
from tilingspectra.tiles import Patch, PlacedTile

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
    return Patch(sorted(tiles, key=lambda t: (t.proto, t.offset)), presorted=True)


def reference_grow(system, tid, n):
    tiles = [PlacedTile(tid, system.zero_vec())]
    for _ in range(n):
        tiles = reference_substitute(system, tiles)
    return reference_patch(tiles)


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
            patch = system.grow(tid, 2).translated(shift)
            expected = reference_patch(reference_substitute(system, patch.tiles))
            assert_same_patch(system.substitute_patch(patch), expected, (name, tid))
    assert len(system.substitute_patch(Patch([]))) == 0


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
            kenyon_basis(system, stabilized_module(system), depth, sample).serialize(),
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
            kenyon_basis(fresh, stabilized_module(fresh), depth, sample).serialize(),
        )
        assert got == expected[name], name


def test_value_order_near_tie_takes_exact_comparison(monkeypatch):
    """F_41 and F_40 * theta differ by theta^-40 (about 4e-9) at size 1.7e8,
    below float64 resolution: the float keys tie, the bounds overlap, and
    one exact comparison decides."""
    K = golden_field()
    f40, f41 = 102334155, 165580141
    coords = np.array([[0, f40], [f41, 0], [f41 - 1, 0]], dtype=np.int64)
    exact = [K.vec([K.elem([Fraction(a), Fraction(b)])]) for a, b in coords.tolist()]
    expected = sorted(range(3), key=lambda i: exact[i])
    calls = []
    exact_cmp = QThetaElem.cmp

    def spy(a, b):
        calls.append((a, b))
        return exact_cmp(a, b)

    monkeypatch.setattr(QThetaElem, "cmp", spy)
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
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
    coords = np.array([[r, 0], [0, q]], dtype=np.int64)
    assert K.elem([Fraction(r), Fraction(0)]) > K.elem([Fraction(0), Fraction(q)])
    for order in ([0, 1], [1, 0]):
        assert [order[i] for i in value_order(K, coords[order], 1)] == [1, 0]


def test_kenyon_rejects_non_integer_coordinates(fib):
    module = stabilized_module(fib)
    K = fib.field
    sample = ReturnSample(depth=6, vectors=[K.vec([1]), K.vec([Fraction(1, 3)])], dimension=1)
    with pytest.raises(TilingError, match="non-integer coordinates"):
        kenyon_basis(fib, module, depth=6, sample=sample)
    kb = kenyon_basis(fib, module, depth=6)
    assert kb.has_integer_coordinates(K.vec([1]))
    assert not kb.has_integer_coordinates(K.vec([Fraction(1, 3)]))


def pairwise(arr):
    rows = arr.tolist()
    return {tuple(a - b for a, b in zip(x, y)) for x in rows for y in rows}


def grid_group(chair):
    types, coords, _ = chair.grow_lattice("NE", 4)
    return coords[types == 0]


def test_broken_fft_counts_fall_back_to_dense(chair, monkeypatch):
    arr = grid_group(chair)
    assert len(arr) >= 64 and _autocorrelation_rows(arr) is not None
    real = np.fft.irfftn
    calls = []

    def off_by_one(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs) + 1.0  # every cell one pair too many

    monkeypatch.setattr(np.fft, "irfftn", off_by_one)
    assert _autocorrelation_rows(arr) is None
    rows = _difference_rows(arr)
    assert calls
    assert set(map(tuple, rows.tolist())) == pairwise(arr)


def test_dense_differences_in_small_blocks(chair, monkeypatch):
    import tilingspectra.returns as returns

    arr = grid_group(chair)
    whole = _dense_differences(arr)
    monkeypatch.setattr(returns, "_DENSE_BLOCK_BYTES", 8 * arr.shape[1] * len(arr) * 3)
    blocked = _dense_differences(arr)
    assert np.array_equal(whole, blocked)
    assert set(map(tuple, blocked.tolist())) == pairwise(arr)
