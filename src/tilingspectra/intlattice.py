"""Integer form of Q(theta) vectors: one coordinate array over one denominator.

theta is a monic algebraic integer, so multiplying an element by theta
maps its power-basis coordinates by the integer companion matrix of the
minimal polynomial, and a vector of d entries by kron(I_d, companion).
Every offset a substitution produces therefore lies in (1/D) Z[theta]^d,
with D the lcm of the rule offsets' denominators.  A set of n vectors is
stored as an (n, d*s) integer array of D times their power-basis
coordinates, and a patch adds an array of prototile indices.

Arrays are int64 while a bound on every entry an operation can produce
stays below `INT64_LIMIT`, and arrays of Python ints (dtype object)
beyond it, so every result is exact either way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .field import NumberField, QThetaElem, QThetaVec

INT64_LIMIT = 1 << 62


def int_array(rows, width: int) -> np.ndarray:
    """(n, width) array of the integer rows: int64 when every entry is
    below INT64_LIMIT in absolute value, Python ints otherwise."""
    rows = [list(r) for r in rows]
    if fits(max((abs(v) for r in rows for v in r), default=0)):
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    out = np.empty((len(rows), width), dtype=object)
    for i, r in enumerate(rows):
        out[i, :] = r
    return out


def fits(bound: int) -> bool:
    return bound < INT64_LIMIT


def abs_max(arr: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    if arr.size == 0:
        return 0
    return int(max(abs(int(arr.max())), abs(int(arr.min()))))


def widen(arr: np.ndarray) -> np.ndarray:
    """The same integers as Python ints, so arithmetic cannot wrap."""
    return arr if arr.dtype == object else arr.astype(object)


def embed_rows(vecs):
    """(rows, den) of QThetaVecs in plain ints: den is the lcm of all
    coordinate denominators and rows[i] is the tuple of den times vector
    i's power-basis coordinates, entry after entry."""
    rows = [[c for e in v.entries for c in e.coeffs] for v in vecs]
    den = lcm(*(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (den // c.denominator) for c in row) for row in rows], den


def embed(vecs):
    """(coords, den) of QThetaVecs: the rows of `embed_rows` as an
    integer array."""
    rows, den = embed_rows(vecs)
    width = len(rows[0]) if rows else 0
    return int_array(rows, width), den


def unique_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in lexicographic order."""
    if len(arr) == 0:
        return arr
    lo = arr.min(axis=0).tolist()
    strides = radix([h - l + 1 for l, h in zip(lo, arr.max(axis=0).tolist())])
    return unpack(np.unique(pack(arr, lo, strides)), lo, strides)


def radix(spans):
    """Mixed-radix strides (last column fastest) for columns whose values
    take spans[k] consecutive integers; their product ends the list."""
    strides = [1]
    for span in reversed(spans):
        strides.insert(0, strides[0] * int(span))
    return strides


def pack(arr: np.ndarray, lo, strides) -> np.ndarray:
    """One integer key per row: sum of (arr[:, k] - lo[k]) * strides[k],
    order-preserving, in int64 when the largest key fits."""
    if arr.dtype != object and fits(strides[0]):
        return (arr - np.array(lo, dtype=np.int64)) @ np.array(strides[1:], dtype=np.int64)
    return (widen(arr) - np.array(lo, dtype=object)) @ np.array(strides[1:], dtype=object)


def unpack(keys: np.ndarray, lo, strides) -> np.ndarray:
    """Rows of the packed keys (inverse of `pack`)."""
    out = np.empty((len(keys), len(strides) - 1), dtype=keys.dtype)
    for k, stride in enumerate(strides[1:]):
        out[:, k] = keys // stride + lo[k]
        keys = keys % stride
    return out


def reduce_rows(coords: np.ndarray, den: int):
    """(coords / g, den / g) with g the gcd of den and every entry: the
    smallest denominator that still keeps the rows integral."""
    g = den
    for v in np.unique(coords).tolist():
        g = gcd(g, int(v))
        if g == 1:
            return coords, den
    return coords // g, den // g


def theta_matrix(field: NumberField, d: int) -> np.ndarray:
    """Integer (d*s, d*s) matrix T with (rows @ T) = theta * rows: one
    companion block per entry, whose row i holds theta * theta^i."""
    s = field.degree
    b = field.minpoly.coeffs  # ascending, monic
    rows = [[0] * (d * s) for _ in range(d * s)]
    for k in range(0, d * s, s):
        for i in range(s - 1):
            rows[k + i][k + i + 1] = 1
        for j in range(s):
            rows[k + s - 1][k + j] = -b[j]
    return int_array(rows, d * s)


def matmul(coords: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Exact coords @ mat, in int64 when the result cannot overflow."""
    col_sum = int(np.abs(mat).sum(axis=0).max()) if mat.size else 0
    if coords.dtype != object and fits(abs_max(coords) * col_sum):
        return coords @ mat
    return widen(coords) @ widen(mat)


def vectors(field: NumberField, coords: np.ndarray, den: int):
    """QThetaVecs of the rows of coords / den.  Equal coordinates share
    one Fraction and equal entries one QThetaElem (both immutable)."""
    s = field.degree
    fractions = _Cache(lambda c: Fraction(c) if den == 1 else Fraction(c, den))
    rows = coords.tolist()
    if s == 1:  # an entry is one integer
        get = _Cache(lambda c: QThetaElem(field, (fractions[c],))).__getitem__
        return [QThetaVec(map(get, row)) for row in rows]
    get = _Cache(lambda key: QThetaElem(field, tuple(map(fractions.__getitem__, key)))).__getitem__
    return [QThetaVec(map(get, zip(*[iter(row)] * s))) for row in rows]


class _Cache(dict):
    """Dict that fills a missing key with make(key)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class LatticeForm(NamedTuple):
    """A substitution system's rules in integer form over `den`."""

    den: int
    theta: np.ndarray  # (w, w): rows @ theta = theta * rows
    child_types: tuple  # per parent type index: (k,) child type indices
    child_offsets: tuple  # per parent type index: (k, w) offsets times den
    rank: np.ndarray  # canonical rank (order of the ids) of each type index


def lattice_form(field: NumberField, d: int, order, rules) -> LatticeForm:
    """The LatticeForm of rules {tid: [PlacedTile]} over prototile ids
    `order`, with read-only arrays."""
    index = {tid: i for i, tid in enumerate(order)}
    offsets = {tid: embed([ch.offset for ch in rules[tid]]) for tid in order}
    den = 1
    for _, oden in offsets.values():
        den = lcm(den, oden)
    child_types, child_offsets = [], []
    for tid in order:
        coords, oden = offsets[tid]
        child_types.append(np.array([index[ch.proto] for ch in rules[tid]], dtype=np.int64))
        child_offsets.append(scale(coords, den // oden))
    ranks = {tid: r for r, tid in enumerate(sorted(order))}
    form = LatticeForm(
        den=den,
        theta=theta_matrix(field, d),
        child_types=tuple(child_types),
        child_offsets=tuple(child_offsets),
        rank=np.array([ranks[tid] for tid in order], dtype=np.int64),
    )
    for arr in (form.theta, form.rank, *form.child_types, *form.child_offsets):
        arr.setflags(write=False)
    return form


def scale(coords: np.ndarray, factor: int) -> np.ndarray:
    """Exact coords * factor, in int64 when the result cannot overflow."""
    if factor == 1:
        return coords
    if coords.dtype != object and fits(abs_max(coords) * factor):
        return coords * factor
    return widen(coords) * factor


def substitute(form: LatticeForm, types: np.ndarray, coords: np.ndarray, den: int):
    """One substitution step of the patch (types, coords / den): every
    parent offset is multiplied by theta once and its rule's child
    offsets are added.  Returns the children, unsorted, over
    lcm(den, form.den)."""
    new_den = lcm(den, form.den)
    base = matmul(scale(coords, new_den // den), form.theta)
    factor = new_den // form.den
    offsets = [scale(o, factor) for o in form.child_offsets]
    bound = abs_max(base) + max((abs_max(o) for o in offsets), default=0)
    if base.dtype == object or not fits(bound):
        base = widen(base)
        offsets = [widen(o) for o in offsets]
    width = form.theta.shape[0]
    out_types, out_coords = [], []
    for p, (ctypes, coffs) in enumerate(zip(form.child_types, offsets)):
        parents = base[types == p]
        if len(parents) == 0 or len(ctypes) == 0:
            continue
        out_coords.append((parents[:, None, :] + coffs[None, :, :]).reshape(-1, width))
        out_types.append(np.tile(ctypes, len(parents)))
    if not out_coords:
        return np.zeros(0, dtype=np.int64), np.zeros((0, width), dtype=base.dtype), new_den
    return np.concatenate(out_types), np.concatenate(out_coords), new_den
