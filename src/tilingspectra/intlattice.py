"""Integer form of Q(theta) vectors: one coordinate array over one denominator.

theta is a monic algebraic integer, so multiplying an element by theta
maps its power-basis coordinates by the integer companion matrix of the
minimal polynomial, and a vector of d entries by kron(I_d, companion).
Every offset a substitution produces therefore lies in (1/D) Z[theta]^d,
with D the lcm of the rule offsets' denominators.  A set of n vectors is
stored as an (n, d*s) integer array of D times their power-basis
coordinates, and a patch adds an array of prototile indices.  A system's
rules are embedded once, into a RuleForm of Python ints, and its
LatticeForm arrays are built from that.

Arrays are int64 while a bound on every entry an operation can produce
stays below `INT64_LIMIT`, and arrays of Python ints (dtype object)
beyond it, so every result is exact either way.  Linear systems over
Q(theta) are not solved on these arrays but on rows of Python ints, by
`NumberField.solve`.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, lcm
from operator import add
from typing import NamedTuple

import numpy as np

from .field import NumberField, QThetaElem, QThetaVec, unchecked
from .lattice import hnf

INT64_LIMIT = 1 << 62
_HNF_CHUNK = 16  # rows per HNF in `lattice_basis`


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
    entry denominators and rows[i] is the tuple of den times vector i's
    power-basis coordinates, entry after entry."""
    den = lcm(*(e.den for v in vecs for e in v.entries))
    return [tuple(c * (den // e.den) for e in v.entries for c in e.nums) for v in vecs], den


def embed(vecs):
    """(coords, den) of QThetaVecs: the rows of `embed_rows` as an
    integer array."""
    rows, den = embed_rows(vecs)
    width = len(rows[0]) if rows else 0
    return int_array(rows, width), den


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
    g = gcd(den, int(np.gcd.reduce(coords.ravel())))
    if g == 1:
        return coords, den
    return coords // g, den // g


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) of a 1-d array, by one sort and a comparison of
    neighbours: numpy's hash-based unique is several times slower on
    integer keys."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def lattice_basis(rows: np.ndarray):
    """hnf(rows.tolist()), the canonical HNF rows of the lattice the
    integer rows generate, without running the HNF over every row: the
    HNF of the first _HNF_CHUNK rows, then one vectorized membership test
    of all other rows, then the HNF of that basis plus the first
    _HNF_CHUNK rows that failed, and so on until every row passes.  The
    lattice spanned by the basis and the rows still to test is always
    the lattice of all rows (a row that passes already lies in it), and
    a lattice has one HNF, so the result is that of the one-shot HNF."""
    chunk = _HNF_CHUNK
    basis, rest = [], rows
    while len(rest):
        basis = hnf(basis + rest[:chunk].tolist())
        rest = rest[chunk:]
        rest = rest[~_in_span(basis, rest)]
    return basis


def _in_span(basis, rows: np.ndarray) -> np.ndarray:
    """Boolean mask: which integer rows lie in the Z-span of the HNF rows
    `basis`.  Each row is reduced by every basis row in turn, by the
    multiple that brings its entry at that row's pivot into [0, pivot).
    Later basis rows are zero at earlier pivots, so a member (whose
    coefficients these multiples are) reduces to zero, and a row that
    reduces to zero is an integer combination of the basis."""
    res = rows
    if basis:
        big = abs_max(int_array(basis, len(basis[0])))
        # each step subtracts q * b with |q| <= |res|, so |res| grows at
        # most by a factor 1 + big per basis row; the basis rows are cast
        # to res's dtype, so they must fit too (even when res is empty)
        if res.dtype == object or not fits(max(1, abs_max(res)) * (1 + big) ** len(basis)):
            res = widen(res)
        for b in basis:
            col = next(k for k, v in enumerate(b) if v)
            res = res - (res[:, col] // b[col])[:, None] * np.array(b, dtype=res.dtype)
    return ~(res != 0).any(axis=1)


def theta_matrix(field: NumberField, d: int) -> np.ndarray:
    """Integer (d*s, d*s) matrix T with (rows @ T) = theta * rows: one
    companion block per entry, whose row i holds theta * theta^i."""
    return int_array(theta_rows(field, d), d * field.degree)


def theta_rows(field: NumberField, d: int) -> list:
    """The rows of `theta_matrix(field, d)` as lists of Python ints."""
    s = field.degree
    b = field.minpoly.coeffs  # ascending, monic
    rows = [[0] * (d * s) for _ in range(d * s)]
    for k in range(0, d * s, s):
        for i in range(s - 1):
            rows[k + i][k + i + 1] = 1
        for j in range(s):
            rows[k + s - 1][k + j] = -b[j]
    return rows


def rows_in(rows: np.ndarray, table: np.ndarray) -> bool:
    """Is every integer row of `rows` a row of `table`?  Rows outside
    the table's bounding box are not; the others are packed into keys
    over that box and looked up in the table's sorted keys."""
    if not len(rows):
        return True
    if not len(table):
        return False
    lo, hi = table.min(axis=0), table.max(axis=0)
    if ((rows < lo) | (rows > hi)).any():
        return False
    lo = lo.tolist()
    strides = radix([h - l + 1 for h, l in zip(hi.tolist(), lo)])
    keys = np.sort(pack(table, lo, strides))
    probe = pack(rows, lo, strides)
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return bool((keys[at] == probe).all())


def matmul(coords: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Exact coords @ mat, in int64 when the result cannot overflow."""
    col_sum = int(np.abs(mat).sum(axis=0).max()) if mat.size else 0
    if coords.dtype != object and fits(abs_max(coords) * col_sum):
        return coords @ mat
    return widen(coords) @ widen(mat)


def vectors(field: NumberField, coords: np.ndarray, den: int):
    """QThetaVecs of the rows of coords / den.  Each distinct entry
    becomes one QThetaElem, shared by every vector that holds it (it is
    immutable)."""
    n, width = coords.shape
    if n == 0:
        return []
    s = field.degree
    values, inverse = np.unique(coords, return_inverse=True)
    if s == 1:  # an entry is one coordinate
        digits, entry_of = np.arange(len(values)).reshape(-1, 1), inverse
    else:  # an entry is s coordinate indices, packed into one key
        strides = radix([len(values)] * s)
        codes, entry_of = np.unique(
            pack(inverse.reshape(-1, s), [0] * s, strides), return_inverse=True
        )
        digits = unpack(codes, [0] * s, strides).astype(np.intp)
    nums = zip(*(values[digits[:, k]].tolist() for k in range(s)))
    elems = np.empty(len(digits), dtype=object)
    elems[:] = [QThetaElem(field, e, den) for e in nums]
    table = elems[entry_of.reshape(n, width // s)]
    entries = zip(*(table[:, k].tolist() for k in range(width // s)))
    return unchecked(QThetaVec, n, entries=entries)


class LatticeForm(NamedTuple):
    """A RuleForm as numpy arrays, for the substitution step."""

    den: int
    theta: np.ndarray  # (w, w): rows @ theta = theta * rows
    theta_col_sum: int  # largest absolute column sum of theta
    child_count: np.ndarray  # per parent type index: number of children
    child_first: np.ndarray  # per parent type index: row of its first child
    child_types: np.ndarray  # (k,) child type indices, all rules in type order
    child_offsets: np.ndarray  # (k, w) child offsets times den, same rows
    offset_max: int  # largest absolute entry of child_offsets
    rank: np.ndarray  # canonical rank (order of the ids) of each type index


class RuleForm(NamedTuple):
    """A substitution system's rules in plain ints, built once with the
    system.  Every field is an int or a tuple, so the value is immutable.
    Child rows run rule after rule in the order of the prototile ids."""

    kinds: tuple  # per child: its prototile index
    offsets: tuple  # per child: its offset row over den
    den: int  # the lcm of the rule offsets' denominators
    spans: tuple  # per prototile: the range of its children's rows
    shapes: tuple  # per prototile: its support's kernel points over den * up
    up: int  # den * up also clears the supports' denominators
    theta: tuple  # the rows of theta_matrix

    def placed(self, kind: int, row) -> list:
        """Kernel points, over den * up, of prototile `kind`'s support
        moved by the offset row / den."""
        shift = [c * self.up for c in row]
        return [tuple(map(add, v, shift)) for v in self.shapes[kind]]


def rule_form(field: NumberField, d: int, order, rules, supports) -> RuleForm:
    """The RuleForm of rules {tid: [PlacedTile]} over prototile ids
    `order`, whose supports are given in that order as the QThetaVecs of
    their kernel points (an interval's two ends, a polygon's vertices)."""
    index = {tid: i for i, tid in enumerate(order)}
    children = [ch for tid in order for ch in rules[tid]]
    offsets, den = embed_rows([ch.offset for ch in children])
    points, point_den = embed_rows([v for vs in supports for v in vs])
    up = lcm(den, point_den) // den
    scale, rows = den * up // point_den, iter(points)
    first = list(accumulate((len(rules[tid]) for tid in order), initial=0))
    return RuleForm(
        kinds=tuple(index[ch.proto] for ch in children),
        offsets=tuple(offsets),
        den=den,
        spans=tuple(map(range, first, first[1:])),
        shapes=tuple(tuple(tuple(c * scale for c in next(rows)) for _ in vs) for vs in supports),
        up=up,
        theta=tuple(map(tuple, theta_rows(field, d))),
    )


def lattice_form(rules: RuleForm, order) -> LatticeForm:
    """The LatticeForm, with read-only arrays, of the RuleForm `rules`
    over prototile ids `order`."""
    width = len(rules.theta)
    offsets = int_array(rules.offsets, width)
    theta = int_array(rules.theta, width)
    ranks = {tid: r for r, tid in enumerate(sorted(order))}
    form = LatticeForm(
        den=rules.den,
        theta=theta,
        theta_col_sum=max(1, abs_max(np.abs(theta).sum(axis=0))),
        child_count=np.array([len(span) for span in rules.spans], dtype=np.int64),
        child_first=np.array([span.start for span in rules.spans], dtype=np.int64),
        child_types=np.array(rules.kinds, dtype=np.int64),
        child_offsets=offsets,
        offset_max=abs_max(offsets),
        rank=np.array([ranks[tid] for tid in order], dtype=np.int64),
    )
    for arr in (form.theta, form.child_count, form.child_first, form.child_types,
                form.child_offsets, form.rank):
        arr.setflags(write=False)
    return form


def substitute(form: LatticeForm, types: np.ndarray, coords: np.ndarray, den: int, bound=None):
    """One substitution step of the patch (types, coords / den): every
    parent offset is multiplied by theta once and its rule's child
    offsets are added.  `bound` is an upper bound on |coords| (measured
    when omitted).  Returns (types, coords, den, bound) of the children,
    unsorted, over lcm(den, form.den), each parent's children together in
    rule order."""
    new_den = lcm(den, form.den)
    up, factor = new_den // den, new_den // form.den
    # |theta * x| <= theta_col_sum * |x| entrywise, so this bounds every
    # intermediate and final entry of the step
    grown = form.offset_max * factor
    if bound is None or not fits(bound * up * form.theta_col_sum + grown):
        bound = abs_max(coords)  # a carried bound may be loose: measure
    bound = bound * up * form.theta_col_sum + grown
    theta, offsets = form.theta, form.child_offsets
    if coords.dtype == object or offsets.dtype == object or not fits(bound):
        coords, theta, offsets = widen(coords), widen(theta), widen(offsets)
    if up != 1:
        coords = coords * up
    if factor != 1:
        offsets = offsets * factor
    # one gather: parent i's children are rows first[i] .. first[i] +
    # count[i] - 1 of the child tables, and take output rows start[i] ..
    count = form.child_count[types]
    start = np.cumsum(count) - count
    child = np.repeat(form.child_first[types] - start, count) + np.arange(int(count.sum()))
    base = np.repeat(coords @ theta, count, axis=0)
    return form.child_types[child], base + offsets[child], new_den, bound
