"""Return vectors, their group structure, control points, and the
integer-coefficient basis certifying Z[theta]-coordinates.

The translation vectors between same-type tiles generate a free abelian
group; embedding their power-basis coordinates into Q^(d*s), clearing
denominators and taking a Hermite normal form gives a canonical basis V.
`enumerate_returns` grows every prototile and takes all pairwise
differences; the module's sample grows no patch, but carries per
prototile one offset of each type in its n-fold substitution and a basis
of its same-type differences from one depth to the next, straight from
the rules (`_sample_keys`).  Multiplication by theta maps the group into
itself on a stabilized sample, producing an integer matrix M with
theta*V = V*M, whose characteristic polynomial must vanish at theta.
Control points fixed by the tile-map choice solve an exact linear
system, and their differences seed a basis {b_j} in which every vector
of the sampled group has integer polynomial coordinates in theta, by
construction; `kenyon_basis` also checks it on the returns enumerated at
a depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, TilingError
from .field import NumberField
from .intlattice import (
    abs_max,
    embed,
    fits,
    int_array,
    lattice_basis,
    matmul,
    pack,
    radix,
    reduce_rows,
    rows_in,
    theta_matrix,
    unique_keys,
    unpack,
    vectors,
    widen,
)
from .lattice import charpoly, field_solve, hnf
from .ordering import value_order
from .tiles import SubstitutionSystem

DEFAULT_PAIR_BUDGET = 40_000_000
_FFT_CELL_BUDGET = 30_000_000
_DENSE_BLOCK_BYTES = 8 << 20  # cap on one block of dense differences


@dataclass
class ReturnSample:
    depth: int
    vectors: list  # QThetaVec, deduplicated, canonical order
    dimension: int
    # integer form of `vectors` (see `intlattice`)
    coords: object = dc_field(repr=False, compare=False)
    den: int = dc_field(repr=False, compare=False)

    def __len__(self):
        return len(self.vectors)


def enumerate_returns(system: SubstitutionSystem, depth: int) -> ReturnSample:
    """All pairwise difference vectors between same-type tiles within
    omega^depth of each prototile; exact, deduplicated, both signs."""
    rows, den = _return_rows(system, depth)
    rows = rows[value_order(system.field, rows, den)]
    return ReturnSample(
        depth=depth,
        vectors=vectors(system.field, rows, den),
        dimension=system.dimension,
        coords=rows,
        den=den,
    )


def _return_rows(system: SubstitutionSystem, depth: int):
    """(rows, den): the returns of `enumerate_returns` in integer form
    (see `intlattice`), in lexicographic order of the rows."""
    (grown,) = system.grow_lattices(system.order, [depth])
    return _patch_returns(system, grown)


def _patch_returns(system: SubstitutionSystem, grown):
    """(rows, den): the nonzero differences of same-type tiles within each
    block of the `tiles.JointPatch` grown, over its den.  More than
    DEFAULT_PAIR_BUDGET pairs raise BudgetError.

    Every difference is packed into one integer key (see
    `intlattice.pack`) under one mixed radix, wide enough for the largest
    extent of each column over all type groups, so the keys of every
    group, from either difference path, are deduplicated together and
    unpacked once."""
    den = grown.den
    groups = [
        coords[types == p] for types, coords in grown.parts() for p in range(len(system.order))
    ]
    groups = [g for g in groups if len(g) > 1]  # same-type tiles of one block
    if sum(len(g) * (len(g) - 1) for g in groups) > DEFAULT_PAIR_BUDGET:
        raise BudgetError(f"return enumeration exceeds pair budget {DEFAULT_PAIR_BUDGET}")
    if not groups:
        return np.zeros((0, system.field.degree * system.dimension), dtype=np.int64), den
    extents = [(g.max(axis=0) - g.min(axis=0)).tolist() for g in groups]
    ext = [max(col) for col in zip(*extents)]
    lo = [-e for e in ext]
    strides = radix([2 * e + 1 for e in ext])
    # deduplicate whenever the keys held pass _DENSE_BLOCK_BYTES plus
    # twice the bytes of the distinct keys found so far, so memory stays
    # bounded by the block cap and the size of the result
    parts, held, merged = [], 0, 0
    for arr in groups:
        for keys in _difference_keys(arr, ext, strides):
            parts.append(keys)
            held += len(keys)
            if len(parts) > 1 and 8 * held > _DENSE_BLOCK_BYTES + 16 * merged:
                parts = [unique_keys(np.concatenate(parts))]
                held = merged = len(parts[0])
    keys = unique_keys(np.concatenate(parts))
    keys = keys[keys != sum(e * k for e, k in zip(ext, strides[1:]))]  # the zero row
    return unpack(keys, lo, strides), den


def _difference_keys(arr, ext, strides):
    """Blocks of packed keys, under the radix `strides` and offsets
    -ext, of the differences arr[i] - arr[j] over all i, j (the zero
    difference included).

    The set of differences is the support of the patch autocorrelation,
    so a group whose bounding box has fewer cells than it has pairs goes
    through an FFT instead of n^2 differences.  Otherwise each row packs
    into one integer key over the group's minimum, and the radix leaves
    room for every difference, so key(x - y) = key(x) - key(y) + const;
    the keys are subtracted in row blocks of at most _DENSE_BLOCK_BYTES,
    and a group of more than one block deduplicates each block."""
    if len(arr) >= 64 and arr.dtype != object and fits(2 * abs_max(arr)):
        rows = _autocorrelation_rows(arr)
        if rows is not None:
            yield pack(rows, [-e for e in ext], strides)
            return
    n = len(arr)
    keys = pack(arr, arr.min(axis=0).tolist(), strides)
    shifted = keys + sum(e * s for e, s in zip(ext, strides[1:]))
    step = max(1, _DENSE_BLOCK_BYTES // (8 * n))
    for i in range(0, n, step):
        block = (shifted[i : i + step, None] - keys[None, :]).ravel()
        yield block if step >= n else unique_keys(block)


def _autocorrelation_rows(arr):
    """Difference rows via FFT autocorrelation on the occupancy grid.

    The autocorrelation counts pairs per difference; its float values
    are rounded, and trusted only when the zero difference counts every
    point once and all counts add up to n^2 (else None, and the caller
    takes the dense path).  The difference coordinates come from grid
    indices, so they are exact.  None also when the box has more cells
    than there are pairs (the dense path is cheaper) or than
    _FFT_CELL_BUDGET.
    """
    n = len(arr)
    mins = arr.min(axis=0)
    extents = arr.max(axis=0) - mins + 1
    full = 2 * extents - 1
    cells = 1
    for e in full.tolist():
        cells *= e
        if cells > min(_FFT_CELL_BUDGET, n * n):
            return None
    grid = np.zeros(tuple(extents.tolist()), dtype=np.float64)
    grid[tuple((arr - mins).T)] = 1.0
    shape = tuple(full.tolist())
    axes = tuple(range(grid.ndim))
    spec = np.fft.rfftn(grid, s=shape, axes=axes)
    counts = np.rint(np.fft.irfftn(spec * np.conj(spec), s=shape, axes=axes))
    if counts[(0,) * grid.ndim] != n or counts.sum() != n * n:
        return None
    hits = np.argwhere(counts > 0)
    # irfftn indexes circularly: index k stands for difference k, with
    # k > extent-1 wrapping to k - full
    return np.where(hits <= extents - 1, hits, hits - full).astype(np.int64)


# ---------------------------------------------------------------------------
# the group generated by a sample


@dataclass
class ReturnModule:
    generators: list  # QThetaVec, l of them
    denominator: int  # D clearing the embedded coordinates
    hnf_rows: list  # canonical integer HNF rows of the embedded lattice
    sample_depth: int
    stabilized: bool
    dimension: int
    M: object = dc_field(default=None)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def spans_space(self) -> bool:
        """Do the generators span R^d (exact rank over the field)?"""
        if not self.generators:
            return False
        field = self.generators[0].field
        return field.solve(self.hnf_rows).rank // field.degree == self.dimension

    def _coordinates(self, rows, den: int):
        """Per row of rows / den (integer form, see `intlattice`): its
        integer coordinates over the generators, or None."""
        # c @ (hnf_rows / D) = row / den  iff  c = x * D / den with
        # x @ hnf_rows = row, which the solver finds as numerators over det
        sol = field_solve([list(col) for col in zip(*self.hnf_rows)], rows)
        scale, out = den * sol.det, []
        for x in sol.columns:
            if x is None or any(v * self.denominator % scale for v in x):
                out.append(None)
            else:
                out.append([v * self.denominator // scale for v in x])
        return out

    def serialize(self):
        out = {
            "rank": self.rank,
            "sample_depth": self.sample_depth,
            "stabilized": self.stabilized,
            "generators": [v.serialize() for v in self.generators],
        }
        if self.M is not None:
            out["M"] = [list(row) for row in self.M]
        return out


def group_basis(sample: ReturnSample, field: NumberField = None) -> ReturnModule:
    """Canonical basis of the group generated by the sampled vectors."""
    if not sample.vectors:
        raise TilingError("empty return sample has no group basis")
    field = field or sample.vectors[0].field
    key = _basis_of(sample.coords, sample.den)
    return _module_of(field, key, sample.coords.shape[1], sample.depth, sample.dimension)


def _basis_of(rows, den):
    """(D, hnf rows): the smallest denominator D of the integer rows / den
    and the canonical HNF rows of the group they generate over 1 / D;
    the pair determines the rational lattice.  `rows` is an array (a
    sample, whose HNF `lattice_basis` takes incrementally) or a list of
    rows of Python ints (a few generators, one HNF)."""
    if isinstance(rows, np.ndarray):
        rows, den = reduce_rows(rows, den)
        return den, lattice_basis(rows)
    g = gcd(den, *chain.from_iterable(rows))
    return den // g, hnf([[v // g for v in row] for row in rows])


def _module_of(field, key, width: int, depth: int, dimension: int) -> ReturnModule:
    """The ReturnModule of the group whose `_basis_of` is key, on rows of
    `width` columns."""
    den, basis = key
    return ReturnModule(
        generators=vectors(field, int_array(basis, width), den),
        denominator=den,
        hnf_rows=basis,
        sample_depth=depth,
        stabilized=False,
        dimension=dimension,
    )


def stabilized_module(
    system: SubstitutionSystem, start_depth: int = 2, max_depth: int = 6
) -> ReturnModule:
    """Deepen the sample until consecutive depths generate the same group.

    Each depth's group, that of all same-type differences within the
    n-fold substitution of each prototile, comes from the rules by
    `_sample_keys`, which grows no patch.  Depths are compared on their
    (denominator, HNF rows), and only the module returned gets its
    generator vectors."""
    depths = range(start_depth, max_depth + 1)
    if depths and start_depth < 0:
        raise TilingError("depth must be nonnegative")
    last, stabilized = None, False
    for depth, key in zip(depths, _sample_keys(system, depths)):
        if key is None:
            continue
        stabilized = last is not None and key == last[0]
        last = key, depth
        if stabilized:
            break
    if last is None:
        raise TilingError("no return vectors found up to the maximum depth")
    key, depth = last
    width = system.field.degree * system.dimension
    module = _module_of(system.field, key, width, depth, system.dimension)
    module.stabilized = stabilized
    return module


def _sample_keys(system: SubstitutionSystem, depths):
    """Yield, at each of the ascending nonnegative `depths` n, the
    `_basis_of` key of the group of same-type differences within the
    omega^n(t) of all prototiles t, from the rules in Python ints; None
    where the group is {0}, which in a valid system means that no
    omega^n(t) holds two tiles of one type.

    omega^(n+1)(t) is the union over the children c of t of theta^n o_c
    + omega^n(tau_c).  Per t the recursion keeps first[t][p], the offset
    of one tile of type p in omega^n(t), and basis[t], an HNF basis of
    its same-type differences.  A step takes for first'[t][p] the sum
    theta^n o_c + first[tau_c][p] of the first child c whose sub-patch
    holds p, and for basis'[t] the HNF of the children's bases and of
    every other child's such sum minus first'[t][p].  Each generator is a
    difference of two tiles of type p, and tiles y, y' of type p from
    children c, c' differ by (y - theta^n o_c - first[tau_c][p]) +
    (theta^n o_c + first[tau_c][p] - first'[t][p]) minus the same for
    y', c': a sum of generators.  The bases stay per prototile: one that
    is no rule's child has no copy a depth deeper, so its differences
    must not pass on."""
    form = system.rule_form
    cols = list(zip(*form.theta))  # row @ theta, one column at a time
    placed = list(form.offsets)  # theta^n o_c, over form.den
    zero = (0,) * len(cols)
    first = [{t: zero} for t in range(len(form.spans))]
    basis = [[] for _ in form.spans]
    n = 0
    for depth in depths:
        while n < depth:
            first, basis = zip(*(
                _substituted(span, form.kinds, placed, first, basis) for span in form.spans
            ))
            placed = [tuple(sum(map(mul, row, col)) for col in cols) for row in placed]
            n += 1
        rows = [row for block in basis for row in block]
        yield _basis_of(rows, form.den) if rows else None


def _substituted(span, kinds, placed, first, basis):
    """(first, basis) of one prototile one depth deeper, from its
    children's rows `span` of the rule form (see `_sample_keys`)."""
    into, gens = {}, set()
    for c in span:
        gens.update(basis[kinds[c]])
        at = placed[c]
        for p, row in first[kinds[c]].items():
            row = tuple(map(add, at, row))
            if p in into:
                gens.add(tuple(map(sub, row, into[p])))
            else:
                into[p] = row
    return into, [tuple(row) for row in hnf(gens)]


def phi_action(module: ReturnModule, system: SubstitutionSystem):
    """Integer matrix M with theta*v_i = sum_k M[k][i] v_k, exact.

    Raises when some theta*v_i falls outside the Z-span: the sample has
    not stabilized and the caller should deepen it.
    """
    rows = int_array(module.hnf_rows, len(module.hnf_rows[0]))
    theta = theta_matrix(system.field, system.dimension)
    cols = module._coordinates(matmul(rows, theta).tolist(), module.denominator)
    if any(c is None for c in cols):
        raise TilingError(
            "theta*generator escapes the sampled group; deepen the return sample"
        )
    # the solve is exact, so sum_k M[k][i] v_k equals theta*v_i
    M = [list(row) for row in zip(*cols)]
    module.M = M
    return M


def algebraic_integer_check(M, field: NumberField) -> bool:
    """charpoly(M)(theta) == 0 exactly in Q(theta)."""
    poly = charpoly(M)
    theta = field.gen()
    acc = field.zero()
    for c in reversed(poly.coeffs):
        acc = acc * theta + field.rational(c)
    return acc.is_zero()


# ---------------------------------------------------------------------------
# control points


@dataclass(frozen=True)
class ControlPointSet:
    points: dict  # tid -> QThetaVec
    child_index: dict  # tid -> int
    child_type: dict  # tid -> tid

    def __post_init__(self):  # read-only views, so a shared set stays as built
        for name in ("points", "child_index", "child_type"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def serialize(self):
        return {
            "points": {tid: v.serialize() for tid, v in self.points.items()},
            "child_index": dict(self.child_index),
            "child_type": dict(self.child_type),
        }


class Controls(NamedTuple):
    """What a system's tile map fixes, built once (see `_controls`)."""

    points: ControlPointSet
    seeds: tuple  # QThetaVec e_j, or () when no differences span
    seed_map: tuple  # (T, L): row @ T / L = coordinates over the seeds; None without seeds


def control_points(system: SubstitutionSystem) -> ControlPointSet:
    """Solve theta*c_j = d_j + c_tau(j) exactly; unique since theta > 1."""
    return _controls(system).points


def _controls(system: SubstitutionSystem) -> Controls:
    """The system's Controls, built once and published by one assignment
    (every part is immutable, so threads that race store equal values)."""
    controls = system._controls
    if controls is None:
        controls = system._controls = _build_controls(system)
    return controls


def _build_controls(system: SubstitutionSystem) -> Controls:
    field, order, form = system.field, system.order, system.rule_form
    m, s, d = len(order), field.degree, system.dimension
    gamma = {tid: system.gamma(tid) for tid in order}
    # the rule form's row of each prototile's tile-map child
    rows = [span.start + k for span, (k, _) in zip(form.spans, gamma.values())]
    # (theta*I - P) c = d, with P the 0/1 matrix of tau, one right-hand
    # side per coordinate axis: c holds the coordinates of d over the
    # columns theta e_j - sum_{tau(i)=j} e_i of theta*I - P
    theta, cols = field.gen().nums, [[0] * (m * s) for _ in range(m)]
    for j, col in enumerate(cols):
        col[j * s : (j + 1) * s] = theta
    for i, row in enumerate(rows):
        cols[form.kinds[row]][i * s] -= 1
    rhs = [[form.offsets[row][k * s + t] for row in rows for t in range(s)] for k in range(d)]
    sol = field.solve(cols, rhs)
    if sol.rank < m * s:
        raise TilingError("singular matrix in exact solve")
    # coordinate t of axis k of c_i is column k, row i*s + t, over det * form.den
    coords = [[x[i * s + t] for x in sol.columns for t in range(s)] for i in range(m)]
    points = reduce_rows(int_array(coords, d * s), sol.det * form.den)
    cps = ControlPointSet(
        points=dict(zip(order, vectors(field, *points))),
        child_index={tid: k for tid, (k, _) in gamma.items()},
        child_type={tid: child.proto for tid, (_, child) in gamma.items()},
    )
    found = _spanning_differences(system, points)
    if found is None:
        return Controls(cps, (), None)
    seeds = vectors(field, int_array(found[0], d * s), found[1])
    return Controls(cps, tuple(seeds), _coordinate_map(field, *found))


def _times(arr: np.ndarray, k: int) -> np.ndarray:
    """Exact arr * k, widened to Python ints when int64 could overflow."""
    if arr.dtype != object and not fits(abs_max(arr) * k):
        arr = widen(arr)
    return arr * k


def _control_rows(points, types, coords, den: int):
    """(rows, L): the control points of the tiles (types, coords / den)
    in integer form over L = lcm(D, den), given the points (rows, D) of
    the prototiles in the system's order."""
    rows, point_den = points
    big = lcm(point_den, den)
    # each product is below INT64_LIMIT = 2^62 or widened, so the sum fits
    return _times(rows[types], big // point_den) + _times(coords, big // den), big


def verify_control_point_dynamics(system, cps: ControlPointSet, depth: int) -> bool:
    """phi(control points of omega^depth) land on control points of
    omega^(depth+1), for every prototile."""
    points = embed([cps.points[tid] for tid in system.order])
    theta = system.lattice_form().theta
    here, there = system.grow_lattices(system.order, (depth, depth + 1))
    for now, then in zip(here.parts(), there.parts()):
        # both over one denominator: a substitution step keeps the form's
        rows, _ = _control_rows(points, *now, here.den)
        image, _ = _control_rows(points, *then, there.den)
        if not rows_in(matmul(rows, theta), image):
            return False
    return True


# ---------------------------------------------------------------------------
# the Z[theta]-coordinate basis


@dataclass
class KenyonBasis:
    basis: list  # b_j, QThetaVec
    seeds: list  # e_j control-point differences the basis came from
    denominator: int
    verified_count: int
    # (T, L): row @ T / L holds the power-basis coordinates, over the
    # basis, of the vector whose power-basis coordinates are `row`
    coordinate_map: tuple = dc_field(repr=False, compare=False)

    def integral_rows(self, coords, den: int):
        """Boolean mask: which rows of coords / den (integer form, see
        `intlattice`) have all coordinates over the basis in Z[theta]."""
        if len(coords) == 0:
            return np.ones(0, dtype=bool)
        T, L = self.coordinate_map
        prod = matmul(coords, T)
        modulus = L * den
        if prod.dtype != object and not fits(modulus):
            prod = prod.astype(object)
        return (prod % modulus == 0).all(axis=1)

    def serialize(self):
        return {
            "basis": [b.serialize() for b in self.basis],
            "seeds": [e.serialize() for e in self.seeds],
            "denominator": self.denominator,
            "verified_returns": self.verified_count,
        }


def coordinate_basis(system: SubstitutionSystem, module: ReturnModule) -> KenyonBasis:
    """Basis {b_j} of R^d in which every vector of the module's group has
    integer power-basis coordinates, by construction; nothing is
    verified, so verified_count is 0.

    Seeds e_j are the first control-point differences (canonical patch
    order) of full rank, found once per system; the module generators'
    coordinates over the seeds are Q(theta) elements, whose rational
    denominators are cleared into the basis b_j = e_j / D.  So the
    generators have integral coordinates, and so has every integer
    combination of them.
    """
    field = system.field
    _, seeds, seed_map = _controls(system)
    if not seeds:
        raise TilingError(
            "control-point differences do not span; retry with deeper patches"
        )
    T, L = seed_map
    # generator rows / D over the seeds: (rows @ T) / (L * D), whose
    # entries' lcm denominator is the reduced denominator of all of them
    gens = int_array(module.hnf_rows, T.shape[0])
    den = reduce_rows(matmul(gens, T), L * module.denominator)[1]
    inv = field.rational(Fraction(1, den))
    # coordinates over e_j / den are den times those over e_j
    g = gcd(den, L)
    return KenyonBasis(
        basis=[e.scale(inv) for e in seeds],
        seeds=list(seeds),
        denominator=den,
        verified_count=0,
        coordinate_map=(_times(T, den // g), L // g),
    )


def kenyon_basis(system: SubstitutionSystem, module: ReturnModule, depth: int) -> KenyonBasis:
    """The `coordinate_basis` of the module, with every return sampled at
    `depth` checked to have integer coordinates over it; verified_count
    is the number of returns checked."""
    field = system.field
    kb = coordinate_basis(system, module)
    rows, rows_den = _return_rows(system, depth)
    ok = kb.integral_rows(rows, rows_den)
    if not ok.all():
        bad = rows[~ok]
        i = value_order(field, bad, rows_den)[0]  # the first in canonical order
        (v,) = vectors(field, bad[i : i + 1], rows_den)
        raise TilingError(
            f"return vector {v.serialize()} has non-integer coordinates; "
            "unstabilized sample or defect"
        )
    kb.verified_count = len(rows)
    return kb


def _coordinate_map(field: NumberField, rows, den: int):
    """(T, L) with T an integer (w, w) matrix and L > 0 such that row @ T
    / L holds the power-basis coordinates, over the d vectors rows / den
    (integer rows of Python ints), of the vector with power-basis
    coordinates `row`.

    Row k of T / L is the coordinates of the k-th unit row, which
    `NumberField.solve` gives over rows, divided by den."""
    n = len(rows[0])
    sol = field.solve(rows, [[int(i == k) for i in range(n)] for k in range(n)])
    if sol.rank < n:
        raise TilingError("vectors do not span the space")
    T, L = reduce_rows(_times(int_array(sol.columns, n), den), sol.det)
    T.setflags(write=False)
    return T, L


def _spanning_differences(system, points):
    """(rows, den) of a greedy full-rank set of control-point differences,
    lists of Python ints, canonical: each patch is grown, in canonical tile
    order, and its differences to its first tile are taken only while the
    rank is still short; None when depth 4 is not enough.  `points` is the
    integer form (rows, den) of the prototiles' control points."""
    field, form = system.field, system.lattice_form()
    chosen = []
    for grown in system.grow_lattices(system.order, (2, 3, 4)):
        for types, coords in grown.parts():
            perm = value_order(field, coords, grown.den, groups=form.rank[types])
            # one den for every patch: a substitution step keeps the form's
            rows, den = _control_rows(points, types[perm], coords[perm], grown.den)
            for cand in rows[1:] - rows[0]:
                cand = cand.tolist()
                if any(cand) and field.solve(chosen + [cand]).rank // field.degree > len(chosen):
                    chosen.append(cand)
                    if len(chosen) == system.dimension:
                        return chosen, den
    return None
