"""Return vectors, their group structure, control points, and the
integer-coefficient basis certifying Z[theta]-coordinates.

The translation vectors between same-type tiles generate a free abelian
group; embedding their power-basis coordinates into Q^(d*s), clearing
denominators and taking a Hermite normal form gives a canonical basis V.
Multiplication by theta maps the group into itself on a stabilized
sample, producing an integer matrix M with theta*V = V*M, whose
characteristic polynomial must vanish at theta.  Control points fixed by
the tile-map choice solve an exact linear system, and their differences
seed a basis {b_j} in which every sampled return vector has integer
polynomial coordinates in theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetError, TilingError
from .field import NumberField, QThetaVec
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
    unique_keys,
    unpack,
    vectors,
)
from .lattice import field_rank, field_solve, _rational_row_solve, charpoly
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
    # integer form of `vectors` (see `intlattice`); embedded when omitted
    coords: object = dc_field(default=None, repr=False, compare=False)
    den: int = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.coords is None:
            self.coords, self.den = embed(self.vectors)

    def __len__(self):
        return len(self.vectors)


def enumerate_returns(
    system: SubstitutionSystem, depth: int, budget: int = DEFAULT_PAIR_BUDGET
) -> ReturnSample:
    """All pairwise difference vectors between same-type tiles within
    omega^depth of each prototile; exact, deduplicated, both signs."""
    rows, den = _return_rows(system, depth, budget)
    rows = rows[value_order(system.field, rows, den)]
    return ReturnSample(
        depth=depth,
        vectors=vectors(system.field, rows, den),
        dimension=system.dimension,
        coords=rows,
        den=den,
    )


def _return_rows(system: SubstitutionSystem, depth: int, budget: int = DEFAULT_PAIR_BUDGET):
    """(rows, den): the returns of `enumerate_returns` in integer form
    (see `intlattice`), in lexicographic order of the rows.

    Every difference of one depth is packed into one integer key (see
    `intlattice.pack`) under one mixed radix, wide enough for the largest
    extent of each column over all type groups, so the keys of every
    group, from either difference path, are deduplicated together and
    unpacked once."""
    if depth < 0:
        raise TilingError("depth must be nonnegative")
    width = system.field.degree * system.dimension
    den = system.lattice_form().den
    groups = []
    pair_count = 0
    for tid in system.order:
        types, coords, _ = system.grow_lattice(tid, depth)
        for p in range(len(system.order)):
            offsets = coords[types == p]
            n = len(offsets)
            if n < 2:
                continue
            pair_count += n * (n - 1)
            if pair_count > budget:
                raise BudgetError(f"return enumeration exceeds pair budget {budget}")
            groups.append(offsets)
    if not groups:
        return np.zeros((0, width), dtype=np.int64), den
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
        rows = [list(v.entries) for v in self.generators]
        return field_rank(rows, field.zero(), field.one()) == self.dimension

    def member_coordinates(self, v: QThetaVec):
        """Integer coordinates of v in the Z-span, or None."""
        # solve over Q against the HNF rows of D*generators
        target = [c * self.denominator for e in v.entries for c in e.coeffs]
        coeffs = _rational_row_solve(self.hnf_rows, target)
        if coeffs is None:
            return None
        if any(c.denominator != 1 for c in coeffs):
            return None
        return [int(c) for c in coeffs]

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
    return _module_of(field, sample.coords, sample.den, sample.depth, sample.dimension)


def _module_of(field, coords, den, depth, dimension) -> ReturnModule:
    """The ReturnModule of the group generated by the rows coords / den."""
    coords, den = reduce_rows(coords, den)
    basis = lattice_basis(coords)
    return ReturnModule(
        generators=vectors(field, int_array(basis, coords.shape[1]), den),
        denominator=den,
        hnf_rows=basis,
        sample_depth=depth,
        stabilized=False,
        dimension=dimension,
    )


def _lattice_key(module: ReturnModule):
    """Canonical form of the rational lattice for equality testing:
    group_basis keeps the smallest denominator, so (denominator, HNF
    rows) determines the lattice."""
    return (module.denominator, tuple(map(tuple, module.hnf_rows)))


def stabilized_module(
    system: SubstitutionSystem, start_depth: int = 2, max_depth: int = 6
) -> ReturnModule:
    """Deepen the sample until consecutive depths generate the same group."""
    prev = None
    prev_key = None
    for depth in range(start_depth, max_depth + 1):
        rows, den = _return_rows(system, depth)
        if not len(rows):
            continue
        module = _module_of(system.field, rows, den, depth, system.dimension)
        key = _lattice_key(module)
        if prev_key is not None and key == prev_key:
            module.stabilized = True
            return module
        prev, prev_key = module, key
    if prev is None:
        raise TilingError("no return vectors found up to the maximum depth")
    prev.stabilized = False
    return prev


def phi_action(module: ReturnModule, system: SubstitutionSystem):
    """Integer matrix M with theta*v_i = sum_k M[k][i] v_k, exact.

    Raises when some theta*v_i falls outside the Z-span: the sample has
    not stabilized and the caller should deepen it.
    """
    theta = system.theta_elem()
    cols = []
    for v in module.generators:
        coords = module.member_coordinates(v.scale(theta))
        if coords is None:
            raise TilingError(
                "theta*generator escapes the sampled group; deepen the return sample"
            )
        cols.append(coords)
    size = module.rank
    M = [[cols[i][k] for i in range(size)] for k in range(size)]
    # verify theta*V = V*M exactly in the field
    for i, v in enumerate(module.generators):
        acc = None
        for k in range(size):
            if M[k][i]:
                term = module.generators[k].scale(system.field.rational(M[k][i]))
                acc = term if acc is None else acc + term
        lhs = v.scale(theta)
        if acc is None or not (lhs - acc).is_zero():
            raise TilingError("internal defect: M does not reproduce theta*V")
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


@dataclass
class ControlPointSet:
    points: dict  # tid -> QThetaVec
    child_index: dict  # tid -> int
    child_type: dict  # tid -> tid
    child_offset: dict  # tid -> QThetaVec

    def of_tile(self, system, tile) -> QThetaVec:
        return self.points[tile.proto] + tile.offset

    def serialize(self):
        return {
            "points": {tid: v.serialize() for tid, v in self.points.items()},
            "child_index": dict(self.child_index),
            "child_type": dict(self.child_type),
        }


def control_points(system: SubstitutionSystem) -> ControlPointSet:
    """Solve theta*c_j = d_j + c_tau(j) exactly; unique since theta > 1."""
    field = system.field
    theta = field.gen()
    order = system.order
    m = len(order)
    idx = {tid: i for i, tid in enumerate(order)}
    tau, dvec, cidx = {}, {}, {}
    for tid in order:
        k, child = system.gamma(tid)
        cidx[tid] = k
        tau[tid] = child.proto
        dvec[tid] = child.offset
    # (theta*I - P) c = d, with P the 0/1 matrix of tau
    mat = [[field.zero() for _ in range(m)] for _ in range(m)]
    for tid in order:
        i = idx[tid]
        mat[i][i] = mat[i][i] + theta
        j = idx[tau[tid]]
        mat[i][j] = mat[i][j] - field.one()
    rhs_cols = []
    for coord in range(system.dimension):
        rhs_cols.append([dvec[tid][coord] for tid in order])
    sols = field_solve(mat, rhs_cols, field.zero(), field.one())
    points = {}
    for i, tid in enumerate(order):
        points[tid] = QThetaVec(tuple(sols[coord][i] for coord in range(system.dimension)))
    cps = ControlPointSet(points=points, child_index=cidx, child_type=tau, child_offset=dvec)
    for tid in order:
        lhs = points[tid].scale(theta)
        rhs = dvec[tid] + points[tau[tid]]
        if not (lhs - rhs).is_zero():
            raise TilingError("internal defect: control point equation violated")
    return cps


def verify_control_point_dynamics(system, cps: ControlPointSet, depth: int) -> bool:
    """phi(control points of omega^depth) land on control points of
    omega^(depth+1), for every prototile."""
    theta = system.theta_elem()
    for tid in system.order:
        cur = system.grow(tid, depth)
        nxt = system.grow(tid, depth + 1)
        targets = {cps.of_tile(system, t).key() for t in nxt}
        for t in cur:
            img = cps.of_tile(system, t).scale(theta)
            if img.key() not in targets:
                return False
    return True


def control_point_iteration_error(system, cps: ControlPointSet, steps: int = 20):
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


# ---------------------------------------------------------------------------
# the Z[theta]-coordinate basis


@dataclass
class KenyonBasis:
    basis: list  # b_j, QThetaVec
    seeds: list  # e_j control-point differences the basis came from
    denominator: int
    verified_count: int
    _coordinate_map: tuple = dc_field(default=None, repr=False, compare=False)

    def _integer_map(self):
        """(T, L) with T an integer (d*s, d*s) matrix and L > 0 such that
        row @ T / L holds the power-basis coordinates, over the basis, of
        the vector whose power-basis coordinates are `row` (the Q-linear
        map of B^-1, B having the basis vectors as columns)."""
        if self._coordinate_map is None:
            field = self.basis[0].field
            d = self.basis[0].dim
            s = field.degree
            mat = [[self.basis[j][i] for j in range(d)] for i in range(d)]
            unit_cols = [
                [field.one() if i == j else field.zero() for i in range(d)]
                for j in range(d)
            ]
            inv_cols = field_solve(mat, unit_cols, field.zero(), field.one())
            powers = [field.one()]
            for _ in range(s - 1):
                powers.append(powers[-1] * field.gen())
            # row (k, m): the coordinates of theta^m placed in entry k
            self._coordinate_map = embed(
                QThetaVec([inv_cols[k][j] * powers[m] for j in range(d)])
                for k in range(d)
                for m in range(s)
            )
        return self._coordinate_map

    def integral_rows(self, coords, den: int):
        """Boolean mask: which rows of coords / den (integer form, see
        `intlattice`) have all coordinates over the basis in Z[theta]."""
        if len(coords) == 0:
            return np.ones(0, dtype=bool)
        T, L = self._integer_map()
        prod = matmul(coords, T)
        modulus = L * den
        if prod.dtype != object and not fits(modulus):
            prod = prod.astype(object)
        return (prod % modulus == 0).all(axis=1)

    def has_integer_coordinates(self, v: QThetaVec) -> bool:
        return bool(self.integral_rows(*embed([v]))[0])

    def serialize(self):
        return {
            "basis": [b.serialize() for b in self.basis],
            "seeds": [e.serialize() for e in self.seeds],
            "denominator": self.denominator,
            "verified_returns": self.verified_count,
        }


def kenyon_basis(
    system: SubstitutionSystem,
    module: ReturnModule,
    depth: int,
    sample: ReturnSample = None,
) -> KenyonBasis:
    """Basis {b_j} of R^d with all sampled returns in Z[theta]-span.

    Seeds e_j are the first control-point differences (canonical patch
    order) of full rank; each module generator is expressed over the
    seeds with Q(theta) coefficients, whose rational denominators are
    cleared into the basis b_j = e_j / D.  Every vector sampled at
    `depth` is then verified to have integer power-basis coordinates
    (pass `sample` to reuse an existing enumeration at that depth).
    """
    field = system.field
    d = system.dimension
    cps = control_points(system)
    seeds = _spanning_differences(system, cps, d)
    # express generators over the seeds
    mat = [[seeds[j][i] for j in range(d)] for i in range(d)]
    den = 1
    for v in module.generators:
        sols = field_solve(mat, [list(v.entries)], field.zero(), field.one())
        for coeff in sols[0]:
            for c in coeff.coeffs:
                den = lcm(den, c.denominator)
    inv = field.rational(Fraction(1, den))
    basis = [e.scale(inv) for e in seeds]
    kb = KenyonBasis(basis=basis, seeds=seeds, denominator=den, verified_count=0)
    if sample is None or sample.depth != depth:
        rows, rows_den = _return_rows(system, depth)
    else:
        rows, rows_den = sample.coords, sample.den
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


def _spanning_differences(system, cps: ControlPointSet, d: int):
    """Greedy full-rank subset of control-point differences, canonical:
    each patch is grown and its differences formed only while the rank
    is still short."""
    field = system.field
    chosen = []
    for depth in (2, 3, 4):
        for tid in system.order:
            tiles = system.grow(tid, depth).tiles
            base = cps.of_tile(system, tiles[0])
            for t in tiles[1:]:
                cand = cps.of_tile(system, t) - base
                if cand.is_zero():
                    continue
                trial = chosen + [cand]
                rows = [list(v.entries) for v in trial]
                if field_rank(rows, field.zero(), field.one()) == len(trial):
                    chosen.append(cand)
                    if len(chosen) == d:
                        return chosen
    raise TilingError(
        "control-point differences do not span; retry with deeper patches"
    )
