"""Prototiles, patches and substitution rules with exact geometry.

A substitution system carries prototiles (interval or polygon supports
with Q(theta) coordinates), one rule patch per prototile describing the
subdivision of the dilated support, an optional tile-map child choice,
and optionally declared period generators.  Validation checks the
subdivision identity exactly on integer kernel points (see `geometry`):
measures, interior disjointness, containment, and (in one dimension) a
gap-free endpoint chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import add, sub
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, TilingError, ValidationError
from .field import NumberField, QThetaElem, QThetaVec, unchecked
from .geometry import (
    Polygon,
    _apart,
    _common,
    _edges,
    _ring,
    _touch,
    area2,
    interiors_overlap,
    polygon_contains,
)
from .intlattice import (
    LatticeForm,
    embed_rows,
    int_array,
    lattice_form,
    rule_form,
    substitute,
    theta_rows,
    vectors,
)
from .lattice import _matmul, int_matrix_power
from .ordering import value_order

DEFAULT_GROW_BUDGET = 400_000


class Interval:
    """One-dimensional support [0, length] with positive field length."""

    __slots__ = ("length",)

    def __init__(self, length: QThetaElem):
        if length.sign() <= 0:
            raise TilingError("interval length must be positive")
        self.length = length


class Prototile:
    __slots__ = ("id", "support")

    def __init__(self, tid: str, support):
        if not tid:
            raise TilingError("prototile id must be nonempty")
        self.id = tid
        self.support = support

    @property
    def dimension(self) -> int:
        return 1 if isinstance(self.support, Interval) else 2


class PlacedTile:
    """A prototile translated by an exact offset vector."""

    __slots__ = ("proto", "offset")

    def __init__(self, proto: str, offset: QThetaVec):
        self.proto = proto
        self.offset = offset

    def key(self):
        return (self.proto, self.offset.key())

    def __eq__(self, other):
        return isinstance(other, PlacedTile) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PlacedTile({self.proto!r}, {self.offset.floats()})"


class Patch:
    """Finite tile set, given in canonical order: by prototile id, then by
    exact offset value (`ordering.value_order`)."""

    __slots__ = ("tiles",)

    def __init__(self, tiles):
        self.tiles = tuple(tiles)

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def serialize(self):
        return [{"tile": t.proto, "offset": t.offset.serialize()} for t in self.tiles]


class SubstitutionSystem:
    """A tile substitution with pure dilation expansion x -> theta * x."""

    def __init__(
        self,
        name: str,
        field: NumberField,
        prototiles,
        rules,
        control_child=None,
        declared_periods=(),
        dimension=None,
    ):
        self.name = name
        self.field = field
        self.prototiles = {p.id: p for p in prototiles}
        if len(self.prototiles) != len(list(prototiles)):
            raise TilingError("duplicate prototile ids")
        self.order = [p.id for p in prototiles]
        dims = {p.dimension for p in self.prototiles.values()}
        if len(dims) != 1:
            raise TilingError("mixed support dimensions")
        self.dimension = dims.pop()
        if dimension is not None and dimension != self.dimension:
            raise TilingError(
                f"declared dimension {dimension} does not match supports ({self.dimension})"
            )
        self.rules = {}
        for tid, children in rules.items():
            if tid not in self.prototiles:
                raise TilingError(f"rule for unknown prototile {tid!r}")
            for ch in children:
                if ch.proto not in self.prototiles:
                    raise TilingError(
                        f"rule for {tid!r} references unknown prototile {ch.proto!r}"
                    )
            self.rules[tid] = list(children)
        missing = [tid for tid in self.order if tid not in self.rules]
        if missing:
            raise TilingError(f"missing substitution rules for {missing}")
        self.control_child = dict(control_child or {})
        for tid, idx in self.control_child.items():
            if tid not in self.prototiles:
                raise TilingError(f"control_child for unknown prototile {tid!r}")
            if not (0 <= idx < len(self.rules[tid])):
                raise TilingError(f"control_child index {idx} out of range for {tid!r}")
        self.declared_periods = list(declared_periods)
        # the rules in plain ints, an immutable value that validation, legal
        # pairs, volumes, the lattice form and the tile map all read; a
        # support's kernel points are an interval's ends or a polygon's vertices
        supports = [self.prototiles[tid].support for tid in self.order]
        self.rule_form = rule_form(
            field, self.dimension, self.order, self.rules,
            [[self.zero_vec(), field.vec([sup.length])] if self.dimension == 1
             else sup.vertices for sup in supports],
        )
        # lazily filled caches: each is a value computed from the immutable
        # rules, so a racing recomputation stores an equal result
        self._lattice = None  # lattice_form, an immutable LatticeForm
        self._pisot_cert = None  # spectra.system_pisot
        self._controls = None  # returns._controls, an immutable Controls
        self._return_module = None  # spectra.system_module

    # -- basic views -----------------------------------------------------

    @property
    def theta(self):
        return self.field.theta

    def theta_elem(self) -> QThetaElem:
        return self.field.gen()

    def zero_vec(self) -> QThetaVec:
        return self.field.vec([0] * self.dimension)

    def gamma(self, tid: str):
        """(child index, child tile) picked by the tile map for `tid`."""
        idx = self.control_child.get(tid, 0)
        return idx, self.rules[tid][idx]

    # -- substitution matrix ----------------------------------------------

    def substitution_matrix(self):
        """Entry [i][j]: the number of children of type i in rule j."""
        form = self.rule_form
        mat = [[0] * len(form.spans) for _ in form.spans]
        for j, span in enumerate(form.spans):
            for i in span:
                mat[form.kinds[i]][j] += 1
        return mat

    # -- growth ------------------------------------------------------------

    def lattice_form(self) -> LatticeForm:
        """The rules in integer form (see `intlattice`), built once."""
        form = self._lattice
        if form is None:
            form = self._lattice = lattice_form(self.rule_form, self.order)
        return form

    def grow(self, tid: str, n: int) -> Patch:
        """The n-fold substitution of prototile `tid`, exact coordinates."""
        return self._patch_of(*self.grow_lattice(tid, n))

    def grow_lattice(self, tid: str, n: int):
        """(types, coords, den) of the n-fold substitution of `tid`,
        unsorted: tile i has prototile self.order[types[i]] at offset
        coords[i] / den.  More than DEFAULT_GROW_BUDGET tiles raise
        BudgetError before any is built."""
        (grown,) = self.grow_lattices([tid], [n])
        return grown.types, grown.coords, grown.den

    def grow_lattices(self, tids, depths):
        """Yield, at each of the ascending `depths`, the substitutions of
        the prototiles `tids` to that depth as one integer patch
        (a `JointPatch`), grown by one `intlattice.substitute` per depth.

        Children stay together under their parent, in rule order, so the
        tiles grown from tids[k] stay one block, and its rows are those a
        growth of tids[k] alone gives.  Before any step towards a depth,
        each block's tile count there is taken from matrix powers with
        entries capped above the budget, and a block of more than
        DEFAULT_GROW_BUDGET tiles raises BudgetError."""
        for tid in tids:
            if tid not in self.prototiles:
                raise TilingError(f"unknown prototile {tid!r}")
        budget = DEFAULT_GROW_BUDGET
        cap = budget + 1
        form = self.lattice_form()
        mat = self.substitution_matrix()
        # counts[i, k]: tiles of type i in block k, capped at the budget
        # + 1, so a block's total is exact up to the budget; every product
        # below is of entries at most cap, so it fits in int64
        step = np.minimum(np.array(mat, dtype=np.int64), cap)
        index = [self.order.index(tid) for tid in tids]
        types = np.array(index, dtype=np.int64)
        counts = (np.arange(len(mat))[:, None] == types).astype(np.int64)
        coords = np.zeros((len(index), form.theta.shape[0]), dtype=np.int64)
        den, bound, at = form.den, 0, 0
        for n in depths:
            if n < at:
                raise TilingError("depth must be nonnegative" if n < 0 else "depths must ascend")
            power = step if n - at == 1 else np.array(int_matrix_power(mat, n - at, cap=cap))
            counts = np.minimum(power @ counts, cap)
            sizes = counts.sum(axis=0)
            if len(sizes) and sizes.max() > budget:
                raise _over_grow_budget()
            for _ in range(n - at):
                types, coords, den, bound = substitute(form, types, coords, den, bound)
            assert len(types) == sizes.sum()
            at = n
            yield JointPatch(types, coords, den, tuple(sizes.tolist()))

    def _patch_of(self, types, coords, den) -> Patch:
        """The Patch, in canonical order, of an integer-form tile set."""
        perm = value_order(self.field, coords, den, groups=self.lattice_form().rank[types])
        offsets = vectors(self.field, coords[perm], den)
        names = np.array(self.order, dtype=object)[types[perm]].tolist()
        tiles = unchecked(PlacedTile, len(offsets), proto=names, offset=offsets)
        return Patch(tiles)

    # -- supports -----------------------------------------------------------

    def tile_interval(self, t: PlacedTile):
        sup = self.prototiles[t.proto].support
        start = t.offset[0]
        return (start, start + sup.length)

    def tile_polygon(self, t: PlacedTile) -> Polygon:
        sup = self.prototiles[t.proto].support
        return sup.translated(t.offset)


class JointPatch(NamedTuple):
    """Several integer-form patches as one: block k is the next sizes[k]
    tiles, tile i of prototile order[types[i]] at offset coords[i] / den."""

    types: np.ndarray
    coords: np.ndarray
    den: int
    sizes: tuple

    def parts(self) -> list:
        """(types, coords) of each block, as views."""
        ends = list(accumulate(self.sizes))
        return [(self.types[a:b], self.coords[a:b]) for a, b in zip([0] + ends, ends)]


def _over_grow_budget() -> BudgetError:
    return BudgetError(f"grow would produce more than {DEFAULT_GROW_BUDGET} tiles")


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class ValidationReport:
    def __init__(self, system_name):
        self.system = system_name
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append(CheckResult(name, ok, detail))

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def raise_if_invalid(self):
        if not self.valid:
            msgs = [f"{c.name}: {c.detail}" for c in self.failures()]
            raise ValidationError(
                f"system {self.system!r} failed validation", failures=msgs
            )

    def as_dict(self):
        return {
            "system": self.system,
            "valid": self.valid,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


def validate(system: SubstitutionSystem) -> ValidationReport:
    """Exact check of the subdivision identity and declared periods, on
    the kernel points of the supports and the rule offsets."""
    rep = ValidationReport(system.name)

    if system.theta.cmp_rational(1) <= 0:
        rep.add("expansion", False, "theta must exceed 1")
        return rep
    rep.add("expansion", True, "theta > 1")

    form = system.rule_form
    kinds = form.kinds
    vols, grown, vden = _volumes(system)
    for j, (tid, rows) in enumerate(zip(system.order, form.spans)):
        children = system.rules[tid]
        if not children:
            rep.add(f"rule[{tid}].nonempty", False, "empty rule patch")
            continue
        total = tuple(map(sum, zip(*(vols[kinds[i]] for i in rows))))
        ok = total == grown[j]
        rep.add(
            f"rule[{tid}].measure",
            ok,
            "children measure equals theta^d * vol" if ok else
            f"children measure {QThetaElem(system.field, total, vden).serialize()} != "
            f"theta^d*vol {QThetaElem(system.field, grown[j], vden).serialize()}",
        )
        kids = [(ch, form.placed(kinds[i], form.offsets[i])) for ch, i in zip(children, rows)]
        _validate_rule(system, rep, tid, kids, [_rowmul(v, form.theta) for v in form.shapes[j]])

    if system.declared_periods:
        _validate_periods(system, rep)

    seeds = [tid for tid in system.order
             if any(ch.proto == tid and ch.offset.is_zero() for ch in system.rules[tid])]
    rep.add(
        "fixed_point_seed",
        True,
        f"self-reproducing seed tiles at the origin: {seeds}" if seeds
        else "no rule keeps its own type at offset 0 (informational)",
    )
    return rep


def _validate_rule(system, rep, tid, kids, region):
    """Disjointness, containment and, in 1d, the endpoint chain of one
    rule: kids are (child, kernel points) pairs and region is the dilated
    support, all over one denominator."""
    detail = ""
    for (ca, p), (cb, q) in combinations(kids, 2):
        if _overlap(system, p, q):
            detail = (
                f"children {ca.proto}@{ca.offset.serialize()} and "
                f"{cb.proto}@{cb.offset.serialize()} overlap"
            )
            break
    rep.add(f"rule[{tid}].disjoint", not detail, detail)

    detail = next(
        (f"child {ch.proto}@{ch.offset.serialize()} outside inflated support"
         for ch, pts in kids if not _inside(system, region, pts)),
        "",
    )
    rep.add(f"rule[{tid}].containment", not detail, detail)
    # in 2d gap-freeness follows from exact measure + disjointness + containment
    if system.dimension == 1:
        rep.add(f"rule[{tid}].chain", *_chain(system.field, [pts for _, pts in kids], region))


def _chain(field, segs, region):
    """(ok, detail): do the segments, sorted by exact start, cover the
    region end to end without gaps?

    Lengths are positive, so the segments cover it exactly when the walk
    from the region's start, each segment's end being the next one's
    start, takes every segment once and stops at the region's end; that
    walk is the sorted order.  Only a failure is sorted, to name it."""
    (start, end) = region
    after = dict(segs)  # a repeated start leaves fewer than len(segs) steps
    at = start
    for _ in segs:
        at = after.get(at)
        if at is None:
            break
    if at == end:
        return True, ""
    starts = int_array([a for a, _ in segs], field.degree)
    segs = [segs[i] for i in value_order(field, starts, 1).tolist()]
    if segs[0][0] != start:
        return False, "first child does not start at 0"
    if any(a[1] != b[0] for a, b in zip(segs, segs[1:])):
        return False, "gap or overlap in the endpoint chain"
    if segs[-1][1] != end:
        return False, "last child does not reach theta * length"
    return True, ""


def _volumes(system):
    """(vols, grown, vden): per prototile its measure (the length in 1d,
    the doubled area in 2d) and theta^d times it, as power-basis
    coordinates over vden, from the kernel points of the rule form."""
    field, form = system.field, system.rule_form
    shapes, den = form.shapes, form.den * form.up
    if system.dimension == 1:
        vols, vden = [tuple(map(sub, b, a)) for a, b in shapes], den
    else:
        vols, vden = [area2(field, vs) for vs in shapes], 2 * den * den
    companion = theta_rows(field, 1)
    grown = vols
    for _ in range(system.dimension):
        grown = [_rowmul(v, companion) for v in grown]
    return vols, grown, vden


def _rowmul(row, mat):
    """The integer row vector row @ mat, mat given by its rows."""
    return tuple(sum(x * c for x, c in zip(row, col)) for col in zip(*mat))


def _validate_periods(system, rep):
    depth = 3  # every period is checked inside omega^depth of each prototile
    for g in system.declared_periods:
        if g.is_zero():
            rep.add("periods", False, "zero vector declared as a period")
            return
    field, form = system.field, system.rule_form
    shapes, den = form.shapes, form.den * form.up
    width = system.dimension * field.degree
    grown = {}  # tid -> grow_lattice(tid, depth), grown when first checked
    regions = []  # theta^depth * support, over den
    for region in shapes:
        for _ in range(depth):
            region = [_rowmul(v, form.theta) for v in region]
        regions.append(region)
    for g in system.declared_periods:
        ok = True
        detail = ""
        matched = 0
        period = embed_rows([g])
        for tid, region in zip(system.order, regions):
            if tid not in grown:
                grown[tid] = system.grow_lattice(tid, depth)
            types, coords, cden = grown[tid]
            # every point below is over the one denominator `big`
            big, ((shift,), outer, offsets, *protos) = _common(
                period, (region, den), (list(map(tuple, coords.tolist())), cden),
                *((rows, den) for rows in shapes),
            )
            present = set(zip(types.tolist(), offsets))
            bad = []  # (index, translated offset) of disagreeing tiles
            for i, (k, offset) in enumerate(zip(types.tolist(), offsets)):
                at = tuple(map(add, offset, shift))
                tile = [tuple(map(add, v, at)) for v in protos[k]]
                if not _inside(system, outer, tile):
                    continue
                if (k, at) in present:
                    matched += 1
                else:
                    bad.append((i, at))
            if bad:
                # name the first disagreeing tile in canonical order
                picked = [i for i, _ in bad]
                first = value_order(
                    field,
                    int_array([at for _, at in bad], width),
                    big,
                    groups=system.lattice_form().rank[types[picked]],
                )[0]
                i, at = bad[first]
                (offset,) = vectors(field, int_array([at], width), big)
                ok = False
                detail = (
                    f"period {g.serialize()}: translated tile "
                    f"{system.order[types[i]]}@{offset.serialize()} disagrees inside omega^{depth}({tid})"
                )
                break
        if ok and matched == 0:
            ok = False
            detail = f"period {g.serialize()}: no overlap at depth {depth}; cannot verify"
        rep.add(f"period[{g.serialize()}]", ok, detail or f"{matched} tiles matched")


def _inside(system, region, tile) -> bool:
    """Is the tile support inside the region (both as kernel points)?"""
    if system.dimension == 1:
        (a, b), (_, end) = tile, region
        sign = system.field.sign
        return sign(a) >= 0 and sign([x - y for x, y in zip(end, b)]) >= 0
    return polygon_contains(system.field, region, tile)


# ---------------------------------------------------------------------------
# matrix diagnostics


def is_primitive(mat):
    """(primitive?, witness exponent, Wielandt bound)."""
    m = len(mat)
    if any(len(r) != m for r in mat):
        raise TilingError("substitution matrix must be square")
    if any(v < 0 for row in mat for v in row):
        raise TilingError("substitution matrix must be nonnegative")
    bound = m * m - 2 * m + 2 if m > 1 else 1
    power = mat
    for k in range(1, bound + 1):
        if all(v > 0 for row in power for v in row):
            return True, k, bound
        power = _matmul(power, mat)
    return False, None, bound


def perron_check(system: SubstitutionSystem):
    """Exact left-eigenvector identity of the volume vector, plus a
    floating Perron eigenvalue for cross-reading."""
    mat = system.substitution_matrix()
    vols, grown, _ = _volumes(system)
    for j, tid in enumerate(system.order):
        acc = tuple(
            sum(mat[i][j] * v[k] for i, v in enumerate(vols)) for k in range(len(grown[j]))
        )
        if acc != grown[j]:
            raise TilingError(
                f"volume vector is not an exact theta^d left eigenvector at column {tid!r}"
            )
    eigs = np.linalg.eigvals(np.array(mat, dtype=float))
    perron = float(max(e.real for e in eigs))
    return {
        "exact_left_eigenvector": True,
        "perron_eigenvalue_float": perron,
        "theta_power_d_float": float(system.theta_elem() ** system.dimension),
    }


def tile_frequencies(mat):
    """Normalized right Perron eigenvector by plain power iteration, to
    within 1e-12 in 100,000 steps."""
    m = len(mat)
    x = [1.0 / m] * m
    for _ in range(100_000):
        y = [sum(mat[i][j] * x[j] for j in range(m)) for i in range(m)]
        s = sum(y)
        if s == 0:
            raise TilingError("matrix annihilated the iterate; not primitive?")
        y = [v / s for v in y]
        if max(abs(a - b) for a, b in zip(x, y)) < 1e-12:
            return tuple(y)
        x = y
    raise TilingError("power iteration did not converge")


# ---------------------------------------------------------------------------
# finite local complexity


def legal_pairs(system: SubstitutionSystem) -> frozenset:
    """Every legal pair (a, b, diff): tiles of types a and b whose closed
    supports meet, at offsets x and x + diff / rule_form.den, in some
    omega^n(t); diff is a tuple of ints.

    The seeds are the touching pairs of children in every rule.  A round
    substitutes each new pair: a's children sit at their rule offsets and
    b's at theta * diff plus theirs, and every touching child pair whose
    key is new is kept.  Children lie inside their parent's support, so a
    touching pair of omega^(n+1)(t) has equal or touching parents, and the
    closure is the union over all n and t.  It is finite iff the tilings
    have finite local complexity (Solomyak 1997), so more than
    DEFAULT_GROW_BUDGET pairs raise BudgetError.
    """
    r = _ring(system.field)
    form = system.rule_form
    kinds, offsets, theta = form.kinds, form.offsets, form.theta
    zero = (0,) * len(theta)
    # the pair (t, t, 0) of a tile with itself substitutes to the seeds
    frontier = [(t, t, zero) for t in range(len(system.order))]
    seen = set(frontier)
    pairs = []
    while frontier:
        new = []
        for a, b, diff in frontier:
            base = _rowmul(diff, theta)
            for i in form.spans[a]:
                for j in form.spans[b]:
                    d = tuple(x + y - z for x, y, z in zip(base, offsets[j], offsets[i]))
                    key = (kinds[i], kinds[j], d)
                    if key in seen:
                        continue
                    seen.add(key)
                    if _meet(system, r, form.shapes[kinds[i]], form.placed(kinds[j], d)):
                        new.append(key)
                        if len(pairs) + len(new) > DEFAULT_GROW_BUDGET:
                            raise BudgetError(
                                f"more than {DEFAULT_GROW_BUDGET} legal pairs: "
                                "no finite local complexity?"
                            )
        pairs += new
        frontier = new
    return frozenset((system.order[a], system.order[b], d) for a, b, d in pairs)


def _meet(system, r, p, q) -> bool:
    """Do the closed supports with kernel points p and q meet?"""
    if system.dimension == 1:
        (p0, p1), (q0, q1) = p, q
        # each interval starts at or before the other one's end
        return all(
            system.field.sign(list(map(sub, start, end))) <= 0
            for start, end in ((q0, p1), (p0, q1))
        )
    if _apart(r, r.extremes(p), r.extremes(q), closed=True):
        return False
    return any(_touch(r, a, b, c, d) for a, b in _edges(p) for c, d in _edges(q))


def _overlap(system, p, q) -> bool:
    """Do the supports with kernel points p and q share interior points?"""
    if system.dimension == 1:
        (p0, p1), (q0, q1) = p, q
        # each interval starts before the other one's end
        return all(
            system.field.sign(list(map(sub, start, end))) < 0
            for start, end in ((q0, p1), (p0, q1))
        )
    return interiors_overlap(system.field, p, q)
