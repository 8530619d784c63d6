"""Dynamical eigenvalues of pure-dilation substitution systems.

A vector alpha is an eigenvalue of the translation action exactly when
(1) e^(2 pi i <theta^n z, alpha>) -> 1 for every return vector z, and
(2) e^(2 pi i <g, alpha>) = 1 for every period g.  Condition (1) is
decided exactly on the group generators through the trace-residue
engine: for Pisot theta the pairing <v, alpha> must have eventually
integer traces; for non-Pisot theta only alpha = 0 survives.  The
spectral dichotomy follows: nontrivial eigenvalues exist iff theta is
Pisot, and then the duals of the integer-coordinate basis generate a
whole module of verified eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import TilingError
from .field import QThetaElem, QThetaVec
from .intlattice import embed_rows, vectors
from .pisot import PisotCertificate, is_pisot
from .returns import ReturnModule, _coordinate_map, coordinate_basis, stabilized_module
from .tiles import SubstitutionSystem
from .traces import dist_to_int, dist_to_int_limit


@dataclass
class Alpha:
    """An eigenvalue candidate: standard-basis coordinates in Q(theta)^d."""

    coords: QThetaVec

    @property
    def dim(self):
        return self.coords.dim

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def pairing(self, v: QThetaVec) -> QThetaElem:
        return self.coords.dot(v)

    def serialize(self):
        return self.coords.serialize()


@dataclass
class PeriodGroup:
    generators: list  # QThetaVec

    @property
    def rank(self) -> int:
        if not self.generators:
            return 0
        field = self.generators[0].field
        return field.solve(embed_rows(self.generators)[0]).rank // field.degree

    def classification(self, dimension: int) -> str:
        r = self.rank
        if r == 0:
            return "aperiodic"
        if r < dimension:
            return "sub-periodic"
        return "periodic"


def period_group(system: SubstitutionSystem) -> PeriodGroup:
    return PeriodGroup(generators=list(system.declared_periods))


def dual_basis(basis) -> list:
    """Vectors {b*_j} with <b_i, b*_j> = delta_ij, exact over Q(theta)."""
    if not basis:
        raise TilingError("empty basis")
    field = basis[0].field
    d = basis[0].dim
    if len(basis) != d:
        raise TilingError(f"need exactly {d} basis vectors, got {len(basis)}")
    return _duals(field, _coordinate_map(field, *embed_rows(basis)))


def _duals(field, coordinate_map) -> list:
    """The dual basis of the d vectors whose `returns._coordinate_map` is
    (T, L): entry k of b*_j is coordinate j of the k-th unit vector over
    the b_i, which is block j of row k*s of T, over L."""
    T, L = coordinate_map
    s, d = field.degree, len(T) // field.degree
    rows = T[::s].reshape(d, d, s).transpose(1, 0, 2).reshape(d, d * s)
    return vectors(field, rows, L)


# ---------------------------------------------------------------------------
# the two eigenvalue conditions


@dataclass
class GeneratorReport:
    generator: QThetaVec
    pairing: QThetaElem
    passed: bool
    trace_report: object = None  # TraceSequenceReport for the Pisot branch

    def serialize(self):
        out = {
            "generator": self.generator.serialize(),
            "pairing": self.pairing.serialize(),
            "passed": self.passed,
        }
        if self.trace_report is not None:
            out["trace"] = self.trace_report.as_dict()
        return out


def check_eig1(system: SubstitutionSystem, alpha: Alpha, module: ReturnModule):
    """(passed, reports): phase convergence along dilation powers, on
    the group generators.

    The condition dist(theta^n x, Z) -> 0 is closed under integer
    combinations, so checking generators decides it for every sampled
    return vector.  Raises UndecidedError when the residue engine runs
    out of budget (never coerced to a boolean).
    """
    cert = system_pisot(system)
    reports = []
    if cert.pisot:
        for v in module.generators:
            x = alpha.pairing(v)
            rep = dist_to_int_limit(x)
            reports.append(
                GeneratorReport(v, x, rep.eventually_integer, trace_report=rep)
            )
        return all(r.passed for r in reports), reports
    for v in module.generators:
        x = alpha.pairing(v)
        reports.append(GeneratorReport(v, x, x.is_zero()))
    return all(r.passed for r in reports), reports


def check_eig2(alpha: Alpha, periods: PeriodGroup):
    """Integer pairing with every declared period generator."""
    reports = []
    for g in periods.generators:
        x = alpha.pairing(g)
        reports.append(GeneratorReport(g, x, x.is_rational_integer()))
    return all(r.passed for r in reports), reports


@dataclass
class EigenReport:
    alpha: Alpha
    eig1: bool
    eig2: bool
    generator_reports: list
    period_reports: list
    sample_depth: int
    stabilized: bool

    @property
    def eigenvalue(self) -> bool:
        return self.eig1 and self.eig2

    def serialize(self):
        return {
            "alpha": self.alpha.serialize(),
            "eigenvalue": self.eigenvalue,
            "eig1": self.eig1,
            "eig2": self.eig2,
            "generators": [r.serialize() for r in self.generator_reports],
            "periods": [r.serialize() for r in self.period_reports],
            "sample_depth": self.sample_depth,
            "stabilized": self.stabilized,
        }


def eigenvalue_report(
    system: SubstitutionSystem, alpha: Alpha, module: ReturnModule = None
) -> EigenReport:
    module = module or system_module(system)
    ok1, r1 = check_eig1(system, alpha, module)
    ok2, r2 = check_eig2(alpha, period_group(system))
    return EigenReport(
        alpha=alpha,
        eig1=ok1,
        eig2=ok2,
        generator_reports=r1,
        period_reports=r2,
        sample_depth=module.sample_depth,
        stabilized=module.stabilized,
    )


def is_eigenvalue(
    system: SubstitutionSystem, alpha: Alpha, module: ReturnModule = None
) -> bool:
    return eigenvalue_report(system, alpha, module).eigenvalue


# ---------------------------------------------------------------------------
# caches on the system object (pure values, computed once)


def system_pisot(system: SubstitutionSystem) -> PisotCertificate:
    if system._pisot_cert is None:
        system._pisot_cert = is_pisot(system.theta)
    return system._pisot_cert


def system_module(system: SubstitutionSystem) -> ReturnModule:
    module = system._return_module
    if module is None:
        module = stabilized_module(system)
        if not module.spans_space():
            raise TilingError(
                "sampled return vectors do not span the space; deepen the sample"
            )
        system._return_module = module
    return module


# ---------------------------------------------------------------------------
# the eigenvalue module and the weak-mixing verdict


@dataclass
class EigenvalueModule:
    generators: list  # Alpha
    periodicity: str
    description: str
    sample_depth: int
    stabilized: bool
    partial: bool
    reason: str = ""

    def serialize(self):
        return {
            "generators": [a.serialize() for a in self.generators],
            "periodicity": self.periodicity,
            "module": self.description,
            "sample_depth": self.sample_depth,
            "stabilized": self.stabilized,
            "partial": self.partial,
            "reason": self.reason,
        }


def eigenvalue_module(system: SubstitutionSystem) -> EigenvalueModule:
    """Generators of a module of verified eigenvalues (empty iff theta is
    not Pisot).  Every emitted generator passed `eigenvalue_report`."""
    cert = system_pisot(system)
    periods = period_group(system)
    kind = periods.classification(system.dimension)
    if not cert.pisot:
        return EigenvalueModule(
            generators=[],
            periodicity=kind,
            description="trivial",
            sample_depth=0,
            stabilized=True,
            partial=False,
            reason="theta is not Pisot: weak mixing, only alpha = 0 remains",
        )
    module = system_module(system)
    kb = coordinate_basis(system, module)
    partial = False
    if kind == "aperiodic":
        candidates = _duals(system.field, kb.coordinate_map)
        description = "Z[1/theta]-combinations of the generators are eigenvalues"
    elif kind == "periodic":
        if system.field.degree != 1:
            raise TilingError(
                "full-rank periods force an integer dilation; system is inconsistent"
            )
        if module.rank != system.dimension:
            raise TilingError(
                "periodic system whose return group is not a lattice; deepen sample"
            )
        candidates = dual_basis(module.generators)
        description = "dual lattice of the return group"
    else:
        candidates = _duals(system.field, kb.coordinate_map)
        description = (
            "heuristic: duals of the coordinate basis, filtered by verification"
        )
        partial = True
    out = []
    for vec in candidates:
        alpha = Alpha(vec)
        report = eigenvalue_report(system, alpha, module)
        if report.eigenvalue:
            out.append(alpha)
        elif kind == "sub-periodic":
            continue  # filtered, module flagged partial
        else:
            raise TilingError(
                f"construction emitted a non-eigenvalue {alpha.serialize()}: defect"
            )
    return EigenvalueModule(
        generators=out,
        periodicity=kind,
        description=description,
        sample_depth=module.sample_depth,
        stabilized=module.stabilized,
        partial=partial,
    )


@dataclass
class SpectralVerdict:
    pisot: bool
    weak_mixing: bool
    eigen_generators: list
    witness: object  # Alpha or None
    sample_depth: int
    notes: list = dc_field(default_factory=list)

    def serialize(self):
        return {
            "pisot": self.pisot,
            "weak_mixing": self.weak_mixing,
            "witness": self.witness.serialize() if self.witness else None,
            "generators": [a.serialize() for a in self.eigen_generators],
            "sample_depth": self.sample_depth,
            "undecided": [],  # kept so the JSON keys stay stable
            "notes": list(self.notes),
        }


def weak_mixing(system: SubstitutionSystem) -> SpectralVerdict:
    """The spectral dichotomy: weak mixing iff theta is not Pisot.

    For Pisot theta the witness is the first nonzero generator of the
    verified eigenvalue module.
    """
    cert = system_pisot(system)
    if not cert.pisot:
        return SpectralVerdict(
            pisot=False,
            weak_mixing=True,
            eigen_generators=[],
            witness=None,
            sample_depth=0,
            notes=["theta is not Pisot; no nonzero eigenvalues exist"],
        )
    emod = eigenvalue_module(system)
    witness = next((a for a in emod.generators if not a.is_zero()), None)
    if witness is None:
        raise TilingError("Pisot system without a nonzero eigenvalue generator: defect")
    notes = [f"module: {emod.description}", f"periodicity: {emod.periodicity}"]
    if emod.partial:
        notes.append("sub-periodic fallback: emitted module may be incomplete")
    return SpectralVerdict(
        pisot=True,
        weak_mixing=False,
        eigen_generators=emod.generators,
        witness=witness,
        sample_depth=emod.sample_depth,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# convergence diagnostics


@dataclass
class ConvergenceReport:
    values: list  # |e^(2 pi i theta^n <z, alpha>) - 1| for n = 0..N
    fitted_rate: object  # float or None for an exactly zero tail
    reference_rate: float
    constant: object  # float or None
    exact_zero_tail: bool

    def serialize(self):
        return {
            "values": [format(v, ".15g") for v in self.values],
            "fitted_rate": None
            if self.fitted_rate is None
            else format(self.fitted_rate, ".15g"),
            "reference_rate": format(self.reference_rate, ".15g"),
            "constant": None if self.constant is None else format(self.constant, ".15g"),
            "exact_zero_tail": self.exact_zero_tail,
        }


def convergence_diagnostic(
    system: SubstitutionSystem,
    alpha: Alpha,
    z: QThetaVec,
    steps: int,
    fit_start: int = None,
) -> ConvergenceReport:
    """Exact phase distances along dilation powers plus a fitted rate.

    Distances come from exact field powers with interval refinement,
    never floating theta^n.  The reported reference rate is the largest
    conjugate modulus of theta (float view).
    """
    if steps < 4 or steps > 400:
        raise TilingError("steps must be between 4 and 400")
    x = alpha.pairing(z)
    dists = exact_dist_sequence(x, steps)
    values = [2.0 * math.sin(math.pi * min(float(d), 0.5)) for d in dists]
    cert = system_pisot(system)
    reference = max(cert.conjugate_moduli, default=0.0)
    lo = fit_start if fit_start is not None else max(2, steps // 2)
    tail = [(n, v) for n, v in enumerate(values) if n >= lo]
    if all(v == 0.0 for _, v in tail):
        return ConvergenceReport(values, None, reference, None, True)
    import numpy as np

    pts = [(n, math.log(v)) for n, v in tail if v > 0.0]
    if len(pts) < 2:
        return ConvergenceReport(values, None, reference, None, False)
    ns = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(ns, ys, 1)
    return ConvergenceReport(
        values=values,
        fitted_rate=float(math.exp(slope)),
        reference_rate=reference,
        constant=float(math.exp(intercept)),
        exact_zero_tail=False,
    )


def exact_dist_sequence(x: QThetaElem, steps: int):
    """dist(theta^n x, Z) for n = 0..steps, exact (rational for degree 1,
    interval-refined below 1e-25 otherwise)."""
    out = []
    cur = x
    g = x.field.gen()
    for _ in range(steps + 1):
        out.append(dist_to_int(cur))
        cur = cur * g
    return out
