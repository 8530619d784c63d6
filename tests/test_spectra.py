import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tilingspectra import TilingError, UndecidedError, corpus, lattice, spectra
from tilingspectra.spectra import (
    Alpha,
    convergence_diagnostic,
    dual_basis,
    eigenvalue_module,
    eigenvalue_report,
    exact_dist_sequence,
    is_eigenvalue,
    period_group,
    system_module,
    weak_mixing,
)
from tilingspectra.systemfile import parse_system


def test_dual_basis_identity(grid2):
    K = grid2.field
    basis = [K.vec([1, 0]), K.vec([0, 1])]
    dual = dual_basis(basis)
    assert [v.serialize() for v in dual] == [[["1"], ["0"]], [["0"], ["1"]]]


def test_dual_basis_reciprocal_1d(tm):
    K = tm.field
    dual = dual_basis([K.vec([Fraction(1, 2)])])
    assert dual[0].serialize() == [["2"]]


def test_dual_basis_2d_frozen(grid2):
    K = grid2.field
    dual = dual_basis([K.vec([1, 1]), K.vec([0, 1])])
    # <b_i, b*_j> = delta_ij solved exactly
    assert [v.serialize() for v in dual] == [[["1"], ["0"]], [["-1"], ["1"]]]


TRIBONACCI = Path(__file__).resolve().parent.parent / "perfbench" / "systems" / "tribonacci.json"


@pytest.mark.parametrize("name", ["fibonacci", "tribonacci", "chair"])
def test_eigenvalue_module_solves_no_system_after_the_kenyon_basis(name, monkeypatch):
    # the generators are the duals of the Kenyon basis, read off the
    # coordinate map it was built with: no exact solve after it returns
    system = parse_system(TRIBONACCI) if name == "tribonacci" else corpus.load(name)
    events, solve, basis = [], lattice.field_solve, spectra.coordinate_basis

    def spy_solve(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    def spy_basis(*args, **kwargs):
        kb = basis(*args, **kwargs)
        events.append("basis")
        return kb

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tilingspectra."):
            if getattr(module, "field_solve", None) is solve:
                monkeypatch.setattr(module, "field_solve", spy_solve)
    monkeypatch.setattr(spectra, "coordinate_basis", spy_basis)
    emod = eigenvalue_module(system)
    assert events.count("basis") == 1 and "solve" in events
    assert "solve" not in events[events.index("basis") :]
    # <b_i, g_j> = delta_ij on the Kenyon basis, by products alone
    kb = basis(system, system_module(system))
    assert len(emod.generators) == len(kb.basis) == system.dimension
    for i, b in enumerate(kb.basis):
        for j, g in enumerate(emod.generators):
            assert b.dot(g.coords) == int(i == j)


def test_zero_is_always_an_eigenvalue(systems):
    for system in systems.values():
        alpha = Alpha(system.zero_vec())
        assert is_eigenvalue(system, alpha)


def test_fibonacci_accepts_and_rejects(fib):
    K = fib.field
    t = K.gen()
    assert is_eigenvalue(fib, Alpha(K.vec([1])))
    assert is_eigenvalue(fib, Alpha(K.vec([t])))
    rep = eigenvalue_report(fib, Alpha(K.vec([Fraction(1, 3)])))
    assert not rep.eigenvalue and not rep.eig1
    # the trace engine reports the residue cycle behind the rejection
    traces = [r.trace_report for r in rep.generator_reports if r.trace_report]
    assert traces and any(t_.period == 8 and t_.denominator == 3 for t_ in traces)


def test_np26_rejects_everything_nonzero(np26):
    K = np26.field
    rep = eigenvalue_report(np26, Alpha(K.vec([1])))
    assert not rep.eigenvalue
    assert all(r.trace_report is None for r in rep.generator_reports)  # non-Pisot path


def test_tm_dyadic_eigenvalues(tm):
    K = tm.field
    assert is_eigenvalue(tm, Alpha(K.vec([Fraction(1, 2)])))
    assert is_eigenvalue(tm, Alpha(K.vec([Fraction(3, 4)])))
    assert not is_eigenvalue(tm, Alpha(K.vec([Fraction(1, 3)])))


def test_grid2_eig2_stage(grid2):
    K = grid2.field
    assert is_eigenvalue(grid2, Alpha(K.vec([1, 0])))
    rep = eigenvalue_report(grid2, Alpha(K.vec([Fraction(1, 2), 0])))
    assert rep.eig1 and not rep.eig2  # rejected specifically by the periods
    assert not rep.eigenvalue


def test_eigenvalue_closure_under_sums(fib):
    K = fib.field
    t = K.gen()
    module = system_module(fib)
    samples = [K.vec([1]), K.vec([t]), K.vec([t - 1]), K.vec([2 - t])]
    import itertools

    for a, b in itertools.combinations(samples, 2):
        assert is_eigenvalue(fib, Alpha(a + b), module)
        assert is_eigenvalue(fib, Alpha(-a), module)


def test_eigenvalue_module_fibonacci(fib):
    emod = eigenvalue_module(fib)
    assert emod.periodicity == "aperiodic"
    assert len(emod.generators) == 1
    alpha = emod.generators[0]
    assert is_eigenvalue(fib, alpha)
    # generator is 1/(theta+1) = 2 - theta, the dual of the basis theta+1
    assert alpha.serialize() == [["2", "-1"]]


def test_eigenvalue_module_np26_empty(np26):
    emod = eigenvalue_module(np26)
    assert emod.generators == []
    assert "not Pisot" in emod.reason


def test_eigenvalue_module_grid2(grid2):
    emod = eigenvalue_module(grid2)
    assert emod.periodicity == "periodic"
    assert sorted(a.serialize() for a in emod.generators) == [
        [["0"], ["1"]],
        [["1"], ["0"]],
    ]


def test_weak_mixing_verdicts(systems):
    expected = {
        "fibonacci": False,
        "tm": False,
        "np26": True,
        "chair": False,
        "grid2": False,
    }
    for name, system in systems.items():
        verdict = weak_mixing(system)
        assert verdict.weak_mixing == expected[name], name
        assert verdict.pisot == (not expected[name])
        if not verdict.weak_mixing:
            assert verdict.witness is not None and not verdict.witness.is_zero()
            assert is_eigenvalue(system, verdict.witness)
        else:
            assert verdict.witness is None and verdict.eigen_generators == []


def test_undecided_budget_propagates(fib):
    K = fib.field
    alpha = Alpha(K.vec([Fraction(1, 999999937)]))  # huge prime denominator
    with pytest.raises(UndecidedError):
        eigenvalue_report(fib, alpha)


def test_exact_dist_sequence_matches_conjugate(fib):
    K = fib.field
    dists = exact_dist_sequence(K.one(), 30)
    conj = abs(1 - (1 + 5**0.5) / 2)
    for n in range(5, 31):
        assert abs(float(dists[n]) - conj**n) < 1e-12


def test_convergence_fibonacci_rate(fib):
    K = fib.field
    rep = convergence_diagnostic(fib, Alpha(K.vec([1])), K.vec([1]), steps=40, fit_start=10)
    conj = abs(1 - (1 + 5**0.5) / 2)
    assert rep.fitted_rate == pytest.approx(conj, abs=0.02)
    assert rep.reference_rate == pytest.approx(conj, abs=1e-9)
    assert all(0.0 <= v <= 2.0 for v in rep.values)
    # tail bounded by C * rate^n with a modest constant
    for n in range(10, 41):
        assert rep.values[n] <= 10.0 * (rep.fitted_rate + 0.05) ** n


def test_convergence_theta_coordinate(fib):
    K = fib.field
    t = K.gen()
    rep = convergence_diagnostic(fib, Alpha(K.vec([t])), K.vec([1]), steps=40, fit_start=10)
    conj = abs(1 - (1 + 5**0.5) / 2)
    assert rep.fitted_rate == pytest.approx(conj, abs=0.02)


def test_convergence_exact_zero_tail(grid2):
    K = grid2.field
    rep = convergence_diagnostic(
        grid2, Alpha(K.vec([1, 0])), K.vec([1, 0]), steps=12
    )
    assert rep.exact_zero_tail
    assert rep.fitted_rate is None
    assert all(v == 0.0 for v in rep.values)


def test_np26_distances_do_not_decay(np26):
    K = np26.field
    dists = exact_dist_sequence(K.one(), 40)
    assert max(float(d) for d in dists[20:41]) > 0.05


def test_period_group_ranks(grid2, fib):
    assert period_group(grid2).rank == 2
    assert period_group(grid2).classification(2) == "periodic"
    assert period_group(fib).rank == 0
    assert period_group(fib).classification(1) == "aperiodic"


def test_sub_periodic_fallback(grid2):
    # declare only one of the two grid periods: rank 1 < d = 2
    from tilingspectra.systemfile import serialize_system, system_from_dict

    data = serialize_system(grid2)
    data["periods"] = [[["1"], ["0"]]]
    system = system_from_dict(data)
    assert period_group(system).classification(2) == "sub-periodic"
    emod = eigenvalue_module(system)
    assert emod.partial
    assert len(emod.generators) == 2  # both duals survive the filter
    for alpha in emod.generators:
        assert is_eigenvalue(system, alpha)
