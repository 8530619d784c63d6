"""Cross-cutting consistency checks tying the independent routes together."""

import random
from fractions import Fraction

from tilingspectra import trace
from tilingspectra.intlattice import embed
from tilingspectra.lattice import charpoly
from tilingspectra.returns import ReturnSample, group_basis, phi_action
from tilingspectra.spectra import (
    Alpha,
    eigenvalue_module,
    is_eigenvalue,
    system_module,
)


def test_group_basis_idempotent_on_own_output(systems):
    for name, system in systems.items():
        module = system_module(system)
        coords, den = embed(module.generators)
        again = group_basis(
            ReturnSample(
                depth=module.sample_depth,
                vectors=list(module.generators),
                dimension=system.dimension,
                coords=coords,
                den=den,
            ),
            system.field,
        )
        assert [v.key() for v in again.generators] == [
            v.key() for v in module.generators
        ], name


def test_eigenvalue_closure_twenty_random_pairs(fib):
    """Sums and negations of module elements stay eigenvalues."""
    K = fib.field
    t = K.gen()
    module = system_module(fib)
    emod = eigenvalue_module(fib)
    base = [a.coords for a in emod.generators]
    rng = random.Random(2024)
    inv = t.inverse()

    def random_member():
        # Z[1/theta]-combination of the emitted generators
        acc = None
        for g in base:
            coeff = K.rational(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                coeff = coeff * inv
            term = g.scale(coeff)
            acc = term if acc is None else acc + term
        return acc

    for _ in range(20):
        a, b = random_member(), random_member()
        assert is_eigenvalue(fib, Alpha(a), module)
        assert is_eigenvalue(fib, Alpha(b), module)
        assert is_eigenvalue(fib, Alpha(a + b), module)
        assert is_eigenvalue(fib, Alpha(-a), module)


def test_traces_satisfy_charpoly_of_m_recurrence(systems):
    """The minimal polynomial divides charpoly(M), so the rational trace
    sequence must satisfy the M-recurrence as well: the two decision
    routes cannot disagree."""
    for name, system in systems.items():
        module = system_module(system)
        M = module.M or phi_action(module, system)
        poly = charpoly(M)
        ell = poly.degree
        K = system.field
        g = K.gen()
        x = K.elem([Fraction(1, 3)] + [Fraction(0)] * (K.degree - 1))
        seq = []
        cur = x
        for _ in range(30 + ell):
            seq.append(trace(cur))
            cur = cur * g
        for n in range(30):
            acc = sum(poly.coeffs[k] * seq[n + k] for k in range(ell + 1))
            assert acc == 0, (name, n)
