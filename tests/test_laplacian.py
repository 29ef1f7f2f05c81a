import itertools
import math
from collections import Counter

import numpy as np
import pytest

from alcove import laplacian
from alcove.harmonic import (LaurentPoly, QuadratureGrid, monomial_symmetric,
                             orbit_symbol)
from alcove.laplacian import (LatticeFunction, apply_fourier_conjugated,
                              apply_free, apply_free_closed, apply_koornwinder,
                              apply_macdonald_ruijsenaars, commutator_residual,
                              diagonal_shift, hopping_orbit, interior_sites,
                              localization_support, operator_matrix,
                              orbit_with_negatives)
from alcove.orthopoly import (KoornwinderParams, MacdonaldParams, gram_schmidt,
                              hopping_coefficient)
from alcove.qfun import unit_spec
from alcove.rootsys import build_root_system
from alcove.scattering import WaveTable


def _fvec(rs, mu):
    return np.array([float(x) for x in rs.weight_vector(mu)])


def _random_packets(rs, weights, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        data = {tuple(w): complex(rng.normal(), rng.normal())
                for w in rng.choice(len(weights), size=min(4, len(weights)),
                                    replace=False)
                for w in [weights[w]]}
        out.append(LatticeFunction(rs, data))
    return out


def test_localization_support(a1, a2):
    # A1: dominance couples only sites of equal parity, so the reachable
    # set from l is {l-1, l+1} within the cone
    assert localization_support(a1, (3,), 0) == {(2,), (4,)}
    assert localization_support(a1, (0,), 0) == {(1,)}
    assert (1, 0) in localization_support(a2, (0, 0), 0)
    # cardinality bounded by the full weight interval [w0(omega_r), omega_r]
    for r in range(2):
        omega = tuple(1 if j == r else 0 for j in range(2))
        w0o = a2.longest_element().act(omega)
        interval = {omega}
        frontier = [omega]
        gens = [a2.vector_coords(s) for s in a2.gen_simples]
        while frontier:
            nu = frontier.pop()
            for s in gens:
                down = tuple(a - b for a, b in zip(nu, s))
                if down not in interval and a2.dominance_leq(w0o, down):
                    interval.add(down)
                    frontier.append(down)
        for lam in [(0, 0), (1, 1), (2, 1), (3, 3)]:
            assert len(localization_support(a2, lam, r)) <= len(interval)


def test_free_laplacian_examples(a2, bc1):
    phi = LatticeFunction.indicator(a2, (0, 0))
    out = apply_free(a2, (1, 1), phi)
    assert abs(out.get((0, 0)) + 2.0) < 1e-15  # character oracle: m_th = chi_th - 2 chi_0
    assert abs(out.get((1, 1)) - 1.0) < 1e-15
    # BC1 hard wall
    phib = LatticeFunction.indicator(bc1, (0,))
    outb = apply_free(bc1, (1,), phib)
    assert dict(outb.items()) == {(1,): 1 + 0j}


def test_free_minuscule_no_diagonal(a2):
    for lam in [(0, 0), (1, 0), (2, 1)]:
        out = apply_free(a2, (1, 0), LatticeFunction.indicator(a2, lam))
        assert abs(out.get(lam)) == 0.0


def test_free_forms_agree_exactly():
    # raw reflection folding vs the closed form over ranks <= 3, heights <= 8
    for label, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                        ("C", 3), ("G", 2), ("BC", 1), ("BC", 2), ("BC", 3)]:
        rs = build_root_system(label, rank)
        pis = [tuple(m) for m in rs.minuscule_weights()]
        pis.append(rs.quasi_minuscule_weight())
        for pi in pis:
            for lam in itertools.product(range(9), repeat=rank):
                if sum(lam) > 8:
                    continue
                f = LatticeFunction.indicator(rs, lam)
                a = apply_free(rs, pi, f)
                b = apply_free_closed(rs, pi, f)
                assert not (a - b).data, (label, rank, pi, lam)


def test_v_coefficient_limits(a2):
    # g -> 0 collapses every ratio to 1
    par0 = MacdonaldParams.create(a2, 1e-14, 0.5)
    x = _fvec(a2, (2, 1)) + par0.rho_g()
    for nu in a2.weyl_orbit((1, 0)):
        assert abs(hopping_coefficient(par0, nu, x) - 1.0) < 1e-12


def test_v_sum_is_diagonal_shift(a2, b2):
    # minuscule pi: sum of V_nu over the orbit equals E_pi(rho_g^vee)
    rng = np.random.default_rng(0)
    for rs, g, pi in [(a2, 1.3, (1, 0)), (b2, {1.0: 0.9, 2.0: 1.4}, (0, 1))]:
        if pi not in {tuple(m) for m in rs.minuscule_weights()}:
            continue
        par = MacdonaldParams.create(rs, g, 0.5)
        shift = diagonal_shift(par, pi)
        for _ in range(5):
            x = sum(rng.uniform(1.0, 3.0) * _fvec(rs, tuple(int(j == r) for j in range(rs.rank)))
                    for r in range(rs.rank))
            total = sum(hopping_coefficient(par, nu, x)
                        for nu in orbit_with_negatives(rs, pi))
            assert abs(total - shift) < 1e-9 * abs(shift)


def test_macdonald_ruijsenaars_free_limit(a2):
    par = MacdonaldParams.create(a2, 1.0 + 1e-10, 0.5)
    phi = LatticeFunction(a2, {(0, 0): 1.0, (1, 0): 0.5 - 0.25j, (1, 1): 0.3})
    assert (apply_macdonald_ruijsenaars(par, (1, 1), phi)
            - apply_free(a2, (1, 1), phi)).norm() < 1e-8


def test_koornwinder_bc1_tridiagonal(bc1, bc1_koornwinder):
    # the explicit rank-one action: hopping rates V(x) with four factors
    par = bc1_koornwinder
    s, q = par.s, par.q
    g0, g1, g2, g3 = par.gdual

    def V(x):
        return (math.sinh(s / 2 * (g0 + x)) / math.sinh(s / 2 * x)
                * math.cosh(s / 2 * (g1 + x)) / math.cosh(s / 2 * x)
                * math.sinh(s / 2 * (g2 + 0.5 + x)) / math.sinh(s / 2 * (0.5 + x))
                * math.cosh(s / 2 * (g3 + 0.5 + x)) / math.cosh(s / 2 * (0.5 + x)))

    rng = np.random.default_rng(1)
    vals = {l: complex(rng.normal(), rng.normal()) for l in range(6)}
    phi = LatticeFunction(bc1, {(l,): v for l, v in vals.items()})
    out = apply_koornwinder(par, phi)
    for l in range(8):
        up = math.sqrt(V(g0 + l)) * math.sqrt(V(-g0 - l - 1)) * vals.get(l + 1, 0)
        dn = (math.sqrt(V(-g0 - l)) * math.sqrt(V(g0 + l - 1)) * vals.get(l - 1, 0)) \
            if l >= 1 else 0.0
        diag = (2 * math.cosh(s * par.gh[0]) - V(g0 + l)
                - (0 if l == 0 else V(-g0 - l))) * vals.get(l, 0)
        assert abs(out.get((l,)) - (up + dn + diag)) < 1e-12


def test_koornwinder_free_limit(bc1, bc2):
    for rs in (bc1, bc2):
        par = KoornwinderParams.create(rs, 1.0, (0.5 + 1e-9,) * 4, 0.45)
        phi = LatticeFunction(rs, {(0,) * rs.rank: 1.0,
                                   tuple(1 for _ in range(rs.rank)): 0.4 + 0.2j})
        pi = tuple(1 if j == 0 else 0 for j in range(rs.rank))
        assert (apply_koornwinder(par, phi) - apply_free(rs, pi, phi)).norm() < 1e-7


def test_identity_symbol(a2, a2_macdonald, a2_system):
    tab = WaveTable(a2_system, QuadratureGrid(a2, 48))
    phi = LatticeFunction(a2, {(0, 0): 1.0, (1, 1): 0.5j})
    out = apply_fourier_conjugated(tab, LaurentPoly.one(a2), phi)
    assert (out - phi.restricted(tab.window())).norm() < 1e-11


def test_conjugated_vs_explicit_unit(a2):
    sysu = gram_schmidt(a2, unit_spec(a2), [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab = WaveTable(sysu, QuadratureGrid(a2, 48))
    for phi in _random_packets(a2, [(0, 0), (1, 0), (0, 1), (1, 1)], 3, 2):
        for pi in [(1, 0), (1, 1)]:
            conj = apply_fourier_conjugated(tab, orbit_symbol(a2, pi), phi)
            free = apply_free(a2, pi, phi).restricted(tab.window())
            assert (conj - free).norm() < 1e-8


def test_conjugated_vs_explicit_macdonald(a2, a2_macdonald):
    system = gram_schmidt(a2, a2_macdonald.cspec(),
                          [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab = WaveTable(system, QuadratureGrid(a2, 48))
    for phi in _random_packets(a2, [(0, 0), (1, 0), (0, 1), (1, 1)], 3, 3):
        for pi in [(1, 0), (1, 1)]:
            conj = apply_fourier_conjugated(tab, orbit_symbol(a2, pi), phi)
            expl = apply_macdonald_ruijsenaars(a2_macdonald, pi, phi)
            assert (conj - expl.restricted(tab.window())).norm() < 1e-7


def test_conjugated_missing_table_entry(a2, a2_system):
    tab = WaveTable(a2_system, QuadratureGrid(a2, 48))
    phi = LatticeFunction(a2, {(9, 9): 1.0})
    with pytest.raises(KeyError):
        apply_fourier_conjugated(tab, orbit_symbol(a2, (1, 0)), phi)


def test_commutator(a2, a2_macdonald):
    system = gram_schmidt(a2, a2_macdonald.cspec(),
                          [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab = WaveTable(system, QuadratureGrid(a2, 48))
    phi = LatticeFunction(a2, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.25j})
    e1 = monomial_symmetric(a2, (1, 0))
    e2 = monomial_symmetric(a2, (0, 1))
    assert commutator_residual(tab, e1, e1, phi) < 1e-12
    assert commutator_residual(tab, e1, e2, phi) < 1e-8


def test_truncated_matrix_symmetry(a2, bc2, a2_macdonald):
    par = a2_macdonald
    pi = (1, 1)
    sites = a2.saturated_weights([(4, 4), (5, 2), (2, 5)])
    mat = operator_matrix(lambda f: apply_macdonald_ruijsenaars(par, pi, f),
                          a2, sites)
    inner = interior_sites(a2, sites, orbit_with_negatives(a2, pi))
    idx = [sites.index(s) for s in inner]
    sub = mat[np.ix_(idx, idx)]
    assert np.max(np.abs(sub - sub.conj().T)) < 1e-12

    kpar = KoornwinderParams.create(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    sitesb = bc2.saturated_weights([(4, 2), (3, 3)])
    matb = operator_matrix(lambda f: apply_koornwinder(kpar, f), bc2, sitesb)
    pib = (1, 0)
    innerb = interior_sites(bc2, sitesb, sorted(bc2.weyl_orbit(pib)))
    idxb = [sitesb.index(s) for s in innerb]
    subb = matb[np.ix_(idxb, idxb)]
    assert np.max(np.abs(subb - subb.conj().T)) < 1e-12


def test_adjoint_pairing(a2, a2_macdonald):
    # adjoint of L_r is L_s with omega_s = -w0(omega_r)
    system = gram_schmidt(a2, a2_macdonald.cspec(),
                          [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab = WaveTable(system, QuadratureGrid(a2, 48))
    sites = a2.saturated_weights([(2, 2), (3, 0), (0, 3), (2, 1), (1, 2)])
    e1 = monomial_symmetric(a2, (1, 0))
    e2 = monomial_symmetric(a2, (0, 1))  # -w0(omega_1) = omega_2 on A2
    m1 = operator_matrix(
        lambda f: apply_fourier_conjugated(tab, e1, f, sites), a2, sites)
    m2 = operator_matrix(
        lambda f: apply_fourier_conjugated(tab, e2, f, sites), a2, sites)
    orb = sorted(set(a2.weyl_orbit((1, 0))) | set(a2.weyl_orbit((0, 1))))
    inner = interior_sites(a2, sites, orb)
    idx = [sites.index(s) for s in inner]
    assert np.max(np.abs(m1[np.ix_(idx, idx)].conj().T
                         - m2[np.ix_(idx, idx)])) < 1e-10


def test_operator_norm_bound(a2, a2_macdonald):
    pi = (1, 1)
    grid = QuadratureGrid(a2, 48)
    bound = float(np.max(np.abs(orbit_symbol(a2, pi).eval_grid(grid))))
    rng = np.random.default_rng(5)
    interior = [(2, 2), (3, 2), (2, 3)]
    phi = LatticeFunction(a2, {lam: complex(rng.normal(), rng.normal())
                               for lam in interior})
    out = apply_macdonald_ruijsenaars(a2_macdonald, pi, phi)
    assert out.norm() <= bound * phi.norm() * (1 + 1e-12)


@pytest.mark.parametrize("family", ["koornwinder", "macdonald"])
def test_operator_matrix_evaluates_each_rate_once(family, bc2, b2, monkeypatch):
    # a hop nu of site lam that stays in the cone costs the rate
    # V_nu(rho_g+lam) and its partner, the rate V_{-nu}(rho_g+kappa) of the
    # site kappa = lam+nu for the hop back; over a whole matrix each (site,
    # hop) rate is evaluated once per parameter object, at rho_g + site (not
    # again as a partner, for the diagonal term, nor for the neighbouring
    # columns), and a second matrix evaluates none
    if family == "koornwinder":
        rs, pi = bc2, (1, 0)
        par = KoornwinderParams.create(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
        apply_fn = lambda f: apply_koornwinder(par, f)
    else:
        rs, pi = b2, b2.quasi_minuscule_weight()
        par = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
        apply_fn = lambda f: apply_macdonald_ruijsenaars(par, pi, f)
    calls = []
    original = laplacian.hopping_coefficient

    def counting(params, nu, x):
        calls.append((tuple(nu), x.tobytes()))
        return original(params, nu, x)

    monkeypatch.setattr(laplacian, "hopping_coefficient", counting)
    sites = rs.saturated_weights([(3, 3)])
    mat = operator_matrix(apply_fn, rs, sites)
    orbit = hopping_orbit(rs, pi)
    reached = set(sites) | {lam for mu in sites for nu in orbit
                            for lam in [tuple(a - b for a, b in zip(mu, nu))]
                            if rs.is_dominant(lam)}
    hops = set()
    for lam in reached:
        for nu in orbit:
            kappa = tuple(a + b for a, b in zip(lam, nu))
            if rs.is_dominant(kappa):
                hops |= {(lam, nu), (kappa, tuple(-c for c in nu))}
    expected = [(nu, (par.rho_g() + _fvec(rs, site)).tobytes()) for site, nu in hops]
    assert Counter(calls) == Counter(expected)
    # each pair entry reads both sites' own rates: exactly Hermitian
    assert np.array_equal(mat, mat.conj().T)
    calls.clear()
    assert np.array_equal(operator_matrix(apply_fn, rs, sites), mat)
    assert calls == []


def test_all_names_resolve():
    import importlib

    import alcove
    import alcove.laplacian as laplacian
    missing = [name for name in laplacian.__all__ if not hasattr(laplacian, name)]
    assert not missing
    # the package namespace: each exported name resolves through the PEP 562
    # __getattr__ to its submodule's object, and dir() lists it
    assert alcove.__all__ == sorted(alcove._EXPORTS)
    for name, module in alcove._EXPORTS.items():
        value = getattr(importlib.import_module(f"alcove.{module}"), name)
        assert alcove.__getattr__(name) is value
        assert getattr(alcove, name) is value
    assert set(alcove.__all__) <= set(dir(alcove))
    # a public name of a submodule that the package does not export
    assert hasattr(importlib.import_module("alcove.harmonic"), "gram_ladder")
    with pytest.raises(AttributeError, match="gram_ladder"):
        alcove.gram_ladder
