import cmath
import dataclasses
import json
import math
import random

import numpy as np
import pytest

from alcove.harmonic import (QuadratureGrid, gram_matrix, inner_product,
                             monomial_symmetric, weyl_character)
from alcove.orthopoly import (KoornwinderParams,
                              MacdonaldParams, ParameterError,
                              difference_equation_residual, gram_schmidt,
                              hopping_coefficient,
                              macdonald_identity_residual, norm_constants,
                              pieri_residual, specialization_residual,
                              symmetry_residual)
from alcove.qfun import qpochhammer_inf, unit_spec
from alcove.rank1 import Rank1Params, askey_wilson
from alcove.rootsys import build_root_system, dot


def _fvec(rs, mu):
    return np.array([float(x) for x in rs.weight_vector(mu)])


def test_parameter_validation(a2, bc1):
    with pytest.raises(ParameterError):
        MacdonaldParams.create(a2, -0.5, 0.5)
    with pytest.raises(ParameterError):
        MacdonaldParams.create(a2, 1.0, 1.5)
    with pytest.raises(ParameterError):
        MacdonaldParams.create(bc1, 1.0, 0.5)
    with pytest.raises(ParameterError):
        KoornwinderParams.create(a2, 1.0, (0.5,) * 4, 0.5)


def test_unit_gram_schmidt_is_exact_characters():
    # coeff is the character multiplicity matrix, exactly; grid_m is the
    # first rung of the quadrature ladder
    tops = [(2, 2), (3, 0), (0, 3)]
    cases = [("A", 1, [(6,)], 30), ("A", 2, tops, 26), ("A", 3, [(1, 1, 1)], 26),
             ("B", 2, tops, 38), ("G", 2, [(2, 1)], 50), ("BC", 1, [(5,)], 26),
             ("BC", 2, [(2, 2)], 38)]
    for label, rank, tops, grid_m in cases:
        rs = build_root_system(label, rank)
        sysu = gram_schmidt(rs, unit_spec(rs), tops)
        assert sysu.cond == 1.0 and sysu.grid_m == grid_m
        chis = [weyl_character(rs, lam) for lam in sysu.weights]
        mult = np.array([[chi.coeff(mu) for mu in sysu.weights] for chi in chis])
        assert (sysu.coeff == mult).all()
        for lam, chi in zip(sysu.weights, chis):
            p = sysu.poly(lam)
            for mu in p.support() | chi.support():
                assert complex(p.coeff(mu)) == complex(chi.coeff(mu))


def test_p0_is_normalized_constant(a2_macdonald, a2_system):
    p0 = a2_system.poly((0, 0))
    assert set(p0.support()) == {(0, 0)}
    val = inner_product(p0, p0, a2_macdonald.cspec())
    assert abs(val - 1.0) < 1e-10


def test_orthonormality_and_triangularity(a2, a2_macdonald, a2_system):
    spec = a2_macdonald.cspec()
    polys = [a2_system.poly(lam) for lam in a2_system.weights]
    gram = gram_matrix(polys, spec, QuadratureGrid(a2, a2_system.grid_m))
    assert np.max(np.abs(gram - np.eye(len(polys)))) < 1e-9
    n = len(a2_system.weights)
    # exactly lower triangular: inverse transforms multiply whole rows
    assert not np.triu(a2_system.coeff, 1).any()
    for i in range(n):
        assert a2_system.coeff[i, i] > 0
        for j in range(i):
            # dominance triangularity: incomparable entries vanish
            if not a2.dominance_leq(a2_system.weights[j], a2_system.weights[i]):
                assert abs(a2_system.coeff[i, j]) < 1e-9


def test_minimal_weight_is_monomial(a2, a2_macdonald, a2_system):
    # empty lower order ideal: nothing to orthogonalize against (entries on
    # extension-earlier but dominance-incomparable weights are pure noise)
    p = a2_system.monic((1, 0))
    m = monomial_symmetric(a2, (1, 0))
    for mu in p.support() | m.support():
        assert abs(complex(p.coeff(mu)) - complex(m.coeff(mu))) < 1e-10
    assert abs(complex(p.coeff((1, 0))) - 1.0) < 1e-12


def test_norm_constants(a2_macdonald, a2_system):
    nd0 = norm_constants(a2_macdonald, (0, 0))
    assert abs(nd0.delta - 1.0) < 1e-12 and abs(nd0.c_lam - 1.0) < 1e-12
    spec = a2_macdonald.cspec()
    for lam in [(1, 1), (2, 2), (1, 0)]:
        nd = norm_constants(a2_macdonald, lam)
        pbold = a2_system.monic(lam) * nd.c_lam
        val = inner_product(pbold, pbold, spec).real
        assert abs(val - nd.n0 / nd.delta) < 1e-8 * (nd.n0 / nd.delta)
        # Gram-Schmidt output equals the closed-norm orthonormal polynomial
        pn = a2_system.monic(lam) * nd.orthonormal_scale
        pg = a2_system.poly(lam)
        for mu in pn.support() | pg.support():
            assert abs(complex(pn.coeff(mu)) - complex(pg.coeff(mu))) < 1e-8


def test_norm_constants_follow_their_parameter_object(a2, bc2):
    # each pair differs in one coupling; the members are queried in turn, so
    # data read from the wrong object, or keyed by weight alone, would show
    pairs = [(MacdonaldParams.create(a2, 1.3, 0.5),
              MacdonaldParams.create(a2, 1.1, 0.5)),
             (KoornwinderParams.create(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45),
              KoornwinderParams.create(bc2, 1.3, (0.9, 0.7, 0.6, 0.8), 0.45))]
    for pair in pairs:
        for lam in pair[0].rs.saturated_weights([(2, 1), (1, 2)]):
            first, second = (norm_constants(par, lam) for par in pair)
            assert first != second
            for par, nd in zip(pair, (first, second)):
                fresh = dataclasses.replace(par)
                assert fresh == par and fresh is not par
                assert norm_constants(fresh, lam) == nd
    par = pairs[0][0]
    assert par.dual() is par.dual()
    # invalid constants are raised on every call
    for _ in range(2):
        with pytest.raises(ParameterError):
            norm_constants(par, (-3, 0))


def test_appendix_a_evaluates_each_closed_form_once(tmp_path, monkeypatch, a2):
    # one c^+ product per (parameters, weight), plus one at rho_g per
    # parameter object; each product is one _cplus1 per positive root
    import alcove.orthopoly as op
    from alcove.cli import main
    cplus1, norm = op._cplus1, op.norm_constants
    calls = []
    asked = set()

    def counted_cplus1(*args):
        calls.append(args)
        return cplus1(*args)

    def recorded_norm(params, lam):
        asked.add((params, tuple(lam)))
        return norm(params, lam)

    monkeypatch.setattr(op, "_cplus1", counted_cplus1)
    monkeypatch.setattr(op, "norm_constants", recorded_norm)
    cfg = tmp_path / "a2.json"
    cfg.write_text(json.dumps({
        "root_system": {"label": "A", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": 1.3, "q": 0.5},
        "weights": {"tops": [[1, 1]]}, "n_spectral_points": 3, "max_lambdas": 2}))
    assert main(["verify", "--suite", "appendixA", "--config", str(cfg),
                 "--out", str(tmp_path / "rep.json")]) == 0
    params = {params for params, _ in asked}
    assert len(params) == 2  # the parameters and their dual
    assert len(calls) <= len(a2.positive_roots) * (len(asked) + len(params))


def test_asymptotically_monic(a1):
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    system = gram_schmidt(a1, par.cspec(), [(8,), (7,)])
    lead = [system.leading((l,)) for l in range(1, 9)]
    gaps = [abs(1.0 - x) for x in lead]
    assert all(b < a for a, b in zip(gaps, gaps[2:]))  # within parity classes
    assert gaps[-1] < 1e-2


def test_specialization(a2, b2):
    par = MacdonaldParams.create(a2, 1.3, float(np.exp(-0.7)))
    system = gram_schmidt(a2, par.cspec(), [(1, 1), (1, 0), (0, 1)])
    assert specialization_residual(par, system, (0, 0)) == 0.0
    assert specialization_residual(par, system, (1, 0)) < 1e-10
    parb = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
    sysb = gram_schmidt(b2, parb.cspec(), [(1, 1), (2, 0), (0, 2)])
    assert specialization_residual(parb, sysb, (0, 1)) < 1e-10


def test_symmetry_self_dual_and_bc_pair(a2, b2):
    par = MacdonaldParams.create(a2, 1.3, float(np.exp(-0.7)))
    system = gram_schmidt(a2, par.cspec(), [(1, 1), (1, 0), (0, 1)])
    dual = par.dual()
    dual_system = gram_schmidt(dual.rs, dual.cspec(), [(1, 1), (1, 0), (0, 1)])
    for lam in [(1, 0), (0, 1), (1, 1)]:
        for mu in [(1, 0), (0, 1)]:
            assert symmetry_residual(par, system, dual_system, lam, mu) < 1e-9
    # mu = 0 reduces to the specialization formula
    assert symmetry_residual(par, system, dual_system, (1, 0), (0, 0)) < 1e-10

    parb = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
    sysb = gram_schmidt(b2, parb.cspec(), [(1, 1), (2, 0), (0, 2)])
    dualb = parb.dual()
    sysd = gram_schmidt(dualb.rs, dualb.cspec(), [(1, 1), (2, 0), (0, 2)])
    for lam in [(1, 0), (0, 1)]:
        for mu in [(1, 0), (0, 1)]:
            assert symmetry_residual(parb, sysb, sysd, lam, mu) < 1e-9


def test_macdonald_identity(a1, a2):
    rng = np.random.default_rng(0)
    par2 = MacdonaldParams.create(a2, 1.3, 0.5)
    par1 = MacdonaldParams.create(a1, 1.7, 0.5)
    a3 = build_root_system("A", 3)
    par3 = MacdonaldParams.create(a3, 0.8, 0.5)
    for _ in range(5):
        assert macdonald_identity_residual(
            par1, (1,), rng.uniform(0.3, 2.0, 2)) < 1e-12
        assert macdonald_identity_residual(
            par2, (1, 0), rng.uniform(0.3, 2.0, 3)) < 1e-12
        assert macdonald_identity_residual(
            par3, (0, 1, 0), rng.uniform(0.3, 1.8, 4)) < 1e-12
    # g -> 0: both sides approach the orbit size
    tiny = MacdonaldParams.create(a2, 1e-13, 0.5)
    assert macdonald_identity_residual(tiny, (1, 0), np.array([0.7, 0.1, -0.4])) < 1e-10


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_difference_coefficients_are_dual_hopping_rates(label, rank):
    # c_nu(xi) of R is the hopping rate V_nu of R^vee continued to x = -i xi/s:
    # each root alpha of R with m = <nu, alpha> > 0 contributes
    # prod_{l < m} sinh(s(g + x_a + l)/2) / sinh(s(x_a + l)/2), x_a = <x, alpha>,
    # with the coupling g of alpha; m comes from the exact vectors
    from alcove.cli import _regular_point
    from alcove.orthopoly import _difference_coefficients
    rs = build_root_system(label, rank)
    # one coupling per root length, so that a root read with another's shows
    lens = sorted(set(rs.positive_len2.tolist()))
    par = MacdonaldParams.create(rs, {l: 0.9 + 0.5 * i for i, l in enumerate(lens)}, 0.5)
    s = par.s
    dual = rs.dual()
    rng = random.Random(label + str(rank))
    xis = np.array([_regular_point(rs, rng) for _ in range(4)])
    for pi in dual.minuscule_weights() + [dual.quasi_minuscule_weight()]:
        orbit = list(dual.weyl_orbit(tuple(pi)))
        got = _difference_coefficients(par, xis, orbit)
        assert got.shape == (len(xis), len(orbit))
        for j, nu in enumerate(orbit):
            nu_exact = dual.weight_vector(nu)
            for k, xi in enumerate(xis):
                rate = 1.0 + 0j
                for alpha, g in zip(rs.roots, par.g_roots):
                    xa = -1j * sum(float(c) * x for c, x in zip(alpha, xi)) / s
                    for l in range(max(int(dot(nu_exact, alpha)), 0)):
                        rate *= cmath.sinh(0.5 * s * (g + xa + l)) / cmath.sinh(0.5 * s * (xa + l))
                assert abs(got[k, j] - rate) <= 1e-13 * abs(rate)


def test_identity_and_difference_equation_refusals(a2_macdonald, a2_system):
    # the highest root of A2 pairs to 2 with its own coroot
    with pytest.raises(ValueError, match="not minuscule"):
        macdonald_identity_residual(a2_macdonald, (1, 1), np.array([0.7, 0.1, -0.4]))
    # <xi, e1 - e2> = 0
    wall = np.array([0.7, 0.7, -0.4])
    with pytest.raises(ValueError, match="singular hyperplane"):
        macdonald_identity_residual(a2_macdonald, (1, 0), wall)
    with pytest.raises(ValueError, match="singular hyperplane"):
        difference_equation_residual(a2_macdonald, a2_system, (1, 1), wall, (1, 0))
    # one point, or N in one call
    xis = np.array([[0.7, 0.1, -0.4], [1.3, -0.2, 0.5]])
    batch = macdonald_identity_residual(a2_macdonald, (1, 0), xis)
    assert isinstance(batch, np.ndarray) and batch.shape == (2,)
    for xi, batched in zip(xis, batch):
        one = macdonald_identity_residual(a2_macdonald, (1, 0), xi)
        assert isinstance(one, float) and abs(one - batched) <= 1e-14 and one < 1e-12


def test_difference_equation(a2, a2_macdonald, a2_system):
    rng = np.random.default_rng(1)
    for lam in [(1, 1), (2, 0)]:
        for _ in range(5):
            xi = rng.uniform(0.3, 2.0, size=3)
            for pid in [(1, 0), (0, 1), (1, 1)]:
                r = difference_equation_residual(
                    a2_macdonald, a2_system, lam, xi, pid)
                assert r < 1e-8
    # lam = 0: both sides vanish identically
    xi = rng.uniform(0.3, 2.0, size=3)
    assert difference_equation_residual(
        a2_macdonald, a2_system, (0, 0), xi, (1, 0)) < 1e-13


def test_pieri(a2, a2_macdonald, a2_system):
    rng = np.random.default_rng(2)
    for _ in range(5):
        xi = rng.uniform(0.3, 2.0, size=3)
        for pi in [(1, 0), (0, 1), (1, 1)]:
            assert pieri_residual(a2_macdonald, a2_system, (1, 1), xi, pi) < 1e-8


def _terms_at(p, point):
    """p at one complex ambient point summed term by term, and the sum of
    the moduli of its terms."""
    vals = [complex(c) * cmath.exp(1j * complex(np.dot(v, point)))
            for c, v in zip(p.terms.values(), p.rs.float_weights(list(p.terms)))]
    return sum(vals, 0j), sum(abs(v) for v in vals)


def _difference_reference(params, system, lam, xi, pi_dual):
    """The difference equation at one point, summed term by term, and the
    sum of the moduli of its terms."""
    rs, s, q = params.rs, params.s, params.q
    rho, lam_vec = params.rho_g(), rs.float_weight(lam)
    p = system.pbold(params, lam)
    p_at, p_mod = _terms_at(p, xi)
    lhs = rhs = 0j
    moduli = 0.0
    for nu in rs.dual().weyl_orbit(tuple(pi_dual)):
        nu_vec = rs.dual().float_weight(nu)
        nu_exact = rs.dual().weight_vector(nu)
        a = 1.0 + 0j
        for alpha, av, g in zip(rs.roots, rs.roots_f, params.g_roots):
            za = float(np.dot(xi, av))
            for l in range(max(int(dot(nu_exact, alpha)), 0)):
                a *= cmath.sin(0.5 * (1j * s * (g + l) + za)) / cmath.sin(0.5 * (za + 1j * s * l))
        shifted, shifted_mod = _terms_at(p, xi + 1j * s * nu_vec)
        e = q ** float(nu_vec @ (lam_vec + rho)) - q ** float(nu_vec @ rho)
        lhs += a * (shifted - p_at)
        rhs += e * p_at
        moduli += abs(a) * (shifted_mod + p_mod) + abs(e) * p_mod
    return abs(lhs - rhs), moduli


def _pieri_reference(params, system, lam, xi, pi):
    """The Pieri relation at one point, summed term by term, and the sum of
    the moduli of its terms."""
    rs, q = params.rs, params.q
    x = params.rho_g() + rs.float_weight(lam)
    p_at, p_mod = _terms_at(system.pbold(params, lam), xi)
    lhs = rhs = 0j
    moduli = 0.0
    for nu in rs.weyl_orbit(tuple(pi)):
        nu_vec = rs.float_weight(nu)
        e = q ** float(nu_vec @ params.rho_g_vee())
        lhs += (cmath.exp(1j * float(nu_vec @ xi)) - e) * p_at
        moduli += (1 + e) * p_mod
        lam_nu = tuple(a + b for a, b in zip(lam, nu))
        if rs.is_dominant(lam_nu):
            v = hopping_coefficient(params, nu, x)
            val, mod = _terms_at(system.pbold(params, lam_nu), xi)
            rhs += v * (val - p_at)
            moduli += abs(v) * (mod + p_mod)
    return abs(lhs - rhs), moduli


@pytest.mark.parametrize("label", ["A", "B", "G"])
@pytest.mark.parametrize("n", [1, 20])
def test_batched_residuals_match_one_point(label, n):
    # N points in one call against one call per point, and both against
    # the term-by-term sums, within 1e-14 of the terms' moduli
    from alcove.cli import _regular_point
    rs = build_root_system(label, 2)
    # one coupling per root length, so that a root read with another's shows
    lens = sorted(set(rs.positive_len2.tolist()))
    par = MacdonaldParams.create(rs, {l: 0.9 + 0.5 * i for i, l in enumerate(lens)}, 0.5)
    pis = rs.minuscule_weights() + [rs.quasi_minuscule_weight()]
    dual = par.dual().rs
    dual_pis = dual.minuscule_weights() + [dual.quasi_minuscule_weight()]
    orbit = set().union(*[rs.weyl_orbit(tuple(pi)) for pi in pis])
    lams = [(1, 0), (0, 1), (1, 1)]
    tops = sorted({tuple(a + b for a, b in zip(lam, nu)) for lam in lams
                   for nu in orbit if all(a + b >= 0 for a, b in zip(lam, nu))})
    system = gram_schmidt(rs, par.cspec(), tops)
    rng = random.Random(n)
    xis = np.array([_regular_point(rs, rng) for _ in range(n)])
    for lam in lams:
        for fn, ref, weights in [(difference_equation_residual, _difference_reference, dual_pis),
                                 (pieri_residual, _pieri_reference, pis)]:
            for pi in weights:
                batch = fn(par, system, lam, xis, pi)
                assert isinstance(batch, np.ndarray) and batch.shape == (n,)
                for xi, batched in zip(xis, batch):
                    one = fn(par, system, lam, xi, pi)
                    expected, moduli = ref(par, system, lam, xi, pi)
                    assert isinstance(one, float)
                    assert abs(batched - one) <= 1e-14 * (1 + moduli)
                    assert abs(one - expected) <= 1e-14 * (1 + moduli)


def _functional_relation_residual(params, nu, x_vec) -> float:
    """Defect of Delta(x+nu) V_{-nu}(rho_g+x+nu) = Delta(x) V_nu(rho_g+x).

    Delta is the closed-form norm ratio evaluated at a real vector; since it
    grows exponentially into the chamber the defect is normalized by the
    magnitude of the two sides once they exceed unit size.
    """
    rho = params.rho_g()
    x = np.asarray(x_vec, dtype=float)
    nu_vec = params.rs.float_weight(nu)

    def delta_at(v):
        cp0, cm0 = params.rho_constants
        return (cp0 * cm0) / (params.cplus(rho + v) * params.cminus(rho + v))

    lhs = delta_at(x + nu_vec) * hopping_coefficient(
        params, tuple(-c for c in nu), rho + x + nu_vec)
    rhs = delta_at(x) * hopping_coefficient(params, nu, rho + x)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def test_functional_relation(a2, b2):
    rng = np.random.default_rng(3)
    for rs, g in [(a2, 1.3), (b2, {1.0: 0.9, 2.0: 1.4})]:
        par = MacdonaldParams.create(rs, g, 0.5)
        pi = tuple(1 if j == 0 else 0 for j in range(rs.rank))
        for _ in range(20):
            # random point of the open dominant cone, away from walls so
            # that x and x + nu stay in the region free of c^- poles
            coords = rng.uniform(1.5, 4.0, size=rs.rank)
            x = sum(c * _fvec(rs, tuple(int(j == r) for j in range(rs.rank)))
                    for r, c in enumerate(coords))
            for nu in rs.weyl_orbit(pi):
                assert _functional_relation_residual(par, nu, x) < 1e-10


def test_hopping_positivity(b2):
    par = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
    rho = par.rho_g()
    pi = b2.quasi_minuscule_weight()
    for lam in b2.saturated_weights([(3, 3)]):
        for nu in b2.weyl_orbit(pi):
            lam_nu = tuple(a + b for a, b in zip(lam, nu))
            if not b2.is_dominant(lam_nu):
                continue
            v1 = hopping_coefficient(par, nu, rho + _fvec(b2, lam))
            v2 = hopping_coefficient(par, tuple(-c for c in nu), rho + _fvec(b2, lam_nu))
            assert v1 > 0 and v2 > 0


def test_g_to_one_continuity(a2):
    # monic coefficients at g = 1 +- 1e-6 stay within O(1e-5) of the
    # character data (chi_lam is the monic polynomial of the unit weight)
    for g in (1.0 - 1e-6, 1.0 + 1e-6):
        par = MacdonaldParams.create(a2, g, 0.5)
        system = gram_schmidt(a2, par.cspec(), [(1, 1), (2, 0)])
        for lam in [(1, 1), (2, 0)]:
            chi = weyl_character(a2, lam)
            p = system.monic(lam)
            for mu in chi.support():
                if a2.is_dominant(mu):
                    assert abs(complex(p.coeff(mu)) -
                               complex(chi.coeff(mu))) < 1e-4


def test_monic_matches_rank1_ultraspherical(a1):
    # A1 Macdonald polynomials against the q-ultraspherical oracle
    g, q = 1.7, 0.5
    par = MacdonaldParams.create(a1, g, q)
    system = gram_schmidt(a1, par.cspec(), [(4,), (3,)])
    oracle = Rank1Params.from_a1(g, q)
    for ell in range(5):
        nd = norm_constants(par, (ell,))
        pbold = system.monic((ell,)) * nd.c_lam
        for u in (0.3, 1.1, 2.2):
            xi_vec = u * _fvec(a1, (2,))  # xi = u * alpha, so <omega, xi> = u
            mine = pbold.evaluate(xi_vec)
            assert abs(mine - askey_wilson(ell, u, oracle)) < 1e-10


def test_asymptotic_pairing(a1):
    # <P^infty_lam, m_mu> ~ delta for mu <= lam, via the overall
    # c-function on a grid
    g, q = 2.0, 0.5
    par = MacdonaldParams.create(a1, g, q)
    spec = par.cspec()
    grid = QuadratureGrid(a1, 128)
    from alcove.harmonic import delta_values, weight_function_values
    import alcove.harmonic as H

    cw = {}
    for w in a1.weyl_group():
        vals = np.ones(grid.size, dtype=complex)
        winv = w.inverse()
        for a, c in zip(a1.positive_roots_1, spec.cfunctions):
            b = winv.act(a1.root_coords(a))
            vals *= c._eval_raw(np.exp(-1j * grid.angles(b)))
        cw[w.matrix] = vals
    weight = weight_function_values(spec, grid)
    dconj = np.conjugate(delta_values(a1, grid))
    for ell in (4, 5, 6):
        shifted = tuple(a + b for a, b in zip(a1.rho_coords, (ell,)))
        psi_inf_w = np.zeros(grid.size, dtype=complex)
        for w in a1.weyl_group():
            exps = np.exp(1j * grid.angles(w.inverse().act(shifted)))
            psi_inf_w += w.sign * cw[w.matrix] * exps
        for mu in range(ell % 2, ell + 1, 2):
            mvals = np.conjugate(H.monomial_symmetric(a1, (mu,)).eval_grid(grid))
            val = np.mean(psi_inf_w * mvals * weight * dconj) / a1.weyl_order()
            assert abs(val - (mu == ell)) < 1e-6


def test_gram_schmidt_builds_no_grid_above_max_m(a2, monkeypatch):
    # tol = 0 never stabilizes: the ladder must stop before exceeding max_m
    import alcove.harmonic as harmonic
    built = []

    class RecordingGrid(QuadratureGrid):
        def __init__(self, rs, M):
            built.append(M)
            super().__init__(rs, M)

    monkeypatch.setattr(harmonic, "QuadratureGrid", RecordingGrid)
    spec = MacdonaldParams.create(a2, 1.3, 0.5).cspec()
    with pytest.raises(harmonic.QuadratureError):
        gram_schmidt(a2, spec, [(1, 1)], tol=0.0, max_m=80)
    assert built == [18, 36, 72]


# -- c^+-, V_nu: one factor list, the same bits as the per-family formulas ----


def _qp(z, q):
    return float(qpochhammer_inf(z, q).real)


def _macdonald_cpm(g, x, q):
    plus = q ** (g * x / 2) * _qp(q ** (g + x), q) / _qp(q ** x, q)
    minus = q ** (g * x / 2) * _qp(q ** (1 + x), q) / _qp(q ** (1 - g + x), q)
    return plus, minus


def _koornwinder_cpm(g, x, q):
    g0, g1, g2, g3 = g
    num = _qp(q ** (g0 + x), q)
    num *= _qp(-(q ** (g1 + x)), q)
    num *= _qp(q ** (g2 + 0.5 + x), q)
    num *= _qp(-(q ** (g3 + 0.5 + x)), q)
    den = _qp(q ** (1 - g0 + x), q)
    den *= _qp(-(q ** (1 - g1 + x)), q)
    den *= _qp(q ** (0.5 - g2 + x), q)
    den *= _qp(-(q ** (0.5 - g3 + x)), q)
    scale = q ** ((g0 + g1 + g2 + g3) * x / 2)
    return (scale * num / _qp(q ** (2 * x), q),
            scale * _qp(q ** (1 + 2 * x), q) / den)


def _family_terms(par):
    """(float coroot, coupling) per factor of c^+-: R+ for Macdonald; the long
    roots of R1+, then the short ones with the dual couplings, on BC_N."""
    if isinstance(par, MacdonaldParams):
        return list(zip(par.rs.positive_coroots_f, par.g_positive))
    short, long_ = par._short_long
    return [(av, par.g) for av in long_] + [(av, par.gdual) for av in short]


def _family_rows(par, nu):
    """(row, coupling, multiplicity) of each factor of V_nu."""
    rs = par.rs
    pairings = (rs.coroot_pairings @ np.asarray(nu, dtype=np.int64)).tolist()
    if isinstance(par, MacdonaldParams):
        return [(row, g, m) for row, (m, g) in enumerate(zip(pairings, par.g_roots))
                if m > 0]
    last = len(rs.roots) - 1
    short, long_ = par._short_long_rows
    return [(row, g, 1) for rows, g in ((long_, par.g), (short, par.gdual))
            for k in rows.tolist() for row in (k, last - k) if pairings[row] == 1]


def _family_v(par, nu, x):
    s, out = par.s, 1.0
    for row, g, m in _family_rows(par, nu):
        xa = float(np.dot(x, par.rs.coroots_f[row]))
        if isinstance(g, tuple):
            g0, g1, g2, g3 = g
            out *= (math.sinh(0.5 * s * (g0 + xa)) / math.sinh(0.5 * s * xa)
                    * math.cosh(0.5 * s * (g1 + xa)) / math.cosh(0.5 * s * xa)
                    * math.sinh(0.5 * s * (g2 + 0.5 + xa)) / math.sinh(0.5 * s * (0.5 + xa))
                    * math.cosh(0.5 * s * (g3 + 0.5 + xa)) / math.cosh(0.5 * s * (0.5 + xa)))
            continue
        for l in range(m):
            out *= math.sinh(0.5 * s * (g + xa + l)) / math.sinh(0.5 * s * (xa + l))
    return out


@pytest.mark.parametrize("case", ["B2", "G2", "BC1", "BC2"])
def test_factor_lists_keep_cpm_and_rates_bitwise(case):
    rs = build_root_system(case[:-1], int(case[-1]))
    if case == "B2":
        par = MacdonaldParams.create(rs, {1.0: 0.9, 2.0: 1.4}, 0.5)
    elif case == "G2":
        lens = sorted(set(rs.positive_len2.tolist()))
        par = MacdonaldParams.create(rs, dict(zip(lens, (0.8, 1.3))), 0.45)
    else:
        # couplings whose dual couplings are all away from 0
        par = KoornwinderParams.create(rs, 1.1, (0.93, 0.71, 0.57, 0.82), 0.45)
    pi = tuple(1 if j == 0 else 0 for j in range(rs.rank)) if case.startswith("BC") \
        else rs.quasi_minuscule_weight()
    hops = rs.weyl_orbit(pi) | {tuple(-c for c in nu) for nu in rs.weyl_orbit(pi)}
    if not case.startswith("BC"):
        # the quasi-minuscule hops pair to 2 with their own coroot
        assert any(m == 2 for nu in hops for _, _, m in _family_rows(par, nu))
    cpm = _koornwinder_cpm if case.startswith("BC") else _macdonald_cpm
    for lam in rs.saturated_weights([(4,) * rs.rank]):
        x = par.rho_g() + rs.float_weight(lam)
        plus = minus = 1.0
        for cv, g in _family_terms(par):
            xa = float(np.dot(x, cv))
            one = (_macdonald_cpm if not isinstance(g, tuple) else cpm)(g, xa, par.q)
            plus, minus = plus * one[0], minus * one[1]
        assert (par.cplus(x), par.cminus(x)) == (plus, minus)
        for nu in sorted(hops):
            assert hopping_coefficient(par, nu, x) == _family_v(par, nu, x)
