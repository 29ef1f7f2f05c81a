"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from alcove.harmonic import (QuadratureGrid, alternating_sum, gram_matrix,
                             monomial_symmetric, orbit_symbol, weyl_denominator)
from alcove.laplacian import (LatticeFunction, apply_fourier_conjugated,
                              apply_free, apply_free_closed, apply_koornwinder,
                              apply_macdonald_ruijsenaars, commutator_residual,
                              interior_sites, operator_matrix,
                              orbit_with_negatives)
from alcove.orthopoly import (KoornwinderParams, MacdonaldParams,
                              difference_equation_residual, gram_schmidt,
                              macdonald_identity_residual, norm_constants,
                              pieri_residual, specialization_residual,
                              symmetry_residual)
from alcove.qfun import unit_spec
from alcove.rank1 import (Rank1Params, askey_wilson, rank1_laplacian,
                          rank1_smatrix, rank1_wave)
from alcove.rootsys import build_root_system
from alcove.scattering import ScatteringContext, WaveTable, convergence_report
from alcove.evolution import run_scattering_diagnostic

RESULTS = []


def _record(num, name, ok, detail, elapsed):
    line = (f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    RESULTS.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    if RESULTS:
        print("\n" + "\n".join(RESULTS))


def _height_box(rs, h):
    return [c for c in itertools.product(range(h + 1), repeat=rs.rank)
            if 0 < sum(c) <= h]


def test_acceptance_1_weyl_character_reduction():
    # the unit polynomials are the Weyl characters: P_lam delta = A_{lam + rho}
    t0 = time.time()
    worst = 0.0
    for label, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(label, rank)
        box = _height_box(rs, 6)
        system = gram_schmidt(rs, unit_spec(rs), box)
        den = weyl_denominator(rs)
        for lam in box:
            diff = system.poly(lam) * den - alternating_sum(
                rs, tuple(a + p for a, p in zip(lam, rs.rho_coords)))
            worst = max([worst] + [abs(complex(c)) for c in diff.terms.values()])
    elapsed = time.time() - t0
    _record(1, "Weyl-character reduction (A1,A2,B2,G2, ht<=6)",
            worst <= 1e-12 and elapsed < 60.0,
            f"max coeff err {worst:.2e}, tol 1e-12", elapsed)


def test_acceptance_2_orthonormality_and_norms():
    t0 = time.time()
    tops = {1: [(6,), (5,)],
            2: [(2, 2), (3, 0), (0, 3), (2, 1), (1, 2)]}
    worst_onb = 0.0
    worst_norm = 0.0
    for label, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(label, rank)
        for g in (0.5, 1.5, 2.5):
            par = MacdonaldParams.create(rs, g, 0.5)
            system = gram_schmidt(rs, par.cspec(), tops[rank])
            polys = [system.poly(lam) for lam in system.weights]
            gram = gram_matrix(polys, par.cspec(),
                               QuadratureGrid(rs, system.grid_m))
            worst_onb = max(worst_onb, float(np.max(np.abs(
                gram - np.eye(len(polys))))))
            for lam in system.weights:
                nd = norm_constants(par, lam)
                implied = (nd.c_lam / system.leading(lam)) ** 2
                target = nd.n0 / nd.delta
                worst_norm = max(worst_norm, abs(implied - target) / target)
    elapsed = time.time() - t0
    _record(2, "orthonormality + closed-form norms (A1,A2,B2; g in {.5,1.5,2.5})",
            worst_onb <= 1e-8 and worst_norm <= 1e-8 and elapsed < 300.0,
            f"onb {worst_onb:.2e}, norm {worst_norm:.2e}, tol 1e-8", elapsed)


def test_acceptance_3_appendix_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    a1 = build_root_system("A", 1)
    a3 = build_root_system("A", 3)

    par_a2 = MacdonaldParams.create(a2, 1.3, float(np.exp(-0.7)))
    sys_a2 = gram_schmidt(a2, par_a2.cspec(),
                          [(2, 2), (2, 1), (1, 2), (3, 0), (0, 3)])
    par_b2 = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
    sys_b2 = gram_schmidt(b2, par_b2.cspec(),
                          [(2, 2), (3, 1), (1, 3), (3, 0), (0, 3)])

    worst_spec = 0.0
    for lam in [(1, 0), (0, 1), (1, 1)]:
        worst_spec = max(worst_spec,
                         specialization_residual(par_a2, sys_a2, lam))
        worst_spec = max(worst_spec,
                         specialization_residual(par_b2, sys_b2, lam))

    dual_a2 = par_a2.dual()
    dsys_a2 = gram_schmidt(dual_a2.rs, dual_a2.cspec(), [(1, 1), (1, 0), (0, 1)])
    dual_b2 = par_b2.dual()
    dsys_b2 = gram_schmidt(dual_b2.rs, dual_b2.cspec(), [(1, 1), (2, 0), (0, 2)])
    worst_sym = 0.0
    for lam in [(1, 0), (0, 1)]:
        for mu in [(1, 0), (0, 1)]:
            worst_sym = max(worst_sym, symmetry_residual(
                par_a2, sys_a2, dsys_a2, lam, mu))
            worst_sym = max(worst_sym, symmetry_residual(
                par_b2, sys_b2, dsys_b2, lam, mu))

    par_a1 = MacdonaldParams.create(a1, 1.7, 0.5)
    par_a3 = MacdonaldParams.create(a3, 0.8, 0.5)
    worst_id = 0.0
    for _ in range(10):
        worst_id = max(worst_id, macdonald_identity_residual(
            par_a1, (1,), rng.uniform(0.3, 2.0, 2)))
        worst_id = max(worst_id, macdonald_identity_residual(
            par_a3, (0, 1, 0), rng.uniform(0.3, 1.8, 4)))

    def regular_xi(rs):
        while True:
            xi = rng.uniform(0.25, 2.1, size=rs.dim)
            if all(abs(math.sin(0.5 * float(np.dot(
                    [float(x) for x in a], xi)))) > 0.08 for a in rs.roots):
                return xi

    worst_de = worst_pi = 0.0
    for rs, par, system, lam in [(a2, par_a2, sys_a2, (1, 1)),
                                 (b2, par_b2, sys_b2, (1, 1))]:
        dual_pis = [tuple(m) for m in rs.dual().minuscule_weights()]
        dual_pis.append(rs.dual().quasi_minuscule_weight())
        pis = [tuple(m) for m in rs.minuscule_weights()]
        pis.append(rs.quasi_minuscule_weight())
        for _ in range(20):
            xi = regular_xi(rs)
            for pid in dual_pis:
                worst_de = max(worst_de, difference_equation_residual(
                    par, system, lam, xi, pid))
            for pip in pis:
                worst_pi = max(worst_pi, pieri_residual(
                    par, system, lam, xi, pip))
    elapsed = time.time() - t0
    ok = (worst_spec <= 1e-10 and worst_sym <= 1e-9 and worst_id <= 1e-12
          and worst_de <= 1e-8 and worst_pi <= 1e-8 and elapsed < 300.0)
    _record(3, "Appendix identity suite",
            ok, f"spec {worst_spec:.1e}<=1e-10, sym {worst_sym:.1e}<=1e-9, "
                f"id {worst_id:.1e}<=1e-12, diffeq {worst_de:.1e}<=1e-8, "
                f"pieri {worst_pi:.1e}<=1e-8", elapsed)


def _random_lattice(rs, sites, rng):
    pick = rng.choice(len(sites), size=min(4, len(sites)), replace=False)
    return LatticeFunction(rs, {tuple(sites[i]): complex(rng.normal(),
                                                         rng.normal())
                                for i in pick})


def test_acceptance_4_laplacian_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(7)
    a2 = build_root_system("A", 2)
    worst = 0.0

    # unit c-functions: conjugation vs the free action
    sys_u = gram_schmidt(a2, unit_spec(a2), [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab_u = WaveTable(sys_u, QuadratureGrid(a2, 48))
    inner = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for _ in range(10):
        phi = _random_lattice(a2, inner, rng)
        conj = apply_fourier_conjugated(tab_u, orbit_symbol(a2, (1, 1)), phi)
        ref = apply_free(a2, (1, 1), phi).restricted(tab_u.window())
        worst = max(worst, (conj - ref).norm())

    # Macdonald A2
    par = MacdonaldParams.create(a2, 1.7, 0.5)
    sys_m = gram_schmidt(a2, par.cspec(), [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab_m = WaveTable(sys_m, QuadratureGrid(a2, 48))
    for _ in range(10):
        phi = _random_lattice(a2, inner, rng)
        conj = apply_fourier_conjugated(tab_m, orbit_symbol(a2, (1, 1)), phi)
        ref = apply_macdonald_ruijsenaars(par, (1, 1), phi)
        worst = max(worst, (conj - ref.restricted(tab_m.window())).norm())

    # Koornwinder BC1 and BC2
    for rank, tops, m in [(1, [(10,), (9,)], 128), (2, [(3, 1), (1, 2), (4, 0)], 48)]:
        bc = build_root_system("BC", rank)
        kp = KoornwinderParams.create(bc, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
        sys_k = gram_schmidt(bc, kp.cspec(), tops)
        tab_k = WaveTable(sys_k, QuadratureGrid(bc, m))
        sites = [w for w in sys_k.weights if sum(w) <= 1 + (rank == 1)]
        for _ in range(10):
            phi = _random_lattice(bc, sites, rng)
            pi = tuple(1 if j == 0 else 0 for j in range(rank))
            conj = apply_fourier_conjugated(tab_k, orbit_symbol(bc, pi), phi)
            ref = apply_koornwinder(kp, phi)
            worst = max(worst, (conj - ref.restricted(tab_k.window())).norm())

    # truncated matrices symmetric on interior rows
    pi = (1, 1)
    sites = a2.saturated_weights([(4, 4), (5, 2), (2, 5)])
    mat = operator_matrix(lambda f: apply_macdonald_ruijsenaars(par, pi, f),
                          a2, sites)
    idx = [sites.index(s) for s in
           interior_sites(a2, sites, orbit_with_negatives(a2, pi))]
    sub = mat[np.ix_(idx, idx)]
    sym_err = float(np.max(np.abs(sub - sub.conj().T)))

    # commuting pair
    phi = LatticeFunction(a2, {(0, 0): 1.0, (1, 0): 0.4, (0, 1): -0.3j})
    comm = commutator_residual(tab_m, monomial_symmetric(a2, (1, 0)),
                               monomial_symmetric(a2, (0, 1)), phi)
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and sym_err <= 1e-10 and comm <= 1e-8
    _record(4, "Laplacian cross-validation (conjugation vs explicit actions)",
            ok, f"action {worst:.1e}<=1e-7, symmetry {sym_err:.1e}<=1e-10, "
                f"commutator {comm:.1e}<=1e-8", elapsed)


def test_acceptance_5_free_boundary_rule():
    t0 = time.time()
    exact = True
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
                if (apply_free(rs, pi, f) - apply_free_closed(rs, pi, f)).data:
                    exact = False
    bc1 = build_root_system("BC", 1)
    wall = apply_free(bc1, (1,), LatticeFunction.indicator(bc1, (0,)))
    wall_ok = dict(wall.items()) == {(1,): 1 + 0j}
    a2 = build_root_system("A", 2)
    quasi = apply_free(a2, (1, 1), LatticeFunction.indicator(a2, (0, 0)))
    quasi_ok = quasi.get((0, 0)) == -2 and quasi.get((1, 1)) == 1
    elapsed = time.time() - t0
    _record(5, "free-Laplacian boundary rule (ranks<=3, ht<=8, exact)",
            exact and wall_ok and quasi_ok,
            f"fold==closed exact: {exact}, BC1 wall: {wall_ok}, "
            f"A2 quasi -2: {quasi_ok}", elapsed)


def test_acceptance_6_plane_wave_asymptotics():
    t0 = time.time()
    a1 = build_root_system("A", 1)
    par1 = MacdonaldParams.create(a1, 2.0, 0.5)
    sys1 = gram_schmidt(a1, par1.cspec(), [(8,), (7,)])
    rep1 = convergence_report(WaveTable(sys1, QuadratureGrid(a1, 128)),
                              [(l,) for l in range(1, 9)])
    dec1 = all(a > b for a, b in zip(rep1["norms"], rep1["norms"][1:]))

    a2 = build_root_system("A", 2)
    par2 = MacdonaldParams.create(a2, 2.0, 0.5)
    sys2 = gram_schmidt(a2, par2.cspec(), [(4, 4)])
    rep2 = convergence_report(WaveTable(sys2, QuadratureGrid(a2, 72)),
                              [(l, l) for l in range(1, 5)])
    dec2 = all(a > b for a, b in zip(rep2["norms"], rep2["norms"][1:]))
    elapsed = time.time() - t0
    ok = (dec1 and dec2 and rep1["slope"] < 0 and rep2["slope"] < 0
          and rep1["r_squared"] > 0.9 and rep2["r_squared"] > 0.9
          and elapsed < 600.0)
    _record(6, "plane-wave asymptotics (A1 ray, A2 diagonal ray)",
            ok, f"A1 slope {rep1['slope']:.2f} R2 {rep1['r_squared']:.4f}; "
                f"A2 slope {rep2['slope']:.2f} R2 {rep2['r_squared']:.4f}",
            elapsed)


def test_acceptance_7_wave_operator_surrogate():
    t0 = time.time()
    times = [4, 8, 16, 32]
    reports = {}

    a1 = build_root_system("A", 1)
    par1 = MacdonaldParams.create(a1, 2.0, 0.5)
    sys1 = gram_schmidt(a1, par1.cspec(), [(150,), (149,)])
    sym1 = orbit_symbol(a1, (1,))
    grid0 = QuadratureGrid(a1, 512)
    pts = grid0.xi[grid0.alcove_mask]
    reports["A1"] = run_scattering_diagnostic(
        sys1, sym1, pts[len(pts) // 2], 1.0, +1, times)

    bc1 = build_root_system("BC", 1)
    kp = KoornwinderParams.create(bc1, 1.0, (0.9, 0.7, 0.6, 0.8), 0.45)
    sysk = gram_schmidt(bc1, kp.cspec(), [(150,), (149,)])
    symk = orbit_symbol(bc1, (1,))
    gridk = QuadratureGrid(bc1, 512)
    ptsk = gridk.xi[gridk.alcove_mask]
    reports["BC1"] = run_scattering_diagnostic(
        sysk, symk, ptsk[len(ptsk) // 2], 1.0, +1, times)

    ok = True
    details = []
    for name, rep in reports.items():
        total = rep.norms["interacting_vs_free"]
        decreasing = all(a > b for a, b in zip(total, total[1:]))
        expo = rep.fits["interacting_vs_free"]["power_exponent"]
        leak = max(max(v) for v in rep.leakages.values())
        ok = ok and decreasing and expo <= -1.0 and leak <= 1e-6 \
            and rep.meta.get("invalid") is None
        details.append(f"{name}: exp {expo:.2f}<=-1, leak {leak:.1e}<=1e-6, "
                       f"decreasing {decreasing}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 1800.0
    _record(7, "wave-operator surrogate (A1 Macdonald, BC1 Koornwinder)",
            ok, "; ".join(details), elapsed)


def test_acceptance_8_rank_one_oracle():
    t0 = time.time()
    bc1 = build_root_system("BC", 1)
    kp = KoornwinderParams.create(bc1, 1.0, (0.9, 0.7, 0.6, 0.8), 0.45)
    system = gram_schmidt(bc1, kp.cspec(), [(12,)], tol=1e-12)
    table = WaveTable(system, QuadratureGrid(bc1, 256))
    oracle = Rank1Params(0.45, 0.9, 0.7, 0.6, 0.8)
    rng = np.random.default_rng(11)
    xis = rng.uniform(0.05, 3.09, 50)
    import alcove.harmonic as H

    worst = 0.0
    for ell in range(11):
        nd = norm_constants(kp, (ell,))
        pbold = system.monic((ell,)) * nd.c_lam
        pnorm = system.monic((ell,)) * nd.orthonormal_scale
        for x in xis:
            xv = np.array([x])
            worst = max(worst, abs(pbold.evaluate(xv)
                                   - askey_wilson(ell, x, oracle)))
            wgen = complex(pnorm.evaluate(xv)) * \
                math.sqrt(H.weight_function_eval(kp.cspec(), xv)) * \
                complex(H.eval_delta(bc1, xv))
            worst = max(worst, abs(wgen - 1j * rank1_wave(ell, x, oracle)))

    vals = {l: complex(rng.normal(), rng.normal()) for l in range(11)}
    mine = apply_koornwinder(kp, LatticeFunction(
        bc1, {(l,): v for l, v in vals.items()}))
    ref = rank1_laplacian(vals, oracle, 12)
    for l in range(13):
        worst = max(worst, abs(mine.get((l,)) - ref.get(l, 0)))

    ctx = ScatteringContext(table, orbit_symbol(bc1, (1,)))
    ks = np.nonzero(ctx.regular_mask)[0][2:240:5]
    for k in ks:
        x = float(table.grid.xi[k][0])
        worst = max(worst, abs(ctx.smatrix_at(int(k)) - rank1_smatrix(x, oracle)))
    elapsed = time.time() - t0
    _record(8, "rank-one oracle equivalence (BC1, l<=10, 50 xi)",
            worst <= 1e-10, f"max deviation {worst:.1e}<=1e-10", elapsed)


def test_acceptance_9_smatrix_unitarity_and_factors():
    t0 = time.time()
    worst = 0.0
    a2 = build_root_system("A", 2)
    par = MacdonaldParams.create(a2, 1.7, 0.5)
    sys_m = gram_schmidt(a2, par.cspec(), [(2, 2)])
    tab = WaveTable(sys_m, QuadratureGrid(a2, 48))
    ctx = ScatteringContext(tab, orbit_symbol(a2, (1, 1)))
    for k in np.nonzero(ctx.regular_mask)[0]:
        worst = max(worst, abs(abs(ctx.smatrix_at(int(k))) - 1.0))

    bc1 = build_root_system("BC", 1)
    kp = KoornwinderParams.create(bc1, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    sysk = gram_schmidt(bc1, kp.cspec(), [(6,), (5,)])
    tabk = WaveTable(sysk, QuadratureGrid(bc1, 128))
    ctxk = ScatteringContext(tabk, orbit_symbol(bc1, (1,)))
    for k in np.nonzero(ctxk.regular_mask)[0]:
        worst = max(worst, abs(abs(ctxk.smatrix_at(int(k))) - 1.0))

    # structural factor count: every positive root of R1 contributes exactly
    # one scalar phase to S_w, from one of the two index sets
    count_ok = True
    for rs in (a2, bc1, build_root_system("B", 2)):
        for w in rs.weyl_group():
            pos = sum(1 for a in rs.positive_roots_1
                      if rs._ext_key(w.act(rs.root_coords(a))) > 0)
            neg = sum(1 for a in rs.positive_roots_1
                      if rs._ext_key(w.act(rs.root_coords(a))) < 0)
            if pos + neg != len(rs.positive_roots_1):
                count_ok = False
    elapsed = time.time() - t0
    _record(9, "S-matrix unitarity and factor count",
            worst <= 1e-13 and count_ok,
            f"max | |S|-1 | = {worst:.1e}<=1e-13, factor count |R1+|: {count_ok}",
            elapsed)
