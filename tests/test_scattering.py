import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import alcove
from alcove.cli import build_system
from alcove.harmonic import (LaurentPoly, QuadratureGrid, eval_delta, monomial_symmetric,
                             orbit_symbol, weyl_character)
from alcove.laplacian import LatticeFunction, apply_fourier_conjugated, operator_matrix
from alcove.orthopoly import MacdonaldParams, gram_schmidt
from alcove.qfun import koornwinder_spec, shat_sqrt, unit_spec
from alcove.rootsys import build_root_system
from alcove.scattering import (RegularSectorError, ScatteringContext, WaveTable,
                               _kernel_bandwidth, asymptotic_wave_values,
                               convergence_report, grid_floor, plane_wave_values,
                               root_half_phases, smatrix_factor, smatrix_factor_direct,
                               smatrix_factor_half, spectral_norm)


@pytest.fixture(scope="module")
def a1_ctx(a1):
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    system = gram_schmidt(a1, par.cspec(), [(150,), (149,)])
    table = WaveTable(system, QuadratureGrid(a1, 512))
    return ScatteringContext(table, orbit_symbol(a1, (1,)))


def _bump(ctx, radius=1.1, k=8):
    from alcove.evolution import WavePacket
    pts = ctx.grid.xi[ctx.grid.alcove_mask]
    return WavePacket(ctx, pts[len(pts) // 2], radius, smoothness=k)


def test_wave_function_orthonormality(a2, a2_macdonald, a2_system):
    tab = WaveTable(a2_system, QuadratureGrid(a2, 64))
    lams = [lam for lam in [(0, 0), (1, 1), (2, 2), (1, 0), (0, 1)]
            if lam in a2_system.index]
    mask = tab.grid.alcove_mask
    for i, a in enumerate(lams):
        for j, b in enumerate(lams):
            val = np.mean(np.where(mask, tab.psi(a) * np.conjugate(tab.psi(b)), 0.0))
            assert abs(val - (i == j)) < 1e-8


def test_unit_wave_functions_are_plane_waves(a2):
    sysu = gram_schmidt(a2, unit_spec(a2), [(2, 2)])
    tab = WaveTable(sysu, QuadratureGrid(a2, 48))
    for lam in [(0, 0), (1, 1), (2, 2)]:
        psi0 = plane_wave_values(a2, lam, tab.grid)
        assert np.max(np.abs(tab.psi(lam) - psi0)) < 1e-12


def test_plane_wave_identities(a2, bc1):
    grid = QuadratureGrid(bc1, 128)
    vals = plane_wave_values(bc1, (3,), grid)
    xs = grid.xi[:, 0]
    assert np.max(np.abs(np.abs(vals) - np.abs(2 * np.sin(4 * xs)))) < 1e-12
    # antisymmetrization kills the value at xi = 0 (grid point k = 0)
    assert abs(vals[0]) < 1e-13
    # plane wave equals delta * chi pointwise
    grid2 = QuadratureGrid(a2, 24)
    chi = weyl_character(a2, (2, 1)).eval_grid(grid2)
    dv = np.array([eval_delta(a2, xi) for xi in grid2.xi])
    assert np.max(np.abs(plane_wave_values(a2, (2, 1), grid2) - dv * chi)) < 1e-10


@pytest.mark.parametrize("label,rank,tops", [
    ("A", 1, [(9,), (8,)]), ("A", 2, [(4, 4), (6, 0)]), ("B", 2, [(3, 3)]),
    ("G", 2, [(2, 3)]), ("BC", 1, [(12,), (11,)]), ("BC", 2, [(3, 2)]),
    ("A", 3, [(2, 1, 2)])])
def test_kernel_bandwidth_closed_form(label, rank, tops):
    # brute force: the largest |coordinate| over W(rho + lam), every table weight
    rs = build_root_system(label, rank)
    weights = rs.saturated_weights(tops)
    brute = max(abs(c)
                for lam in weights
                for nu in rs.weyl_orbit(tuple(a + b for a, b in zip(lam, rs.rho_coords)))
                for c in nu)
    table = SimpleNamespace(rs=rs, weights=weights)
    assert _kernel_bandwidth(table) == brute


def test_smatrix_factor_structure(a2, a2_macdonald):
    spec = a2_macdonald.cspec()
    grid = QuadratureGrid(a2, 24)
    for w in a2.weyl_group():
        half = smatrix_factor_half(w, grid, root_half_phases(spec, grid))
        full = smatrix_factor(w, grid, root_half_phases(spec, grid))
        direct = smatrix_factor_direct(spec, w, grid)
        assert np.max(np.abs(half * half - direct)) < 1e-12
        assert np.max(np.abs(np.abs(full) - 1.0)) < 1e-13
        # each positive root of R1 contributes exactly one of the two sets
        pos = sum(1 for a in a2.positive_roots_1
                  if a2._ext_key(w.act(a2.root_coords(a))) > 0)
        neg = sum(1 for a in a2.positive_roots_1
                  if a2._ext_key(w.act(a2.root_coords(a))) < 0)
        assert pos + neg == len(a2.positive_roots_1)


def _per_w_half(spec, w, grid):
    """S_w^{1/2} with every root's shat_sqrt computed afresh for this w."""
    rs = grid.rs
    out = np.ones(grid.size, dtype=complex)
    for a, c in zip(rs.positive_roots_1, spec.cfunctions):
        ac = rs.root_coords(a)
        h = shat_sqrt(c, grid.angles(ac))
        if rs._ext_key(w.act(ac)) > 0:
            out *= h
        else:
            out *= np.conjugate(h)
    return out


def _same_bits(a, b):
    return np.array_equal(a.view(float), b.view(float))


def test_root_half_phases_keep_per_w_bits(a2, a2_system, bc2):
    # the per-root phases are computed once and multiplied in the same order
    koornwinder = koornwinder_spec(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    for spec, grid in [(a2_system.spec, QuadratureGrid(a2, 24)),
                       (koornwinder, QuadratureGrid(bc2, 20))]:
        halves = root_half_phases(spec, grid)
        for w in grid.rs.weyl_group():
            old = _per_w_half(spec, w, grid)
            assert _same_bits(smatrix_factor_half(w, grid, halves), old)
            assert _same_bits(smatrix_factor_half(w, grid, root_half_phases(spec, grid)), old)
    grid = QuadratureGrid(a2, 24)
    ctx = ScatteringContext(WaveTable(a2_system, grid), orbit_symbol(a2, (1, 0)))
    lam = (2, 1)
    shifted = tuple(a + b for a, b in zip(a2.rho_coords, lam))
    expected = np.zeros(grid.size, dtype=complex)
    for w in a2.weyl_group():
        old = _per_w_half(a2_system.spec, w, grid)
        assert _same_bits(smatrix_factor_half(w, grid, ctx.halves), old)
        expected += (w.sign * old) * grid.exponential(w.inverse().act(shifted))
    got, = asymptotic_wave_values([lam], grid, root_half_phases(a2_system.spec, grid))
    assert _same_bits(got, expected)
    got, = asymptotic_wave_values([lam], grid, ctx.halves)
    assert _same_bits(got, expected)
    # S_L at a regular point squares the cached half factor of its element
    for k in np.nonzero(ctx.regular_mask)[0].tolist():
        old = _per_w_half(a2_system.spec, ctx.regular_sector_element(k), grid)
        assert _same_bits(np.array([ctx.smatrix_at(k)]), np.array([old[k] ** 2]))


def test_half_phases_are_only_read(a2, a2_system):
    # read-only per-root phases give the bits of writeable ones
    grid = QuadratureGrid(a2, 24)
    halves = root_half_phases(a2_system.spec, grid)
    frozen = [(ac, h.copy()) for ac, h in halves]
    for _, h in frozen:
        h.setflags(write=False)
    for w in a2.weyl_group():
        assert _same_bits(smatrix_factor_half(w, grid, frozen),
                          smatrix_factor_half(w, grid, halves))
    got, = asymptotic_wave_values([(2, 1)], grid, frozen)
    assert _same_bits(got, asymptotic_wave_values([(2, 1)], grid, halves)[0])
    assert all(_same_bits(h, k) for (_, h), (_, k) in zip(frozen, halves))


def test_asymptotic_wave_unit_equals_plane_wave(a2):
    grid = QuadratureGrid(a2, 24)
    us = unit_spec(a2)
    for lam in [(0, 0), (2, 1)]:
        assert np.max(np.abs(asymptotic_wave_values([lam], grid, root_half_phases(us, grid))[0]
                             - plane_wave_values(a2, lam, grid))) < 1e-12


def test_asymptotic_wave_bc1_closed_form(bc1, bc1_koornwinder, bc1_table):
    from alcove.rank1 import Rank1Params, rank1_asymptotic
    p = Rank1Params(0.45, 0.9, 0.7, 0.6, 0.8)
    vals, = asymptotic_wave_values(
        [(3,)], bc1_table.grid, root_half_phases(bc1_koornwinder.cspec(), bc1_table.grid))
    mask = bc1_table.grid.alcove_mask
    xs = bc1_table.grid.xi[mask][:, 0]
    oracle = np.array([rank1_asymptotic(3, x, p) for x in xs])
    assert np.max(np.abs(vals[mask] - 1j * oracle)) < 1e-10


def test_convergence_unit_is_exact(a2):
    sysu = gram_schmidt(a2, unit_spec(a2), [(3, 3)])
    tab = WaveTable(sysu, QuadratureGrid(a2, 48))
    rep = convergence_report(tab, [(1, 1), (2, 2), (3, 3)])
    assert max(rep["norms"]) < 1e-12


def test_convergence_monotone_after_onset(a1):
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    system = gram_schmidt(a1, par.cspec(), [(8,), (7,)])
    tab = WaveTable(system, QuadratureGrid(a1, 128))
    rep = convergence_report(tab, [(l,) for l in range(2, 9)])
    assert all(a > b for a, b in zip(rep["norms"], rep["norms"][1:]))
    assert rep["slope"] < 0 and rep["r_squared"] > 0.9


def test_fourier_roundtrip_free(a2):
    sysu = gram_schmidt(a2, unit_spec(a2), [(3, 3), (4, 1), (1, 4)])
    tab = WaveTable(sysu, QuadratureGrid(a2, 48))
    rng = np.random.default_rng(0)
    data = {lam: complex(rng.normal(), rng.normal())
            for lam in [(0, 0), (1, 1), (2, 2), (1, 4)]}
    phi = LatticeFunction(a2, data)
    back = tab.inverse_free(tab.forward_free(phi), tab.window())
    assert (back - phi).norm() < 1e-12
    # forward of an indicator is the conjugate wave function
    ind = LatticeFunction.indicator(a2, (1, 1))
    fhat = tab.forward_free(ind)
    psi0 = plane_wave_values(a2, (1, 1), tab.grid)
    psi0 = np.where(tab.grid.alcove_mask, psi0, 0.0)
    assert np.max(np.abs(fhat - np.conjugate(psi0))) < 1e-13


def test_fourier_roundtrip_and_parseval_interacting(a2, a2_macdonald):
    system = gram_schmidt(a2, a2_macdonald.cspec(), [(3, 3), (4, 1), (1, 4)])
    tab = WaveTable(system, QuadratureGrid(a2, 64))
    rng = np.random.default_rng(1)
    sites = list(system.weights)
    data = {sites[i]: complex(rng.normal(), rng.normal())
            for i in rng.choice(len(sites), size=min(10, len(sites)), replace=False)}
    phi = LatticeFunction(a2, data)
    fhat = tab.forward(phi)
    assert abs(spectral_norm(fhat) - phi.norm()) < 1e-8 * phi.norm()
    back = tab.inverse(fhat, tab.window())
    assert (back - phi).norm() < 1e-8


def test_regular_sector(a1_ctx):
    ks = np.nonzero(a1_ctx.regular_mask)[0]
    # E = 2 cos: the gradient points down-chamber on the whole alcove, so
    # the sector element is the reflection everywhere
    for k in ks[::16]:
        assert a1_ctx.regular_sector_element(int(k)).word == (0,)
    with pytest.raises(RegularSectorError):
        bad = np.nonzero(~a1_ctx.regular_mask)[0][0]
        a1_ctx.sector_element(int(bad))


def test_regular_sector_locally_constant(a2, a2_macdonald):
    system = gram_schmidt(a2, a2_macdonald.cspec(), [(2, 2)])
    tab = WaveTable(system, QuadratureGrid(a2, 36))
    ctx = ScatteringContext(tab, orbit_symbol(a2, (1, 1)))
    ks = np.nonzero(ctx.regular_mask)[0]
    # neighbours in the index lattice that are both regular and give the
    # same sector element witness local constancy
    shape = tab.grid.shape
    pairs = 0
    for k in ks[: 200]:
        base = ctx.regular_sector_element(int(k))
        pt = np.unravel_index(k, shape)
        nb = int(np.ravel_multi_index(((pt[0] + 1) % tab.grid.M, pt[1]), shape))
        if ctx.regular_mask[nb]:
            grad_gap = np.linalg.norm(ctx.gradient[nb] - ctx.gradient[k])
            if grad_gap < 0.1 * np.linalg.norm(ctx.gradient[k]):
                # neighbours well inside one component share the element
                assert ctx.regular_sector_element(int(nb)).matrix == base.matrix
                pairs += 1
    assert pairs > 0


@pytest.mark.parametrize("label", ["A", "B", "BC", "G"])
def test_sector_labels_match_per_point_elements(label, monkeypatch):
    # the context dominantizes one point per label; every regular point's
    # labelled element is the one its own dominantization finds
    rs = build_root_system(label, 2)
    system = gram_schmidt(rs, unit_spec(rs), [(2, 2)])
    table = WaveTable(system, QuadratureGrid(rs, grid_floor(system) + 6))
    calls = []
    original = ScatteringContext.sector_element

    def counting(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(ScatteringContext, "sector_element", counting)
    ctx = ScatteringContext(table, orbit_symbol(rs, (1, 0)))
    monkeypatch.undo()
    labels = ctx.sector_labels
    assert np.array_equal(labels >= 0, ctx.regular_mask)
    assert len(calls) == len(ctx.sector_elements) == len(np.unique(labels[labels >= 0]))
    assert len(ctx.sector_elements) > 1
    for k in np.nonzero(ctx.regular_mask)[0].tolist():
        assert ctx.regular_sector_element(k).matrix == ctx.sector_element(k).matrix


@pytest.mark.parametrize("label", ["A", "B", "G", "BC"])
def test_sector_elements_map_gradients_into_the_open_chamber(label):
    # RootSystem.dominantize with REGULARITY_TOL: at every regular point the
    # element takes the coordinates <grad E, b_j^vee> to positive ones
    rs = build_root_system(label, 2)
    system = gram_schmidt(rs, unit_spec(rs), [(2, 2)])
    table = WaveTable(system, QuadratureGrid(rs, grid_floor(system) + 6))
    ctx = ScatteringContext(table, orbit_symbol(rs, (1, 0)))
    regular = np.nonzero(ctx.regular_mask)[0].tolist()
    assert regular
    coords = ctx.gradient @ rs.basis_coroots_f.T
    for k in regular:
        w = ctx.sector_element(k)
        assert len(w.word) <= len(rs.positive_roots_0)
        assert min(w.act(coords[k].tolist())) > 0


def test_identity_sector_for_dominant_gradient(a1):
    # with the symbol -2cos the gradient is already dominant on (0, pi)
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    system = gram_schmidt(a1, par.cspec(), [(6,), (5,)])
    tab = WaveTable(system, QuadratureGrid(a1, 64))
    from alcove.harmonic import LaurentPoly
    sym = LaurentPoly(a1, {(2,): -1, (-2,): -1})
    ctx = ScatteringContext(tab, sym)
    k = int(np.nonzero(ctx.regular_mask)[0][5])
    assert ctx.regular_sector_element(k).word == ()


def test_symbol_with_imaginary_coefficients_is_real(a2, a2_system):
    # realness is exact: terms closed under mu -> -mu with conjugate
    # coefficients, so i(m_w1 - m_w2) = -2 Im m_w1 is a real symbol
    sym = 1j * (monomial_symmetric(a2, (1, 0)) - monomial_symmetric(a2, (0, 1)))
    ctx = ScatteringContext(WaveTable(a2_system, QuadratureGrid(a2, 40)), sym)
    assert np.max(np.abs(ctx.symbol_values - sym.eval_grid(ctx.grid))) <= 1e-15
    assert np.count_nonzero(ctx.regular_mask) > 0


def test_near_symmetric_float_symbol_is_refused(a1_ctx):
    # |Im E| reaches 5e-6 on the torus, which taking .real would drop
    near = LaurentPoly(a1_ctx.rs, {(2,): 1.0, (-2,): 1.000005})
    with pytest.raises(ValueError, match="real multiplication symbol"):
        ScatteringContext(a1_ctx.table, near)


def test_smatrix_apply_unitary(a1_ctx):
    pk = _bump(a1_ctx)
    fhat = pk.spectral()
    for p in (1.0, -1.0, 0.5, -0.5):
        out = a1_ctx.smatrix_apply(fhat, p)
        assert abs(spectral_norm(out) - spectral_norm(fhat)) < 1e-12
        # on a real packet S^-p is the conjugate of S^p
        assert np.max(np.abs(a1_ctx.smatrix_apply(fhat, -p)
                             - np.conjugate(out))) <= 1e-15
    # S_L is the square of S_L^{1/2}, and smatrix_at on the support
    full = a1_ctx.smatrix_apply(fhat, 1.0)
    twice = a1_ctx.smatrix_apply(a1_ctx.smatrix_apply(fhat, 0.5), 0.5)
    assert np.max(np.abs(twice - full)) <= 1e-15
    for k in pk.support.tolist():
        assert abs(full[k] - a1_ctx.smatrix_at(k) * fhat[k]) <= 1e-15
    with pytest.raises(ValueError):
        a1_ctx.smatrix_apply(fhat, 0.25)


def test_wave_and_scattering_operators(a1_ctx):
    tab = a1_ctx.table
    pk = _bump(a1_ctx)
    phi = tab.inverse_free(pk.spectral(), tab.window())
    s_phi = a1_ctx.scattering_operator_apply(phi)
    assert abs(s_phi.norm() - phi.norm()) < 1e-8
    om_p = a1_ctx.wave_operator_apply(phi, +1)
    om_m = a1_ctx.wave_operator_apply(phi, -1)
    assert abs(om_p.norm() - phi.norm()) < 1e-8
    assert abs(om_m.norm() - phi.norm()) < 1e-8
    # Omega_+^{-1} Omega_- equals the scattering operator
    fhat = tab.forward(om_m)
    comp = tab.inverse_free(a1_ctx.smatrix_apply(fhat, 0.5), tab.window())
    assert (comp - s_phi).norm() < 1e-8


def test_unit_scattering_operator_is_identity(a1):
    sysu = gram_schmidt(a1, unit_spec(a1), [(40,), (39,)])
    tab = WaveTable(sysu, QuadratureGrid(a1, 128))
    ctx = ScatteringContext(tab, orbit_symbol(a1, (1,)))
    pk = _bump(ctx)
    phi = tab.inverse_free(pk.spectral(), tab.window())
    assert (ctx.scattering_operator_apply(phi) - phi).norm() < 1e-10
    assert (ctx.wave_operator_apply(phi, +1) - phi).norm() < 1e-10


def test_eigenfunction_property_and_intertwining(a2, a2_macdonald):
    system = gram_schmidt(a2, a2_macdonald.cspec(),
                          [(3, 3), (4, 1), (1, 4), (5, 0), (0, 5)])
    tab = WaveTable(system, QuadratureGrid(a2, 48))
    sym = orbit_symbol(a2, (1, 1))
    sites = a2.saturated_weights([(2, 2), (3, 0), (0, 3), (2, 1), (1, 2)])
    mat = operator_matrix(
        lambda f: apply_fourier_conjugated(tab, sym, f, sites), a2, sites)
    evals = sym.eval_grid(tab.grid)
    # interior lambda: the matrix row reproduces E(xi) Psi_lam(xi) pointwise
    lam = (1, 1)
    j = sites.index(lam)
    recon = np.zeros(tab.grid.size, dtype=complex)
    for i, mu in enumerate(sites):
        if mat[i, j] != 0:
            recon += mat[i, j] * tab.psi(mu)
    err = np.max(np.abs(recon - evals * tab.psi(lam)))
    assert err < 1e-8
    # F intertwines the conjugated action with multiplication
    phi = LatticeFunction(a2, {(0, 0): 0.7, (1, 1): -0.2 + 0.1j})
    lhs = tab.forward(apply_fourier_conjugated(tab, sym, phi, sites))
    rhs = evals * tab.forward(phi)
    assert spectral_norm(lhs - rhs) < 1e-7


def _deep_packet(ctx):
    """A bump centred at the regular point farthest from the singular set."""
    from alcove.evolution import WavePacket
    grid = ctx.grid
    bad = grid.xi[~ctx.regular_mask]
    good = np.nonzero(ctx.regular_mask)[0]
    dmin = np.array([np.min(np.linalg.norm(bad - grid.xi[k], axis=1)) for k in good])
    k = good[int(np.argmax(dmin))]
    return WavePacket(ctx, grid.xi[k], 0.5 * float(dmin.max()), smoothness=4,
                      velocity_margin=0.05)


@pytest.fixture(scope="module", params=["A2 Macdonald", "BC2 Koornwinder"])
def rank2_table(request, a2, a2_system, bc2):
    if request.param == "A2 Macdonald":
        return WaveTable(a2_system, QuadratureGrid(a2, 48))
    from alcove.orthopoly import KoornwinderParams
    par = KoornwinderParams.create(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    # M = 96: a grid of 48 leaves no bump two cells clear of the singular set
    return WaveTable(gram_schmidt(bc2, par.cspec(), [(3, 2)]), QuadratureGrid(bc2, 96))


def _close_rel(got, ref, window, rtol=1e-13):
    a = np.array([got.get(lam) for lam in window])
    b = np.array([ref[lam] for lam in window])
    return np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def test_transforms_match_per_weight_kernels(rank2_table):
    # each inverse transform against the grid average of fhat * kernel,
    # one weight at a time, with the kernel written out here
    tab = rank2_table
    rs, grid = tab.rs, tab.grid
    rng = np.random.default_rng(7)
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    window = tab.window()
    # the transforms read the values on the open alcove only
    vals = np.where(grid.alcove_mask, values, 0.0)
    ref = {lam: np.mean(vals * tab.sqrt_weight * tab.delta
                        * tab.system.poly(lam).eval_grid(grid))
           for lam in window}
    assert _close_rel(tab.inverse(values, window), ref, window)
    ref = {lam: np.mean(vals * plane_wave_values(rs, lam, grid)) for lam in window}
    assert _close_rel(tab.inverse_free(values, window), ref, window)
    with pytest.raises(KeyError):
        tab.inverse(values, [(40, 40)])


def test_classical_packet_matches_per_weight_kernels(rank2_table):
    from alcove.evolution import classical_packet, classical_support
    ctx = ScatteringContext(rank2_table, orbit_symbol(rank2_table.rs, (1, 0)))
    packet = _deep_packet(ctx)
    rs, grid = ctx.rs, ctx.grid
    for t in (3.0, -5.0):
        w = packet.chamber_element(t)
        vals = np.exp(-1j * t * ctx.symbol_values) * packet.values
        sites = classical_support(packet, t)
        assert sites
        ref = {}
        for lam in sites:
            shifted = tuple(a + b for a, b in zip(lam, rs.rho_coords))
            kern = np.exp(1j * grid.angles(w.inverse().act(shifted)))
            ref[lam] = w.sign * np.mean(vals * kern)
        assert _close_rel(classical_packet(packet, t), ref, sites)


def test_alcove_restriction_keeps_the_covariant_norm(rank2_table):
    # F phi and F0 phi are W-covariant, so they vanish on every wall, and the
    # torus is |W| copies of the alcove: the whole-torus mean of |F phi|^2
    # over |W| is the alcove norm the transforms now return
    tab = rank2_table
    rs, grid = tab.rs, tab.grid
    rng = np.random.default_rng(11)
    phi = LatticeFunction(rs, {lam: complex(rng.normal(), rng.normal())
                               for lam in tab.system.weights})
    for forward, kernel in [(tab.forward, tab.psi),
                            (tab.forward_free, lambda lam: plane_wave_values(rs, lam, grid))]:
        fhat = forward(phi)
        assert np.all(fhat[~grid.alcove_mask] == 0)
        whole = sum(c * np.conjugate(kernel(lam)) for lam, c in phi.items())
        covariant = np.mean(np.abs(whole) ** 2) / rs.weyl_order()
        assert abs(spectral_norm(fhat) ** 2 - covariant) <= 1e-13 * covariant


def test_alcove_restriction_keeps_the_ray_norms():
    # the same along the B2 ray of the benchmark, for Psi_lam - Psi^infty_lam
    rs, _, spec = build_system({
        "root_system": {"label": "B", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": {"1": 0.9, "2": 1.4}, "q": 0.5}})
    lambdas = [(l, l) for l in range(1, 9)]
    system = gram_schmidt(rs, spec, lambdas[-1:-3:-1])
    tab = WaveTable(system, QuadratureGrid(rs, grid_floor(system) + 30))
    norms = convergence_report(tab, lambdas)["norms"]
    for lam, norm, psi_inf in zip(lambdas, norms,
                                  asymptotic_wave_values(
                                      lambdas, tab.grid, root_half_phases(spec, tab.grid))):
        covariant = np.sqrt(np.mean(np.abs(tab.psi(lam) - psi_inf) ** 2) / rs.weyl_order())
        assert abs(norm - covariant) <= 1e-10 * covariant


RETIRED_SPECTRAL = re.compile(
    r"\b(SpectralFunction|spectral_inner|restrict_alcove|_pairing_values)\b")


def _imported_modules(tree: ast.Module) -> list:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return names


def test_spectral_data_is_one_plain_array():
    # spectral data is a plain alcove array: no wrapper type, no second
    # convention; and the lattice layer imports nothing from the spectral one
    src = Path(alcove.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if RETIRED_SPECTRAL.search(line)]
    assert not hits
    assert RETIRED_SPECTRAL.search("fhat = tab.forward(phi).restrict_alcove()")
    assert RETIRED_SPECTRAL.search("vals, scale = self._pairing_values(fhat)")
    imported = _imported_modules(ast.parse((src / "laplacian.py").read_text()))
    assert "harmonic" in imported
    assert not [m for m in imported if "scattering" in m.split(".")]
