import numpy as np
import pytest

from alcove.evolution import (PacketError, TableDepthError, WavePacket,
                              asymptotic_packet, classical_packet,
                              classical_projection, classical_support,
                              free_packet, interacting_packet, leakage,
                              run_scattering_diagnostic, smoothstep,
                              window_sites)
from alcove.harmonic import QuadratureGrid, orbit_symbol
from alcove.orthopoly import MacdonaldParams, gram_schmidt
from alcove.qfun import unit_spec
from alcove.scattering import ScatteringContext, WaveTable


@pytest.fixture(scope="module")
def a1_setup(a1):
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    system = gram_schmidt(a1, par.cspec(), [(150,), (149,)])
    sym = orbit_symbol(a1, (1,))
    grid = QuadratureGrid(a1, 512)
    ctx = ScatteringContext(WaveTable(system, grid), sym)
    pts = grid.xi[grid.alcove_mask]
    packet = WavePacket(ctx, pts[len(pts) // 2], 1.0)
    return system, sym, ctx, packet


def test_smoothstep_profile():
    u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    v = smoothstep(u, 6)
    assert v[0] == 0 and v[1] == 0 and v[3] == 1 and v[4] == 1
    assert 0 < v[2] < 1
    # C^k contact: the step rises like h^{k+1} (up to the binomial constant)
    h = 1e-3
    assert smoothstep(np.array([h]), 6)[0] < 2e3 * h**7
    assert 1 - smoothstep(np.array([1 - h]), 6)[0] < 2e3 * h**7


def test_packet_construction(a1_setup):
    _, _, ctx, packet = a1_setup
    assert packet.norm() > 0
    assert packet.what.word == (0,)
    assert packet.eps_chamber > 0
    # support is strictly inside the regular sector
    assert np.all(ctx.regular_mask[packet.support])


def test_packet_errors(a1_setup):
    _, _, ctx, _ = a1_setup
    pts = ctx.grid.xi[ctx.grid.alcove_mask]
    with pytest.raises(PacketError):
        WavePacket(ctx, pts[1], 0.05)  # hugs the wall / too few points


def test_free_packet_t0_inverts(a1_setup):
    _, _, ctx, packet = a1_setup
    tab = ctx.table
    phi0 = free_packet(packet, 0.0, tab.window())
    direct = tab.inverse_free(packet.spectral(), tab.window())
    assert (phi0 - direct).norm() < 1e-13


def test_interacting_packet_t0(a1_setup):
    _, _, ctx, packet = a1_setup
    tab = ctx.table
    phi = interacting_packet(packet, +1, 0.0, tab.window())
    direct = tab.inverse(ctx.smatrix_apply(packet.spectral(), -0.5), tab.window())
    assert (phi - direct).norm() < 1e-13


def test_unitarity_in_time(a1_setup):
    _, _, ctx, packet = a1_setup
    ref = packet.norm()
    for t in (5.0, 10.0):
        w = ctx.table.window()
        assert abs(free_packet(packet, t, w).norm() - ref) < 1e-6
        assert abs(interacting_packet(packet, +1, t, w).norm() - ref) < 1e-6


def test_classical_support_and_projection(a1_setup):
    _, _, ctx, packet = a1_setup
    s8 = classical_support(packet, 8.0)
    s16 = classical_support(packet, 16.0)
    ratio = len(s16) / len(s8)
    assert 2 * 0.7 < ratio < 2 * 1.3  # rank one: doubling t doubles the count
    phi = free_packet(packet, 8.0, ctx.table.window())
    proj = classical_projection(phi, packet, 8.0)
    twice = classical_projection(proj, packet, 8.0)
    assert (proj - twice).norm() == 0.0
    assert proj.norm() <= phi.norm() + 1e-15


def test_classical_tracks_free(a1_setup):
    _, _, ctx, packet = a1_setup
    w = ctx.table.window()
    ns = [(free_packet(packet, t, w) - classical_packet(packet, t)).norm()
          for t in (5.0, 10.0, 20.0)]
    assert ns[0] > ns[1] > ns[2]


def test_asymptotic_tracks_classical(a1_setup):
    _, _, ctx, packet = a1_setup
    w = ctx.table.window()
    ns = [(asymptotic_packet(packet, +1, t, w) - classical_packet(packet, t)).norm()
          for t in (5.0, 10.0, 20.0)]
    assert ns[0] > ns[1] > ns[2]


def test_telescope_inequality(a1_setup):
    _, _, ctx, packet = a1_setup
    w = ctx.table.window()
    t = 8.0
    phi_int = interacting_packet(packet, +1, t, w)
    phi_free = free_packet(packet, t, w)
    phi_as = asymptotic_packet(packet, +1, t, w)
    phi_cl = classical_packet(packet, t)
    total = (phi_int - phi_free).norm()
    parts = ((phi_int - phi_as).norm() + (phi_as - phi_cl).norm()
             + (phi_cl - phi_free).norm())
    assert total <= parts + 1e-12


def test_unit_spec_packets_collapse(a1):
    sysu = gram_schmidt(a1, unit_spec(a1), [(80,), (79,)])
    ctx = ScatteringContext(WaveTable(sysu, QuadratureGrid(a1, 512)),
                            orbit_symbol(a1, (1,)))
    pts = ctx.grid.xi[ctx.grid.alcove_mask]
    packet = WavePacket(ctx, pts[len(pts) // 2], 1.0)
    w = ctx.table.window()
    for t in (0.0, 4.0, 9.0):
        phi_free = free_packet(packet, t, w)
        assert (interacting_packet(packet, +1, t, w) - phi_free).norm() < 1e-10
        assert (asymptotic_packet(packet, -1, t, w) - phi_free).norm() < 1e-10


def test_window_sites_cover_classical(a1_setup):
    _, _, ctx, packet = a1_setup
    for t in (4.0, 12.0):
        win = set(window_sites(packet, t))
        assert set(classical_support(packet, t)) <= win


def test_shallow_table_raises(a1):
    par = MacdonaldParams.create(a1, 2.0, 0.5)
    shallow = gram_schmidt(a1, par.cspec(), [(6,), (5,)])
    sym = orbit_symbol(a1, (1,))
    center = np.array([np.pi / 2, -np.pi / 2])  # alcove midpoint, xi = u alpha
    with pytest.raises(TableDepthError):
        run_scattering_diagnostic(shallow, sym, center, 1.0, +1, [32])


def test_diagnostic_report(a1_setup):
    system, sym, ctx, packet = a1_setup
    rep = run_scattering_diagnostic(system, sym, packet.center, 1.0, +1,
                                    [4, 8, 16])
    total = rep.norms["interacting_vs_free"]
    assert all(a > b for a, b in zip(total, total[1:]))
    assert max(max(v) for v in rep.leakages.values()) < 1e-6
    assert "interacting_vs_free" in rep.fits
    payload = rep.to_json()
    assert "norms" in payload and "fits" in payload


def test_diagnostic_builds_once_per_grid(a1_setup, monkeypatch):
    # times 4, 8 and 16 share one grid M: one table, context, packet and
    # set of asymptotic kernels serve them, with the norms of snapshots
    # built afresh for each time
    import alcove.evolution as evolution
    system, sym, ctx, packet = a1_setup
    floor = evolution.grid_floor(system)
    times = [4, 8, 16, 32]
    grids = [evolution.suggest_subdivision(sym, t, floor) for t in times]
    assert grids[0] == grids[1] == grids[2] != grids[3]
    fresh = [evolution._diagnostic_snapshot(system, sym, packet.center, 1.0, +1, t,
                                            floor, {}) for t in times]
    tables, kernels = [], []
    table, wave_values = evolution.WaveTable, evolution.asymptotic_wave_values
    monkeypatch.setattr(evolution, "WaveTable",
                        lambda *args: tables.append(args[1].M) or table(*args))
    monkeypatch.setattr(evolution, "asymptotic_wave_values",
                        lambda *args: kernels.append(args[1].M) or wave_values(*args))
    rep = run_scattering_diagnostic(system, sym, packet.center, 1.0, +1, times)
    assert tables == kernels == [grids[0], grids[3]]
    for name, series in rep.norms.items():
        assert series == [snap[name] for snap in fresh]
    assert rep.leakages["free"] == [snap["leak_free"] for snap in fresh]


def test_reversal_symmetry_b2(b2):
    # with -1 in W and a real bump, phi_-(-t) = det(w0) conj(phi_+(t))
    par = MacdonaldParams.create(b2, {1.0: 0.9, 2.0: 1.4}, 0.5)
    tops = [(10, 10), (11, 9), (9, 11), (12, 8), (8, 12)]
    system = gram_schmidt(b2, par.cspec(), tops)
    sym = orbit_symbol(b2, (1, 0))
    from alcove.scattering import grid_floor
    grid = QuadratureGrid(b2, max(grid_floor(system) + 4, 160))
    ctx = ScatteringContext(WaveTable(system, grid), sym)
    # center a small bump deep inside one component: filter by the pairing
    # depth of grad E, then take the point farthest from the singular set
    bad = grid.xi[~ctx.regular_mask]
    good = np.nonzero(ctx.regular_mask)[0]
    pairdepth = ctx.wall_distance
    cand = good[pairdepth[good] >= 0.6 * pairdepth[good].max()]
    dmin = np.array([np.min(np.linalg.norm(bad - grid.xi[k], axis=1))
                     for k in cand])
    center = grid.xi[cand[int(np.argmax(dmin))]]
    radius = 0.5 * float(np.max(dmin))
    packet = WavePacket(ctx, center, radius, smoothness=4, velocity_margin=0.05)
    w0 = b2.longest_element()
    assert w0.sign == 1  # B2: length of w0 is |R+| = 4
    win = ctx.table.window()
    t = 3.0
    plus = interacting_packet(packet, +1, t, win)
    minus = interacting_packet(packet, -1, -t, win)
    conj_plus = type(plus)(b2, {k: np.conj(v) for k, v in plus.items()})
    assert (minus - conj_plus).norm() < 1e-10 * max(plus.norm(), 1e-30)
    # the classical packet obeys the same reversal (chamber flips by w0)
    cl_minus = classical_packet(packet, -t)
    cl_plus = classical_packet(packet, t)
    conj_cl = type(cl_plus)(b2, {k: np.conj(v) for k, v in cl_plus.items()})
    assert (cl_minus - conj_cl).norm() < 1e-10 * max(cl_plus.norm(), 1e-30)
