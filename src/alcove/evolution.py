"""Time-dependent wave packets and the finite-time scattering diagnostics.

A wave packet is a compactly supported bump on one connected component of
the regular sector.  Four evolutions are compared: the free packet, the
interacting packets (with the half-power scattering matrix inserted), the
single-chamber classical packet transported at the group velocity, and the
asymptotic packet (interacting kernel replaced by its plane-wave limit).
The diagnostics measure the telescoping norms whose decay drives the
existence of the wave operators, together with unitarity and window
leakage, and fit power-law / exponential decay rates to each.  A packet's
spectral data is a plain alcove array, and its image under S_L^{-+1/2} is
computed once per sign and shared by every time on its grid.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonic import LaurentPoly, QuadratureGrid
from .laplacian import LatticeFunction
from .orthopoly import OrthoPolySystem
from .scattering import (ScatteringContext, WaveTable, asymptotic_wave_values,
                         grid_floor, linear_fit, spectral_norm)


# fraction of the bump radius on which the profile is 1
PLATEAU = 0.5
# the packet support keeps this many grid cells from the singular set
WALL_CELLS = 2
# smallest grid subdivision of a diagnostic snapshot
MIN_SUBDIVISION = 64
# largest relative Parseval defect of a valid snapshot
LEAK_TOL = 1e-6


class PacketError(RuntimeError):
    pass


class TableDepthError(PacketError):
    """The polynomial table does not reach every site a snapshot needs."""


def smoothstep(u: np.ndarray, k: int) -> np.ndarray:
    """Polynomial step: 0 at u<=0, 1 at u>=1, C^k at both ends."""
    x = np.clip(u, 0.0, 1.0)
    acc = np.zeros_like(x)
    for j in range(k + 1):
        acc += math.comb(k + j, j) * math.comb(2 * k + 1, k - j) * (-x) ** j
    return x ** (k + 1) * acc


def bump_profile(dist: np.ndarray, radius: float, k: int) -> np.ndarray:
    """Plateau bump: 1 inside PLATEAU*radius, smooth C^k taper to 0 at radius."""
    u = (radius - dist) / (radius * (1.0 - PLATEAU))
    return smoothstep(u, k)


class WavePacket:
    """Bump test function inside one component of the regular sector.

    Carries the component's Weyl element, the inflated velocity box of
    grad E over the support, and the chamber-interior margin epsilon.  Its
    spectral data is real and zero off the regular sector.
    """

    def __init__(self, ctx: ScatteringContext, center, radius: float,
                 smoothness: int = 6, velocity_margin: float = 0.1):
        self.ctx = ctx
        self.grid = ctx.grid
        self.rs = ctx.rs
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.smoothness = int(smoothness)

        dist = np.linalg.norm(self.grid.xi - self.center[None, :], axis=1)
        inside = (dist < self.radius) & ctx.regular_mask
        if not np.any(inside):
            raise PacketError("packet support contains no regular grid points")
        vals = np.zeros(self.grid.size)
        vals[inside] = bump_profile(dist[inside], self.radius, self.smoothness)
        self.values = vals
        self.support = np.nonzero(vals)[0]

        labels = sorted(set(ctx.sector_labels[self.support].tolist()))
        if len(labels) != 1:
            raise PacketError(
                "support meets several sector components: "
                f"{[ctx.sector_elements[label].word for label in labels]}")
        self.what = ctx.regular_sector_element(int(self.support[0]))
        self._check_wall_margin(WALL_CELLS)

        grads = ctx.gradient[self.support]
        lo = grads.min(axis=0)
        hi = grads.max(axis=0)
        pad = velocity_margin * (hi - lo + np.linalg.norm(0.5 * (hi + lo)))
        self.v_lo = lo - pad
        self.v_hi = hi + pad
        self.eps_chamber = self._chamber_margin()
        if self.eps_chamber <= 0:
            raise PacketError(
                "velocity box touches a chamber wall; shrink the packet")
        self._kernels = None
        self._scattered: dict = {}

    def _check_wall_margin(self, cells: int):
        offsets = np.array(list(itertools.product(range(-cells, cells + 1),
                                                  repeat=self.rs.rank)))
        points = np.stack(np.unravel_index(self.support, self.grid.shape), axis=-1)
        nbs = points[:, None, :] + offsets[None, :, :]
        if not np.all(self.ctx.regular_mask[self.grid.flat_index(nbs)]):
            raise PacketError(
                "packet support is within %d cells of the singular set" % cells)

    def _chamber_margin(self) -> float:
        corners = itertools.product(*zip(self.v_lo, self.v_hi))
        eps = math.inf
        rows = self.rs.coroot_pairings[self.rs.positive_rows].tolist()
        for corner in corners:
            # <w v, alpha^vee> from the weight coordinates of w v
            coords = self.what.act(self.rs.basis_coroots_f @ corner)
            for row in rows:
                eps = min(eps, float(sum(p * c for p, c in zip(row, coords))))
        return eps

    def asymptotic_kernels(self, window) -> list:
        """asymptotic_wave_values of the window on the packet's grid, built
        on the first call and kept for later calls with the same window."""
        key = [tuple(lam) for lam in window]
        if self._kernels is None or self._kernels[0] != key:
            self._kernels = (key, asymptotic_wave_values(
                window, self.grid, self.ctx.halves))
        return self._kernels[1]

    def spectral(self) -> np.ndarray:
        return self.values.astype(complex)

    def scattered(self, sign: int) -> np.ndarray:
        """S_L^{-+1/2} of the packet (sign = +1 or -1), once per sign: it does
        not depend on the time."""
        if sign not in self._scattered:
            self._scattered[sign] = self.ctx.smatrix_apply(self.spectral(), -0.5 * sign)
        return self._scattered[sign]

    def norm(self) -> float:
        return spectral_norm(self.spectral())

    def chamber_element(self, t: float):
        """The Weyl element whose chamber carries the packet at time t."""
        if t > 0:
            return self.what
        return self.rs.element(self.rs.longest_element().word + self.what.word)


# ---------------------------------------------------------------------------
# lattice windows


def _coord_bounds(packet: WavePacket, t: float, inflation: float, margin: int):
    rs = packet.rs
    w = packet.chamber_element(t)
    center = 0.5 * (packet.v_lo + packet.v_hi)
    half = 0.5 * (packet.v_hi - packet.v_lo) * inflation
    lo, hi = center - half, center + half
    corners = itertools.product(*zip(lo, hi))
    cmin = np.full(rs.rank, math.inf)
    cmax = np.full(rs.rank, -math.inf)
    for corner in corners:
        coords = t * np.array(w.act(rs.basis_coroots_f @ corner))
        cmin = np.minimum(cmin, coords)
        cmax = np.maximum(cmax, coords)
    rho = np.array(rs.rho_coords)
    lo_i = np.floor(cmin - rho).astype(int) - margin
    hi_i = np.ceil(cmax - rho).astype(int) + margin
    return np.maximum(lo_i, 0), np.maximum(hi_i, 0)


def window_sites(packet: WavePacket, t: float, inflation: float = 1.5,
                 margin: int = 10) -> list:
    """Dominant weights covering t * (inflated velocity box) plus a margin."""
    lo, hi = _coord_bounds(packet, t, inflation, margin)
    # the bounds are clipped at 0, and the product of ascending ranges is sorted
    return list(itertools.product(*map(range, lo.tolist(), (hi + 1).tolist())))


def classical_support(packet: WavePacket, t: float) -> list:
    """{lam : rho + lam in t * w(V_clas)} with w the time-oriented element."""
    if t == 0:
        raise ValueError("classical support is defined for t != 0")
    rs = packet.rs
    w = packet.chamber_element(t)
    winv = w.inverse()
    out = []
    for lam in window_sites(packet, t, inflation=1.0, margin=2):
        u = rs.float_weight(winv.act(tuple(a + b for a, b in zip(lam, rs.rho_coords)))) / t
        if np.all(u >= packet.v_lo - 1e-12) and np.all(u <= packet.v_hi + 1e-12):
            out.append(lam)
    return sorted(out)


# ---------------------------------------------------------------------------
# the four packets


def _phase_values(packet: WavePacket, t: float) -> np.ndarray:
    return np.exp(-1j * t * packet.ctx.symbol_values) * packet.values


def free_packet(packet: WavePacket, t: float, window) -> LatticeFunction:
    return packet.ctx.table.inverse_free(_phase_values(packet, t), window)


def interacting_packet(packet: WavePacket, sign: int, t: float,
                       window) -> LatticeFunction:
    missing = [lam for lam in window if lam not in packet.ctx.table.system.index]
    if missing:
        raise TableDepthError(f"polynomial table too shallow for sites {missing[:3]}")
    fhat = packet.scattered(sign) * np.exp(-1j * t * packet.ctx.symbol_values)
    return packet.ctx.table.inverse(fhat, window)


def asymptotic_packet(packet: WavePacket, sign: int, t: float,
                      window) -> LatticeFunction:
    vals = packet.scattered(sign) * np.exp(-1j * t * packet.ctx.symbol_values)
    return LatticeFunction(packet.rs, {
        lam: complex(np.mean(vals * kern))
        for lam, kern in zip(window, packet.asymptotic_kernels(window))})


def classical_packet(packet: WavePacket, t: float) -> LatticeFunction:
    """Single-chamber packet supported on the classically allowed sites."""
    rs = packet.rs
    w = packet.chamber_element(t)
    winv = w.inverse()
    sites = classical_support(packet, t)
    images = [winv.act(tuple(a + b for a, b in zip(lam, rs.rho_coords)))
              for lam in sites]
    f = packet.grid.fourier(_phase_values(packet, t))
    coeffs = f[packet.grid.flat_index(np.reshape(images, (-1, rs.rank)))]
    return LatticeFunction(rs, dict(zip(sites, w.sign * coeffs)))


def classical_projection(phi: LatticeFunction, packet: WavePacket,
                         t: float) -> LatticeFunction:
    return phi.restricted(classical_support(packet, t))


def leakage(packet: WavePacket, phi: LatticeFunction) -> float:
    """Relative Parseval defect of a windowed packet snapshot."""
    ref = packet.norm() ** 2
    return abs(ref - phi.norm() ** 2) / ref


# ---------------------------------------------------------------------------
# diagnostic run


@dataclass
class EvolutionReport:
    times: list
    norms: dict          # series name -> list of norms
    leakages: dict       # packet name -> list of relative defects
    fits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def fit_series(self):
        t = np.array(self.times, dtype=float)
        for name, series in self.norms.items():
            y = np.array(series, dtype=float)
            good = y > 0
            if good.sum() < 2:
                continue
            lt, ly = np.log(t[good]), np.log(y[good])
            p_slope, _, p_res = linear_fit(lt, ly)
            e_slope, _, e_res = linear_fit(t[good], ly)
            self.fits[name] = {
                "power_exponent": p_slope, "power_rss": p_res,
                "exp_rate": e_slope, "exp_rss": e_res,
                "preferred": "exponential" if e_res < p_res else "power",
            }

    @property
    def success(self) -> bool:
        total = self.norms.get("interacting_vs_free", [])
        dec = all(a > b for a, b in zip(total, total[1:]))
        fit = self.fits.get("interacting_vs_free", {})
        return dec and fit.get("power_exponent", 0.0) <= -1.0

    def to_json(self) -> str:
        payload = {"times": self.times, "norms": self.norms,
                   "leakages": self.leakages, "fits": self.fits,
                   "meta": self.meta, "success": self.success}
        return json.dumps(payload, indent=2, sort_keys=True)


def suggest_subdivision(symbol: LaurentPoly, tmax: float, floor: int) -> int:
    """Grid subdivision resolving both the oscillatory phase up to time tmax
    and the kernel frequencies of the polynomial table (floor, its grid_floor)."""
    rs = symbol.rs
    vmax = 0.0
    for j in range(rs.rank):
        vmax = max(vmax, sum(abs(complex(c)) * abs(mu[j])
                             for mu, c in symbol.terms.items()))
    m = max(MIN_SUBDIVISION, int(math.ceil(8.0 * tmax * vmax)), floor + 2)
    return m + m % 2


def _diagnostic_snapshot(system, symbol, center, radius, sign, t, floor, packets):
    """The norms and leakages at time t.  packets maps a grid M to the packet
    built on it: times that share a grid share its table, context, packet
    and asymptotic kernels.  Only the latest grid is kept, since the times
    ascend and M never falls."""
    m = suggest_subdivision(symbol, abs(t), floor)
    if m not in packets:
        packets.clear()
        ctx = ScatteringContext(WaveTable(system, QuadratureGrid(system.rs, m)), symbol)
        packets[m] = WavePacket(ctx, center, radius)
    packet = packets[m]
    # the moving box window truncates the packet's intrinsic band tail, so
    # mass bookkeeping runs on the full table window instead
    box = set(window_sites(packet, t))
    window = list(system.weights)
    if not box <= set(window):
        raise TableDepthError("polynomial table too shallow for the time ladder")
    phi_free = free_packet(packet, t, window)
    phi_int = interacting_packet(packet, sign, t, window)
    phi_as = asymptotic_packet(packet, sign, t, window)
    phi_cl = classical_packet(packet, t)
    return {
        "interacting_vs_free": (phi_int - phi_free).norm(),
        "free_vs_classical": (phi_free - phi_cl).norm(),
        "asymptotic_vs_classical": (phi_as - phi_cl).norm(),
        "interacting_vs_asymptotic": (phi_int - phi_as).norm(),
        "projected_interacting_vs_asymptotic":
            classical_projection(phi_int - phi_as, packet, t).norm(),
        "leak_free": leakage(packet, phi_free),
        "leak_interacting": leakage(packet, phi_int),
    }


def run_scattering_diagnostic(system: OrthoPolySystem, symbol: LaurentPoly,
                              center, radius: float, sign: int,
                              times) -> EvolutionReport:
    """Compare the four packet evolutions across a ladder of positive times.

    Each snapshot is taken at sign * t: Omega_- is the limit t -> -infinity.
    The polynomial table must already contain every window site of the
    largest time; a shallow table raises TableDepthError.
    """
    times = sorted(times)
    names = ["interacting_vs_free", "free_vs_classical",
             "asymptotic_vs_classical", "interacting_vs_asymptotic",
             "projected_interacting_vs_asymptotic"]
    meta = {"sign": sign, "center": [float(c) for c in center], "radius": radius,
            "times": list(times)}
    floor = grid_floor(system)
    packets: dict = {}
    snaps = [_diagnostic_snapshot(system, symbol, center, radius, sign, sign * t, floor,
                                  packets)
             for t in times]

    norms = {n: [s[n] for s in snaps] for n in names}
    leaks = {"free": [s["leak_free"] for s in snaps],
             "interacting": [s["leak_interacting"] for s in snaps]}
    for t, s in zip(times, snaps):
        if max(s["leak_free"], s["leak_interacting"]) > LEAK_TOL:
            meta["invalid"] = f"window leakage above {LEAK_TOL} at t={t}"
    report = EvolutionReport(list(times), norms, leaks, meta=meta)
    report.fit_series()
    return report
