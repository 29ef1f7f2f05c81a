"""Discrete (pseudo) Laplacians on the cone of dominant weights.

Lattice functions are finitely supported complex functions on P+.  Three
explicit actions are implemented: the free Laplacian (orbit sums with the
reflection boundary rule), the sinh-deformed hopping Laplacian attached to
a (quasi-)minuscule orbit on reduced systems, and its four-parameter BC_N
counterpart.  The generic pseudo Laplacian -- the pullback of a spectral
multiplier through the polynomial Fourier transform -- is realized by
quadrature through a wave table and cross-validates the explicit forms.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonic import orbit_symbol
from .orthopoly import (KoornwinderParams, MacdonaldParams, PolyParams,
                        hopping_coefficient)
from .rootsys import RootSystem, check_bytes


class LatticeFunction:
    """Sparse complex function on the dominant cone (zero entries pruned)."""

    __slots__ = ("rs", "data")

    def __init__(self, rs: RootSystem, data: dict):
        self.rs = rs
        self.data = {tuple(k): complex(v) for k, v in data.items() if v != 0}

    @classmethod
    def indicator(cls, rs, lam):
        return cls(rs, {tuple(lam): 1.0})

    def items(self):
        return self.data.items()

    def get(self, lam) -> complex:
        return self.data.get(tuple(lam), 0j)

    def support(self):
        return set(self.data)

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.data.values()))

    def __sub__(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0j) - v
        return LatticeFunction(self.rs, out)

    def restricted(self, window) -> "LatticeFunction":
        win = {tuple(w) for w in window}
        return LatticeFunction(self.rs, {k: v for k, v in self.data.items() if k in win})

    def __repr__(self):
        return f"LatticeFunction({self.rs._name()}, {len(self.data)} sites)"


def localization_support(rs: RootSystem, lam, r: int) -> set:
    """Dominant mu with mu <= lam + w_r and mu - w0(w_r) >= lam.

    This is the largest set the pseudo Laplacian attached to the r-th
    fundamental orbit can reach from site lam under the dominance order.
    """
    lam = tuple(lam)
    omega = tuple(1 if j == r else 0 for j in range(rs.rank))
    top = tuple(a + b for a, b in zip(lam, omega))
    w0 = rs.longest_element()
    w0_omega = w0.act(omega)
    out = set()
    for mu in rs.saturated_weights([top]):
        shifted = tuple(a - b for a, b in zip(mu, w0_omega))
        if rs.dominance_leq(lam, shifted):
            out.add(mu)
    return out


def orbit_with_negatives(rs: RootSystem, pi) -> list:
    """W(pi) and W(-pi) in sorted order: the exponents of orbit_symbol."""
    return sorted(orbit_symbol(rs, pi).terms)


def hopping_orbit(rs: RootSystem, pi) -> list:
    """The hops of the Laplacian attached to pi: W(pi) on BC_N, and
    W(pi) u W(-pi), sorted, on reduced systems."""
    if rs.label.startswith("BC"):
        return sorted(rs.weyl_orbit(tuple(pi)))
    return orbit_with_negatives(rs, pi)


# ---------------------------------------------------------------------------
# free Laplacians


def apply_free(rs: RootSystem, pi, phi: LatticeFunction) -> LatticeFunction:
    """Free Laplacian: fold the orbit sum back with the reflection rule.

    For mu outside the cone, phi_mu is read as det(w) phi_{w(rho+mu)-rho}
    when rho+mu is regular and as 0 otherwise.  On BC_N this reproduces the
    plain truncated sum over W(pi).
    """
    orbit = hopping_orbit(rs, pi)
    rho = rs.rho_coords
    candidates = set()
    group = rs.weyl_group()
    for mu in phi.support():
        shifted = tuple(a + b for a, b in zip(rho, mu))
        for w in group:
            img = w.act(shifted)
            base = tuple(a - b for a, b in zip(img, rho))
            for nu in orbit:
                lam = tuple(a - b for a, b in zip(base, nu))
                if rs.is_dominant(lam):
                    candidates.add(lam)
    out = {}
    for lam in candidates:
        acc = 0j
        for nu in orbit:
            kappa = tuple(a + b for a, b in zip(lam, nu))
            if rs.is_dominant(kappa):
                acc += phi.get(kappa)
                continue
            shifted = tuple(a + b for a, b in zip(rho, kappa))
            dom, sign, regular = rs.dominant_representative(shifted)
            if not regular:
                continue
            back = tuple(a - b for a, b in zip(dom, rho))
            acc += sign * phi.get(back)
        if acc != 0:
            out[lam] = acc
    return LatticeFunction(rs, out)


def short_simple_perp_count(rs: RootSystem, lam) -> int:
    """Number of short simple roots orthogonal to lam (all count as short
    when the system is simply laced)."""
    shortest = rs.simple_len2.min()
    return sum(1 for l, c in zip(rs.simple_len2, lam) if l == shortest and c == 0)


def apply_free_closed(rs: RootSystem, pi, phi: LatticeFunction) -> LatticeFunction:
    """The boundary rule in closed form: -n_pi(lam) phi_lam plus the
    truncated orbit sum (reduced systems, pi (quasi-)minuscule)."""
    orbit = hopping_orbit(rs, pi)
    diagonal = not rs.label.startswith("BC") and \
        tuple(pi) not in {tuple(m) for m in rs.minuscule_weights()}
    out = {}
    sites = set(phi.support())
    for mu in phi.support():
        for nu in orbit:
            lam = tuple(a - b for a, b in zip(mu, nu))
            if rs.is_dominant(lam):
                sites.add(lam)
    for lam in sites:
        acc = 0j
        if diagonal:
            acc -= short_simple_perp_count(rs, lam) * phi.get(lam)
        for nu in orbit:
            kappa = tuple(a + b for a, b in zip(lam, nu))
            if rs.is_dominant(kappa):
                acc += phi.get(kappa)
        if acc != 0:
            out[lam] = acc
    return LatticeFunction(rs, out)


# ---------------------------------------------------------------------------
# deformed hopping Laplacians


def diagonal_shift(params: PolyParams, pi) -> float:
    """E_pi(rho_g^vee): the exponential orbit sum at the deformed half-sum."""
    rs = params.rs
    rho_gv = params.rho_g_vee()
    s = params.s
    return float(sum(math.exp(s * float(np.dot(nu_vec, rho_gv)))
                     for nu_vec in rs.float_weights(hopping_orbit(rs, pi))))


def _rate(params, lam, nu) -> float:
    """V_nu(rho_g+lam), evaluated once per parameters, site and hop."""
    key = (lam, nu)
    rate = params._hop_rates.get(key)
    if rate is None:
        x = params.rho_g() + params.rs.float_weight(lam)
        rate = hopping_coefficient(params, nu, x)
        if rate < 0:
            raise ArithmeticError(
                f"negative hopping radicand at lam={lam}, nu={nu}: {rate}")
        params._hop_rates[key] = rate
    return rate


def apply_macdonald_ruijsenaars(params: MacdonaldParams, pi,
                                phi: LatticeFunction) -> LatticeFunction:
    """Hopping action of the deformed Laplacian on a reduced system.

    L phi_lam = E_pi(rho_g^vee) phi_lam
        + sum_{nu in W(pi) u W(-pi), kappa = lam+nu in P+}
              ( sqrt(V_nu(rho_g+lam) V_-nu(rho_g+kappa)) phi_kappa
                - V_nu(rho_g+lam) phi_lam ).
    """
    if isinstance(params, KoornwinderParams):
        raise ValueError("use apply_koornwinder for BC_N")
    return _apply_hopping(params, pi, phi)


def apply_koornwinder(params: KoornwinderParams, phi: LatticeFunction) -> LatticeFunction:
    """Hopping action of the four-parameter BC_N Laplacian (pi = omega_1)."""
    pi = tuple(1 if j == 0 else 0 for j in range(params.rs.rank))
    return _apply_hopping(params, pi, phi)


def _apply_hopping(params, pi, phi):
    rs = params.rs
    orbit = hopping_orbit(rs, pi)
    shift = diagonal_shift(params, pi)
    sites = set(phi.support())
    for mu in phi.support():
        for nu in orbit:
            lam = tuple(a - b for a, b in zip(mu, nu))
            if rs.is_dominant(lam):
                sites.add(lam)
    out = {}
    for lam in sites:
        acc = shift * phi.get(lam)
        for nu in orbit:
            kappa = tuple(a + b for a, b in zip(lam, nu))
            if not rs.is_dominant(kappa):
                continue
            # the partner rate is kappa's own rate for the hop back to lam
            rate = _rate(params, lam, nu)
            back = _rate(params, kappa, tuple(-c for c in nu))
            acc += math.sqrt(rate) * math.sqrt(back) * phi.get(kappa)
            acc -= rate * phi.get(lam)
        if acc != 0:
            out[lam] = acc
    return LatticeFunction(rs, out)


# ---------------------------------------------------------------------------
# pseudo Laplacians through the Fourier transform


def apply_fourier_conjugated(table, symbol, phi: LatticeFunction,
                             window=None) -> LatticeFunction:
    """F^{-1} (E . F phi) by quadrature, on a window of dominant weights.

    ``table`` is a scattering.WaveTable whose polynomial system must contain
    the support of phi and the requested window.
    """
    missing = [lam for lam in phi.support() if lam not in table.system.index]
    if missing:
        raise KeyError(f"polynomial table does not contain {missing[:3]}")
    if window is None:
        window = table.window()
    return table.inverse(symbol.eval_grid(table.grid) * table.forward(phi), window)


def commutator_residual(table, sym_a, sym_b, phi: LatticeFunction,
                        window=None) -> float:
    """|| L_a L_b phi - L_b L_a phi || / ||phi|| through the conjugated action."""
    ab = apply_fourier_conjugated(table, sym_a,
                                  apply_fourier_conjugated(table, sym_b, phi, window),
                                  window)
    ba = apply_fourier_conjugated(table, sym_b,
                                  apply_fourier_conjugated(table, sym_a, phi, window),
                                  window)
    return (ab - ba).norm() / phi.norm()


def operator_matrix(apply_fn, rs: RootSystem, sites) -> np.ndarray:
    """Matrix of a lattice operator on an explicit list of dominant sites;
    its n^2 complex entries are checked against the byte budget first."""
    sites = [tuple(s) for s in sites]
    n = len(sites)
    check_bytes(f"operator matrix on {n} sites of {rs._name()}", 16 * n * n)
    index = {s: i for i, s in enumerate(sites)}
    mat = np.zeros((n, n), dtype=complex)
    for j, s in enumerate(sites):
        img = apply_fn(LatticeFunction.indicator(rs, s))
        for lam, v in img.items():
            i = index.get(lam)
            if i is not None:
                mat[i, j] = v
    return mat


def interior_sites(rs: RootSystem, sites, orbit) -> list:
    """Sites whose full hopping neighborhood stays inside the site list.

    Rows of a truncated operator matrix indexed outside this set see the
    truncation edge and are excluded from symmetry and spectrum tests.
    """
    siteset = {tuple(s) for s in sites}
    out = []
    for s in sites:
        ok = True
        for nu in orbit:
            kappa = tuple(a + b for a, b in zip(s, nu))
            if rs.is_dominant(kappa) and kappa not in siteset:
                ok = False
                break
        if ok:
            out.append(tuple(s))
    return out


__all__ = [
    "LatticeFunction", "localization_support", "orbit_with_negatives",
    "hopping_orbit",
    "apply_free", "apply_free_closed", "short_simple_perp_count",
    "diagonal_shift",
    "apply_macdonald_ruijsenaars", "apply_koornwinder",
    "apply_fourier_conjugated", "commutator_residual",
    "operator_matrix", "interior_sites",
]
