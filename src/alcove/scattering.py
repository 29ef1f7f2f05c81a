"""Wave functions, Fourier pairings, and the factorized scattering matrix.

The lattice Hilbert space is l^2 over the dominant cone; the spectral side
is L^2 of the alcove with the normalized Lebesgue measure.  Spectral data is
a complex array over a torus QuadratureGrid that is zero off the open
alcove, so its integral is the plain grid mean.  The Fourier transforms of
lattice functions are W-covariant, f(w xi) = det(w) f(xi), so they vanish
on every wall; the period cell is |W| copies of the alcove, and restricting
them to the alcove loses nothing.
"""

from __future__ import annotations

import functools

import numpy as np

from .harmonic import (LaurentPoly, QuadratureGrid, alternating_sum,
                       chat_values, delta_values, real_valued)
from .laplacian import LatticeFunction
from .orthopoly import OrthoPolySystem
from .qfun import CFunctionSpec, shat_sqrt
from .rootsys import RootSystem, WeylElement, check_bytes


def spectral_norm(values: np.ndarray) -> float:
    """Norm of spectral data (zero off the alcove) in L^2 of the alcove."""
    return float(np.sqrt(np.mean(values * np.conjugate(values)).real))


class WaveTable:
    """Wave-function values of one polynomial system on one grid.

    Implements both Fourier pairings and their inverses.  Psi_lam =
    Delta^{1/2} delta P_lam with P_lam a triangular combination of orbit
    sums m_mu, and the plane wave Psi0_lam is the alternating sum over
    W(rho + lam); so each inverse transform is one grid Fourier transform
    read at integer exponents.
    """

    def __init__(self, system: OrthoPolySystem, grid: QuadratureGrid):
        self.system = system
        self.rs = system.rs
        self.spec: CFunctionSpec = system.spec
        self.grid = grid
        floor = grid_floor(system)
        if grid.M < floor:
            raise ValueError(f"grid M={grid.M} cannot resolve the kernel frequencies "
                             f"of the table; the smallest M that works is {floor}")
        self.sqrt_weight = 1.0 / np.abs(chat_values(self.spec, grid))
        self.delta = delta_values(self.rs, grid)
        self._mono_vals = None
        orbits = [list(m.terms) for m in system.monomials]
        self._orbit_index = grid.flat_index([nu for orb in orbits for nu in orb])
        self._orbit_starts = np.cumsum([0] + [len(orb) for orb in orbits[:-1]])
        group = self.rs.weyl_group()
        self._weyl_matrices = np.array([w.matrix for w in group], dtype=np.int64)
        self._weyl_signs = np.array([w.sign for w in group], dtype=np.int64)

    @property
    def monomial_values(self) -> np.ndarray:
        """(grid.size, n) C-ordered, column j the values of monomials[j],
        built on the first read once its bytes are within the budget."""
        if self._mono_vals is None:
            monos = self.system.monomials
            check_bytes(f"monomial table of {len(monos)} weights on {self.rs._name()} "
                        f"at M={self.grid.M}", 16 * len(monos) * self.grid.size)
            self._mono_vals = np.empty((self.grid.size, len(monos)), dtype=complex)
            self.grid.eval_polys(monos, out=self._mono_vals.T)
        return self._mono_vals

    def poly_values(self, lam) -> np.ndarray:
        i = self.system.index[tuple(lam)]
        return self.monomial_values[:, : i + 1] @ self.system.coeff[i, : i + 1]

    def psi(self, lam) -> np.ndarray:
        return self.sqrt_weight * self.delta * self.poly_values(lam)

    # -- Fourier pairings ------------------------------------------------

    def forward(self, phi: LatticeFunction) -> np.ndarray:
        rows = [self.system.index[lam] for lam, _ in phi.items()]
        c = np.array([v for _, v in phi.items()], dtype=complex)
        poly = self.monomial_values @ (np.conjugate(c) @ self.system.coeff[rows])
        vals = np.conjugate(self.sqrt_weight * self.delta * poly)
        return np.where(self.grid.alcove_mask, vals, 0.0)

    def forward_free(self, phi: LatticeFunction) -> np.ndarray:
        terms: dict = {}
        for lam, c in phi.items():
            shifted = tuple(a + b for a, b in zip(self.rs.rho_coords, lam))
            for mu, s in alternating_sum(self.rs, shifted).terms.items():
                terms[mu] = terms.get(mu, 0) + s * c.conjugate()
        vals = np.conjugate(self.grid.eval_terms(terms))
        return np.where(self.grid.alcove_mask, vals, 0.0)

    def inverse(self, fhat: np.ndarray, window) -> LatticeFunction:
        """Grid means of (fhat on the alcove) * Psi_lam for lam in the window."""
        vals = np.where(self.grid.alcove_mask, fhat, 0.0)
        f = self.grid.fourier(vals * self.sqrt_weight * self.delta)
        orbit_sums = np.add.reduceat(f[self._orbit_index], self._orbit_starts)
        rows = [self.system.index[tuple(lam)] for lam in window]
        return LatticeFunction(self.rs, dict(zip(
            map(tuple, window), self.system.coeff[rows] @ orbit_sums)))

    def inverse_free(self, fhat: np.ndarray, window) -> LatticeFunction:
        """Grid means of (fhat on the alcove) * Psi0_lam for lam in the window."""
        f = self.grid.fourier(np.where(self.grid.alcove_mask, fhat, 0.0))
        shifted = np.reshape(np.asarray(window, dtype=np.int64), (-1, self.rs.rank)) \
            + self.rs.rho_coords
        images = np.einsum("wij,nj->nwi", self._weyl_matrices, shifted)
        coeffs = f[self.grid.flat_index(images)] @ self._weyl_signs
        return LatticeFunction(self.rs, dict(zip(map(tuple, window), coeffs)))

    def window(self) -> list:
        """Default inversion window: every weight of the polynomial table."""
        return list(self.system.weights)


def _kernel_bandwidth(system: OrthoPolySystem) -> int:
    """Largest |coordinate| of any W-image of rho + lam over the table.

    Psi_lam is a combination of e^{i<w(rho+mu), xi>} for mu <= lam, so this
    bounds every kernel frequency.  Two facts make it closed form:

    * for dominant x the largest |basis-coroot coordinate| over W x is
      rs.orbit_reach(x);
    * a weight mu <= lam has rho + mu in the convex hull of W(rho + lam),
      so it never raises the maximum.
    """
    rs = system.rs
    return max(rs.orbit_reach(tuple(a + b for a, b in zip(lam, rs.rho_coords)))
               for lam in system.weights)


def grid_floor(system: OrthoPolySystem) -> int:
    """Smallest grid M on which the table's inverse transforms do not alias."""
    return 2 * _kernel_bandwidth(system) + 2


def plane_wave_values(rs: RootSystem, lam, grid: QuadratureGrid) -> np.ndarray:
    shifted = tuple(a + b for a, b in zip(rs.rho_coords, tuple(lam)))
    return alternating_sum(rs, shifted).eval_grid(grid)


# -- factorized scattering phases -----------------------------------------


def root_half_phases(spec: CFunctionSpec, grid: QuadratureGrid) -> list:
    """(root coordinates, shat_sqrt over the grid) for each root of R1+: the
    per-root factors every S_w^{1/2} is assembled from, each evaluated once
    per distinct phase of its root."""
    rs = grid.rs
    out = []
    for a, c in zip(rs.positive_roots_1, spec.cfunctions):
        ac = rs.root_coords(a)
        out.append((ac, grid.phase_values(
            ac, lambda k: shat_sqrt(c, (2.0 * np.pi / grid.M) * k))))
    return out


def smatrix_factor_half(w: WeylElement, grid: QuadratureGrid, halves) -> np.ndarray:
    """S_w^{1/2}(xi): one scalar phase per root of R1+, conjugated on the
    roots sent to negatives by w.  halves is root_half_phases(spec, grid),
    shared by the calls for every w."""
    rs = grid.rs
    out = np.ones(grid.size, dtype=complex)
    for ac, h in halves:
        if rs._ext_key(w.act(ac)) > 0:
            out *= h
        else:
            out *= np.conjugate(h)
    return out


def smatrix_factor(w: WeylElement, grid: QuadratureGrid, halves) -> np.ndarray:
    h = smatrix_factor_half(w, grid, halves)
    return h * h


def smatrix_factor_direct(spec: CFunctionSpec, w: WeylElement,
                          grid: QuadratureGrid) -> np.ndarray:
    """S_w(xi) = C(w xi) / C(-w xi), computed without the root factorization."""
    rs = grid.rs
    winv = w.inverse()
    num = np.ones(grid.size, dtype=complex)
    den = np.ones(grid.size, dtype=complex)
    for a, c in zip(rs.positive_roots_1, spec.cfunctions):
        b = winv.act(rs.root_coords(a))
        z = grid.exponential(np.negative(b))
        num *= c._eval_raw(z)
        den *= c._eval_raw(np.conjugate(z))
    return num / den


def asymptotic_wave_values(lambdas, grid: QuadratureGrid, halves) -> list:
    """Psi^infty_lam = sum_w det(w) S_w^{1/2}(xi) e^{i<rho+lam, w xi>} for
    each lam of lambdas; each S_w^{1/2} is computed once per call, from the
    per-root phases halves = root_half_phases(spec, grid)."""
    rs = grid.rs
    terms = [(w.sign * smatrix_factor_half(w, grid, halves), w.inverse())
             for w in rs.weyl_group()]
    values = []
    for lam in lambdas:
        shifted = tuple(a + b for a, b in zip(rs.rho_coords, tuple(lam)))
        out = np.zeros(grid.size, dtype=complex)
        for signed_half, winv in terms:
            out += signed_half * grid.exponential(winv.act(shifted))
        values.append(out)
    return values


def convergence_report(table: WaveTable, lambdas) -> dict:
    """Norms ||Psi_lam - Psi^infty_lam|| along a ray, with a log-linear fit."""
    ms, norms = [], []
    table.monomial_values  # built first: an oversized table is refused before the plane waves
    asymptotic = asymptotic_wave_values(
        lambdas, table.grid, root_half_phases(table.spec, table.grid))
    for lam, psi_inf in zip(lambdas, asymptotic):
        ms.append(float(table.rs.min_coroot_pairing(tuple(lam))))
        norms.append(spectral_norm(
            np.where(table.grid.alcove_mask, table.psi(lam) - psi_inf, 0.0)))
    y = np.log(np.maximum(norms, 1e-300))
    slope, intercept, ss_res = linear_fit(np.array(ms), y)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"lambdas": [tuple(l) for l in lambdas], "m": ms, "norms": norms,
            "slope": slope, "intercept": intercept, "r_squared": r2}


def linear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope x + intercept; returns it with its RSS."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    rss = float(np.sum((y - a @ coef) ** 2))
    return float(coef[0]), float(coef[1]), rss


# -- regular sector and the scattering matrix ------------------------------


class RegularSectorError(ValueError):
    pass


# a grid point is regular when its wall_distance, the minimum over R+ of
# |<grad E, alpha^vee>|, is above this
REGULARITY_TOL = 1e-10


def symbol_geometry(symbol: LaurentPoly, grid: QuadratureGrid):
    """(gradient, pairings, wall_distance, regular_mask) of a real symbol E
    over the grid: grad E, shape (npoints, ambient_dim), its pairings
    <grad E, alpha^vee> with the positive coroots, their least modulus, and
    the alcove points where that is above REGULARITY_TOL."""
    rs = symbol.rs
    grad = np.zeros((grid.size, rs.dim), dtype=complex)
    for (mu, c), vec in zip(symbol.terms.items(), rs.float_weights(list(symbol.terms))):
        grad += (1j * complex(c) * grid.exponential(mu))[:, None] * vec
    pair = grad.real @ rs.positive_coroots_f.T
    distance = np.min(np.abs(pair), axis=1)
    return grad.real, pair, distance, grid.alcove_mask & (distance > REGULARITY_TOL)


class ScatteringContext:
    """Wave table plus a real symbol: regular sector, S_L, wave operators.

    The regular sector is labelled once: a regular grid point carries the
    label of the sign pattern of <grad E, alpha^vee> over R+ (the Weyl
    chamber grad E lies in), other points carry -1, and each label has one
    sector element.
    """

    def __init__(self, table: WaveTable, symbol: LaurentPoly):
        if not real_valued([symbol]):
            raise ValueError("scattering needs a real multiplication symbol")
        self.table = table
        self.rs = table.rs
        self.grid = table.grid
        self.symbol = symbol
        self.symbol_values = symbol.eval_grid(self.grid).real
        self.gradient, pair, self.wall_distance, self.regular_mask = \
            symbol_geometry(symbol, self.grid)
        regular = np.nonzero(self.regular_mask)[0]
        _, first, labels = np.unique(pair[regular] > 0, axis=0, return_index=True,
                                     return_inverse=True)
        self.sector_labels = np.full(self.grid.size, -1)
        self.sector_labels[regular] = labels.reshape(-1)
        self.sector_elements = [self.sector_element(int(k)) for k in regular[first]]
        self._half_cache: dict = {}

    def sector_element(self, k: int) -> WeylElement:
        """The Weyl element taking grad E at grid point k into the open chamber."""
        if not self.regular_mask[k]:
            raise RegularSectorError(f"grid point {k} is not in the regular sector")
        _, word = self.rs.dominantize((self.rs.basis_coroots_f @ self.gradient[k]).tolist(),
                                      REGULARITY_TOL)
        return self.rs.element(reversed(word))

    def regular_sector_element(self, k: int) -> WeylElement:
        """The sector element of grid point k's label."""
        label = self.sector_labels[k]
        if label < 0:
            raise RegularSectorError(f"grid point {k} is not in the regular sector")
        return self.sector_elements[label]

    @functools.cached_property
    def halves(self) -> list:
        return root_half_phases(self.table.spec, self.grid)

    def _half_factor(self, w: WeylElement) -> np.ndarray:
        arr = self._half_cache.get(w.matrix)
        if arr is None:
            arr = smatrix_factor_half(w, self.grid, self.halves)
            self._half_cache[w.matrix] = arr
        return arr

    def smatrix_at(self, k: int) -> complex:
        """S_L at regular grid point k, the square of its S_w^{1/2}(xi_k)."""
        return self._half_factor(self.regular_sector_element(k))[k] ** 2

    def smatrix_apply(self, fhat: np.ndarray, power: float) -> np.ndarray:
        """(S_L^p fhat)(xi) = S_{w_xi}^p(xi) fhat(xi) on the regular sector.

        Grid points outside the regular sector are zeroed; packets must keep
        their support away from the singular set.
        """
        if power not in (1.0, -1.0, 0.5, -0.5):
            raise ValueError("power must be one of +-1, +-1/2")
        vals = np.where(self.regular_mask, fhat, 0.0)
        out = np.zeros_like(vals)
        active = np.nonzero(vals)[0]
        labels = self.sector_labels[active]
        for label in sorted(set(labels.tolist())):
            ks = active[labels == label]
            f = self._half_factor(self.sector_elements[label])[ks]
            f = np.conjugate(f) if power < 0 else f
            out[ks] = (f ** 2 if abs(power) == 1.0 else f) * vals[ks]
        return out

    # -- wave and scattering operators ---------------------------------

    def wave_operator_apply(self, phi: LatticeFunction, sign: int,
                            window=None) -> LatticeFunction:
        """Omega_{+-} phi = F^{-1} S_L^{-+1/2} F^{(0)} phi (sign = +1 or -1)."""
        window = self.table.window() if window is None else window
        fhat = self.smatrix_apply(self.table.forward_free(phi), -0.5 * sign)
        return self.table.inverse(fhat, window)

    def scattering_operator_apply(self, phi: LatticeFunction,
                                  window=None) -> LatticeFunction:
        """S_L phi = (F^{(0)})^{-1} S_L F^{(0)} phi."""
        window = self.table.window() if window is None else window
        fhat = self.smatrix_apply(self.table.forward_free(phi), 1.0)
        return self.table.inverse_free(fhat, window)
