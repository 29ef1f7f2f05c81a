"""Orthonormal polynomials on the alcove and their closed-form data.

The primary construction is Gram-Schmidt on the monomial symmetric basis,
ordered by a linear extension of the dominance order, with inner products
from torus quadrature; for unit weights the orthonormal polynomials are the
Weyl characters, whose exact weight multiplicities are used directly.  For
the q-Pochhammer weights the orthonormalized polynomials admit closed-form
norm constants; those are implemented here together with residual checks
for the classical identities they satisfy (specialization, symmetry,
difference equation, recurrence).  Their plane-wave limit is not a
polynomial here: scattering evaluates it on the grid, with the exact
c-functions (asymptotic_wave_values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .harmonic import (MAX_M, LaurentPoly, check_ladder, gram_ladder, monomial_symmetric,
                       orbit_first_rung, weight_multiplicities)
from .qfun import (CFunctionSpec, koornwinder_factors, koornwinder_spec,
                   macdonald_factors, macdonald_spec, qpochhammer_inf)
from .rootsys import RootSystem


# ---------------------------------------------------------------------------
# parameter sets


class ParameterError(ValueError):
    pass


class _ClosedForms:
    """Closed-form data that depends only on the parameters, computed once per
    parameter object and kept on it (rho_constants and the hop tables).

    root_factors holds one (coroot, factors, k) per root of R1+: the float
    coroot and the factor list of the root's c-function (qfun).
    """

    @property
    def s(self) -> float:
        """s = -log q."""
        return -math.log(self.q)

    def cplus(self, x: np.ndarray) -> float:
        out = 1.0
        for cv, factors, k in self.root_factors:
            out *= _cplus1(factors, k, float(np.dot(x, cv)), self.q)
        return out

    def cminus(self, x: np.ndarray) -> float:
        out = 1.0
        for cv, factors, k in self.root_factors:
            out *= _cminus1(factors, k, float(np.dot(x, cv)), self.q)
        return out

    @cached_property
    def rho_constants(self) -> tuple:
        """c^+(rho_g) and c^-(rho_g), the factors shared by every weight."""
        rho = self.rho_g()
        return self.cplus(rho), self.cminus(rho)

    @cached_property
    def _hop_factors(self) -> dict:
        """Factor list of each hop, filled by hop_factors."""
        return {}

    @cached_property
    def _hop_rates(self) -> dict:
        """V_nu(rho_g+lam) of each (site lam, hop nu), filled by the Laplacians."""
        return {}


@dataclass(frozen=True)
class MacdonaldParams(_ClosedForms):
    """Deformation data for a reduced system: g per root length and q = e^{-s}."""

    rs: RootSystem
    q: float
    g_by_len2: tuple

    @classmethod
    def create(cls, rs, g, q):
        if rs.label.startswith("BC"):
            raise ParameterError("MacdonaldParams needs a reduced root system")
        if not 0 < q < 1:
            raise ParameterError(f"q must be in (0,1), got {q}")
        lens = sorted(set(rs.positive_len2.tolist()))
        gmap = dict(g) if isinstance(g, dict) else {l: float(g) for l in lens}
        if sorted(gmap) != lens:
            raise ParameterError(f"need one coupling g per squared root length "
                                 f"{lens}, got {sorted(gmap)}")
        if any(gmap[l] <= 0 for l in lens):
            raise ParameterError("all coupling parameters g must be positive")
        return cls(rs, float(q), tuple(sorted(gmap.items())))

    @cached_property
    def g_roots(self) -> tuple:
        """The coupling of each root of rs.roots, in that order."""
        gmap = dict(self.g_by_len2)
        return tuple(gmap[l] for l in self.rs.root_len2.tolist())

    @cached_property
    def g_positive(self) -> tuple:
        """The coupling of each root of rs.positive_roots, in that order."""
        gmap = dict(self.g_by_len2)
        return tuple(gmap[l] for l in self.rs.positive_len2.tolist())

    def cspec(self) -> CFunctionSpec:
        return macdonald_spec(self.rs, dict(self.g_by_len2), self.q)

    def rho_g(self) -> np.ndarray:
        out = np.zeros(self.rs.dim)
        for g, av in zip(self.g_positive, self.rs.positive_roots_f):
            out += 0.5 * g * av
        return out

    def rho_g_vee(self) -> np.ndarray:
        out = np.zeros(self.rs.dim)
        for g, cv in zip(self.g_positive, self.rs.positive_coroots_f):
            out += 0.5 * g * cv
        return out

    @cached_property
    def root_factors(self) -> tuple:
        return tuple((cv, macdonald_factors(g), 1) for g, cv
                     in zip(self.g_positive, self.rs.positive_coroots_f))

    def dual(self) -> "MacdonaldParams":
        """Parameters on the dual system; each orbit keeps its coupling.

        The same object on every call, so its closed forms are cached too."""
        return self._dual

    @cached_property
    def _dual(self) -> "MacdonaldParams":
        gmap = dict(zip(self.rs.positive_coroot_len2.tolist(), self.g_positive))
        return MacdonaldParams.create(self.rs.dual(), gmap, self.q)


def _cplus1(factors, k, x, q):
    """c^+ of one root at the pairing x > 0."""
    if x <= 0:
        raise ParameterError(f"c^+ argument must be positive, got {x}")
    num = math.prod(float(qpochhammer_inf(s * q ** (g + o + x), q).real)
                    for g, o, s in factors)
    return q ** (sum(g for g, _, _ in factors) * x / 2) * num / \
        float(qpochhammer_inf(q ** (k * x), q).real)


def _cminus1(factors, k, x, q):
    """c^- of one root at the pairing x."""
    den = math.prod(float(qpochhammer_inf(s * q ** (1 - o - g + x), q).real)
                    for g, o, s in factors)
    if den == 0.0:
        raise ParameterError(f"pole of c^- at argument {x} ({factors})")
    return q ** (sum(g for g, _, _ in factors) * x / 2) * \
        float(qpochhammer_inf(q ** (1 + k * x), q).real) / den


@dataclass(frozen=True)
class KoornwinderParams(_ClosedForms):
    """Five-parameter data of the nonreduced case.

    ghat, ghat0..ghat3 sit on the spectral (c-function) side; the dual
    parameters g, g0..g3 enter the lattice-side constants via the linear
    relations of the duplication-type involution.
    """

    rs: RootSystem
    q: float
    ghat: float
    gh: tuple  # (ghat0, ghat1, ghat2, ghat3)

    @classmethod
    def create(cls, rs, ghat, gh0123, q):
        if not rs.label.startswith("BC"):
            raise ParameterError("KoornwinderParams needs a BC_N root system")
        if not 0 < q < 1:
            raise ParameterError(f"q must be in (0,1), got {q}")
        gh = tuple(float(x) for x in gh0123)
        if ghat <= 0 or min(gh) <= 0:
            raise ParameterError("all hat parameters must be positive")
        return cls(rs, float(q), float(ghat), gh)

    @property
    def g(self) -> float:
        return self.ghat

    @property
    def gdual(self) -> tuple:
        h0, h1, h2, h3 = self.gh
        return (0.5 * (h0 + h1 + h2 + h3), 0.5 * (h0 + h1 - h2 - h3),
                0.5 * (h0 - h1 + h2 - h3), 0.5 * (h0 - h1 - h2 + h3))

    def cspec(self) -> CFunctionSpec:
        return koornwinder_spec(self.rs, self.ghat, self.gh, self.q)

    @cached_property
    def _short_long_rows(self):
        """Rows of rs.roots whose coroots are the short and the long roots of
        R1+, each in R1+ order.

        On BC_N the coroots of R0+ are the roots of R1+ (2e_i -> e_i, and
        e_i +- e_j is its own coroot), and within one length the map keeps
        the order.
        """
        rs = self.rs
        reduced = set(rs.positive_roots_0)
        keep = [i for i, a in enumerate(rs.positive_roots) if a in reduced]
        rows = rs.positive_rows[keep]
        len2 = rs.positive_coroot_len2[keep]
        short = len2 == len2.min()
        return rows[short], rows[~short]

    @cached_property
    def _short_long(self):
        """Float rows of the short and the long roots of R1+."""
        return tuple(self.rs.coroots_f[rows] for rows in self._short_long_rows)

    @cached_property
    def root_factors(self) -> tuple:
        """The long roots of R1+ with the Macdonald factor of ghat, then the
        short ones with the Koornwinder factors of the dual couplings."""
        short, long_ = self._short_long
        return tuple([(av, macdonald_factors(self.g), 1) for av in long_]
                     + [(av, koornwinder_factors(*self.gdual), 2) for av in short])

    def rho_g(self) -> np.ndarray:
        short, long_ = self._short_long
        g0 = self.gdual[0]
        out = np.zeros(self.rs.dim)
        for av in long_:
            out += 0.5 * self.g * av
        for av in short:
            out += g0 * av
        return out

    def rho_g_vee(self) -> np.ndarray:
        short, long_ = self._short_long
        out = np.zeros(self.rs.dim)
        for av in long_:
            out += 0.5 * self.ghat * av
        for av in short:
            out += self.gh[0] * av
        return out


PolyParams = MacdonaldParams | KoornwinderParams


@dataclass(frozen=True)
class NormData:
    """Closed-form norm constants: P_lam = N0^{-1/2} Delta(lam)^{1/2} c_lam p_lam."""

    delta: float
    n0: float
    c_lam: float

    @property
    def orthonormal_scale(self) -> float:
        # multiplies the monic polynomial to give the orthonormal one
        return self.delta ** 0.5 * self.c_lam / self.n0 ** 0.5


def norm_constants(params: PolyParams, lam) -> NormData:
    """The closed form at lam; invalid constants raise ParameterError."""
    rho = params.rho_g()
    x = rho + params.rs.float_weight(lam)
    cp0, cm0 = params.rho_constants
    cpl, cml = params.cplus(x), params.cminus(x)
    data = NormData(delta=(cp0 * cm0) / (cpl * cml), n0=cm0 / cp0, c_lam=cpl / cp0)
    if not (data.delta > 0 and data.n0 > 0 and math.isfinite(data.delta)):
        raise ParameterError(f"invalid norm constants at lam={lam}: {data}")
    return data


# ---------------------------------------------------------------------------
# Gram-Schmidt construction


class GramSingularError(RuntimeError):
    def __init__(self, cond):
        super().__init__(f"numerically singular Gram matrix (cond ~ {cond:.3g})")
        self.cond = cond


class OrthoPolySystem:
    """Orthonormal polynomials P_lam on a saturated, linearly ordered weight set.

    coeff[i, j] is the coefficient of monomials[j] = m_{weights[j]} in
    P_{weights[i]}; the matrix is lower triangular with positive diagonal.
    """

    def __init__(self, rs, spec, weights, monomials, coeff, grid_m, cond):
        self.rs = rs
        self.spec = spec
        self.weights = list(weights)
        self.index = {mu: i for i, mu in enumerate(self.weights)}
        self.monomials = monomials
        self.coeff = coeff
        self.grid_m = grid_m
        self.cond = cond
        self._pbold: dict = {}

    def leading(self, lam) -> float:
        i = self.index[tuple(lam)]
        return float(self.coeff[i, i].real)

    def poly(self, lam) -> LaurentPoly:
        return self._combination(self.index[tuple(lam)], 1.0)

    def monic(self, lam) -> LaurentPoly:
        i = self.index[tuple(lam)]
        return self._combination(i, 1.0 / self.coeff[i, i])

    def _combination(self, i: int, scale) -> LaurentPoly:
        """Row i of coeff, times scale, as a sum of monomials; the orbits are
        disjoint, so each one is written straight into the terms."""
        terms: dict = {}
        for mono, c in zip(self.monomials, self.coeff[i, : i + 1] * scale):
            if c != 0:
                terms.update(dict.fromkeys(mono.terms, complex(c)))
        return LaurentPoly(self.rs, terms)

    def pbold(self, params: PolyParams, lam) -> LaurentPoly:
        """c_lam times the monic polynomial, so that its value at i s rho_g^vee
        is 1; built once per parameters and weight."""
        key = (params, tuple(lam))
        if key not in self._pbold:
            self._pbold[key] = self.monic(lam) * norm_constants(params, lam).c_lam
        return self._pbold[key]

    def export_table(self) -> dict:
        """JSON-ready coefficient table keyed by weight coordinates."""
        out = {}
        for i, lam in enumerate(self.weights):
            row = {}
            for j in range(i + 1):
                c = complex(self.coeff[i, j])
                if c != 0:
                    row[",".join(map(str, self.weights[j]))] = [c.real, c.imag]
            out[",".join(map(str, lam))] = row
        return out


def gram_schmidt(rs: RootSystem, spec: CFunctionSpec, tops,
                 tol: float = 1e-11, max_m: int = MAX_M) -> OrthoPolySystem:
    """Orthonormalize the monomial basis below the given top weights, taken
    in the one order of rs.saturated_weights (there is no custom order).

    For the unit weight the orthonormal polynomials are the Weyl characters
    (Weyl orthogonality), so coeff holds their exact integer weight
    multiplicities; otherwise the monomial Gram matrix from the quadrature
    ladder is Cholesky-factored.
    """
    weights = rs.saturated_weights([tuple(t) for t in tops])

    m = orbit_first_rung(rs, weights)
    if not spec.is_unit:
        # refuse a ladder that cannot reach its second rung before any
        # orbit is built
        check_ladder(rs, spec, len(weights), m, max_m)
    monos = [monomial_symmetric(rs, mu) for mu in weights]
    if spec.is_unit:
        coeff = np.array(weight_multiplicities(rs, weights), dtype=float)
        return OrthoPolySystem(rs, spec, weights, monos, coeff, m, 1.0)

    gram, m = gram_ladder(monos, spec, m, tol, max_m)
    gram = 0.5 * (gram.real + gram.real.T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise GramSingularError(np.linalg.cond(gram))
    # the general solve leaves rounding residue above the diagonal
    coeff = np.tril(np.linalg.solve(chol, np.eye(len(weights))))
    return OrthoPolySystem(rs, spec, weights, monos, coeff, m,
                           float(np.linalg.cond(gram)))


# ---------------------------------------------------------------------------
# identity residuals (Appendix-level checks)


def specialization_residual(params: PolyParams, system: OrthoPolySystem, lam) -> float:
    """|P_lam(i s rho_g^vee) - 1| for the normalized polynomial."""
    p = system.pbold(params, lam)
    return abs(p.evaluate(1j * params.s * params.rho_g_vee()) - 1.0)


def symmetry_residual(params: MacdonaldParams, system: OrthoPolySystem,
                      dual_system: OrthoPolySystem, lam, mu) -> float:
    """|P^R_lam(is(rho_g^vee + mu)) - P^{R^vee}_mu(is(rho_g + lam))|."""
    rs = params.rs
    dparams = params.dual()
    lam_vec = rs.float_weight(lam)
    mu_vec = dparams.rs.float_weight(mu)
    p_r = system.pbold(params, lam)
    p_d = dual_system.pbold(dparams, mu)
    lhs = p_r.evaluate(1j * params.s * (params.rho_g_vee() + mu_vec))
    rhs = p_d.evaluate(1j * params.s * (dparams.rho_g_vee() + lam_vec))
    return abs(lhs - rhs)


def _sin_pochhammer(z: np.ndarray, m: int, s: float) -> np.ndarray:
    """prod_{l < m} sin((z + i s l) / 2), elementwise in z."""
    out = np.ones_like(z, dtype=complex)
    for l in range(m):
        out *= np.sin(0.5 * (z + 1j * s * l))
    return out


def _points(xi, dim: int) -> np.ndarray:
    """The spectral points of a residual as an (N, dim) float array; xi is
    one point of shape (dim,) or N points of shape (N, dim)."""
    return np.asarray(xi, dtype=float).reshape(-1, dim)


def _per_point(residuals: np.ndarray, xi):
    """A float for one point of shape (dim,), else the N residuals."""
    return float(residuals[0]) if np.ndim(xi) == 1 else residuals


def _difference_coefficients(params: MacdonaldParams, pts: np.ndarray, orbit) -> np.ndarray:
    """The coefficients c_nu(xi) of the Macdonald difference operator at the
    points pts (N, dim), one column per weight nu of the dual orbit.

    A row (row, factors, m) of hop_factors(params.dual(), nu) is a dual root
    beta = alpha^vee with the coupling g of alpha and m = <nu, alpha>; it
    contributes prod_{l < m} sin((i s (g + l) + z) / 2) / sin((z + i s l) / 2)
    with z = <xi, alpha>, the pairing of xi with the coroot of beta.  This is
    the dual rate continued to -i xi/s, kept in sin form because xi/s*s does
    not round-trip.
    """
    dual = params.dual()
    s = params.s
    za = pts @ dual.rs.coroots_f.T
    out = np.ones((len(pts), len(orbit)), dtype=complex)
    for j, nu in enumerate(orbit):
        for row, _, m in hop_factors(dual, nu):
            den = _sin_pochhammer(za[:, row], m, s)
            if np.any(np.abs(den) < 1e-12):
                raise ValueError("xi lies on a singular hyperplane")
            out[:, j] *= _sin_pochhammer(1j * s * dual.g_roots[row] + za[:, row], m, s) / den
    return out


def macdonald_identity_residual(params: MacdonaldParams, pi_dual, xi):
    """Residual |sum_nu c_nu(xi) - sum_nu q^<nu, rho_g>| of the Macdonald
    identity over the orbit of a minuscule weight pi_dual of R^vee, at the
    spectral points xi: a float for one point of shape (dim,), N floats for
    (N, dim)."""
    dual = params.dual()
    if any(m > 1 for _, _, m in hop_factors(dual, pi_dual)):
        raise ValueError("weight is not minuscule for the dual system")
    pts = _points(xi, params.rs.dim)
    orbit = list(dual.rs.weyl_orbit(tuple(pi_dual)))
    lhs = np.sum(_difference_coefficients(params, pts, orbit), axis=1)
    rhs = np.sum(params.q ** (dual.rs.float_weights(orbit) @ params.rho_g()))
    return _per_point(np.abs(lhs - rhs), xi)


def difference_equation_residual(params: MacdonaldParams, system: OrthoPolySystem,
                                 lam, xi, pi_dual):
    """Residual of the Macdonald difference equation at the spectral points
    xi: a float for one point of shape (dim,), N floats for (N, dim).

    pi_dual is a (quasi-)minuscule weight of the dual system; the equation
    shifts the argument of P_lam by i s nu over the dual orbit.  P_lam is
    evaluated at every point and every shift in one batch, and the
    eigenvalue once for all points.
    """
    rs = params.rs
    rsd = rs.dual()
    pts = _points(xi, rs.dim)
    s, q = params.s, params.q
    rho_g = params.rho_g()
    lam_vec = rs.float_weight(lam)
    orbit = list(rsd.weyl_orbit(tuple(pi_dual)))
    nu_vecs = rsd.float_weights(orbit)
    # column 0: P_lam(xi); column 1 + j: P_lam(xi + i s nu_j)
    shifts = np.vstack([np.zeros(rs.dim), nu_vecs])
    values = system.pbold(params, lam).evaluate(pts[:, None, :] + 1j * s * shifts)
    p_at = values[:, 0]
    coeffv = _difference_coefficients(params, pts, orbit)
    lhs = np.sum(coeffv * (values[:, 1:] - p_at[:, None]), axis=1)
    eigenvalue = np.sum(q ** (nu_vecs @ (lam_vec + rho_g)) - q ** (nu_vecs @ rho_g))
    return _per_point(np.abs(lhs - eigenvalue * p_at), xi)


def hop_factors(params: PolyParams, nu) -> tuple:
    """The factors of V_nu for the integer hop nu, one (row, factors, m) per
    root of rs.roots whose coroot carries one; built once per parameter
    object and hop.  They serve the lattice rates of R (hopping_coefficient)
    and, read on params.dual(), the difference coefficients of R's dual
    (_difference_coefficients).

    Reduced case: every root with m = <nu, alpha^vee> > 0, in rs.roots
    order, with the Macdonald factor of its coupling.  Nonreduced case: the
    root or the negative of each root of R1+ with <nu, alpha^vee> = 1, long
    roots first, with the factors of its c-function (root_factors).
    """
    key = tuple(nu)
    factors = params._hop_factors.get(key)
    if factors is None:
        rs = params.rs
        pairings = (rs.coroot_pairings @ np.asarray(key, dtype=np.int64)).tolist()
        if isinstance(params, KoornwinderParams):
            last = len(rs.roots) - 1
            short, long_ = params._short_long_rows
            factors = tuple((row, f, 1) for rows, f in (
                (long_, macdonald_factors(params.g)),
                (short, koornwinder_factors(*params.gdual)))
                for k in rows.tolist() for row in (k, last - k) if pairings[row] == 1)
        else:
            factors = tuple((row, macdonald_factors(g), m) for row, (m, g)
                            in enumerate(zip(pairings, params.g_roots)) if m > 0)
        params._hop_factors[key] = factors
    return factors


def hopping_coefficient(params: PolyParams, nu, x: np.ndarray) -> float:
    """V_nu(x): the product attached to the integer hop nu.

    A row (row, factors, m) of hop_factors contributes, with x_a the pairing
    of x with the coroot of rs.roots[row], one ratio per l < m: the product
    over the factors (g, o, sign) of f(s(g + o + x_a + l)/2) / f(s(o + x_a + l)/2),
    with s = -log q, and f = sinh for sign +1 and cosh for sign -1.
    """
    s = params.s
    coroots = params.rs.coroots_f
    out = 1.0
    for row, factors, m in hop_factors(params, nu):
        xa = float(np.dot(x, coroots[row]))
        for l in range(m):
            r = 1.0
            for g, o, sign in factors:
                f = math.sinh if sign > 0 else math.cosh
                den = f(0.5 * s * (o + xa + l))
                if abs(den) < 1e-14:
                    raise ZeroDivisionError(f"singular hopping denominator at {o + xa + l}")
                r = r * f(0.5 * s * (g + o + xa + l)) / den
            out *= r
    return out


def pieri_residual(params: PolyParams, system: OrthoPolySystem, lam, xi, pi):
    """Residual of the recurrence (Pieri) relation at the spectral points xi:
    a float for one point of shape (dim,), N floats for (N, dim).  Each
    polynomial is evaluated at all points at once, and each hopping rate
    once for all points."""
    rs = params.rs
    pts = _points(xi, rs.dim)
    lam = tuple(lam)
    orbit = list(rs.weyl_orbit(tuple(pi)))
    nu_vecs = rs.float_weights(orbit)
    x = params.rho_g() + rs.float_weight(lam)
    p_at = system.pbold(params, lam).evaluate(pts)
    symbol = np.sum(np.exp(1j * (pts @ nu_vecs.T)), axis=1)
    lhs = (symbol - np.sum(params.q ** (nu_vecs @ params.rho_g_vee()))) * p_at
    rhs = np.zeros(len(pts), dtype=complex)
    for nu in orbit:
        lam_nu = tuple(a + b for a, b in zip(lam, nu))
        if rs.is_dominant(lam_nu):
            v = hopping_coefficient(params, nu, x)
            rhs += v * (system.pbold(params, lam_nu).evaluate(pts) - p_at)
    return _per_point(np.abs(lhs - rhs), xi)

