"""Independent rank-one reference path (BC_1, with A_1 as a specialization).

Everything here is written directly from the explicit one-variable
formulas: Askey-Wilson polynomials as terminating basic hypergeometric
sums (expanded once per degree into a cosine series), the tridiagonal
lattice operator with its four-factor hopping rate, the wave function
built from the scalar weight, and the reflection scattering phase.
Apart from the q-Pochhammer primitive this module shares no code with the
general-rank machinery, so agreement between the two is a meaningful
cross-check rather than a tautology.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .qfun import qpochhammer_inf


@dataclass(frozen=True)
class Rank1Params:
    """q and the four hat parameters; dual parameters are derived."""

    q: float
    gh0: float
    gh1: float
    gh2: float
    gh3: float

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("q must be in (0,1)")
        if min(self.gh0, self.gh1, self.gh2, self.gh3) <= 0:
            raise ValueError("hat parameters must be positive")

    @classmethod
    def from_a1(cls, g: float, q: float) -> "Rank1Params":
        """A_1 reduction: the q-ultraspherical specialization ghat_i = g/2."""
        return cls(q, g / 2, g / 2, g / 2, g / 2)

    @property
    def s(self) -> float:
        return -math.log(self.q)

    @property
    def dual(self) -> tuple:
        """(g0, g1, g2, g3) from the hat parameters (an involution)."""
        h0, h1, h2, h3 = self.gh0, self.gh1, self.gh2, self.gh3
        return (0.5 * (h0 + h1 + h2 + h3), 0.5 * (h0 + h1 - h2 - h3),
                0.5 * (h0 - h1 + h2 - h3), 0.5 * (h0 - h1 - h2 + h3))


def duality_matrix_is_involution() -> bool:
    """The parameter transform applied twice is the identity, exactly."""
    h = Fraction(1, 2)
    m = [[h, h, h, h], [h, h, -h, -h], [h, -h, h, -h], [h, -h, -h, h]]
    sq = [[sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    return sq == [[Fraction(i == j) for j in range(4)] for i in range(4)]


def askey_wilson(ell: int, xi, p: Rank1Params):
    """The terminating 4phi3 normalized to 1 at the specialization point: a
    complex for one xi, an array for an array of xi.  The sum is expanded
    once per degree (_askey_wilson_cosines); each point costs one cosine
    series in numpy, b_0 + 2 sum_m b_m cos(m xi)."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    b = _askey_wilson_cosines(ell, p)
    xi = np.asarray(xi, dtype=complex)
    values = b[0] + 2.0 * np.cos(np.multiply.outer(xi, np.arange(1, ell + 1))) @ b[1:]
    return complex(values) if xi.ndim == 0 else values


@lru_cache(maxsize=None)
def _askey_wilson_cosines(ell: int, p: Rank1Params) -> np.ndarray:
    """b_0, ..., b_ell with P_ell = sum_{|m| <= ell} b_|m| z^m, z = e^{i xi}:
    the terminating 4phi3 summed term by term in mpmath, each term a
    Laurent polynomial in z, since its factors (1 - a3 q^n)(1 - a4 q^n) with
    a3 = q^gh0 z and a4 = q^gh0 / z are 1 + c^2 - c (z + 1/z), c = q^(gh0 + n)."""
    import mpmath

    # intermediate terms reach ~ q^{-ell(ell-1)/2} and cancel to O(1);
    # sum with enough working digits to absorb the cancellation
    digits = 25 + int(0.6 * ell * (ell + 1) * (-math.log10(p.q)))
    with mpmath.workdps(digits):
        q = mpmath.mpf(p.q)
        g0, g1, g2, g3 = (mpmath.mpf(x) for x in p.dual)
        half = mpmath.mpf("0.5")
        a1 = q ** (-ell)
        a2 = q ** (2 * g0 + ell)
        c = q ** mpmath.mpf(p.gh0)
        bs = (-(q ** (g0 + g1)), q ** (g0 + g2 + half), -(q ** (g0 + g3 + half)))
        # coefficients of z^-ell, ..., z^ell
        term = [mpmath.mpf(0)] * (2 * ell + 1)
        term[ell] = mpmath.mpf(1)
        total = list(term)
        for n in range(ell):
            den = 1 - q ** (n + 1)
            for b in bs:
                factor = 1 - b * q ** n
                if factor == 0:
                    raise ZeroDivisionError(
                        f"lower Pochhammer vanished at n={n} before termination")
                den *= factor
            scale = (1 - a1 * q ** n) * (1 - a2 * q ** n) * q / den
            cn = c * q ** n
            term = [scale * ((1 + cn * cn) * t - cn * (lo + hi))
                    for t, lo, hi in zip(term, [0] + term[:-1], term[1:] + [0])]
            total = [s + t for s, t in zip(total, term)]
        cosines = np.array([float(t) for t in total[ell:]])
    cosines.setflags(write=False)  # shared by every call through the cache
    return cosines


def askey_wilson_recurrence(ell: int, xi, p: Rank1Params) -> complex:
    """Evaluate the same polynomial through the three-term recurrence that
    the tridiagonal lattice operator encodes (eigenvalue 2 cos xi)."""
    q = p.q
    g0 = p.dual[0]
    e = 2.0 * math.cos(float(xi))
    prev = 0.0 + 0j  # P_{-1}
    cur = 1.0 + 0j   # P_0
    for l in range(ell):
        up = math.sqrt(hopping_rate(p, g0 + l)) * \
            math.sqrt(hopping_rate(p, -g0 - l - 1))
        diag = 2.0 * math.cosh(p.s * p.gh0) - hopping_rate(p, g0 + l) \
            - (hopping_rate(p, -g0 - l) if l > 0 else 0.0)
        down = (math.sqrt(hopping_rate(p, -g0 - l)) *
                math.sqrt(hopping_rate(p, g0 + l - 1))) if l > 0 else 0.0
        nxt = ((e - diag) * cur - down * prev) / up
        prev, cur = cur, nxt
    # undo the wave-function normalization: Psi_l = r_l * Pbold_l with
    # r_l = sqrt(Delta(l)); the recurrence above propagates Psi_l / Psi_0
    return cur * math.sqrt(norm_delta(p, 0) / norm_delta(p, ell))


def cplus(p: Rank1Params, x: float) -> float:
    q = p.q
    g0, g1, g2, g3 = p.dual
    num = float(qpochhammer_inf(q ** (g0 + x), q).real)
    num *= float(qpochhammer_inf(-(q ** (g1 + x)), q).real)
    num *= float(qpochhammer_inf(q ** (g2 + 0.5 + x), q).real)
    num *= float(qpochhammer_inf(-(q ** (g3 + 0.5 + x)), q).real)
    return q ** ((g0 + g1 + g2 + g3) * x / 2) * num / \
        float(qpochhammer_inf(q ** (2 * x), q).real)


def cminus(p: Rank1Params, x: float) -> float:
    q = p.q
    g0, g1, g2, g3 = p.dual
    den = float(qpochhammer_inf(q ** (1 - g0 + x), q).real)
    den *= float(qpochhammer_inf(-(q ** (1 - g1 + x)), q).real)
    den *= float(qpochhammer_inf(q ** (0.5 - g2 + x), q).real)
    den *= float(qpochhammer_inf(-(q ** (0.5 - g3 + x)), q).real)
    return q ** ((g0 + g1 + g2 + g3) * x / 2) * \
        float(qpochhammer_inf(q ** (1 + 2 * x), q).real) / den


@lru_cache(maxsize=None)
def norm_n0(p: Rank1Params) -> float:
    g0 = p.dual[0]
    return cminus(p, g0) / cplus(p, g0)


@lru_cache(maxsize=None)
def norm_delta(p: Rank1Params, ell: int) -> float:
    g0 = p.dual[0]
    return (cplus(p, g0) * cminus(p, g0)) / \
        (cplus(p, g0 + ell) * cminus(p, g0 + ell))


def chat(p: Rank1Params, xi) -> complex:
    """The spectral c-function as a function of xi (argument e^{-i xi})."""
    q = p.q
    z = cmath.exp(-1j * complex(xi))
    num = qpochhammer_inf(q ** p.gh0 * z, q)
    num *= qpochhammer_inf(-(q ** p.gh1) * z, q)
    num *= qpochhammer_inf(q ** (p.gh2 + 0.5) * z, q)
    num *= qpochhammer_inf(-(q ** (p.gh3 + 0.5)) * z, q)
    return complex(num / qpochhammer_inf(q * z * z, q))


def weight_hat(p: Rank1Params, xi: float) -> float:
    return 1.0 / abs(chat(p, xi)) ** 2


def rank1_wave(ell: int, xi: float, p: Rank1Params) -> complex:
    """Psi_l(xi) with the Fourier-sine normalization delta(xi) = 2 sin xi."""
    pb = askey_wilson(ell, xi, p)
    return math.sqrt(norm_delta(p, ell) / norm_n0(p)) * \
        math.sqrt(weight_hat(p, xi)) * 2.0 * math.sin(xi) * pb


def shat_phase(p: Rank1Params, xi: float) -> complex:
    return chat(p, xi) / chat(p, -xi)


def shat_phase_sqrt(p: Rank1Params, xi: float) -> complex:
    u = chat(p, xi)
    return u / abs(u)


def rank1_asymptotic(ell: int, xi: float, p: Rank1Params) -> complex:
    """Plane-wave limit of Psi_l, in the same (real) phase convention.

    The antisymmetric combination s^{1/2} e^{i(l+1)xi} - s^{-1/2} e^{-i(l+1)xi}
    carries the global factor i of the product-form Weyl denominator; with
    delta = 2 sin(xi) the wave functions are real, so that factor is divided
    out here (at unit parameters this gives exactly 2 sin((l+1) xi)).
    """
    h = shat_phase_sqrt(p, xi)
    return -1j * (h * cmath.exp(1j * (ell + 1) * xi)
                  - cmath.exp(-1j * (ell + 1) * xi) / h)


def hopping_rate(p: Rank1Params, x: float) -> float:
    """V(x): the four sinh/cosh ratios of the explicit rank-one Laplacian."""
    s = p.s
    g0, g1, g2, g3 = p.dual
    return (math.sinh(0.5 * s * (g0 + x)) / math.sinh(0.5 * s * x)
            * math.cosh(0.5 * s * (g1 + x)) / math.cosh(0.5 * s * x)
            * math.sinh(0.5 * s * (g2 + 0.5 + x)) / math.sinh(0.5 * s * (0.5 + x))
            * math.cosh(0.5 * s * (g3 + 0.5 + x)) / math.cosh(0.5 * s * (0.5 + x)))


def rank1_laplacian(phi: dict, p: Rank1Params, lmax: int | None = None) -> dict:
    """Tridiagonal action including the boundary-corrected diagonal."""
    g0 = p.dual[0]
    if lmax is None:
        lmax = max(phi) + 1 if phi else 0
    out = {}
    for l in range(lmax + 1):
        up = math.sqrt(hopping_rate(p, g0 + l)) * \
            math.sqrt(hopping_rate(p, -g0 - l - 1)) * phi.get(l + 1, 0)
        down = (math.sqrt(hopping_rate(p, -g0 - l)) *
                math.sqrt(hopping_rate(p, g0 + l - 1)) * phi.get(l - 1, 0)) \
            if l >= 1 else 0.0
        diag = (2.0 * math.cosh(p.s * p.gh0) - hopping_rate(p, g0 + l)
                - ((1 - (l == 0)) * hopping_rate(p, -g0 - l))) * phi.get(l, 0)
        val = up + down + diag
        if val:
            out[l] = val
    return out


def rank1_free(phi: dict, lmax: int | None = None) -> dict:
    """phi_{l+1} + phi_{l-1} with the hard-wall condition phi_{-1} = 0."""
    if lmax is None:
        lmax = max(phi) + 1 if phi else 0
    out = {}
    for l in range(lmax + 1):
        val = phi.get(l + 1, 0) + (phi.get(l - 1, 0) if l >= 1 else 0)
        if val:
            out[l] = val
    return out


def rank1_smatrix(xi: float, p: Rank1Params) -> complex:
    """Multiplicative action of the scattering matrix: chat(-xi)/chat(xi)."""
    if not 0 < xi < math.pi:
        raise ValueError("xi must lie in the open alcove (0, pi)")
    return chat(p, -xi) / chat(p, xi)
