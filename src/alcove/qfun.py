"""One-variable c-functions and q-series primitives.

The admissible c-functions are analytic, zero-free and normalized to 1 at
the origin on a disc of certified radius ``rho > 1``.  Apart from the unit,
each is a list of infinite q-Pochhammer factors with 0 < q < 1
(QPochhammerC), which the lattice constants and hopping rates read too.
Besides pointwise evaluation this module provides the scalar scattering
phase s(theta) = c(e^{-i theta}) / c(e^{i theta}) together with its
canonical square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

import numpy as np


def qpochhammer_inf(z, q: float, tol: float = 1e-15):
    """(z; q)_infinity, truncated so the dropped tail is below tol.

    Accepts scalars or numpy arrays for z.  The truncation index K is chosen
    from |log prod_{n>K} (1 - z q^n)| <= |z| q^{K+1} / (1 - q).

    The array product is written (1 - z q^n) * out: numpy's temporary
    elision turns out * (1 - z q^n) into that order above 256 KiB only, and
    complex products with FMA are not bitwise commutative, so one written
    order keeps every point's bits independent of the array's size.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    # Python scalars (and numpy float64/complex128) skip np.ndim; every 0-d
    # input runs the same scalar loop
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:
        zmax = abs(z)
        if zmax == 0.0:
            return 1.0
        out = 1.0 + 0j
        zq = complex(z)
        for _ in range(_truncation_index(zmax, q, tol) + 1):
            out = out * (1.0 - zq)
            zq = zq * q
        return out
    zmax = float(np.max(np.abs(z)))
    if zmax == 0.0:
        return np.ones_like(z)
    out = np.ones_like(np.asarray(z, dtype=complex))
    zq = np.asarray(z, dtype=complex)
    for _ in range(_truncation_index(zmax, q, tol) + 1):
        out = (1.0 - zq) * out
        zq = zq * q
    return out


def _truncation_index(zmax: float, q: float, tol: float) -> int:
    bound = tol * (1.0 - q) / max(zmax, tol)
    if bound >= 1.0:
        return 1
    return max(1, int(math.ceil(math.log(bound) / math.log(q))) + 1)


class CFunctionError(ValueError):
    pass


class CFunction:
    """Base class; concrete variants implement _eval_raw and _radius_hint."""

    tol = 1e-14

    def eval(self, z):
        zmax = float(np.max(np.abs(z))) if np.ndim(z) else abs(z)
        if zmax > self.rho * (1 + 1e-12):
            raise CFunctionError(
                f"|z| = {zmax:.6g} outside certified disc of radius {self.rho:.6g}")
        return self._eval_raw(z)

    @property
    def rho(self) -> float:
        return _certified_radius(self)


@dataclass(frozen=True)
class UnitC(CFunction):
    def _eval_raw(self, z):
        return np.ones_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 1.0 + 0j

    def _radius_hint(self) -> float:
        return 4.0


def macdonald_factors(g: float) -> tuple:
    """The numerator factor of a Macdonald c-function, (q^g z; q)_inf; its
    denominator power is k = 1."""
    return ((g, 0.0, 1),)


def koornwinder_factors(g0: float, g1: float, g2: float, g3: float) -> tuple:
    """The numerator factors of a short-root Koornwinder c-function,
    (q^{g0} z, -q^{g1} z, q^{g2+1/2} z, -q^{g3+1/2} z; q)_inf; its
    denominator power is k = 2."""
    return ((g0, 0.0, 1), (g1, 0.0, -1), (g2, 0.5, 1), (g3, 0.5, -1))


@dataclass(frozen=True)
class QPochhammerC(CFunction):
    """c(z) = prod (s q^{g+o} z; q)_inf / (q z^k; q)_inf over the factors
    (g, o, s): coupling, offset and sign."""

    factors: tuple
    k: int
    q: float

    def __post_init__(self):
        if not (min(g for g, _, _ in self.factors) > 0 and 0 < self.q < 1):
            raise CFunctionError(f"need couplings > 0 and q in (0,1): {self}")

    def _eval_raw(self, z):
        q = self.q
        zz = np.asarray(z) if np.ndim(z) else z
        num = reduce(mul, (qpochhammer_inf(s * q ** (g + o) * zz, q, self.tol)
                           for g, o, s in self.factors))
        den = q * zz if self.k == 1 else q * zz * zz
        return num / qpochhammer_inf(den, q, self.tol)

    def _radius_hint(self) -> float:
        # nearest zero at |z| = q^{-(g+o)}, nearest pole at q^{-1/k}; take the
        # geometric halfway point
        zero = min(g + o for g, o, _ in self.factors)
        return min(self.q ** (-zero / 2), self.q ** (-0.5 / self.k))


class MacdonaldC(QPochhammerC):
    """c(z) = (q^g z; q)_inf / (q z; q)_inf, with g > 0."""

    def __init__(self, g: float = 1.0, q: float = 0.5):
        super().__init__(macdonald_factors(g), 1, q)


class KoornwinderShortC(QPochhammerC):
    """Short-root c-function of BC_N with four couplings (koornwinder_factors)."""

    def __init__(self, g0: float = 0.5, g1: float = 0.5, g2: float = 0.5,
                 g3: float = 0.5, q: float = 0.5):
        super().__init__(koornwinder_factors(g0, g1, g2, g3), 2, q)


@lru_cache(maxsize=None)
def _certified_radius(c: CFunction) -> float:
    """Shrink the analytic hint until the circle-sampled modulus stays > 1e-6."""
    rho = c._radius_hint()
    theta = 2 * np.pi * np.arange(720) / 720
    for _ in range(60):
        if rho <= 1.0:
            raise CFunctionError(f"could not certify a zero-free radius > 1 for {c}")
        vals = c._eval_raw(rho * np.exp(1j * theta))
        if np.min(np.abs(vals)) > 1e-6:
            return rho
        rho = 1.0 + 0.9 * (rho - 1.0)
    raise CFunctionError(f"zero-freeness certification failed for {c}")


def shat(c: CFunction, theta):
    """Scalar scattering phase s(theta) = c(e^{-i theta}) / c(e^{i theta})."""
    th = np.asarray(theta, dtype=float) if np.ndim(theta) else theta
    down = c._eval_raw(np.exp(-1j * th))
    up = c._eval_raw(np.exp(1j * th))
    return down / up


def shat_sqrt(c: CFunction, theta):
    """The square root branch u/|u| with u = c(e^{-i theta}).

    Its square equals shat(c, theta) and it is continuous in theta because
    the c-function is zero-free on the unit circle.
    """
    th = np.asarray(theta, dtype=float) if np.ndim(theta) else theta
    u = c._eval_raw(np.exp(-1j * th))
    return u / np.abs(u)


class CFunctionSpec:
    """Assignment of one c-function per root-length orbit of R1.

    Keyed by the squared length of the root; W-conjugate roots share a key.
    ``cfunctions`` holds the c-function of each root of rs.positive_roots_1,
    in that order.
    """

    def __init__(self, rs, by_length2: dict):
        self.rs = rs
        lengths = rs.positive_1_len2.tolist()
        missing = sorted({l for l in lengths if l not in by_length2})
        if missing:
            raise ValueError(f"no c-function for root length^2 in {missing}")
        self.by_length2 = dict(by_length2)
        self.cfunctions: tuple = tuple(self.by_length2[l] for l in lengths)

    @property
    def is_unit(self) -> bool:
        return all(isinstance(c, UnitC) for c in self.by_length2.values())


def _lengths(rs) -> list:
    """The squared root lengths of R1+, ascending."""
    return sorted(set(rs.positive_1_len2.tolist()))


def unit_spec(rs) -> CFunctionSpec:
    lengths = _lengths(rs)
    return CFunctionSpec(rs, {l: UnitC() for l in lengths})


def macdonald_spec(rs, g, q: float) -> CFunctionSpec:
    """Macdonald c-functions on a reduced system; g scalar or {length^2: g}."""
    if rs.label.startswith("BC"):
        raise ValueError("macdonald_spec needs a reduced root system")
    lengths = _lengths(rs)
    if isinstance(g, dict):
        gmap = {float(l): g[l] for l in g}
    else:
        gmap = {l: float(g) for l in lengths}
    return CFunctionSpec(rs, {l: MacdonaldC(g=gmap[l], q=q) for l in lengths})


def koornwinder_spec(rs, ghat: float, g0123, q: float) -> CFunctionSpec:
    """Koornwinder c-functions on BC_N (hat parameters, spectral side); the
    long roots carry the Macdonald c-function with g = ghat."""
    if not rs.label.startswith("BC"):
        raise ValueError("koornwinder_spec needs a BC_N root system")
    g0, g1, g2, g3 = (float(x) for x in g0123)
    short = KoornwinderShortC(g0=g0, g1=g1, g2=g2, g3=g3, q=q)
    lengths = _lengths(rs)
    table = {}
    for l in lengths:
        if l == min(lengths):
            table[l] = short
        else:
            table[l] = MacdonaldC(g=float(ghat), q=q)
    return CFunctionSpec(rs, table)
