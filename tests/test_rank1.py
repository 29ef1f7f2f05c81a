import math

import numpy as np
import pytest

from alcove.rank1 import (Rank1Params, askey_wilson, askey_wilson_recurrence,
                          duality_matrix_is_involution, hopping_rate,
                          norm_delta, norm_n0, rank1_asymptotic, rank1_free,
                          rank1_laplacian, rank1_smatrix, rank1_wave,
                          shat_phase, shat_phase_sqrt)


@pytest.fixture(scope="module")
def params():
    return Rank1Params(0.45, 0.9, 0.7, 0.6, 0.8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Rank1Params(1.2, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        Rank1Params(0.5, -0.1, 0.5, 0.5, 0.5)


def test_duality_involution_exact(params):
    assert duality_matrix_is_involution()
    from fractions import Fraction

    def transform(v):
        h = Fraction(1, 2)
        m = [[h, h, h, h], [h, h, -h, -h], [h, -h, h, -h], [h, -h, -h, h]]
        return tuple(sum(m[i][j] * v[j] for j in range(4)) for i in range(4))

    start = (Fraction(9, 10), Fraction(7, 10), Fraction(3, 5), Fraction(4, 5))
    assert transform(transform(start)) == start


def test_askey_wilson_basics(params):
    assert askey_wilson(0, 0.7, params) == 1.0
    for ell in range(6):
        spec_pt = 1j * params.s * params.gh0
        assert abs(askey_wilson(ell, spec_pt, params) - 1.0) < 1e-12
    # real for real xi
    assert abs(askey_wilson(4, 1.234, params).imag) < 1e-12


def test_series_vs_recurrence(params):
    rng = np.random.default_rng(0)
    for ell in range(21):
        for xi in rng.uniform(0.1, 3.0, 3):
            a = askey_wilson(ell, xi, params)
            b = askey_wilson_recurrence(ell, xi, params)
            assert abs(a - b) < 1e-11


def _pointwise_sum(ell, xi, p):
    """The terminating 4phi3 summed at one point in mpmath, term by term."""
    import mpmath
    with mpmath.workdps(25 + int(0.6 * ell * (ell + 1) * (-math.log10(p.q)))):
        q = mpmath.mpf(p.q)
        g0, g1, g2, g3 = (mpmath.mpf(x) for x in p.dual)
        half = mpmath.mpf("0.5")
        z = mpmath.exp(1j * mpmath.mpmathify(xi))
        tops = (q ** (-ell), q ** (2 * g0 + ell), q ** mpmath.mpf(p.gh0) * z,
                q ** mpmath.mpf(p.gh0) / z)
        bottoms = (-(q ** (g0 + g1)), q ** (g0 + g2 + half), -(q ** (g0 + g3 + half)))
        total = term = mpmath.mpc(1)
        for n in range(ell):
            for a in tops:
                term *= 1 - a * q ** n
            for b in bottoms:
                term /= 1 - b * q ** n
            term *= q / (1 - q ** (n + 1))
            total += term
        return complex(total)


def test_cosine_series_matches_pointwise_sum():
    # the series expanded once per degree against the sum at each point, on
    # real points, the specialization point and a complex point
    rng = np.random.default_rng(5)
    for p in (Rank1Params(0.45, 0.9, 0.7, 0.6, 0.8), Rank1Params(0.3, 1.2, 0.4, 0.9, 0.5)):
        for ell in range(21):
            xis = [*rng.uniform(0.0, math.pi, 3), 1j * p.s * p.gh0, 0.3 + 0.2j]
            series = askey_wilson(ell, np.array(xis), p)
            for xi, value in zip(xis, series):
                ref = _pointwise_sum(ell, xi, p)
                assert abs(value - ref) < 1e-13
                assert abs(askey_wilson(ell, xi, p) - ref) < 1e-13


def test_orthonormality(params):
    n = 4096
    xs = np.arange(1, n) * math.pi / n
    vals = np.array([[rank1_wave(l, x, params) for x in xs] for l in range(5)])
    assert np.max(np.abs(vals.imag)) < 1e-11
    gram = (vals.real @ vals.real.T) / n / 2.0
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_tridiagonal_eigenvalue_equation(params):
    xi = 0.9
    phi = {l: rank1_wave(l, xi, params) for l in range(24)}
    out = rank1_laplacian(phi, params, 20)
    for l in range(1, 18):
        assert abs(out[l] - 2 * math.cos(xi) * phi[l]) < 1e-9


def test_free_boundary(params):
    assert rank1_free({0: 1.0}) == {1: 1.0}
    assert rank1_free({1: 1.0}) == {0: 1.0, 2: 1.0}


def test_unit_parameter_limit():
    pu = Rank1Params(0.45, 0.5, 0.5, 0.5, 0.5)
    for ell in range(4):
        for x in (0.3, 1.2, 2.8):
            assert abs(rank1_wave(ell, x, pu) - 2 * math.sin((ell + 1) * x)) < 1e-12
            assert abs(rank1_asymptotic(ell, x, pu)
                       - 2 * math.sin((ell + 1) * x)) < 1e-12
    assert abs(rank1_smatrix(0.9, pu) - 1.0) < 1e-13


def test_wave_converges_to_asymptotic(params):
    n = 2048
    xs = np.arange(1, n) * math.pi / n
    norms = []
    for ell in (1, 4, 8, 12):
        d = np.array([rank1_wave(ell, x, params)
                      - rank1_asymptotic(ell, x, params) for x in xs])
        norms.append(math.sqrt(np.mean(np.abs(d) ** 2) / 2.0))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_scattering_phase(params):
    for xi in (0.4, 1.1, 2.7):
        s = rank1_smatrix(xi, params)
        assert abs(abs(s) - 1.0) < 1e-13
        # S acts as shat(-xi) and conjugate data cancels the phase
        assert abs(s - shat_phase(params, -xi)) < 1e-13
        assert abs(s * rank1_smatrix(math.pi - xi, params)
                   - rank1_smatrix(xi, params) * rank1_smatrix(math.pi - xi, params)) < 1e-13
        assert abs(shat_phase_sqrt(params, xi) ** 2 - shat_phase(params, xi)) < 1e-13
    with pytest.raises(ValueError):
        rank1_smatrix(-0.2, params)


def test_hopping_rate_positive_range(params):
    g0 = params.dual[0]
    for l in range(12):
        assert hopping_rate(params, g0 + l) > 0


def test_cross_validation_with_general_bc1(bc1, bc1_koornwinder, bc1_system, params):
    """The general BC1 machinery against this module, at oracle precision."""
    import alcove.harmonic as H
    from alcove.orthopoly import norm_constants

    rng = np.random.default_rng(7)
    xis = rng.uniform(0.05, 3.09, 50)
    assert abs(norm_n0(params) - norm_constants(bc1_koornwinder, (0,)).n0) < 1e-12
    for ell in range(11):
        nd = norm_constants(bc1_koornwinder, (ell,))
        assert abs(norm_delta(params, ell) - nd.delta) < 1e-10 * nd.delta
        pbold = bc1_system.monic((ell,)) * nd.c_lam
        pnorm = bc1_system.monic((ell,)) * nd.orthonormal_scale
        for x in xis[:25]:
            xv = np.array([x])
            assert abs(pbold.evaluate(xv) - askey_wilson(ell, x, params)) < 1e-10
            wgen = complex(pnorm.evaluate(xv)) * \
                math.sqrt(H.weight_function_eval(bc1_koornwinder.cspec(), xv)) * \
                complex(H.eval_delta(bc1, xv))
            # the product-form denominator carries the global phase i
            assert abs(wgen - 1j * rank1_wave(ell, x, params)) < 1e-10


def test_cross_validation_laplacian(bc1, bc1_koornwinder, params):
    from alcove.laplacian import LatticeFunction, apply_koornwinder
    rng = np.random.default_rng(8)
    vals = {l: complex(rng.normal(), rng.normal()) for l in range(8)}
    mine = apply_koornwinder(bc1_koornwinder,
                             LatticeFunction(bc1, {(l,): v for l, v in vals.items()}))
    oracle = rank1_laplacian(vals, params, 10)
    for l in range(10):
        assert abs(mine.get((l,)) - oracle.get(l, 0)) < 1e-12


def test_cross_validation_smatrix(bc1, bc1_koornwinder, bc1_table, params):
    from alcove.harmonic import orbit_symbol
    from alcove.scattering import ScatteringContext
    ctx = ScatteringContext(bc1_table, orbit_symbol(bc1, (1,)))
    ks = np.nonzero(ctx.regular_mask)[0][3:200:11]
    for k in ks:
        x = float(bc1_table.grid.xi[k][0])
        sgen = ctx.smatrix_at(int(k))
        assert abs(sgen - rank1_smatrix(x, params)) < 1e-12
