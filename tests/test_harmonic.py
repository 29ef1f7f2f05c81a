import numpy as np
import pytest

from alcove.harmonic import (LaurentPoly, QuadratureGrid, delta_values,
                             eval_delta, inner_product, measure_values,
                             monomial_symmetric, weight_function_eval,
                             weight_function_values, weyl_character,
                             weyl_character_extended, weyl_denominator)
from alcove.qfun import MacdonaldC, macdonald_spec, unit_spec, qpochhammer_inf


def test_monomial_symmetric(a2):
    m0 = monomial_symmetric(a2, (0, 0))
    assert m0.terms == {(0, 0): 1}
    m1 = monomial_symmetric(a2, (1, 0))
    assert len(m1) == 3
    # evaluation at xi = 0 counts the orbit
    assert sum(m1.terms.values()) == 3
    with pytest.raises(ValueError):
        monomial_symmetric(a2, (-1, 0))


def test_weyl_denominator_product_form(a2, b2, bc1):
    for rs, m in [(a2, 16), (b2, 16), (bc1, 32)]:
        grid = QuadratureGrid(rs, m)
        dsum = weyl_denominator(rs).eval_grid(grid)
        dprod = delta_values(rs, grid)
        assert np.max(np.abs(dsum - dprod)) < 1e-12


def test_delta_bc1_and_zero(bc1):
    # |delta| = 2|sin xi| on BC1; the product form carries a global phase i
    xi = np.array([0.77])
    assert abs(abs(eval_delta(bc1, xi)) - 2 * np.sin(0.77)) < 1e-14
    assert abs(eval_delta(bc1, np.array([0.0]))) < 1e-14


def _act_real(rs, w, xi):
    """w(xi) for a real vector, by the float simple reflections along w.word."""
    for i in reversed(w.word):
        xi = xi - float(np.dot(rs.basis_coroots_f[i], xi)) * rs.simple_roots_f[i]
    return xi


def test_delta_antisymmetry(b2):
    rng = np.random.default_rng(0)
    for w in b2.weyl_group():
        xi = rng.uniform(0.1, 1.7, size=2)
        wxi = _act_real(b2, w, xi)
        assert abs(eval_delta(b2, wxi) - w.sign * eval_delta(b2, xi)) < 1e-12


def test_characters(a2):
    assert weyl_character(a2, (0, 0)).terms == {(0, 0): 1}
    chith = weyl_character(a2, (1, 1))
    mth = monomial_symmetric(a2, (1, 1))
    assert (chith - mth).terms == {(0, 0): 2}


def test_character_recurrence_with_boundary_rule(a2, b2):
    # m_{omega_r} chi_lam = sum over the orbit with the reflection rule
    for rs in (a2, b2):
        for lam in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            for r in range(2):
                omega = tuple(1 if j == r else 0 for j in range(2))
                lhs = monomial_symmetric(rs, omega) * weyl_character(rs, lam)
                rhs = LaurentPoly.zero(rs)
                for nu in rs.weyl_orbit(omega):
                    shifted = tuple(a + b for a, b in zip(lam, nu))
                    rhs = rhs + weyl_character_extended(rs, shifted)
                assert not (lhs - rhs).terms


def test_quadrature_exactness(a2):
    grid = QuadratureGrid(a2, 16)
    rng = np.random.default_rng(1)
    for _ in range(20):
        lam = tuple(int(x) for x in rng.integers(-15, 16, size=2))
        avg = np.mean(np.exp(1j * grid.angles(lam)))
        if lam == (0, 0):
            assert abs(avg - 1) < 1e-13
        elif all(c % 16 == 0 for c in lam):
            assert abs(avg - 1) < 1e-13
        else:
            assert abs(avg) < 1e-13


def test_weight_function(a2):
    assert np.allclose(weight_function_values(unit_spec(a2), QuadratureGrid(a2, 8)), 1.0)
    g, q = 1.5, 0.5
    spec = macdonald_spec(a2, g, q)
    rng = np.random.default_rng(2)
    for _ in range(5):
        xi = rng.uniform(0, 2, size=3)
        val = weight_function_eval(spec, xi)
        # direct product over all roots per the explicit weight formula
        direct = 1.0
        for a in a2.roots:
            z = np.exp(1j * float(np.dot([float(x) for x in a], xi)))
            direct *= qpochhammer_inf(q * z, q) / qpochhammer_inf(q**g * z, q)
        assert abs(val - direct.real) < 1e-12 and abs(direct.imag) < 1e-12
        # W-invariance
        for w in a2.weyl_group()[:3]:
            wxi = _act_real(a2, w, xi)
            assert abs(weight_function_eval(spec, wxi) - val) < 1e-12


def test_inner_product_unit_characters(a2):
    us = unit_spec(a2)
    one = LaurentPoly.one(a2)
    assert abs(inner_product(one, one, us) - 1.0) < 1e-13
    chis = [weyl_character(a2, lam) for lam in [(0, 0), (1, 0), (1, 1), (2, 2)]]
    for i, f in enumerate(chis):
        for j, g in enumerate(chis):
            assert abs(inner_product(f, g, us) - (i == j)) < 1e-12


def test_inner_product_hermitian_positive(a2):
    spec = macdonald_spec(a2, 1.5, 0.5)
    rng = np.random.default_rng(3)
    fs = []
    for _ in range(2):
        terms = {tuple(int(c) for c in rng.integers(-2, 3, size=2)):
                 complex(rng.normal(), rng.normal()) for _ in range(4)}
        fs.append(LaurentPoly(a2, terms))
    ip = inner_product(fs[0], fs[1], spec)
    assert abs(ip - np.conj(inner_product(fs[1], fs[0], spec))) < 1e-12
    real = LaurentPoly(a2, {k: v.real for k, v in fs[0].terms.items()})
    assert inner_product(real, real, spec).real >= 0


def test_inner_product_builds_no_grid_above_max_m(a2, monkeypatch):
    # tol = 0 never stabilizes: the ladder must stop before exceeding max_m
    import alcove.harmonic as harmonic
    built = []

    class RecordingGrid(QuadratureGrid):
        def __init__(self, rs, M):
            built.append(M)
            super().__init__(rs, M)

    monkeypatch.setattr(harmonic, "QuadratureGrid", RecordingGrid)
    spec = macdonald_spec(a2, 1.3, 0.5)
    one = LaurentPoly.one(a2)
    with pytest.raises(harmonic.QuadratureError):
        inner_product(one, one, spec, tol=0.0, max_m=48)
    assert built == [10, 20, 40]


def test_rank1_constant_term_oracle(a1):
    """(m_0, m_0) on A1 against an independent truncated-Taylor constant term.

    With z = e^{2iu}: (m_0, m_0) = sum_j a_j (a_j - a_{j+1}) where a_j are the
    Taylor coefficients of 1/c(z).
    """
    g, q = 1.7, 0.5
    spec = macdonald_spec(a1, g, q)
    val = inner_product(LaurentPoly.one(a1), LaurentPoly.one(a1), spec).real

    c = MacdonaldC(g=g, q=q)
    n = 512
    r0 = 1.0
    zs = r0 * np.exp(2j * np.pi * np.arange(n) / n)
    inv_vals = 1.0 / c.eval(zs)
    a = (np.fft.fft(inv_vals) / n).real[:80]
    oracle = float(np.sum(a * (a - np.append(a[1:], 0.0))))
    assert abs(val - oracle) < 1e-10


def test_alcove_mask_exactness(a2):
    grid = QuadratureGrid(a2, 24)
    mask = grid.alcove_mask
    # masked points satisfy the strict inequalities in floating point too
    xs = grid.xi[mask]
    for a in a2.positive_roots:
        av = np.array([float(x) for x in a])
        p = xs @ av
        assert np.all(p > 0) and np.all(p < 2 * np.pi)


def test_measure_values_nonnegative(bc2, bc1_koornwinder):
    from alcove.qfun import koornwinder_spec
    spec = koornwinder_spec(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    w = measure_values(spec, QuadratureGrid(bc2, 20))
    assert np.all(w.real >= -1e-14) and np.max(np.abs(w.imag)) < 1e-12
