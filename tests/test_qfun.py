import numpy as np
import pytest

from alcove.qfun import (CFunctionError, KoornwinderShortC, MacdonaldC, UnitC,
                         koornwinder_spec, macdonald_spec, qpochhammer_inf,
                         shat, shat_sqrt, unit_spec)


def test_qpochhammer_values():
    assert qpochhammer_inf(0.0, 0.5) == 1.0
    assert abs(qpochhammer_inf(0.5, 0.5) - 0.2887880951) < 1e-9
    assert abs(qpochhammer_inf(1.0, 0.5)) == 0.0
    with pytest.raises(ValueError):
        qpochhammer_inf(0.3, 1.5)


def test_qpochhammer_vectorized():
    z = np.array([0.1, 0.5 + 0.2j, -0.9])
    vec = qpochhammer_inf(z, 0.4)
    for zi, vi in zip(z, vec):
        assert abs(qpochhammer_inf(complex(zi), 0.4) - vi) < 1e-14


def test_qpochhammer_bits_do_not_depend_on_array_size():
    # numpy's temporary elision would reorder an unwritten product order
    # above 256 KiB; 40,000 points are 625 KiB
    z = 0.5 ** 0.9 * np.exp(-2j * np.pi * np.arange(40000) / 40000)
    whole = qpochhammer_inf(z, 0.5)
    chunks = np.concatenate([qpochhammer_inf(z[i:i + 1000], 0.5)
                             for i in range(0, z.size, 1000)])
    assert np.array_equal(whole.view(float), chunks.view(float))


def test_unit_cfunction():
    c = UnitC()
    assert c.eval(0.3 + 0.9j) == 1.0


def test_macdonald_reduces_to_unit():
    c = MacdonaldC(g=1.0, q=0.5)
    for z in (0.3, -0.8 + 0.1j, 0.99j):
        assert abs(c.eval(z) - 1.0) < 1e-14


def test_koornwinder_duplication_limit():
    # ghat_i = 1/2 collapses the short c-function through the duplication
    # identity (z^2; q) = (z, -z, q^{1/2} z, -q^{1/2} z; q)
    c = KoornwinderShortC(0.5, 0.5, 0.5, 0.5, 0.45)
    for z in (0.3, 0.9 - 0.3j):
        assert abs(c.eval(z) - 1.0) < 1e-13


def test_certified_radius():
    c = MacdonaldC(g=2.0, q=0.5)
    assert c.rho > 1.0
    theta = np.linspace(0, 2 * np.pi, 360)
    vals = c.eval(c.rho * np.exp(1j * theta))
    assert np.min(np.abs(vals)) > 1e-6
    with pytest.raises(CFunctionError):
        c.eval(2.0 * c.rho)


def test_shat_unitarity_and_symmetry():
    c = MacdonaldC(g=2.0, q=0.5)
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-4, 4, 50):
        s = shat(c, theta)
        assert abs(abs(s) - 1.0) < 1e-13
        assert abs(shat(c, -theta) - np.conj(s)) < 1e-13
        assert abs(shat(c, -theta) - 1.0 / s) < 1e-13
    assert abs(shat(c, 0.0) - 1.0) < 1e-14
    assert shat(UnitC(), 0.7) == 1.0


def test_shat_sqrt_squares_to_shat():
    c = KoornwinderShortC(0.9, 0.7, 0.6, 0.8, 0.45)
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-4, 4, 100):
        h = shat_sqrt(c, theta)
        assert abs(h**2 - shat(c, theta)) < 1e-14
    assert abs(shat_sqrt(c, 0.0) - 1.0) < 1e-14
    assert shat_sqrt(UnitC(), 1.23) == 1.0


def test_shat_macdonald_closed_form():
    # the unitary phase equals the explicit ratio of four Pochhammer symbols
    g, q = 1.7, 0.5
    c = MacdonaldC(g=g, q=q)
    for theta in (0.3, 1.1, 2.9):
        zp, zm = np.exp(1j * theta), np.exp(-1j * theta)
        closed = (qpochhammer_inf(q * zp, q) / qpochhammer_inf(q**g * zp, q)) * \
                 (qpochhammer_inf(q**g * zm, q) / qpochhammer_inf(q * zm, q))
        assert abs(shat(c, theta) - closed) < 1e-13


def test_cfunction_specs(a2, b2, bc2):
    assert unit_spec(a2).is_unit
    spec = macdonald_spec(b2, {1.0: 0.7, 2.0: 1.3}, 0.5)
    assert sorted(spec.by_length2) == [1.0, 2.0]
    with pytest.raises(ValueError):
        macdonald_spec(bc2, 1.0, 0.5)
    kspec = koornwinder_spec(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    assert isinstance(kspec.by_length2[1.0], KoornwinderShortC)
    assert kspec.by_length2[2.0] == MacdonaldC(g=1.1, q=0.45)
    with pytest.raises(ValueError):
        koornwinder_spec(a2, 1.0, (0.5,) * 4, 0.5)


def test_parameter_validation():
    with pytest.raises(CFunctionError):
        MacdonaldC(g=-1.0, q=0.5)
    with pytest.raises(CFunctionError):
        KoornwinderShortC(0.5, 0.5, 0.5, 0.5, 1.5)


# -- one factor list, the same bits as the per-family formulas it replaced ----


def _macdonald_formula(g, q, z):
    zz = np.asarray(z) if np.ndim(z) else z
    return qpochhammer_inf(q**g * zz, q, 1e-14) / qpochhammer_inf(q * zz, q, 1e-14)


def _koornwinder_formula(g0, g1, g2, g3, q, z):
    zz = np.asarray(z) if np.ndim(z) else z
    num = qpochhammer_inf(q**g0 * zz, q, 1e-14)
    num = num * qpochhammer_inf(-(q**g1) * zz, q, 1e-14)
    num = num * qpochhammer_inf(q ** (g2 + 0.5) * zz, q, 1e-14)
    num = num * qpochhammer_inf(-(q ** (g3 + 0.5)) * zz, q, 1e-14)
    return num / qpochhammer_inf(q * zz * zz, q, 1e-14)


@pytest.mark.parametrize("label", ["B2", "BC2"])
def test_factor_list_keeps_the_family_formulas_bitwise(label, b2, bc2):
    from alcove.harmonic import QuadratureGrid
    if label == "B2":
        rs, cases = b2, [(MacdonaldC(g=0.9, q=0.5), lambda z: _macdonald_formula(0.9, 0.5, z)),
                         (MacdonaldC(g=1.42, q=0.5), lambda z: _macdonald_formula(1.42, 0.5, z))]
        hints = [min(0.5 ** (-0.9 / 2), 0.5 ** -0.5), min(0.5 ** (-1.42 / 2), 0.5 ** -0.5)]
    else:
        g = (0.9, 0.7, 0.6, 0.8)
        rs, cases = bc2, [(KoornwinderShortC(*g, 0.45),
                           lambda z: _koornwinder_formula(*g, 0.45, z)),
                          (MacdonaldC(g=1.1, q=0.45), lambda z: _macdonald_formula(1.1, 0.45, z))]
        hints = [min(0.45 ** (-min(0.9, 0.7, 0.6 + 0.5, 0.8 + 0.5) / 2), 0.45 ** -0.25),
                 min(0.45 ** (-1.1 / 2), 0.45 ** -0.5)]
    grid = QuadratureGrid(rs, 48)
    scalars = [0.3, -0.8 + 0.1j, 0.99j, np.complex128(0.2 - 0.7j), np.float64(-0.45)]
    for (c, formula), hint in zip(cases, hints):
        assert c._radius_hint() == hint
        for a in rs.positive_roots_1:
            z = grid.exponential(np.negative(rs.root_coords(a)))
            assert np.array_equal(c._eval_raw(z), formula(z))
        for z in scalars:
            got, ref = c._eval_raw(z), formula(z)
            assert type(got) is type(ref) and got == ref
