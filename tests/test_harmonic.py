import functools
import itertools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from alcove.harmonic import (LaurentPoly, QuadratureError, QuadratureGrid,
                             alternating_sum, chat_values, delta_values, eval_delta, first_rung,
                             gram_bytes, gram_ladder, gram_matrix, inner_product,
                             measure_values, monomial_symmetric, orbit_first_rung,
                             orbit_symbol, weight_function_eval, weight_function_values,
                             weight_multiplicities, weyl_character, weyl_denominator)
from alcove.orthopoly import MacdonaldParams, gram_schmidt
from alcove.qfun import (MacdonaldC, koornwinder_spec, macdonald_spec,
                         qpochhammer_inf, shat_sqrt, unit_spec)
from alcove.rootsys import BudgetExceededError, build_root_system
from alcove.scattering import WaveTable, root_half_phases


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


def _fraction_divide(num, den):
    """Long division num/den along the lexicographic exponent order, carried
    in Fractions, with integral quotients read back as ints."""
    rem = {k: Fraction(c) for k, c in num.terms.items()}
    dlead = max(den.terms)
    quot = {}
    while rem:
        m = max(rem)
        q = rem.pop(m) / den.terms[dlead]
        e = tuple(a - b for a, b in zip(m, dlead))
        quot[e] = q
        for k, v in den.terms.items():
            if k != dlead:
                kk = tuple(a + b for a, b in zip(e, k))
                rem[kk] = rem.get(kk, 0) - q * v
                if rem[kk] == 0:
                    del rem[kk]
    assert all(c.denominator == 1 for c in quot.values())
    return {k: int(c) for k, c in quot.items()}


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4),
                                        ("BC", 2), ("C", 2)])
def test_characters_divide_in_ints(label, rank):
    rs = build_root_system(label, rank)
    den = weyl_denominator(rs)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for lam in units + [(1,) * rank, tuple(2 * c for c in units[-1])]:
        chi = weyl_character(rs, lam)
        num = alternating_sum(rs, tuple(a + b for a, b in zip(rs.rho_coords, lam)))
        assert list(chi.terms.items()) == list(_fraction_divide(num, den).items())
        assert all(type(c) is int for c in chi.terms.values())


@pytest.mark.parametrize("label,rank,lam", [("A", 2, (26, 26)), ("B", 2, (22, 22)),
                                            ("G", 2, (17, 17))])
def test_character_times_delta_is_the_alternating_sum(label, rank, lam):
    # the Weyl character formula chi delta = A_{lam + rho}, exactly, where a
    # long division guarded by a step limit once gave up
    rs = build_root_system(label, rank)
    num = alternating_sum(rs, tuple(a + b for a, b in zip(rs.rho_coords, lam)))
    assert not (weyl_character(rs, lam) * weyl_denominator(rs) - num).terms


def _height_tops(rs, h):
    return [c for c in itertools.product(range(h + 1), repeat=rs.rank) if 0 < sum(c) <= h]


@pytest.mark.parametrize("label,rank,height", [
    ("A", 7, 1), ("E", 6, 1), ("F", 4, 1), ("G", 2, 6), ("BC", 2, 6), ("B", 3, 3),
    ("C", 3, 3), ("D", 4, 2)])
def test_multiplicities_give_the_weyl_dimension(label, rank, height):
    # sum_mu K[lam][mu] |W mu| = prod over R0+ of <lam + rho, a^vee> / <rho, a^vee>
    rs = build_root_system(label, rank)
    weights = rs.saturated_weights(_height_tops(rs, height))
    for lam, row in zip(weights, weight_multiplicities(rs, weights)):
        assert all(type(k) is int for k in row)
        dim = sum(k * len(rs.weyl_orbit(mu)) for mu, k in zip(weights, row))
        shifted = [a + p for a, p in zip(lam, rs.rho_coords)]
        assert dim == math.prod(
            Fraction(sum(map(operator.mul, shifted, pair)),
                     sum(map(operator.mul, rs.rho_coords, pair)))
            for pair in rs._pos0_coroot_pairings)


def test_character_recurrence_with_boundary_rule(a2, b2):
    # m_{omega_r} chi_lam = sum over the orbit of chi_{lam + nu}, with the
    # reflection rule: chi_mu is sign(w) chi_{w(rho + mu) - rho} for the w
    # that makes rho + mu dominant, and 0 when rho + mu lies on a wall
    for rs in (a2, b2):
        for lam in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            for r in range(2):
                omega = tuple(1 if j == r else 0 for j in range(2))
                lhs = monomial_symmetric(rs, omega) * weyl_character(rs, lam)
                rhs = LaurentPoly.zero(rs)
                for nu in rs.weyl_orbit(omega):
                    shifted = tuple(p + a + b for p, a, b in zip(rs.rho_coords, lam, nu))
                    dom, sign, regular = rs.dominant_representative(shifted)
                    if regular:
                        chi = weyl_character(rs, tuple(a - p for a, p in zip(dom, rs.rho_coords)))
                        rhs = rhs + chi if sign == 1 else rhs - chi
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


def _left_sum(values):
    return functools.reduce(np.add, values)


def _direct_sum(grid, terms):
    """sum_mu c_mu e^{i<mu, xi>} with one np.exp per term and grid point,
    each times its coefficient, summed in the order QuadratureGrid.eval_terms
    documents: blocks of 64 terms, the first added to 0.0 and each later one
    to the sum so far; in a block of w terms, with f = w - w % 4, the even
    terms below f summed left to right plus the odd ones, then plus the
    terms from f on summed left to right."""
    items = list(terms.items())
    out = 0.0
    for start in range(0, len(items), 64):
        vals = [np.multiply(complex(c), np.exp(1j * grid.angles(mu)))
                for mu, c in items[start:start + 64]]
        f = len(vals) - len(vals) % 4
        parts = [_left_sum(vals[0:f:2]) + _left_sum(vals[1:f:2])] if f else []
        parts += [_left_sum(vals[f:])] if f < len(vals) else []
        out = out + _left_sum(parts)
    return out


def _blas_sum(grid, terms):
    """The same sum as the BLAS product of each block's roots with its
    coefficients, roots @ coeffs, in blocks of 64 terms, the first added to
    0.0: how eval_terms summed before it read its terms as views."""
    out = np.zeros(grid.size, dtype=complex)
    items = list(terms.items())
    for start in range(0, len(items), 64):
        block = items[start:start + 64]
        roots = np.column_stack([np.exp(1j * grid.angles(mu)) for mu, _ in block])
        out += roots @ np.array([complex(c) for _, c in block])
    return out


def _same_bits(a, b):
    return np.array_equal(a.view(float), b.view(float))


def _terms(mus):
    """The exponents mus with int, Fraction and complex coefficients in turn."""
    coeffs = [3, Fraction(2, 7), complex(0.3, -1.1), -1, Fraction(-5, 3), 1j]
    return {tuple(int(x) for x in mu): coeffs[i % len(coeffs)]
            for i, mu in enumerate(mus)}


@pytest.mark.parametrize("label,rank,m", [("A", 2, 30), ("B", 2, 44), ("G", 2, 36),
                                          ("BC", 1, 64), ("BC", 2, 40)])
def test_eval_terms_table_matches_direct_exp(label, rank, m):
    rs = build_root_system(label, rank)
    grid = QuadratureGrid(rs, m)
    axis = np.eye(rank, dtype=np.int64)[0]
    box = [mu for mu in itertools.product(range(-6, 7), repeat=rank) if any(mu[1:])]
    extra = ([j * axis for j in range(32, 118)] if rank == 1 else
             list(np.random.default_rng(7).permutation(box)))
    # 150 terms over three blocks: the first 64 fill the table, the others
    # take the direct path in rank one; then calls reaching below and above
    # the table's range
    calls = [_terms([j * axis for j in range(-32, 32)] + extra),
             _terms([j * axis for j in range(-40, 24)]),
             _terms([j * axis for j in range(-23, 41)])]
    calls[0] = dict(list(calls[0].items())[:150])
    ranges = []
    for terms in calls:
        assert _same_bits(grid.eval_terms(terms), _direct_sum(grid, terms))
        ranges.append((grid._table_lo, grid._table_lo + grid._table.size))
    assert len(calls[0]) == 150 and ranges[0][0] < ranges[0][1]
    assert ranges[1][0] < ranges[0][0] and ranges[2][1] > ranges[1][1]
    for mu in [axis, 2 - 5 * axis]:
        for sign in (1, -1):
            assert _same_bits(grid.exponential(sign * mu),
                              np.exp(sign * 1j * grid.angles(mu)))


def test_eval_terms_long_phase_range_computes_directly(bc1):
    # rank one with large weights, as on the BC1 evolve table: from the orbit
    # of 2 on, the range of k is longer than the values asked for, so nothing
    # is tabulated
    grid = QuadratureGrid(bc1, 1212)
    calls = [_terms([(mu,), (-mu,)]) for mu in range(2, 151)]
    calls.append(_terms([(s * mu,) for mu in range(40, 151) for s in (1, -1)]))
    for terms in calls:
        assert _same_bits(grid.eval_terms(terms), _direct_sum(grid, terms))
    assert grid._table.size == 0


def test_eval_terms_depth_150_keeps_the_table_within_one_block(bc1):
    # every BC1 exponent down to depth 150 in one call: the phases span
    # 300 * 1211 integers, but only a block whose range is shorter than its
    # values is tabulated, so the table holds at most 64 * size roots
    grid = QuadratureGrid(bc1, 1212)
    terms = _terms([(mu,) for mu in range(-150, 151)])
    assert _same_bits(grid.eval_terms(terms), _direct_sum(grid, terms))
    assert 0 < grid._table.size <= 64 * grid.size


def _b2_spec(b2):
    return MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()


def _bc2_spec(bc2):
    return koornwinder_spec(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)


@pytest.mark.parametrize("case,m", [("B2", 110), ("BC2", 120)])
def test_measure_on_even_points_of_the_doubled_grid(case, m, b2, bc2):
    # point k of grid M is point 2k of grid 2M with the same phase bits, and
    # the q-Pochhammer product has one order at every array size
    rs, spec = (b2, _b2_spec(b2)) if case == "B2" else (bc2, _bc2_spec(bc2))
    coarse = measure_values(spec, QuadratureGrid(rs, m))
    fine = measure_values(spec, QuadratureGrid(rs, 2 * m)).reshape(2 * m, 2 * m)
    assert _same_bits(coarse, fine[::2, ::2].ravel())


@pytest.mark.parametrize("case,m", [("B2", 86), ("B2", 110), ("B2", 220),
                                    ("BC2", 96), ("BC2", 240)])
def test_phase_tables_match_whole_grid_evaluation(case, m, b2, bc2):
    # c-functions, half phases and delta read once per distinct phase equal
    # the same expressions evaluated at every grid point
    rs, spec = (b2, _b2_spec(b2)) if case == "B2" else (bc2, _bc2_spec(bc2))
    grid = QuadratureGrid(rs, m)
    chat = np.ones(grid.size, dtype=complex)
    for a, c in zip(rs.positive_roots_1, spec.cfunctions):
        chat *= c._eval_raw(grid.exponential(np.negative(rs.root_coords(a))))
    assert _same_bits(chat_values(spec, grid), chat)
    for (ac, half), c in zip(root_half_phases(spec, grid), spec.cfunctions):
        assert _same_bits(half, shat_sqrt(c, grid.angles(ac)))
    delta = np.ones(grid.size, dtype=complex)
    for a in rs.positive_roots_0:
        delta *= 2j * np.sin(grid.angles(rs.root_coords(a)) / 2.0)
    assert _same_bits(delta_values(rs, grid), delta)


@pytest.mark.parametrize("label,rank,tops,m", [
    ("A", 2, [(8, 8)], 74), ("B", 2, [(8, 8), (7, 7)], 110), ("BC", 2, [(6, 6)], 86),
    ("G", 2, [(4, 4)], 102), ("C", 3, [(2, 2, 2)], 62), ("BC", 1, [(150,), (149,)], 606)])
def test_orbit_first_rung_closed_form(label, rank, tops, m):
    rs = build_root_system(label, rank)
    weights = rs.saturated_weights(tops)
    polys = [monomial_symmetric(rs, mu) for mu in weights]
    assert orbit_first_rung(rs, weights) == first_rung(rs, [p.support() for p in polys]) == m


@pytest.mark.parametrize("label", ["B", "BC"])
def test_gram_schmidt_passes_its_first_rung_to_the_ladder(label, monkeypatch):
    # the orbit path hands the closed-form first rung, already checked
    # against the byte budget, to the ladder; no support union is built
    import alcove.harmonic as harmonic
    rs, spec, _ = _ladder_case(label, 2)

    def refuse(*args):
        raise AssertionError("first_rung called on the orbit path")

    monkeypatch.setattr(harmonic, "first_rung", refuse)
    system = gram_schmidt(rs, spec, [(3, 3)])
    m0 = orbit_first_rung(rs, system.weights)
    assert system.grid_m in (m0, 2 * m0, 4 * m0, 8 * m0)


def test_gram_matrix_matches_column_stack_formula(b2):
    # B2 and BC2 orbit sums are real-valued: the real Gram matrix has the
    # bits of the real part of the column-stack product
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    system = gram_schmidt(b2, spec, [(3, 3)])
    grid = QuadratureGrid(b2, 40)
    polys = system.monomials
    w = measure_values(spec, grid) / (grid.size * b2.weyl_order())
    E = np.column_stack([p.eval_grid(grid) for p in polys])
    assert _same_bits(gram_matrix(polys, spec, grid), ((E * w[:, None]).T @ E.conj()).real)
    assert _same_bits(WaveTable(system, grid).monomial_values, E)
    bc2 = build_root_system("BC", 2)
    spec = koornwinder_spec(bc2, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    polys = [monomial_symmetric(bc2, lam) for lam in [(0, 0), (1, 0), (2, 1), (3, 3)]]
    grid = QuadratureGrid(bc2, 24)
    w = measure_values(spec, grid) / (grid.size * bc2.weyl_order())
    E = np.column_stack([p.eval_grid(grid) for p in polys])
    assert _same_bits(gram_matrix(polys, spec, grid), ((E * w[:, None]).T @ E.conj()).real)


def _ladder_case(label, rank):
    """A non-unit spec and a few polynomials on each system, one of them
    with the int, Fraction and complex coefficient mix of _terms."""
    rs = build_root_system(label, rank)
    if label == "BC":
        spec = koornwinder_spec(rs, 1.1, (0.9, 0.7, 0.6, 0.8), 0.45)
    else:
        lengths = sorted({float(sum(x * x for x in a)) for a in rs.positive_roots})
        spec = macdonald_spec(rs, dict(zip(lengths, (0.9, 1.4))), 0.5)
    tops = {1: [(4,)], 2: [(2, 1)], 3: [(1, 0, 0)]}[rank]
    polys = [monomial_symmetric(rs, mu) for mu in rs.saturated_weights(tops)]
    axis = np.eye(rank, dtype=np.int64)
    polys.append(LaurentPoly(rs, _terms([axis[0], -axis[-1], axis[0] + axis[-1]])))
    return rs, spec, polys


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2), ("BC", 1),
                                        ("BC", 2), ("A", 3)])
def test_ladder_gram_matches_fresh_grid_bitwise(label, rank, monkeypatch):
    # the ladder takes the Gram matrix of the rung 2m first and then reads
    # the rung m off its even points, in the same buffer; every Gram matrix
    # must equal that of a fresh grid to the bit
    import alcove.harmonic as harmonic
    rs, spec, polys = _ladder_case(label, rank)
    m0 = first_rung(rs, [p.support() for p in polys])
    seen = []

    def recording(polys, spec, grid, values=None):
        seen.append((grid.M, gram_matrix(polys, spec, grid, values)))
        return seen[-1][1]

    monkeypatch.setattr(harmonic, "gram_matrix", recording)
    with pytest.raises(QuadratureError):
        gram_ladder(polys, spec, m0, 0.0, 4 * m0)
    assert [m for m, _ in seen] == [2 * m0, m0, 4 * m0]
    for m, gram in seen:
        assert _same_bits(gram, gram_matrix(polys, spec, QuadratureGrid(rs, m)))


@pytest.mark.parametrize("label,rank", [("B", 2), ("BC", 1), ("A", 3)])
def test_ladder_evaluates_each_point_once(label, rank, monkeypatch):
    # the first rung is read off the even points of the second: over the
    # whole ladder each polynomial is evaluated once on every rung from 2m
    # on, and never on the first rung m
    rs, spec, polys = _ladder_case(label, rank)
    m0 = first_rung(rs, [p.support() for p in polys])
    calls = []
    original = QuadratureGrid.eval_terms

    def counting(grid, terms, out=None, acc=None):
        calls.append((id(terms), grid.M))
        return original(grid, terms, out, acc)

    monkeypatch.setattr(QuadratureGrid, "eval_terms", counting)
    with pytest.raises(QuadratureError):
        gram_ladder(polys, spec, m0, 0.0, 4 * m0)
    assert sorted(calls) == sorted((id(p.terms), m) for p in polys
                                   for m in (2 * m0, 4 * m0))


@pytest.mark.parametrize("label,rank,m", [("A", 2, 30), ("B", 2, 44), ("G", 2, 36),
                                          ("BC", 1, 64), ("BC", 2, 40), ("A", 3, 14)])
def test_coset_phases_match_direct_sum(label, rank, m):
    # eval_terms (the views of the table and the lane sums) against the
    # direct sum on the full grid
    rs = build_root_system(label, rank)
    grid = QuadratureGrid(rs, m)
    box = itertools.product(range(-4, 5), repeat=rank)
    terms = _terms(list(box)[:150])
    assert _same_bits(grid.eval_terms(terms), _direct_sum(grid, terms))


@pytest.mark.parametrize("label,m", [("B", 37), ("BC", 26)])
def test_blocked_gram_matches_one_call_product(label, m):
    # above 32 rows gram_matrix weights and multiplies the rows in near-equal
    # blocks; every block's product keeps the bits of the real part of the
    # one-call product (a property of the BLAS kernel: OpenBLAS's SkylakeX
    # kernel has it, its Haswell kernel does not; see README.md)
    rs, spec, _ = _ladder_case(label, 2)
    weights = rs.saturated_weights([(12, 12)])
    grid = QuadratureGrid(rs, m)
    w = measure_values(spec, grid) / (grid.size * rs.weyl_order())
    for n in (5, 27, 79, 121):
        polys = [monomial_symmetric(rs, mu) for mu in weights[:n]]
        E = grid.eval_polys(polys)
        assert _same_bits(gram_matrix(polys, spec, grid), ((E * w) @ np.conjugate(E).T).real)


def test_gram_matrix_reads_read_only_values(a2, a2_macdonald):
    # given values are only read: read-only rows of a complex (A2) and a
    # packed real (B2) family give the Gram matrix of a fresh evaluation
    spec = a2_macdonald.cspec()
    grid = QuadratureGrid(a2, 40)
    polys = [monomial_symmetric(a2, mu) for mu in a2.saturated_weights([(4, 4)])]
    E = grid.eval_polys(polys)
    E.setflags(write=False)
    w = measure_values(spec, grid) / (grid.size * a2.weyl_order())
    gram = gram_matrix(polys, spec, grid, E)
    assert gram.dtype == complex and len(polys) <= 32
    assert _same_bits(gram, gram_matrix(polys, spec, grid))
    assert _same_bits(gram, (E * w) @ np.conjugate(E).T)
    rs, spec, grid, polys = _real_case("B", 2, 37)
    rows = grid.eval_real(polys)
    rows.setflags(write=False)
    assert _same_bits(gram_matrix(polys, spec, grid, rows), gram_matrix(polys, spec, grid))


# real-valued families (-1 is in W) on small grids
REAL_CASES = [("B", 2, 37), ("C", 2, 40), ("G", 2, 30), ("BC", 1, 300), ("BC", 2, 36)]
REAL_ROWS = (1, 2, 3, 43, 121)


def _real_case(label, rank, m):
    """The first 121 orbit sums below (12, 12), or (130,) on rank one."""
    rs, spec, _ = _ladder_case(label, rank)
    weights = rs.saturated_weights([(12, 12)] if rank == 2 else [(130,)])
    polys = [monomial_symmetric(rs, mu) for mu in weights[:max(REAL_ROWS)]]
    return rs, spec, QuadratureGrid(rs, m), polys


def test_real_valued_families(a2, b2):
    # terms closed under mu -> -mu with conjugate coefficients
    from alcove.harmonic import real_valued
    assert real_valued([monomial_symmetric(b2, (2, 1)), monomial_symmetric(a2, (1, 1))])
    assert not real_valued([monomial_symmetric(b2, (1, 0)), monomial_symmetric(a2, (1, 0))])
    assert real_valued([LaurentPoly(a2, {(1, 0): 2 - 1j, (-1, 0): 2 + 1j,
                                         (0, 0): Fraction(1, 3)})])
    assert not real_valued([LaurentPoly(a2, {(1, 0): 1j, (-1, 0): 1j})])
    assert not real_valued([LaurentPoly(a2, {(0, 0): 1j})])


@pytest.mark.parametrize("label,rank,m", REAL_CASES)
def test_real_gram_matches_real_part_of_one_call_product(label, rank, m):
    # two real rows go into one complex row; the real Gram matrix has the
    # bits of the real part of the complex one-call product, also for odd n,
    # which leaves half of the last packed row empty
    rs, spec, grid, polys = _real_case(label, rank, m)
    w = measure_values(spec, grid) / (grid.size * rs.weyl_order())
    for n in REAL_ROWS:
        E = grid.eval_polys(polys[:n])
        gram = gram_matrix(polys[:n], spec, grid)
        assert gram.dtype == float and gram.shape == (n, n)
        assert _same_bits(gram, ((E * w) @ np.conjugate(E).T).real), n


@pytest.mark.parametrize("label,rank,m", [("B", 2, 37), ("BC", 1, 300), ("BC", 2, 36)])
def test_one_complex_poly_keeps_the_complex_gram(label, rank, m):
    # one polynomial that is not real, e^{i<mu, xi>}, sends the family down
    # the complex path, with the bits of the complex one-call product (in
    # blocks above 32 rows: OpenBLAS's SkylakeX kernel; see README.md)
    rs, spec, grid, polys = _real_case(label, rank, m)
    w = measure_values(spec, grid) / (grid.size * rs.weyl_order())
    for n in REAL_ROWS:
        family = polys[:n - 1] + [LaurentPoly.monomial(rs, (1,) * rank)]
        E = grid.eval_polys(family)
        gram = gram_matrix(family, spec, grid)
        assert gram.dtype == complex
        assert _same_bits(gram, (E * w) @ np.conjugate(E).T), n


@pytest.mark.parametrize("label,rank", [("B", 2), ("G", 2), ("BC", 1), ("BC", 2)])
def test_real_ladder_takes_its_grams_from_packed_rungs(label, rank, monkeypatch):
    # a real family's ladder holds ceil(n/2) packed rows per rung, reads the
    # rung m off the rung 2m's packed rows, and still evaluates each
    # polynomial once on every rung but the first
    import alcove.harmonic as harmonic
    rs, spec, _ = _ladder_case(label, rank)
    tops = {1: [(4,)], 2: [(2, 1)]}[rank]
    polys = [monomial_symmetric(rs, mu) for mu in rs.saturated_weights(tops)]
    m0 = first_rung(rs, [p.support() for p in polys])
    seen, calls = [], []
    original = QuadratureGrid.eval_terms

    def recording(polys, spec, grid, values=None):
        shape = None if values is None else values.shape
        seen.append((grid.M, shape, gram_matrix(polys, spec, grid, values)))
        return seen[-1][-1]

    def counting(grid, terms, out=None, acc=None):
        calls.append((id(terms), grid.M))
        return original(grid, terms, out, acc)

    monkeypatch.setattr(harmonic, "gram_matrix", recording)
    monkeypatch.setattr(QuadratureGrid, "eval_terms", counting)
    with pytest.raises(QuadratureError):
        gram_ladder(polys, spec, m0, 0.0, 4 * m0)
    monkeypatch.undo()
    rows = (len(polys) + 1) // 2
    assert [(m, shape) for m, shape, _ in seen] == [
        (2 * m0, (rows, (2 * m0) ** rank)), (m0, (rows, m0 ** rank)), (4 * m0, None)]
    assert set(calls) == {(id(p.terms), m) for p in polys for m in (2 * m0, 4 * m0)}
    assert len(calls) == 2 * len(polys)
    for m, _, gram in seen:
        assert gram.dtype == float
        assert _same_bits(gram, gram_matrix(polys, spec, QuadratureGrid(rs, m)))


def _ladder_peak(polys, spec, m):
    """(traced peak, checked bytes) of a ladder of polys from the rung m that
    builds the rungs m and 2m only.  Nothing is warmed up first: in a fresh
    process the first ladder's peak is at most 40 kB above a second one's."""
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError):
            gram_ladder(polys, spec, m, 0.0, 2 * m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (2 * m) ** polys[0].rs.rank
    return peak, gram_bytes(len(polys), size)


# the traced peak of a ladder over the bytes check_ladder refuses on: the
# Gram matrices are not counted (measured: at most 1.016 in the cases below)
LADDER_MARGIN = 1.03


def test_gram_ladder_holds_values_and_one_block(b2):
    # no weighted copy of the values: the traced peak stays near the rung
    # 2m's values plus one block of rows (two blocks of 21 and 22 here)
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    polys = [monomial_symmetric(b2, mu) for mu in b2.saturated_weights([(6, 6)])]
    m0 = first_rung(b2, [p.support() for p in polys])
    n, size = len(polys), (2 * m0) ** 2
    assert n == 43 and gram_bytes(n, size) == 16 * size * (n + 22) + 8 * size
    peak, checked = _ladder_peak(polys, spec, m0)
    assert peak <= LADDER_MARGIN * checked


def test_gram_ladder_reads_the_first_rung_in_place(b2):
    # with more than three blocks of rows, a copy of the even points beside
    # the rung 2m's values (n / 4 rows) would outgrow one block: the rung m
    # is read into the head of the same buffer instead
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    polys = [monomial_symmetric(b2, mu) for mu in b2.saturated_weights([(14, 14)])]
    n, m = len(polys), 64
    assert n == 197
    assert gram_bytes(n, (2 * m) ** 2) == (2 * m) ** 2 * (16 * (n + 29) + 8)
    peak, checked = _ladder_peak(polys, spec, m)
    assert peak <= LADDER_MARGIN * checked


def test_complex_ladder_reads_the_first_rung_in_place(a2):
    # the same on A2, whose orbit sums are not real: the even points are
    # read into the head of the conjugated values and conjugated back
    spec = MacdonaldParams.create(a2, 0.9, 0.5).cspec()
    polys = [monomial_symmetric(a2, mu) for mu in a2.saturated_weights([(14, 14)])]
    n, m = len(polys), 64
    assert n == 113
    assert gram_bytes(n, (2 * m) ** 2) == (2 * m) ** 2 * (16 * (n + 29) + 8)
    peak, checked = _ladder_peak(polys, spec, m)
    assert peak <= LADDER_MARGIN * checked


@pytest.mark.parametrize("top,m,n", [((6, 6), None, 43), ((14, 14), 64, 197)])
def test_real_ladder_holds_half_the_values(b2, top, m, n):
    # packed rows take 8 B per value: the traced peak stays near ceil(n/2)
    # complex rows plus one block and the measure, and well below the
    # complex layout's bytes, which check_ladder still counts
    import alcove.harmonic as harmonic
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    polys = [monomial_symmetric(b2, mu) for mu in b2.saturated_weights([top])]
    m = m or first_rung(b2, [p.support() for p in polys])
    size = (2 * m) ** 2
    block = harmonic._block_rows(harmonic._row_blocks(n))
    real = 16 * size * ((n + 1) // 2 + block) + 8 * size
    assert len(polys) == n
    peak, checked = _ladder_peak(polys, spec, m)
    assert checked - real == 16 * size * (n - (n + 1) // 2)
    assert peak <= LADDER_MARGIN * real
    assert peak <= 0.75 * checked


def test_a3_ladder_holds_values_and_its_evaluation_scratch():
    # 24-term orbits and four rows: eval_terms reads its terms as views of
    # the table and sums them in two accumulator rows, which a block of the
    # Gram product (four rows) outweighs, and the check counts the block
    a3 = build_root_system("A", 3)
    spec = macdonald_spec(a3, {2.0: 0.9}, 0.5)
    polys = [monomial_symmetric(a3, mu) for mu in a3.saturated_weights([(1, 1, 1)])]
    size = 24 ** 3
    assert len(polys) == 4 and max(map(len, polys)) == 24
    assert gram_bytes(4, size) == size * (16 * 4 + 16 * 4 + 8)
    peak, checked = _ladder_peak(polys, spec, 12)
    assert peak <= LADDER_MARGIN * checked


def test_ladder_check_counts_the_measure():
    # the same A3 ladder: its peak passes the values and one block by about
    # 9 B per point, which the float measure (8 B) accounts for (measured:
    # 8.75 to 9.06 B per point, and the peak is 1.005 to 1.008 of the check)
    a3 = build_root_system("A", 3)
    spec = macdonald_spec(a3, {2.0: 0.9}, 0.5)
    polys = [monomial_symmetric(a3, mu) for mu in a3.saturated_weights([(1, 1, 1)])]
    size = 24 ** 3
    peak, checked = _ladder_peak(polys, spec, 12)
    assert checked - 8 * size == size * (16 * 4 + 16 * 4)
    assert peak > checked - 8 * size + 7 * size
    assert peak <= 1.01 * checked


def _large_case(label, m):
    """A grid of m^2 points, the size of ray-b2's rungs, and 121 orbit sums."""
    rs, spec, _ = _ladder_case(label, 2)
    grid = QuadratureGrid(rs, m)
    polys = [monomial_symmetric(rs, mu) for mu in rs.saturated_weights([(12, 12)])[:121]]
    return rs, spec, grid, polys


LARGE_GRAM_ROWS = (5, 27, 79, 121)


@pytest.mark.parametrize("label,m", [("B", 150), ("BC", 144)])
def test_large_grid_rows_and_gram_keep_their_bits(label, m):
    # values written through a transposed view are the rows of eval_polys,
    # packed rows are the real parts of those rows, and the Gram matrix of
    # given packed rows, which it leaves as they are, is the one gram_matrix
    # forms from its own evaluation
    rs, spec, grid, polys = _large_case(label, m)
    E = grid.eval_polys(polys)
    columns = np.empty((grid.size, 5), dtype=complex)
    grid.eval_polys(polys[:5], out=columns.T)
    assert _same_bits(np.ascontiguousarray(columns.T), E[:5])
    packed = [grid.eval_real(polys[:n]) for n in LARGE_GRAM_ROWS]
    assert _same_bits(packed[-1].real, E[0::2].real)
    assert _same_bits(packed[-1].imag[:-1], E[1::2].real)
    assert not packed[-1].imag[-1].any()
    for n, rows in zip(LARGE_GRAM_ROWS, packed):
        kept = rows.copy()
        gram = gram_matrix(polys[:n], spec, grid, rows)
        assert _same_bits(rows, kept)
        assert _same_bits(gram, gram_matrix(polys[:n], spec, grid)), n


def test_large_grid_gram_matches_one_call_product_with_one_blas_thread():
    # with one BLAS thread every block's product keeps the bits of the real
    # part of the one-call product (E * w) @ conj(E).T (OpenBLAS SkylakeX;
    # see README.md); a threaded BLAS splits the one-call product its own
    # way, so this runs in a child with one BLAS thread
    code = """
import numpy as np
from test_harmonic import LARGE_GRAM_ROWS, _same_bits, _large_case
from alcove.harmonic import gram_matrix, measure_values
for label, m in [("B", 150), ("BC", 144)]:
    rs, spec, grid, polys = _large_case(label, m)
    w = measure_values(spec, grid) / (grid.size * rs.weyl_order())
    E = grid.eval_polys(polys)
    for n in LARGE_GRAM_ROWS:
        gram = gram_matrix(polys[:n], spec, grid, grid.eval_real(polys[:n]))
        one_call = (E[:n] * w) @ np.conjugate(E[:n]).T
        assert _same_bits(gram, one_call.real), (label, n)
"""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


def _avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2"))


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("env", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"},
                 marks=pytest.mark.skipif(not _avx2(), reason="no AVX2")),
    {"OPENBLAS_NUM_THREADS": "2"}], ids=["haswell", "two-blas-threads"])
def test_real_gram_is_the_real_part_of_the_complex_gram_on_other_kernels(env):
    # the real path rests on zgemm summing each lane of a product alike:
    # on the AVX2 kernel, and with two BLAS threads, the real Gram matrices
    # of ray-b2's two rungs are still the real parts of the complex path's.
    # The complex path conjugates its finished product, which rests on zgemm
    # rounding negated imaginary parts alike: on A2 its Gram matrices keep
    # the bits of the blocks (E * w) @ conj(E).T over the same row blocks
    code = """
import numpy as np
import alcove.harmonic as harmonic
from test_harmonic import _ladder_case, _same_bits
from alcove.harmonic import QuadratureGrid, gram_matrix, measure_values, monomial_symmetric
from alcove.orthopoly import MacdonaldParams
from alcove.rootsys import build_root_system
rs, spec, _ = _ladder_case("B", 2)
weights = rs.saturated_weights([(12, 12)])
real_valued = harmonic.real_valued
for m in (110, 220):
    grid = QuadratureGrid(rs, m)
    for n in (1, 2, 3, 43, 121):
        polys = [monomial_symmetric(rs, mu) for mu in weights[:n]]
        harmonic.real_valued = real_valued
        gram = gram_matrix(polys, spec, grid)
        harmonic.real_valued = lambda polys: False
        assert _same_bits(gram, gram_matrix(polys, spec, grid).real), (m, n)
harmonic.real_valued = real_valued
a2 = build_root_system("A", 2)
spec = MacdonaldParams.create(a2, 1.3, float(np.exp(-0.7))).cspec()
for top, n, m in [((8, 8), 41, 74), ((14, 14), 113, 128)]:
    polys = [monomial_symmetric(a2, mu) for mu in a2.saturated_weights([top])]
    assert len(polys) == n
    grid = QuadratureGrid(a2, m)
    w = measure_values(spec, grid) / (grid.size * a2.weyl_order())
    E = grid.eval_polys(polys)
    edges = harmonic._row_blocks(len(polys))
    blocks = np.concatenate([(E[a:b] * w) @ np.conjugate(E).T
                             for a, b in zip(edges, edges[1:])])
    assert _same_bits(gram_matrix(polys, spec, grid), blocks), (top, m)
"""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_unit_coefficient_sums_keep_the_bits_of_the_blas_product():
    # with coefficients +-1 every product is exact, so the order of the sum
    # alone fixes its bits: eval_terms sums in the order of OpenBLAS's zgemv,
    # so every block width, on the table path (B2) and the direct path
    # (BC1), and every orbit sum, alternating sum and orbit symbol keeps the
    # bits of roots @ coeffs, which the ray-b2 references were recorded with
    rng = np.random.default_rng(5)
    for label, rank, m, reach in [("B", 2, 30, 9), ("BC", 1, 200, 80)]:
        grid = QuadratureGrid(build_root_system(label, rank), m)
        box = list(itertools.product(range(-reach, reach + 1), repeat=rank))
        for w in list(range(1, 65)) + [65, 100, 150]:
            picks = rng.choice(len(box), size=w, replace=False)
            signs = rng.choice([1, -1], size=w) if w % 2 else np.ones(w, dtype=int)
            terms = {box[i]: int(s) for i, s in zip(picks, signs)}
            assert _same_bits(grid.eval_terms(terms), _blas_sum(grid, terms)), (label, w)
    for label, rank, top, m in [("A", 2, (3, 3), 20), ("B", 2, (3, 3), 22), ("G", 2, (2, 2), 26),
                                ("BC", 1, (20,), 100), ("BC", 2, (3, 3), 22),
                                ("A", 3, (1, 1, 1), 10), ("B", 3, (1, 1, 1), 8)]:
        rs = build_root_system(label, rank)
        grid = QuadratureGrid(rs, m)
        for lam in rs.saturated_weights([top]):
            shifted = tuple(a + b for a, b in zip(rs.rho_coords, lam))
            for p in (monomial_symmetric(rs, lam), alternating_sum(rs, shifted),
                      orbit_symbol(rs, lam)):
                assert _same_bits(p.eval_grid(grid), _blas_sum(grid, p.terms)), (label, lam)


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_evaluation_keeps_its_bits_on_every_blas_kernel():
    # eval_terms makes no BLAS call: ray-b2's family on its two rungs and
    # the BC1 family of depth 150 on its two rungs evaluate to the same bits
    # under the default kernel, the AVX2 kernel and two BLAS threads
    code = """
import hashlib
from alcove.harmonic import QuadratureGrid, monomial_symmetric
from alcove.rootsys import build_root_system
digest = hashlib.sha256()
for label, rank, tops, rungs in [("B", 2, [(8, 8), (7, 7)], (110, 220)),
                                 ("BC", 1, [(150,), (149,)], (606, 1212))]:
    rs = build_root_system(label, rank)
    polys = [monomial_symmetric(rs, mu) for mu in rs.saturated_weights(tops)]
    for m in rungs:
        grid = QuadratureGrid(rs, m)
        digest.update(grid.eval_polys(polys).tobytes())
        digest.update(grid.eval_real(polys).tobytes())
print(digest.hexdigest())
"""
    tests = Path(__file__).resolve().parent
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = str(tests.parent / "src")
    envs = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    if _avx2():
        envs.append({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"})
    digests = []
    for env in envs:
        proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(set(digests)) == 1, envs


def test_large_grid_sums_match_direct_sum(b2, bc1):
    # blocks on grids of over 20,000 points, on the table path (B2, 150
    # terms in three blocks) and on the direct path (BC1 weights whose
    # phases span more integers than the block has values); a grid's later
    # sums read the table its first one built
    box = [mu for mu in itertools.product(range(-6, 7), repeat=2) if any(mu)]
    cases = [(b2, 150, _terms(np.random.default_rng(3).permutation(box)[:150])),
             (bc1, 24000, _terms([(s * mu,) for mu in range(40, 100) for s in (1, -1)]))]
    for rs, m, terms in cases:
        grid = QuadratureGrid(rs, m)
        values = [grid.eval_terms(terms) for _ in range(3)]
        assert (grid._table.size > 0) == (rs.rank == 2)
        direct = _direct_sum(grid, terms)
        assert all(_same_bits(v, direct) for v in values)


def test_gram_budget_is_checked_before_a_rung_allocates(b2, monkeypatch):
    import alcove.harmonic as harmonic
    import alcove.rootsys as rootsys
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    polys = [monomial_symmetric(b2, mu) for mu in b2.saturated_weights([(6, 6)])]
    m0 = first_rung(b2, [p.support() for p in polys])
    # the first rung fits, the second does not: a non-unit ladder always
    # builds the second, so neither is built
    monkeypatch.setattr(rootsys, "GRAM_BYTES_BUDGET", gram_bytes(43, m0 ** 2))
    built = []

    class RecordingGrid(QuadratureGrid):
        def __init__(self, rs, M):
            built.append(M)
            super().__init__(rs, M)

    monkeypatch.setattr(harmonic, "QuadratureGrid", RecordingGrid)
    with pytest.raises(BudgetExceededError) as err:
        gram_ladder(polys, spec, m0, 0.0, 4 * m0)
    assert built == []
    required = gram_bytes(43, (2 * m0) ** 2)
    assert err.value.required == required
    assert f"43 weights on B2 at M={2 * m0} has {required} bytes" in str(err.value)


def test_ladder_refuses_its_second_rung_before_the_first(b2, monkeypatch):
    # a second rung above max_m or above the grid point budget is refused
    # before any grid is built
    import alcove.harmonic as harmonic
    import alcove.rootsys as rootsys
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    polys = [monomial_symmetric(b2, mu) for mu in b2.saturated_weights([(6, 6)])]
    m0 = first_rung(b2, [p.support() for p in polys])
    built = []

    class RecordingGrid(QuadratureGrid):
        def __init__(self, rs, M):
            built.append(M)
            super().__init__(rs, M)

    monkeypatch.setattr(harmonic, "QuadratureGrid", RecordingGrid)
    with pytest.raises(QuadratureError) as err:
        gram_ladder(polys, spec, m0, 0.0, 2 * m0 - 1)
    assert f"needs M={2 * m0}" in str(err.value)
    monkeypatch.setattr(rootsys, "GRID_POINT_BUDGET", m0 ** 2)
    with pytest.raises(BudgetExceededError) as err:
        gram_ladder(polys, spec, m0, 0.0, 4 * m0)
    assert err.value.required == (2 * m0) ** 2
    assert built == []


def _scalar_eval(p, xi):
    """The term-by-term sum at one (possibly complex) ambient point, and the
    sum of the moduli of its terms."""
    vals = [complex(c) * np.exp(1j * np.dot(v, xi))
            for c, v in zip(p.terms.values(), p.rs.float_weights(list(p.terms)))]
    return sum(vals, 0j), sum(abs(v) for v in vals)


def test_evaluate_matches_scalar_loop(a2, bc2):
    # one point at a time, and the same points stacked into one batch
    rng = np.random.default_rng(11)
    for rs in (a2, bc2):
        box = list(itertools.product(range(-3, 4), repeat=rs.rank))
        for p in (LaurentPoly(rs, _terms(box)), LaurentPoly.zero(rs)):
            points = []
            for _ in range(4):
                xi = rng.normal(size=rs.dim)
                shift = rng.normal(size=rs.dim)
                s = float(rng.uniform(0.1, 1.5))
                points.append([xi, xi + 0.3j * shift, xi + 1j * s * shift])
            batch = p.evaluate(np.array(points))
            assert batch.shape == (4, 3)
            for row, values in zip(points, batch):
                for point, batched in zip(row, values):
                    value = p.evaluate(point)
                    ref, scale = _scalar_eval(p, point)
                    assert isinstance(value, complex)
                    assert abs(value - ref) <= 1e-13 * scale
                    assert abs(batched - ref) <= 1e-13 * scale
                    if not p.terms:
                        assert value == batched == 0


def test_grid_budget_is_checked_before_allocating():
    e6 = build_root_system("E", 6)
    with pytest.raises(BudgetExceededError) as err:
        QuadratureGrid(e6, 48)
    assert err.value.required == 48 ** 6
    assert "M=48" in str(err.value) and f"{48 ** 6} points" in str(err.value)
