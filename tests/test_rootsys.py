import ast
import inspect
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import alcove
from alcove.rootsys import (BudgetExceededError, RootSystem, build_root_system, coroot,
                            dot, weyl_order, _solve)


def test_basic_counts(a1, a2, bc2):
    assert len(a2.positive_roots) == 3
    assert len(bc2.positive_roots_0) == 4
    assert len(bc2.positive_roots_1) == 4
    assert a1.rho_coords == (1,)  # rho = omega_1


def test_invalid_labels():
    with pytest.raises(ValueError):
        build_root_system("H", 3)
    with pytest.raises(ValueError):
        build_root_system("B", 1)
    with pytest.raises(ValueError):
        build_root_system("G", 3)


def test_dominance_order(a2):
    assert a2.dominance_leq((1, 1), (1, 1))
    assert a2.dominance_leq((0, 0), (1, 1))  # theta = a1 + a2
    assert not a2.dominance_leq((1, 0), (0, 1))
    assert not a2.dominance_leq((0, 1), (1, 0))


def test_dominance_is_partial_order(b2):
    weights = [c for c in itertools.product(range(4), repeat=2)]
    for x in weights:
        for y in weights:
            if a_leq := b2.dominance_leq(x, y):
                if b2.dominance_leq(y, x):
                    assert x == y  # antisymmetry
            for z in weights:
                if b2.dominance_leq(x, y) and b2.dominance_leq(y, z):
                    assert b2.dominance_leq(x, z)  # transitivity


def test_weyl_orbits(a2):
    assert a2.weyl_orbit((0, 0)) == {(0, 0)}
    assert len(a2.weyl_orbit((1, 0))) == 3
    # quasi-minuscule orbit consists of all short roots
    pi = a2.quasi_minuscule_weight()
    orbit = {a2.weight_vector(nu) for nu in a2.weyl_orbit(pi)}
    assert orbit == set(a2.roots)


def test_dominant_representative(a2, bc1):
    lam, sign, regular = a2.dominant_representative((2, 1))
    assert (lam, sign, regular) == ((2, 1), 1, True)
    # BC1 boundary rule: rho + (-omega_1) = 0 has a nontrivial stabilizer
    _, _, regular = bc1.dominant_representative((0,))
    assert not regular
    # -alpha_1 on A2: r_1 sends it to alpha_1 = (2,-1), which is still not
    # dominant; the dominant representative is theta, reached in two
    # reflections (even sign), and the parity matches det(w)
    malpha1 = a2.vector_coords(tuple(-x for x in a2.simple_roots[0]))
    lam, sign, regular = a2.dominant_representative(malpha1)
    assert regular and lam == (1, 1) and sign == 1
    halfway = a2.simple_reflection_coords(0, malpha1)
    assert halfway == (2, -1) and not a2.is_dominant(halfway)


def test_minuscule_tables():
    cases = {
        ("A", 3): ({(1, 0, 0), (0, 1, 0), (0, 0, 1)}, (1, 0, 1)),
        ("B", 3): ({(0, 0, 1)}, (1, 0, 0)),
        ("C", 2): ({(1, 0)}, (0, 1)),
        ("D", 4): ({(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}, (0, 1, 0, 0)),
        ("G", 2): (set(), (1, 0)),
        ("F", 4): (set(), (0, 0, 0, 1)),
        ("E", 8): (set(), (0,) * 7 + (1,)),
        ("BC", 3): (set(), (1, 0, 0)),
    }
    for (label, rank), (minus, quasi) in cases.items():
        rs = build_root_system(label, rank)
        assert set(rs.minuscule_weights()) == minus
        assert rs.quasi_minuscule_weight() == quasi


def test_longest_element(a2, b2):
    # w0 maps the dominant chamber to its negative
    for rs in (a2, b2):
        w0 = rs.longest_element()
        img = w0.act((2, 3))
        assert all(c <= 0 for c in img)


def test_weyl_enumeration_sizes(a2, bc2):
    assert len(a2.weyl_group()) == 6
    assert len(build_root_system("G", 2).weyl_group()) == 12
    assert len(bc2.weyl_group()) == 8


def test_enumeration_budget():
    e7 = build_root_system("E", 7)
    with pytest.raises(BudgetExceededError) as err:
        e7.weyl_group()
    assert err.value.required == 2903040


def test_group_closure_and_root_permutation(b2):
    group = b2.weyl_group()
    rootset = {b2.root_coords(a) for a in b2.roots}
    for w in group:
        for a in rootset:
            assert w.act(a) in rootset
    # closed under composition
    mats = {w.matrix for w in group}
    for w in group[:4]:
        for v in group:
            assert b2.element(w.word + v.word).matrix in mats


def test_sign_equals_matrix_determinant(b2):
    for w in b2.weyl_group():
        assert int(round(np.linalg.det(w.matrix))) == w.sign


def test_dominant_rep_tracks_group(a2):
    lam = (2, 1)  # dominant regular
    for w in a2.weyl_group():
        mu = w.act(lam)
        dom, sign, regular = a2.dominant_representative(mu)
        assert dom == lam and regular and sign == w.sign


def test_pairing_integrality(b2, bc2):
    for rs in (b2, bc2):
        for mu in itertools.product(range(-2, 3), repeat=2):
            v = rs.weight_vector(mu)
            for a in rs.roots:
                assert dot(v, coroot(a)).denominator == 1


def test_bc_lattice_conventions(bc2):
    # <rho, alpha^vee> = 1 on the simple roots of R0 (the basis simples)
    rho = bc2.weight_vector(bc2.rho_coords)
    for b in bc2.simple_roots:
        assert dot(rho, coroot(b)) == 1
    # fundamental weights pair to delta with the basis coroots
    for r, w in enumerate(bc2.fundamental_weights):
        for j, b in enumerate(bc2.simple_roots):
            assert dot(w, coroot(b)) == Fraction(int(r == j))


def test_saturated_weights(a2):
    sat = a2.saturated_weights([(2, 2)])
    assert set(sat) == {(0, 0), (1, 1), (2, 2), (3, 0), (0, 3)}
    # downward closed under dominance
    for mu in sat:
        for nu in sat:
            assert not a2.dominance_leq(nu, mu) or nu in sat


def test_linear_extension_respects_dominance(b2):
    # saturated_weights lists the weights in a linear extension of dominance
    sat = b2.saturated_weights([(3, 2), (2, 3)])
    pos = {mu: i for i, mu in enumerate(sat)}
    for mu in sat:
        for nu in sat:
            if mu != nu and b2.dominance_leq(mu, nu):
                assert pos[mu] < pos[nu]


def test_min_coroot_pairing(b2):
    assert b2.min_coroot_pairing((1, 0)) == 0
    assert b2.min_coroot_pairing((1, 1)) == 1
    assert b2.min_coroot_pairing((2, 2)) == 2


def test_dual_system(b2):
    dual = b2.dual()
    lens = sorted({float(dot(a, a)) for a in dual.positive_roots})
    assert lens == [2.0, 4.0]  # C2-type realization
    assert dual.dual() is dual._dual or dual.dual().label.endswith("vv") is False
    bc = build_root_system("BC", 2)
    assert bc.dual() is bc


# -- float and integer views -------------------------------------------------

VIEW_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4),
              ("G", 2), ("F", 4), ("E", 6), ("BC", 1), ("BC", 2),
              ("B", 2, "dual"), ("G", 2, "dual")]


def _case_id(case):
    return "".join(map(str, case))


def _view_system(case):
    rs = build_root_system(case[0], case[1])
    return rs.dual() if len(case) > 2 else rs


def _box(rs, r):
    return list(itertools.product(range(-r, r + 1), repeat=rs.rank))


def _over_lcm(rows):
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def _floats(vecs):
    return [[float(x) for x in v] for v in vecs]


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_root_float_views_are_correctly_rounded(case):
    rs = _view_system(case)
    coroots = [coroot(a) for a in rs.roots]
    assert rs.roots_f.tolist() == _floats(rs.roots)
    assert rs.coroots_f.tolist() == _floats(coroots)
    assert rs.root_len2.tolist() == [float(dot(a, a)) for a in rs.roots]
    assert rs.positive_roots_f.tolist() == _floats(rs.positive_roots)
    assert rs.positive_coroots_f.tolist() == _floats(coroot(a) for a in rs.positive_roots)
    assert rs.positive_len2.tolist() == [float(dot(a, a)) for a in rs.positive_roots]
    assert rs.positive_coroot_len2.tolist() == [
        float(dot(coroot(a), coroot(a))) for a in rs.positive_roots]
    assert rs.positive_roots_0_f.tolist() == _floats(rs.positive_roots_0)
    assert rs.positive_roots_1_f.tolist() == _floats(rs.positive_roots_1)
    assert rs.positive_1_len2.tolist() == [float(dot(a, a)) for a in rs.positive_roots_1]
    assert rs.simple_roots_f.tolist() == _floats(rs.simple_roots)
    assert rs.simple_len2.tolist() == [float(dot(a, a)) for a in rs.simple_roots]
    assert rs.basis_coroots_f.tolist() == _floats(rs.basis_coroots)


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_weight_float_view_is_correctly_rounded(case):
    rs = _view_system(case)
    # literal float() of the exact vector on the small box
    for mu in _box(rs, 1):
        ref = [float(x) for x in rs.weight_vector(mu)]
        assert rs.float_weight(mu).tolist() == ref
    # on the box [-3, 3]^rank the exact vector is sum_r mu_r omega_r, written
    # as integer numerators over the lcm of the denominators; int / int is
    # correctly rounded, as float() of the exact Fraction is
    box = _box(rs, 3)
    num, den = _over_lcm(rs.fundamental_weights)
    exact = (np.array(box, dtype=np.int64) @ np.array(num, dtype=np.int64)).tolist()
    ref = [[n / den for n in row] for row in exact]
    assert rs.float_weights(box).tolist() == ref


def _qplus_reference(rs):
    """Today's Fraction formula: solve the Gram system of the generators
    against <a_j, mu>.  It is linear in mu, so for speed it is evaluated per
    fundamental weight and combined with integer numerators over the lcm of
    its denominators."""
    eye = [[Fraction(int(i == j)) for j in range(rs.rank)] for i in range(rs.rank)]
    gram_inv = _solve([[dot(a, b) for b in rs.gen_simples] for a in rs.gen_simples], eye)

    def formula(mu):
        v = rs.weight_vector(mu)
        rhs = [dot(a, v) for a in rs.gen_simples]
        return [sum(gram_inv[i][j] * rhs[j] for j in range(rs.rank))
                for i in range(rs.rank)]

    basis = [formula(tuple(int(j == r) for j in range(rs.rank))) for r in range(rs.rank)]
    num, den = _over_lcm(basis)

    def expansions(mus):
        exact = (np.array(mus, dtype=np.int64) @ np.array(num, dtype=np.int64)).tolist()
        return [None if any(n % den for n in row) else tuple(n // den for n in row)
                for row in exact]

    return formula, expansions


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_integer_qplus_expansion_matches_fractions(case):
    rs = _view_system(case)
    formula, expansions = _qplus_reference(rs)
    small = _box(rs, 1)
    for mu, got in zip(small, expansions(small)):
        coeffs = formula(mu)
        ref = None if any(c.denominator != 1 for c in coeffs) else \
            tuple(int(c) for c in coeffs)
        assert got == ref
    box = _box(rs, 3)
    assert [rs.qplus_expansion(mu) for mu in box] == expansions(box)


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_integer_pairing_tables_match_fractions(case):
    # <omega_j, alpha^vee> over every root, and <nu_j, alpha> for the
    # fundamental weights nu_j of the dual system, both in rs.roots order
    rs = _view_system(case)
    dual = rs.dual()
    assert rs.coroot_pairings.tolist() == [
        [dot(w, coroot(a)) for w in rs.fundamental_weights] for a in rs.roots]
    assert rs.coweight_pairings().tolist() == [
        [dot(nu, a) for nu in dual.fundamental_weights] for a in rs.roots]
    assert [rs.roots[k] for k in rs.positive_rows] == list(rs.positive_roots)


SATURATION_TOPS = {1: [(7,), (6,)], 2: [(3, 2), (1, 4)], 3: [(2, 1, 2), (0, 3, 0)],
                   4: [(1, 0, 0, 1), (0, 2, 0, 0)], 6: [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)]}


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_saturated_weights_match_per_candidate_scan(case):
    # a dominant mu <= top has |mu| <= |top|, and <omega_i, omega_j> >= 0, so
    # its coordinates satisfy mu_j^2 |omega_j|^2 <= |top|^2; each candidate
    # of that box is tested alone through qplus_expansion
    rs = _view_system(case)
    tops = SATURATION_TOPS[rs.rank]
    found = set()
    for top in tops:
        t = rs.weight_vector(top)
        bounds = [math.isqrt(math.floor(dot(t, t) / dot(w, w)))
                  for w in rs.fundamental_weights]
        for cand in itertools.product(*(range(b + 1) for b in bounds)):
            exp = rs.qplus_expansion(tuple(a - b for a, b in zip(top, cand)))
            if exp is not None and min(exp) >= 0:
                found.add(cand)
    assert rs.saturated_weights(tops) == sorted(found, key=lambda mu: (rs._ext_key(mu), mu))
    box = _box(rs, 3 if rs.rank <= 4 else 1)
    for top in tops:
        assert rs.dominance_leq(np.array(box), top).tolist() == \
            [rs.dominance_leq(mu, top) for mu in box]


# the float paths read the views above; these are the idioms that converted
# exact root data on the spot
CONVERSION_IDIOMS = re.compile(
    r"_fvec\(|float\((x|y)\) for (x|y) in|weight_vector\(|map\(float|"
    r"coroot\(a\)|dot\(a, a\)|dot\(alpha, alpha\)|round\(float\(")
FLOAT_PATH_MODULES = ("harmonic", "orthopoly", "laplacian", "scattering",
                      "evolution", "cli")


def test_root_data_conversion_stays_in_rootsys():
    src = Path(alcove.__file__).parent
    hits = []
    for name in FLOAT_PATH_MODULES:
        lines = (src / f"{name}.py").read_text().splitlines()
        for n, line in enumerate(lines, 1):
            # parsing the Koornwinder couplings of a config is not root data
            if CONVERSION_IDIOMS.search(line) and not re.search(r"gh?0123", line):
                hits.append(f"{name}.py:{n}: {line.strip()}")
    assert not hits


def test_weyl_order_closed_forms_and_limit():
    forms = {"A": lambda n: math.factorial(n + 1), "B": lambda n: 2 ** n * math.factorial(n),
             "D": lambda n: 2 ** (n - 1) * math.factorial(n)}
    forms["C"] = forms["BC"] = forms["B"]
    for label, form in forms.items():
        for n in range(3, 40):
            order = form(n)
            assert weyl_order(label, n) == order
            # the product stops at its first partial product above the limit
            for limit in (10 ** 5, order - 1, order, order + 1):
                bounded = weyl_order(label, n, limit)
                assert (bounded == order) if order <= limit else (limit < bounded <= order)
    for label, rank in [("A", 2), ("B", 3), ("BC", 2), ("D", 4), ("G", 2)]:
        assert weyl_order(label, rank) == len(build_root_system(label, rank).weyl_group())
    assert weyl_order("A", 10 ** 29, 10 ** 5) == math.factorial(9)
    with pytest.raises(ValueError):
        weyl_order("E", 9)


# -- integer Weyl action ------------------------------------------------------


def _weyl_sample(rs, order_limit=1152, size=200):
    """Every element of W when |W| <= order_limit, else a seeded sample of
    elements: random prefixes of eight random words of length |R+| (shared
    prefixes keep the exact reference below cheap)."""
    if rs.weyl_order() <= order_limit:
        return rs.weyl_group()
    rng = np.random.default_rng(7)
    longest = len(rs.positive_roots)
    words = [tuple(int(i) for i in rng.integers(0, rs.rank, size=longest))
             for _ in range(8)]
    return [rs.element(words[k][:n])
            for k, n in zip(rng.integers(0, 8, size=size),
                            rng.integers(0, longest + 1, size=size))]


def _ambient_matrix(rs, word, memo):
    """Exact ambient matrix of r_{i_1} ... r_{i_k}: Fraction reflections
    composed along the word, memoized by prefix."""
    m = memo.get(word)
    if m is None:
        if word:
            prev = _ambient_matrix(rs, word[:-1], memo)
            a, av = rs.simple_roots[word[-1]], rs.basis_coroots[word[-1]]
            # (A r_a) x = A x - <x, a^vee> A a
            prev_a = [dot(row, a) for row in prev]
            m = tuple(tuple(p - x * c for p, c in zip(row, av))
                      for row, x in zip(prev, prev_a))
        else:
            m = tuple(tuple(Fraction(int(i == j)) for j in range(rs.dim))
                      for i in range(rs.dim))
        memo[word] = m
    return m


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_integer_weyl_action_matches_exact_reflections(case):
    rs = _view_system(case)
    box = _box(rs, 1)
    box_arr = np.array(box, dtype=np.int64)
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    elements = _weyl_sample(rs)
    memo = {}
    for k, w in enumerate(elements):
        images = [w.act(mu) for mu in box]
        # the exact ambient image of mu is sum_r mu_r w(omega_r), written as
        # integer numerators over the lcm of the denominators; int64 / int
        # is correctly rounded, as float() of the exact Fraction is
        amb = _ambient_matrix(rs, w.word, memo)
        num, den = _over_lcm([[dot(row, om) for row in amb] for om in rs.fundamental_weights])
        exact = (box_arr @ np.array(num, dtype=np.int64)) / den
        assert rs.float_weights(images).tolist() == exact.tolist()
        winv = w.inverse()
        assert [winv.act(nu) for nu in images] == box
        assert int(round(np.linalg.det(w.matrix))) == w.sign
        # composition, checked on a basis (both sides are linear)
        v = elements[(7 * k + 3) % len(elements)]
        assert [rs.element(w.word + v.word).act(e) for e in units] == \
            [w.act(v.act(e)) for e in units]


def _reference_mul(a, b):
    """The general r x r integer product."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _reference_reflections(rs):
    """Integer matrices of the simple reflections on weight coordinates,
    r_i(c)_j = c_j - c_i <b_i, b_j^vee>, from the exact roots."""
    n = rs.rank
    return [tuple(tuple(int(j == k) - int(k == i) * int(dot(b, rs.basis_coroots[j]))
                        for k in range(n)) for j in range(n))
            for i, b in enumerate(rs.simple_roots)]


def _reference_weyl_group(rs):
    """(word, matrix, inverse_matrix) of each element of W, from the closure
    weyl_group replaced: breadth-first under w -> w r_i with the general
    product, deduplicated by matrix."""
    refls = _reference_reflections(rs)
    ident = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    seen = {ident: ((), ident, ident)}
    frontier = [seen[ident]]
    while frontier:
        nxt = []
        for word, mat, inv in frontier:
            for i, r in enumerate(refls):
                prod = _reference_mul(mat, r)
                if prod not in seen:
                    seen[prod] = (word + (i,), prod, _reference_mul(r, inv))
                    nxt.append(seen[prod])
        frontier = nxt
    return list(seen.values())


# every system with |W| <= 5,040
SMALL_GROUPS = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
                + [("C", n) for n in range(2, 6)] + [("BC", n) for n in range(1, 6)]
                + [("D", n) for n in range(3, 6)] + [("F", 4), ("G", 2)])


@pytest.mark.parametrize("case", SMALL_GROUPS, ids=_case_id)
def test_weyl_group_matches_the_matrix_closure(case):
    rs = RootSystem(*case)
    group = rs.weyl_group()
    assert [(w.word, w.matrix, w.inverse_matrix) for w in group] == \
        _reference_weyl_group(rs)


@pytest.mark.parametrize("case", SMALL_GROUPS, ids=_case_id)
def test_element_of_a_word_is_the_product_of_its_reflections(case):
    rs = build_root_system(*case)
    refls = _reference_reflections(rs)
    rng = np.random.default_rng(11)
    for n in rng.integers(0, 3 * len(rs.positive_roots) + 1, size=12):
        word = tuple(int(i) for i in rng.integers(0, rs.rank, size=n))
        mat = inv = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
        for i in word:
            mat, inv = _reference_mul(mat, refls[i]), _reference_mul(refls[i], inv)
        w = rs.element(word)
        assert (w.word, w.matrix, w.inverse_matrix) == (word, mat, inv)


@pytest.mark.parametrize("case", [("D", 6), ("E", 6), ("A", 7)], ids=_case_id)
def test_large_weyl_groups_close_in_seconds(case):
    rs = RootSystem(*case)
    start = time.perf_counter()
    group = rs.weyl_group()
    assert time.perf_counter() - start < 5.0
    assert len(group) == weyl_order(*case)
    assert len({w.matrix for w in group}) == len(group)


# names of the ambient Weyl action, which integer matrices on weight
# coordinates replaced
AMBIENT_WEYL_IDIOMS = re.compile(
    r"act_float|act_coords|coord_matrix|_coord_mats|_refl_mats|_identity\(|"
    r"\.pairing\(|def pairing|_element_from_word|_float_matrix|\.act\(a\)|rs\._regular")


def test_weyl_action_stays_on_weight_coordinates():
    src = Path(alcove.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if AMBIENT_WEYL_IDIOMS.search(line) or \
                    ("_mat_mul" in line and path.name != "rootsys.py"):
                hits.append(f"{path.name}:{n}: {line.strip()}")
    assert not hits


PER_WEIGHT_KERNEL_IDIOMS = re.compile(
    r"_invert|psi0|_psi0|ThreadPoolExecutor|workers|threading|concurrent\.futures|"
    r"multiprocessing|sched_getaffinity")


def test_transforms_stay_on_one_fourier_transform():
    # inverse transforms gather from one grid Fourier transform, and every
    # kernel, the evolve snapshots and the Gram ladder included, runs on the
    # calling thread: no module of the package starts a thread or a process
    src = Path(alcove.__file__).parent
    hits = [f"{path.relative_to(src)}:{n}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if PER_WEIGHT_KERNEL_IDIOMS.search(line)]
    assert not hits


GRID_EXP = re.compile(r"np\.exp\(.*(angles|phases|\.M\b|\.index)")


def test_grid_exponentials_come_from_one_table():
    # every e^{i<mu, xi>} on a grid is read from QuadratureGrid.roots_of_unity
    src = Path(alcove.__file__).parent
    harmonic = src / "harmonic.py"
    table = next(node for node in ast.walk(ast.parse(harmonic.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "roots_of_unity")
    inside = range(table.lineno, table.end_lineno + 1)
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if GRID_EXP.search(line) and not (path == harmonic and n in inside)]
    assert not hits
    assert any(GRID_EXP.search(line) for line in
               harmonic.read_text().splitlines()[table.lineno - 1:table.end_lineno])


def test_grid_is_its_shape():
    # a grid holds no per-point array until xi or alcove_mask is read: its
    # integer phases come from its shape, and grid exponentials have one
    # path (no gather from the table, no out or table knobs)
    from alcove.harmonic import QuadratureGrid
    for label, rank, mu in [("A", 1, (3,)), ("B", 2, (2, -5)), ("A", 3, (1, -2, 4))]:
        grid = QuadratureGrid(build_root_system(label, rank), 12)
        arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert not hasattr(grid, "index") and grid.shape == (12,) * rank
        assert all(a.size < grid.size for a in arrays)
        index = np.indices(grid.shape).reshape(rank, -1).T
        assert grid.phases(mu).dtype == np.int64
        assert np.array_equal(grid.phases(mu), index @ np.asarray(mu))
        assert grid.xi.shape[0] == grid.alcove_mask.size == grid.size
    assert list(inspect.signature(QuadratureGrid.roots_of_unity).parameters) == ["self", "k"]
    src = Path(alcove.__file__).parent
    assert not [path.name for path in src.glob("*.py")
                if re.search(r"np\.take\(\s*self\._table", path.read_text())]


WHOLE_GRID_CFUNCTION = (re.compile(r"_eval_raw\(|shat_sqrt\("),
                        re.compile(r"\.exponential\(|\.angles\("))


def test_grid_cfunctions_read_one_table_per_root():
    # a c-function on the grid is a function of each root's integer phase,
    # evaluated once per distinct phase through QuadratureGrid.phase_values;
    # smatrix_factor_direct stays on the whole grid as the independent side
    # of the direct-against-factorized S-matrix check
    src = Path(alcove.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in defs:
                if not isinstance(fn, ast.FunctionDef) or fn.name == "smatrix_factor_direct":
                    continue
                body = "\n".join(lines[fn.lineno - 1:fn.end_lineno])
                if all(pattern.search(body) for pattern in WHOLE_GRID_CFUNCTION):
                    hits.append(f"{path.name}: {fn.name}")
    assert not hits


REMOVED_DUPLICATES = re.compile(
    r"_exact_unit_factorization|_ip_on_grid|KoornwinderLongC|eval_coords"
    r"|cfun_taylor|_big_factorial"
    r"|asymptotic_polynomial|truncated_overall_cfun|symbol_is_real|def taylor|compose_weyl"
    r"|weyl_character_extended|index_of_root_lattice|minus_one_in_weyl_group|linear_extension"
    r"|_validate_order|functional_relation_residual|def _determinant|def normalized\b"
    r"|isinstance\(tops\[0\], int\)|laurent_divide|did not terminate|--tol|max_order"
    r"|_check_gram_bytes|needs --ray or --evolve|unknown export target|unknown tolerance")


def test_one_orthonormalization_route():
    # unit tables are Weyl characters, the quadrature ladder is written once,
    # and no duplicate helper comes back
    src = Path(alcove.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if REMOVED_DUPLICATES.search(line)
            or (path.name == "orthopoly.py" and "Fraction" in line)]
    assert not hits


BUDGETS = re.compile(r"GRAM_BYTES_BUDGET|GRID_POINT_BUDGET|DEFAULT_WEYL_BUDGET")


def test_every_size_budget_is_read_in_rootsys_alone():
    # rootsys.check_bytes, check_grid_points and check_weyl_order are the
    # only readers of the budgets; no other module compares against one
    src = Path(alcove.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "rootsys.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if BUDGETS.search(line)]
    assert not hits
    assert len(BUDGETS.findall((src / "rootsys.py").read_text())) >= 3


# the per-family copies of the q-Pochhammer factors; the Koornwinder offsets
# are written once, in qfun.koornwinder_factors, and the rank-one oracle keeps
# its own formulas
FACTOR_COPIES = re.compile(r"_cpm_factors|isinstance\(g, tuple\)|\+ 0\.5 \+|0\.5 - g")


def test_one_factor_list_per_root():
    src = Path(alcove.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "rank1.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if FACTOR_COPIES.search(line)]
    assert not hits
    assert FACTOR_COPIES.search((src / "rank1.py").read_text())


# -- roots as integer orbits, one dominantization ------------------------------


def _exact_reflection_closure(rs):
    """The simple roots and Q+ generators closed under the exact reflections
    v - <v, a^vee> a in the simple roots, on Fraction vectors."""
    pairs = list(zip(rs.simple_roots, rs.basis_coroots))
    roots = set(rs.simple_roots) | set(rs.gen_simples)
    roots |= {tuple(-x for x in a) for a in roots}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for a, av in pairs:
            c = dot(beta, av)
            img = tuple(x - c * y for x, y in zip(beta, a))
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    return roots


@pytest.mark.parametrize("case", VIEW_TYPES + [("BC", 3), ("E", 7)], ids=_case_id)
def test_roots_are_the_exact_reflection_closure(case):
    rs = _view_system(case)
    assert rs.roots == tuple(sorted(_exact_reflection_closure(rs)))
    assert all(rs.root_coords(a) == rs.vector_coords(a) for a in rs.roots)


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_dominantize_on_integer_boxes(case):
    rs = _view_system(case)
    reduced = set(rs.positive_roots_0)
    pairings = rs.coroot_pairings[[k for k in rs.positive_rows if rs.roots[k] in reduced]]
    for mu in _box(rs, 2 if rs.rank <= 4 else 1):
        image, word = rs.dominantize(mu)
        assert rs.is_dominant(image)
        # each reflection removes one root of R0+ pairing negatively
        assert len(word) == int(np.sum(pairings @ np.array(mu) < 0))
        w = rs.element(reversed(word))
        assert w.act(mu) == image
        lam, sign, regular = rs.dominant_representative(mu)
        assert lam == image and regular == all(image)
        assert sign == int(round(np.linalg.det(w.matrix)))


@pytest.mark.parametrize("case", VIEW_TYPES, ids=_case_id)
def test_minuscule_weights_match_fraction_definitions(case):
    rs = _view_system(case)
    units = [tuple(int(j == r) for j in range(rs.rank)) for r in range(rs.rank)]
    assert rs.minuscule_weights() == [
        e for e, w in zip(units, rs.fundamental_weights)
        if all(dot(w, coroot(a)) <= 1 for a in rs.positive_roots)]
    # the shortest dominant root, which pairs to at most 1 with every other
    # positive coroot
    dominant = [a for a in rs.positive_roots
                if all(dot(a, bv) >= 0 for bv in rs.basis_coroots)]
    pi = min(dominant, key=lambda a: dot(a, a))
    assert rs.quasi_minuscule_weight() == rs.vector_coords(pi)
    assert all(dot(pi, coroot(a)) <= 1 for a in rs.positive_roots if a != pi)


# the second reflection closure, the hand-listed BC_N roots and the float
# dominantization loop of the sector elements, which RootSystem.dominantize
# and the integer orbits replaced
DUPLICATE_CHAMBER_CODE = re.compile(r"_reflection_closure|_bc_roots")


def test_one_dominantization_and_integer_root_orbits():
    src = Path(alcove.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        lines = path.read_text().splitlines()
        for n, line in enumerate(lines, 1):
            near = "\n".join(lines[max(n - 6, 0):n + 5])
            if DUPLICATE_CHAMBER_CODE.search(line) or (
                    path.name != "rootsys.py" and "argmin(" in line
                    and "basis_coroots_f" in near):
                hits.append(f"{path.name}:{n}: {line.strip()}")
    assert not hits
