"""Crystallographic root systems with exact rational coordinates.

Supported Cartan types: the reduced families A-G and the nonreduced BC_N.
Each system is realized in a fixed ambient space with rational coordinates
so that chamber membership, stabilizer detection and dominance tests are
exact.  Weights are handled as integer coordinate tuples in the
fundamental-weight basis throughout; the Euclidean vector of a weight is
recovered with :meth:`RootSystem.weight_vector`.

``Fraction`` arithmetic builds the simple roots, their coroots and the
fundamental weights; every root is an integer Weyl orbit of a simple root
or Q+ generator, read back as an exact vector.  The floating-point and integer
paths read views built once per system: float arrays of the roots, coroots
and squared lengths (each entry the correctly rounded exact value), the
fundamental weights as integer numerators over one common denominator
(:meth:`RootSystem.float_weights`), the Q+ expansion as an integer
matrix over a denominator (:meth:`RootSystem.qplus_expansion`), and the
pairings of the fundamental weights with every coroot as an integer table
(``coroot_pairings``, and :meth:`RootSystem.coweight_pairings` for the
weights of the dual system).  A Weyl
element carries integer matrices on fundamental-weight coordinates, so the
Weyl action does no ``Fraction`` arithmetic.

For BC_N two simple systems coexist: the C_N-type basis (used for the
fundamental-weight coordinates, so that the half-sum of the reduced
positive roots pairs to 1 with every basis coroot) and the B_N-type set of
indecomposable positive roots (which generates the nonnegative root cone
used by the dominance order).  For reduced systems the two coincide.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

Vec = tuple[Fraction, ...]
Coords = tuple[int, ...]

LABELS = ("A", "B", "C", "D", "E", "F", "G", "BC")

DEFAULT_WEYL_BUDGET = 100_000
# points of one quadrature grid, M^rank; checked before the grid is built
GRID_POINT_BUDGET = 1 << 24
# bytes of one dense allocation: a rung of the Gram ladder (values plus one
# weighted row block), an operator matrix, a monomial table or the candidate
# box of saturated_weights; checked before it is allocated
GRAM_BYTES_BUDGET = 2 << 30


class BudgetExceededError(RuntimeError):
    """An enumeration or allocation would exceed its size budget."""

    def __init__(self, what: str, required: int, budget: int, unit: str = "elements",
                 at_least: bool = False):
        has = "has at least" if at_least else "has"
        super().__init__(f"{what} {has} {required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget


# every size budget is checked here, by one function each
def check_bytes(what: str, required: int) -> None:
    """Refuse a dense allocation, what, of required bytes above the budget."""
    if required > GRAM_BYTES_BUDGET:
        raise BudgetExceededError(what, required, GRAM_BYTES_BUDGET, "bytes")


def check_grid_points(rs: RootSystem, M: int) -> None:
    """Refuse a quadrature grid of M^rank points above GRID_POINT_BUDGET."""
    points = M ** rs.rank
    if points > GRID_POINT_BUDGET:
        raise BudgetExceededError(f"quadrature grid of {rs._name()} at M={M}", points,
                                  GRID_POINT_BUDGET, "points")


def check_weyl_order(label: str, rank: int) -> None:
    """Refuse a Weyl group above DEFAULT_WEYL_BUDGET from its order formula,
    before any element is built (a huge rank stops the product early)."""
    order = weyl_order(label, rank, DEFAULT_WEYL_BUDGET)
    if order > DEFAULT_WEYL_BUDGET:
        raise BudgetExceededError(f"Weyl group of {label}{rank}", order,
                                  DEFAULT_WEYL_BUDGET, at_least=True)


def dot(x: Vec, y: Vec) -> Fraction:
    return sum(map(operator.mul, x, y))


def _unit(n: int, i: int, scale=1) -> Vec:
    v = [Fraction(0)] * n
    v[i] = Fraction(scale)
    return tuple(v)


def _add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def _sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def _scale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def coroot(alpha: Vec) -> Vec:
    return _scale(Fraction(2, 1) / dot(alpha, alpha), alpha)


def _frozen(arr: np.ndarray) -> np.ndarray:
    # views are shared by every caller of the cached system
    arr.setflags(write=False)
    return arr


def _float_rows(vecs, dim: int) -> np.ndarray:
    """Exact vectors as float rows, each entry correctly rounded."""
    return _frozen(np.array([[float(x) for x in v] for v in vecs]).reshape(len(vecs), dim))


def _len2s(vecs) -> np.ndarray:
    """Squared lengths of exact vectors, correctly rounded."""
    return _frozen(np.array([float(dot(v, v)) for v in vecs]))


def _over_common_denominator(rows):
    """Rational rows as (integer rows, den) with rows == integer rows / den."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def _solve(mat: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve mat @ X = rhs exactly by Gaussian elimination (square mat)."""
    n = len(mat)
    m = len(rhs[0])
    a = [list(row) + list(r) for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [inv * x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:n + m] for row in a]


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element: a word in the simple reflections with the integer
    matrices of w and of w^{-1} on fundamental-weight coordinates.

    The word (i_1, ..., i_k) stands for r_{i_1} ... r_{i_k}; row j of a
    matrix holds the j-th coordinate of the image, so w(mu)_j is
    sum_r matrix[j][r] mu_r.
    """

    word: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    inverse_matrix: tuple[tuple[int, ...], ...]

    @property
    def sign(self) -> int:
        return -1 if len(self.word) % 2 else 1

    def act(self, mu) -> tuple:
        """w(mu) for weight coordinates mu; with floats, mu may also be the
        coordinates basis_coroots_f @ v of a real vector v."""
        return tuple(sum(map(operator.mul, row, mu)) for row in self.matrix)

    def inverse(self) -> "WeylElement":
        return WeylElement(tuple(reversed(self.word)), self.inverse_matrix, self.matrix)


def _simple_root_data(label: str, rank: int):
    """Ambient dimension, basis simple roots, and Q+ generators for a type."""
    n = rank
    if label == "A":
        if n < 1:
            raise ValueError("A_N needs N >= 1")
        dim = n + 1
        simples = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n)]
        return dim, simples, simples
    if label == "B":
        if n < 2:
            raise ValueError("B_N needs N >= 2")
        simples = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        simples.append(_unit(n, n - 1))
        return n, simples, simples
    if label == "C":
        if n < 2:
            raise ValueError("C_N needs N >= 2")
        simples = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        simples.append(_unit(n, n - 1, 2))
        return n, simples, simples
    if label == "D":
        if n < 3:
            raise ValueError("D_N needs N >= 3")
        simples = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        simples.append(_add(_unit(n, n - 2), _unit(n, n - 1)))
        return n, simples, simples
    if label == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_N needs N in {6,7,8}")
        half = Fraction(1, 2)
        a1 = tuple([half, -half, -half, -half, -half, -half, -half, half])
        a2 = _add(_unit(8, 0), _unit(8, 1))
        rest = [_sub(_unit(8, i), _unit(8, i - 1)) for i in range(1, 7)]
        simples = ([a1, a2] + rest)[:n]
        return 8, simples, simples
    if label == "F":
        if n != 4:
            raise ValueError("F_4 needs rank 4")
        half = Fraction(1, 2)
        simples = [
            _sub(_unit(4, 1), _unit(4, 2)),
            _sub(_unit(4, 2), _unit(4, 3)),
            _unit(4, 3),
            (half, -half, -half, -half),
        ]
        return 4, simples, simples
    if label == "G":
        if n != 2:
            raise ValueError("G_2 needs rank 2")
        simples = [
            _sub(_unit(3, 0), _unit(3, 1)),
            _add(_add(_unit(3, 0, -2), _unit(3, 1)), _unit(3, 2)),
        ]
        return 3, simples, simples
    if label == "BC":
        if n < 1:
            raise ValueError("BC_N needs N >= 1")
        basis = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        basis.append(_unit(n, n - 1, 2))
        gens = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        gens.append(_unit(n, n - 1))
        return n, basis, gens
    raise ValueError(f"unknown Cartan label {label!r}")


class RootSystem:
    """Immutable Cartan datum for one irreducible (possibly nonreduced) type.

    Use :func:`build_root_system`; instances are cached per (label, rank) and
    weight coordinate tuples are only meaningful relative to their system.
    """

    def __init__(self, label: str, rank: int, *, _data=None):
        self.label = label
        self.rank = rank
        dim, basis, gens = _data if _data is not None else _simple_root_data(label, rank)
        self.dim = dim
        self.simple_roots: tuple[Vec, ...] = tuple(basis)
        self.gen_simples: tuple[Vec, ...] = tuple(gens)
        self.basis_coroots: tuple[Vec, ...] = tuple(coroot(a) for a in basis)

        # fundamental weights from <w_r, b_j^vee> = delta_{rj}, solved in
        # the span of the simple roots
        cartan = [[dot(b, bv) for b in basis] for bv in self.basis_coroots]
        eye = [[Fraction(1 if i == j else 0) for j in range(rank)]
               for i in range(rank)]
        coeff = _solve(cartan, eye)
        self.fundamental_weights: tuple[Vec, ...] = tuple(
            tuple(sum(coeff[k][r] * basis[k][i] for k in range(rank))
                  for i in range(dim))
            for r in range(rank)
        )

        # integer reflection action on fundamental-weight coordinates:
        # r_i(c)_j = c_j - c_i * <b_i, b_j^vee>
        self._refl_rows = tuple(
            tuple(int(dot(basis[i], self.basis_coroots[j])) for j in range(rank))
            for i in range(rank)
        )
        # integer view of the weights: omega_r = _weight_num[r] / _weight_den
        num, self._weight_den = _over_common_denominator(self.fundamental_weights)
        self._weight_num = _frozen(np.array(num, dtype=np.int64).reshape(rank, dim))

        # every root is W-conjugate to a simple root or, on BC_N, to a Q+
        # generator (the short e_i): the roots are the integer Weyl orbits of
        # these, read back as exact vectors over the weights' denominator
        orbits: set[Coords] = set()
        for a in (*basis, *gens):
            c = self.vector_coords(a)
            if c not in orbits:
                orbits |= self.weyl_orbit(c)
        coords = list(orbits)
        amb = (np.array(coords, dtype=np.int64) @ self._weight_num).tolist()
        self._root_coords: dict[Vec, Coords] = {
            tuple(Fraction(x, self._weight_den) for x in row): c
            for row, c in zip(amb, coords)}

        regular = self.fundamental_weights[0]
        for w in self.fundamental_weights[1:]:
            regular = _add(regular, w)

        self.roots: tuple[Vec, ...] = tuple(sorted(self._root_coords))
        self.positive_roots: tuple[Vec, ...] = tuple(
            a for a in self.roots if dot(a, regular) > 0)
        rootset = set(self.roots)
        self.positive_roots_0: tuple[Vec, ...] = tuple(
            a for a in self.positive_roots if _scale(2, a) not in rootset)
        self.positive_roots_1: tuple[Vec, ...] = tuple(
            a for a in self.positive_roots if _scale(Fraction(1, 2), a) not in rootset)

        rho = (Fraction(0),) * dim
        for a in self.positive_roots_0:
            rho = _add(rho, a)
        self.rho: Vec = _scale(Fraction(1, 2), rho)
        self.rho_coords: Coords = self.vector_coords(self.rho)

        # coroots in roots order, and over the positive roots
        self._coroots = tuple(coroot(a) for a in self.roots)
        coroot_of = dict(zip(self.roots, self._coroots))
        pos_coroots = [coroot_of[a] for a in self.positive_roots]
        # pairing table <omega_j, alpha^vee> over positive roots (integers),
        # and its rows over R0+
        self._pos_coroot_pairings = tuple(
            tuple(int(dot(w, av)) for w in self.fundamental_weights)
            for av in pos_coroots)
        reduced = set(self.positive_roots_0)
        self._pos0_coroot_pairings = tuple(
            row for a, row in zip(self.positive_roots, self._pos_coroot_pairings)
            if a in reduced)
        # the same table over every root, rows in roots order: the roots are
        # sorted and closed under negation, so -roots[k] is roots[-1 - k]
        positive = set(self.positive_roots)
        self.positive_rows = _frozen(np.array(
            [k for k, a in enumerate(self.roots) if a in positive], dtype=np.int64))
        table = np.zeros((len(self.roots), rank), dtype=np.int64)
        table[self.positive_rows] = self._pos_coroot_pairings
        table[len(self.roots) - 1 - self.positive_rows] = -table[self.positive_rows]
        self.coroot_pairings = _frozen(table)
        # <mu, 2 rho^vee> = sum_j mu_j _two_rho_vee[j]
        self._two_rho_vee = tuple(sum(col) for col in zip(*self._pos_coroot_pairings))

        # Q+ expansion of a weight mu over the generators is
        # mu @ _qplus_num.T / _qplus_den: the Gram solve of the generators
        # applied to each fundamental weight
        gram_inv = _solve([[dot(a, b) for b in gens] for a in gens], eye)
        pair = [[dot(a, w) for w in self.fundamental_weights] for a in gens]
        expansion = [[sum(gram_inv[i][j] * pair[j][r] for j in range(rank))
                      for r in range(rank)] for i in range(rank)]
        num, self._qplus_den = _over_common_denominator(expansion)
        self._qplus_num = tuple(tuple(row) for row in num)
        self._qplus_num_t = _frozen(np.array(num, dtype=np.int64).T)

        # float views aligned with the tuples of exact vectors
        self.roots_f = _float_rows(self.roots, dim)
        self.coroots_f = _float_rows(self._coroots, dim)
        self.root_len2 = _len2s(self.roots)
        self.positive_roots_f = _float_rows(self.positive_roots, dim)
        self.positive_coroots_f = _float_rows(pos_coroots, dim)
        self.positive_len2 = _len2s(self.positive_roots)
        self.positive_coroot_len2 = _len2s(pos_coroots)
        self.positive_roots_0_f = _float_rows(self.positive_roots_0, dim)
        self.positive_roots_1_f = _float_rows(self.positive_roots_1, dim)
        self.positive_1_len2 = _len2s(self.positive_roots_1)
        self.simple_roots_f = _float_rows(self.simple_roots, dim)
        self.simple_len2 = _len2s(self.simple_roots)
        self.basis_coroots_f = _float_rows(self.basis_coroots, dim)
        self._weyl: tuple[WeylElement, ...] | None = None

    # -- coordinates ---------------------------------------------------

    def weight_vector(self, mu: Coords) -> Vec:
        v = (Fraction(0),) * self.dim
        for c, w in zip(mu, self.fundamental_weights):
            if c:
                v = _add(v, _scale(c, w))
        return v

    def vector_coords(self, v: Vec) -> Coords:
        out = []
        for bv in self.basis_coroots:
            c = dot(v, bv)
            if c.denominator != 1:
                raise ValueError(f"{v} is not in the weight lattice")

            out.append(int(c))
        return tuple(out)

    def root_coords(self, alpha: Vec) -> Coords:
        return self._root_coords[alpha]

    def float_weights(self, mus) -> np.ndarray:
        """Ambient float vectors of a sequence of weights, one row each.

        An integer product and one division: the result is correctly
        rounded, so it equals float() of the exact weight_vector entries.
        """
        coords = np.asarray(mus, dtype=np.int64).reshape(-1, self.rank)
        return (coords @ self._weight_num) / self._weight_den

    def float_weight(self, mu: Coords) -> np.ndarray:
        """Ambient float vector of one weight (see float_weights)."""
        return self.float_weights([mu])[0]

    # -- basic predicates ----------------------------------------------

    def is_dominant(self, mu: Coords) -> bool:
        return all(c >= 0 for c in mu)

    def qplus_expansion(self, mu: Coords):
        """Coefficients of mu over the Q+ generators, or None if not in Q."""
        den = self._qplus_den
        num = [sum(c * t for c, t in zip(mu, row)) for row in self._qplus_num]
        if any(x % den for x in num):
            return None
        return tuple(x // den for x in num)

    def dominance_leq(self, mu: Coords, lam: Coords):
        """mu <= lam in the dominance order (lam - mu in Q+).

        mu may also be an (n, rank) integer array: then one bool per row.
        """
        if isinstance(mu, np.ndarray):
            num = (np.asarray(lam, dtype=np.int64) - mu) @ self._qplus_num_t
            return np.all((num >= 0) & (num % self._qplus_den == 0), axis=1)
        diff = tuple(a - b for a, b in zip(lam, mu))
        exp = self.qplus_expansion(diff)
        return exp is not None and all(c >= 0 for c in exp)

    def orbit_reach(self, x: Coords) -> int:
        """The largest |coordinate| over the Weyl orbit of a dominant x: the
        largest <x, alpha^vee> over alpha in R0+, which is <x, theta^vee>
        for theta^vee the highest coroot of R0."""
        return max(sum(c * p for c, p in zip(x, row)) for row in self._pos0_coroot_pairings)

    def min_coroot_pairing(self, lam: Coords):
        """m(lambda): minimal pairing of lam with the positive coroots."""
        return min(sum(c * r for c, r in zip(lam, cc))
                   for cc in self._pos_coroot_pairings)

    # -- Weyl group action ----------------------------------------------

    def simple_reflection_coords(self, i: int, mu: Coords) -> Coords:
        ci = mu[i]
        if ci == 0:
            return mu
        row = self._refl_rows[i]
        return tuple(c - ci * row[j] for j, c in enumerate(mu))

    def weyl_orbit(self, mu: Coords) -> set[Coords]:
        seen = {mu}
        frontier = [mu]
        while frontier:
            nu = frontier.pop()
            for i in range(self.rank):
                img = self.simple_reflection_coords(i, nu)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return seen

    def dominantize(self, coords, tol: float = 0.0):
        """(image, word): reflect in the first coordinate below -tol until
        none is left.  element(reversed(word)) maps coords to image.

        coords are integer weight coordinates, or floats such as
        basis_coroots_f @ v for a real vector v.  Each reflection removes one
        root of R0+ pairing negatively, so the word has at most |R0+| letters.
        """
        cur = tuple(coords)
        word = []
        while True:
            i = next((j for j, c in enumerate(cur) if c < -tol), None)
            if i is None:
                return cur, tuple(word)
            cur = self.simple_reflection_coords(i, cur)
            word.append(i)

    def dominant_representative(self, mu: Coords):
        """Dominantize mu; returns (lam, sign, stabilizer_trivial).

        sign is the parity of the number of simple reflections applied, which
        equals det(w_mu) whenever mu is regular.
        """
        lam, word = self.dominantize(mu)
        return lam, -1 if len(word) % 2 else 1, all(c != 0 for c in lam)

    def _times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w r_i, in O(rank^2) integer steps.  r_i is I - A_i e_i^T with
        A_i = _refl_rows[i], so column i of w's matrix loses w A_i, and row j
        of r_i w^{-1} loses A_ij times row i of w^{-1}."""
        a = self._refl_rows[i]
        matrix = tuple(row[:i] + (row[i] - dot(row, a),) + row[i + 1:] for row in w.matrix)
        top = w.inverse_matrix[i]
        inverse = tuple(tuple(x - aj * y for x, y in zip(row, top)) if aj else row
                        for row, aj in zip(w.inverse_matrix, a))
        return WeylElement(w.word + (i,), matrix, inverse)

    def element(self, word) -> WeylElement:
        """The Weyl element r_{i_1} ... r_{i_k} of the word (i_1, ..., i_k),
        folded from the identity one simple reflection at a time."""
        ident = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        return reduce(self._times_simple, word, WeylElement((), ident, ident))

    def weyl_group(self) -> tuple[WeylElement, ...]:
        """Enumerate W by breadth-first closure under right multiplication by
        the simple reflections.  rho is regular, so w is fixed by w^{-1}(rho),
        and (w r_i)^{-1}(rho) = r_i(w^{-1}(rho)): the closure runs on that
        orbit and builds each element's matrices once."""
        if self._weyl is None:
            check_weyl_order(self.label, self.rank)
            seen = {self.rho_coords: self.element(())}
            frontier = [self.rho_coords]
            while frontier:
                nxt = []
                for key in frontier:
                    for i in range(self.rank):
                        img = self.simple_reflection_coords(i, key)
                        if img not in seen:
                            seen[img] = self._times_simple(seen[key], i)
                            nxt.append(img)
                frontier = nxt
            self._weyl = tuple(seen.values())
        return self._weyl

    def weyl_order(self) -> int:
        return weyl_order(self.label, self.rank)

    def longest_element(self) -> WeylElement:
        """w_0, found by dominantizing the negative of a regular weight."""
        return self.element(reversed(self.dominantize((-1,) * self.rank)[1]))

    # -- distinguished weights -------------------------------------------

    def minuscule_weights(self) -> list[Coords]:
        """The fundamental weights pairing to at most 1 with every positive
        coroot."""
        top = self.coroot_pairings[self.positive_rows].max(axis=0)
        return [tuple(int(j == r) for j in range(self.rank))
                for r in range(self.rank) if top[r] <= 1]

    def quasi_minuscule_weight(self) -> Coords:
        """The unique short dominant root (alpha_0 with alpha_0^vee maximal)."""
        coords = [self._root_coords[a] for a in self.positive_roots]
        k = min((k for k, c in enumerate(coords) if self.is_dominant(c)),
                key=lambda k: self.positive_len2[k])
        return coords[k]

    # -- misc -------------------------------------------------------------

    def dual(self) -> "RootSystem":
        """Root system built from the coroots, realized in the same space."""
        if self.label == "BC":
            # {e_i, 2e_i, e_i +- e_j} is closed under alpha -> alpha^vee
            return self
        if self._dual is None:
            basis = self.basis_coroots
            self._dual = RootSystem(self.label + "v", self.rank,
                                    _data=(self.dim, basis, basis))
        return self._dual

    _dual = None

    def coweight_pairings(self) -> np.ndarray:
        """<nu, alpha> for each root alpha (rows, in roots order) and each
        fundamental weight nu of dual() (columns), as integers.

        A root is the coroot, in the dual system, of its own coroot, so this
        is dual().coroot_pairings read at the row of each root's coroot.
        """
        if self._coweight_pairings is None:
            dual = self.dual()
            row = {b: k for k, b in enumerate(dual.roots)}
            self._coweight_pairings = _frozen(
                dual.coroot_pairings[[row[b] for b in self._coroots]])
        return self._coweight_pairings

    _coweight_pairings = None

    def saturated_weights(self, tops) -> list[Coords]:
        """All dominant mu with mu <= top for some top, dominance order."""
        found: set[Coords] = set()
        for top in tops:
            if not self.is_dominant(top):
                raise ValueError(f"top weight {top} is not dominant")
            # squared lengths scaled by _weight_den**2 are integers; the
            # candidates are the box of coordinates c_j with
            # c_j^2 |omega_j|^2 <= |top|^2, sized in Python ints before the
            # box is built
            num = self._weight_num.tolist()
            tv = [sum(c * w for c, w in zip(top, col)) for col in zip(*num)]
            norm2 = sum(x * x for x in tv)
            bounds = [math.isqrt(norm2 // sum(x * x for x in w)) + 1 for w in num]
            check_bytes(f"weight box below {top} on {self._name()}",
                        8 * self.rank * math.prod(bounds))
            box = np.indices(bounds).reshape(self.rank, -1).T
            found.update(map(tuple, box[self.dominance_leq(box, top)].tolist()))
        return sorted(found, key=lambda mu: (self._ext_key(mu), mu))

    def _ext_key(self, mu: Coords):
        # <mu, 2 rho^vee> is integral and strictly refines dominance; on a
        # root it is positive exactly when the root is
        return sum(c * r for c, r in zip(mu, self._two_rho_vee))

    def _name(self) -> str:
        return f"{self.label}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self._name()}, |R+|={len(self.positive_roots)})"


def weyl_order(label: str, rank: int, limit: int | None = None) -> int:
    """Classical order formula for W, used to guard enumeration budgets.

    The order is a product of factors; with a limit the product stops at
    the first partial product above it, which is returned (the order is at
    least that), so a huge rank costs a few steps rather than a factorial.
    """
    n = rank
    if label == "A":
        factors = range(2, n + 2)                 # (n + 1)!
    elif label in ("B", "C", "BC"):
        factors = range(2, 2 * n + 1, 2)          # 2^n n!
    elif label == "D":
        factors = range(4, 2 * n + 1, 2)          # 2^(n-1) n!
    elif label == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_N needs N in {6,7,8}")
        factors = ({6: 51840, 7: 2903040, 8: 696729600}[n],)
    elif label == "F":
        factors = (1152,)
    elif label == "G":
        factors = (12,)
    elif label.endswith("v"):
        # dual systems share the order of the original
        return weyl_order(label[:-1], rank, limit)
    else:
        raise ValueError(f"unknown Cartan label {label!r}")
    order = 1
    for f in factors:
        order *= f
        if limit is not None and order > limit:
            break
    return order


@lru_cache(maxsize=None)
def build_root_system(label: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given Cartan type."""
    if label not in LABELS:
        raise ValueError(f"unknown Cartan label {label!r}; expected one of {LABELS}")
    return RootSystem(label, rank)
