"""Sparse Laurent polynomials on the weight lattice and torus quadrature.

A LaurentPoly is a finite sum  sum_mu c_mu e^{i<mu, xi>}  with exponents mu
in the weight lattice, stored sparsely by fundamental-weight coordinates.
Coefficients may be exact (int) or complex; Weyl characters carry integer
multiplicities, found by folding Weyl orbits into the chamber.

All normalized alcove integrals are realized as averages over the torus
E / 2pi Q^vee on a uniform grid in a coroot-lattice basis.  The alcove of
the construction equals the fundamental alcove of the affine Weyl group
W x 2pi Q^vee, so the cell volume is |W| Vol(A) and

    1/(|W| Vol A) * integral_A h dxi  =  cell average of (h * 1_A),

which for W-invariant integrands h equals (cell average of h) / |W|.  The
grid average of e^{i<mu, xi>} is exactly 1 for mu in M*P and 0 otherwise,
so band-limited integrands are integrated exactly once M clears their
bandwidth.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .qfun import CFunctionSpec
from .rootsys import RootSystem, check_bytes, check_grid_points

# the largest grid M a Gram ladder builds unless its caller says otherwise
MAX_M = 4096
# rows of one weighted block of the Gram product (see _row_blocks)
GRAM_BLOCK_ROWS = 32
# terms of one block of eval_terms (see _lane_sum)
_EVAL_TERMS = 64


class LaurentPoly:
    """Sparse exponential sum on the weight lattice of one root system."""

    __slots__ = ("rs", "terms", "_arrays")

    def __init__(self, rs: RootSystem, terms: dict):
        self.rs = rs
        self.terms = {mu: c for mu, c in terms.items() if c != 0}
        self._arrays = None

    @classmethod
    def monomial(cls, rs, mu, coeff=1):
        return cls(rs, {tuple(mu): coeff})

    @classmethod
    def zero(cls, rs):
        return cls(rs, {})

    @classmethod
    def one(cls, rs):
        return cls(rs, {(0,) * rs.rank: 1})

    def __add__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return LaurentPoly(self.rs, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) - c
        return LaurentPoly(self.rs, out)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly(self.rs, {mu: c * other for mu, c in self.terms.items()})
        out: dict = {}
        for mu, c in self.terms.items():
            for nu, d in other.terms.items():
                key = tuple(a + b for a, b in zip(mu, nu))
                out[key] = out.get(key, 0) + c * d
        return LaurentPoly(self.rs, out)

    __rmul__ = __mul__

    def coeff(self, mu):
        return self.terms.get(tuple(mu), 0)

    def support(self):
        return set(self.terms)

    def eval_grid(self, grid: "QuadratureGrid") -> np.ndarray:
        return grid.eval_terms(self.terms)

    def _vectors(self):
        """(ambient exponent rows, complex coefficients), built on first use;
        terms is never changed after construction."""
        if self._arrays is None:
            self._arrays = (self.rs.float_weights(list(self.terms)),
                            np.array([complex(c) for c in self.terms.values()],
                                     dtype=complex))
        return self._arrays

    def evaluate(self, points):
        """The values at ambient points, which may be complex: a complex for
        one point of shape (dim,), an array of shape (...) for points of
        shape (..., dim).  One exp and one matmul over all points and terms."""
        vecs, coeffs = self._vectors()
        points = np.asarray(points, dtype=complex)
        values = np.exp(1j * (points @ vecs.T)) @ coeffs
        return complex(values) if points.ndim == 1 else values

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"LaurentPoly({self.rs._name()}, {len(self.terms)} terms)"


def monomial_symmetric(rs: RootSystem, lam) -> LaurentPoly:
    """m_lambda: coefficient one on each weight of the Weyl orbit of lambda."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return LaurentPoly(rs, {mu: 1 for mu in rs.weyl_orbit(lam)})


def orbit_symbol(rs: RootSystem, pi) -> LaurentPoly:
    """Multiplication symbol: the exponential sum over W(pi) and W(-pi)."""
    orbit = set(rs.weyl_orbit(tuple(pi)))
    orbit |= {tuple(-c for c in nu) for nu in orbit}
    return LaurentPoly(rs, {nu: 1 for nu in orbit})


def alternating_sum(rs: RootSystem, mu) -> LaurentPoly:
    """sum_w det(w) e^{i<w(mu), xi>} over the full Weyl group."""
    out: dict = {}
    for w in rs.weyl_group():
        key = w.act(mu)
        out[key] = out.get(key, 0) + w.sign
    return LaurentPoly(rs, out)


def weyl_denominator(rs: RootSystem) -> LaurentPoly:
    """The Weyl denominator as a Laurent polynomial, sum_w det(w) e^{i w(rho)}."""
    return alternating_sum(rs, rs.rho_coords)


def eval_delta(rs: RootSystem, xi) -> complex:
    """delta(xi) as the product over R0+ of (e^{i<a,xi>/2} - e^{-i<a,xi>/2})."""
    xi = np.asarray(xi, dtype=float)
    out = 1.0 + 0j
    for av in rs.positive_roots_0_f:
        th = float(np.dot(av, xi))
        out *= 2j * np.sin(th / 2.0)
    return out


def weight_multiplicities(rs: RootSystem, weights) -> list:
    """The integer matrix K with chi_nu = sum_mu K[nu][mu] m_mu, one row of
    Python ints per weight; weights are saturated, in saturated_weights order.

    m_nu delta is the sum of A_{eta + rho} over eta in the orbit of nu, and
    dominant_representative folds each A_{eta + rho} to +-A_{mu + rho} or,
    on a wall, to 0.  So m_nu is chi_nu plus +-chi_mu for the other folds,
    each mu below nu and so earlier in weights: row nu is the unit vector
    less sign times row mu for each of them.
    """
    index = {mu: i for i, mu in enumerate(weights)}
    rho = rs.rho_coords
    rows: list = []
    for i, nu in enumerate(weights):
        row = [int(j == i) for j in range(len(weights))]
        for eta in rs.weyl_orbit(nu):
            dom, sign, regular = rs.dominant_representative(
                tuple(a + p for a, p in zip(eta, rho)))
            mu = tuple(a - p for a, p in zip(dom, rho))
            if regular and mu != nu:
                row = [x - sign * y for x, y in zip(row, rows[index[mu]])]
        rows.append(row)
    return rows


def weyl_character(rs: RootSystem, lam) -> LaurentPoly:
    """chi_lambda with its integer multiplicities (weight_multiplicities),
    terms in descending exponent order; saturated_weights refuses a lambda
    that is not dominant."""
    weights = rs.saturated_weights([tuple(lam)])
    terms: dict = {}
    for mu, k in zip(weights, weight_multiplicities(rs, weights)[-1]):
        terms.update(dict.fromkeys(rs.weyl_orbit(mu), k))
    return LaurentPoly(rs, dict(sorted(terms.items(), reverse=True)))


def _phase_span(M: int, mus) -> tuple:
    """The least and greatest k = <index, mu> over the M^rank grid and the
    integer weights mus, exactly: every index coordinate runs from 0 to
    M - 1, so the extremes are M - 1 times a weight's sum of negative
    (least) or positive (greatest) coordinates."""
    return (min(sum(x for x in mu if x < 0) for mu in mus) * (M - 1),
            max(sum(x for x in mu if x > 0) for mu in mus) * (M - 1))


def real_valued(polys) -> bool:
    """Whether every poly is real on the torus: its terms are closed under
    mu -> -mu with conjugate coefficients (orbit sums, when -1 is in W)."""
    return all(p.terms.get(tuple(-x for x in mu)) == c.conjugate()
               for p in polys for mu, c in p.terms.items())


def _half(rows: np.ndarray, i: int) -> np.ndarray:
    """Re of polynomial i in the packed rows of QuadratureGrid.eval_real."""
    return (rows.real, rows.imag)[i % 2][i // 2]


def _chain(value, signs, lane, out):
    """(x, s) with s * x the terms value(i) * signs[i] of lane summed left to
    right: x is out, or the lone term itself.  Negation is exact, so each
    term is added or subtracted as its sign agrees with the first's, and
    that sign is carried, not applied."""
    x, s = value(lane[0]), signs[lane[0]]
    for i in lane[1:]:
        x = (np.add if signs[i] == s else np.subtract)(x, value(i), out=out)
    return x, s


def _lane_sum(value, signs, acc):
    """(x, s) with s * x the sum of a block of w <= 64 terms value(i) *
    signs[i], signs +1 or -1, in the order in which OpenBLAS's zgemv sums a
    row of roots @ coeffs: with f = w - w % 4, lane A sums the terms 0, 2,
    ..., f - 2 left to right and lane B the terms 1, 3, ..., f - 1, and the
    terms f to w - 1, summed left to right, are added to A + B; below four
    terms that is the terms left to right.  The lanes are summed in the rows
    acc[0] and acc[1]."""
    w = len(signs)
    f = w - w % 4
    lanes = [lane for lane in (range(0, f, 2), range(1, f, 2), range(f, w)) if lane]
    total, s = _chain(value, signs, lanes[0], acc[0])
    for lane in lanes[1:]:
        x, t = _chain(value, signs, lane, acc[1])
        total = (np.add if t == s else np.subtract)(total, x, out=acc[0])
    return total, s


class QuadratureGrid:
    """Uniform M^N grid on the torus E / 2pi Q^vee.

    Points are xi_k = (2pi/M) sum_j k_j beta_j with {beta_j} the coroots of
    the basis simple roots (a Z-basis of Q^vee).  Pairing a weight with
    beta_j gives exactly its j-th fundamental-weight coordinate, so phases
    are (2pi/M) * (k . mu); the integer k . mu is computed from the shape
    (phases), and no per-point array is held until xi or alcove_mask is read.
    """

    def __init__(self, rs: RootSystem, M: int):
        if M < 2:
            raise ValueError("grid subdivision must be at least 2")
        self.rs = rs
        self.M = int(M)
        check_grid_points(rs, self.M)
        self.shape = (self.M,) * rs.rank
        self.size = self.M ** rs.rank
        self._xi = None
        self._alcove = None
        self._table = np.empty(0, dtype=complex)
        self._table_lo = 0

    def eval_terms(self, terms: dict, out: np.ndarray | None = None,
                   acc: np.ndarray | None = None) -> np.ndarray:
        """sum_mu c_mu e^{i<mu, xi>} over the grid, flat in C order, written
        into out (a new array by default; a real out takes the real parts),
        in blocks of _EVAL_TERMS terms.

        A block's terms are read-only strided views of the table of roots
        (_table_view), or on rank one and other long phase ranges are
        computed directly; the choice is made per block from its weights
        (_table_start).  Each block is summed in the fixed order of
        _lane_sum, in the two rows of acc (eval_polys passes one pair for
        all its rows), with no BLAS call: a coefficient +-1 adds or
        subtracts its term, and any other multiplies it first.  With
        coefficients +-1 every product is exact, so the sum has the bits of
        the block's roots @ coeffs as OpenBLAS forms it."""
        if out is None:
            out = np.empty(self.size, dtype=complex)
        items = list(terms.items())
        if not items:
            out[...] = 0
            return out
        if acc is None:
            acc = np.empty((2, self.size), dtype=complex)
        acc, cube = acc.reshape((2,) + self.shape), out.reshape(self.shape)
        for start in range(0, len(items), _EVAL_TERMS):
            block = items[start:start + _EVAL_TERMS]
            mus = np.array([mu for mu, _ in block], dtype=np.int64)
            coeffs = [complex(c) for _, c in block]
            base = self._table_start(*_phase_span(self.M, [mu for mu, _ in block]),
                                     self.size * len(block))

            def value(i):
                x = (self._table_view(mus[i], base) if base is not None else
                     self.roots_of_unity(self.phases(mus[i])).reshape(self.shape))
                # in one written order: numpy's temporary elision would turn
                # c * (a temporary) into (the temporary) * c above 256 KiB,
                # and complex products with FMA are not bitwise commutative
                return x if coeffs[i] in (1, -1) else np.multiply(coeffs[i], x)

            total, sign = _lane_sum(value, [-1 if c == -1 else 1 for c in coeffs], acc)
            if not np.iscomplexobj(out):
                total = total.real
            # the first block is added to 0.0, as a sum from zero is, which
            # turns -0.0 into 0.0
            (np.add if sign > 0 else np.subtract)(cube if start else 0.0, total, out=cube)
        return out

    def eval_polys(self, polys, out=None) -> np.ndarray:
        """(len(polys), size) array, row j the values of polys[j]; out may be
        any array of that shape, such as the transpose of a C-ordered
        (size, len(polys)) one.  Each row is written in place, once per block
        of terms; the lanes of every row are summed in one pair of rows."""
        if out is None:
            out = np.empty((len(polys), self.size), dtype=complex)
        acc = np.empty((2, self.size), dtype=complex)
        for row, p in zip(out, polys):
            self.eval_terms(p.terms, row, acc)
        return out

    def eval_real(self, polys) -> np.ndarray:
        """Packed values of real-valued polys: row j of ceil(n/2) complex rows
        is Re polys[2j] + i Re polys[2j + 1], zero past the last (two rows
        for n = 2: one would make the Gram product a gemv, whose lanes sum
        otherwise).  Each real part is written in place, as in eval_polys."""
        n = len(polys)
        rows = np.zeros((max((n + 1) // 2, min(n, 2)), self.size), dtype=complex)
        acc = np.empty((2, self.size), dtype=complex)
        for i, p in enumerate(polys):
            self.eval_terms(p.terms, _half(rows, i), acc)
        return rows

    def exponential(self, mu) -> np.ndarray:
        """e^{i<mu, xi>} over the grid, flat (mu given by weight coordinates):
        a copy of the table's view (_table_view), or computed directly where
        _table_start says so, as a term of eval_terms is."""
        mu = tuple(int(x) for x in mu)
        start = self._table_start(*_phase_span(self.M, [mu]), self.size)
        if start is None:
            return self.roots_of_unity(self.phases(mu))
        return self._table_view(mu, start).ravel()

    def roots_of_unity(self, k) -> np.ndarray:
        """e^{2 pi i k / M} for an integer array k; every grid exponential
        comes from here or from the table built here (_table_view).  It is
        evaluated on the unreduced k: folding k mod M would be exact in the
        mathematics but would move the last bits of every grid sum."""
        return np.exp(1j * ((2.0 * np.pi / self.M) * k))

    def _table_start(self, lo: int, hi: int, count: int) -> int | None:
        """The first phase of the table, extended to cover the phases lo to
        hi, or None when hi - lo >= count: then count values of phases in
        that range are computed directly, and nothing is tabulated."""
        if hi - lo >= count:
            return None
        start = self._table_lo if self._table.size else lo
        stop = start + self._table.size
        if lo < start or hi >= stop:
            self._table = np.concatenate([
                self.roots_of_unity(np.arange(lo, start)), self._table,
                self.roots_of_unity(np.arange(stop, hi + 1))])
            self._table.flags.writeable = False
            self._table_lo = min(lo, start)
        return self._table_lo

    def _table_view(self, mu, start: int) -> np.ndarray:
        """e^{i<mu, xi>} on the grid, shape (M,) * rank, as a read-only view
        of the table whose first phase is start: the origin reads phase 0,
        and a step along axis j moves mu_j entries (zero or negative
        strides included).  The table must cover the phases of mu."""
        item = self._table.itemsize
        return np.ndarray(self.shape, self._table.dtype, self._table,
                          -start * item, tuple(item * int(x) for x in mu))

    def phases(self, mu) -> np.ndarray:
        """The integer phase k = <index, mu> of e^{i<mu, xi>} over the grid,
        flat int64 (its angle is (2 pi / M) k): the outer sum over the axes j
        of the ramps 0, mu_j, ..., (M - 1) mu_j."""
        ramp = np.arange(self.M, dtype=np.int64)
        return functools.reduce(np.add.outer, [int(x) * ramp for x in mu]).reshape(-1)

    def phase_values(self, mu, fn) -> np.ndarray:
        """fn(k) over the grid, k = phases(mu).  fn, elementwise in k, is
        evaluated once on the exact set of k that occurs and gathered onto
        the grid: a root has a few hundred phases on a grid of 10^4 points.
        """
        k = self.phases(mu)
        lo = int(k.min())
        k -= lo
        seen = np.zeros(int(k.max()) + 1, dtype=bool)
        seen[k] = True
        slot = np.cumsum(seen) - 1
        return fn(np.flatnonzero(seen) + lo)[slot[k]]

    def fourier(self, values: np.ndarray) -> np.ndarray:
        """Grid averages of values * e^{i<mu, xi>} for every mu mod M, flat;
        read entry mu at flat_index(mu)."""
        cube = np.reshape(values, self.shape)
        return np.fft.ifftn(cube).ravel()

    def flat_index(self, mus) -> np.ndarray:
        """Flat grid positions of integer weights (last axis: coordinates)
        folded mod M."""
        strides = self.M ** np.arange(self.rs.rank - 1, -1, -1, dtype=np.int64)
        return (np.asarray(mus, dtype=np.int64) % self.M) @ strides

    def angles(self, mu) -> np.ndarray:
        """<mu, xi> over the grid (mu given by weight coordinates)."""
        return (2.0 * np.pi / self.M) * self.phases(mu)

    @property
    def xi(self) -> np.ndarray:
        """Grid points as ambient vectors, shape (size, dim)."""
        if self._xi is None:
            index = np.indices(self.shape, dtype=np.int64).reshape(self.rs.rank, -1).T.copy()
            self._xi = (2.0 * np.pi / self.M) * (index @ self.rs.basis_coroots_f)
        return self._xi

    @property
    def alcove_mask(self) -> np.ndarray:
        """Exact indicator of the open alcove 0 < <xi, a> < 2pi for a in R+."""
        if self._alcove is None:
            mask = np.ones(self.size, dtype=bool)
            for a in self.rs.positive_roots:
                pai = self.phases(self.rs.root_coords(a))
                mask &= (pai > 0) & (pai < self.M)
            self._alcove = mask
        return self._alcove

    def __repr__(self):
        return f"QuadratureGrid({self.rs._name()}, M={self.M}, {self.size} points)"


def chat_values(spec: CFunctionSpec, grid: QuadratureGrid) -> np.ndarray:
    """The overall c-function C(xi) = prod_{a in R1+} c_|a|(e^{-i<a,xi>})."""
    rs = grid.rs
    out = np.ones(grid.size, dtype=complex)
    for a, c in zip(rs.positive_roots_1, spec.cfunctions):
        out *= grid.phase_values(rs.root_coords(a),
                                 lambda k: c._eval_raw(grid.roots_of_unity(-k)))
    return out


def weight_function_values(spec: CFunctionSpec, grid: QuadratureGrid) -> np.ndarray:
    """The weight Delta(xi) = 1/|C(xi)|^2 on the grid (nonnegative)."""
    c = chat_values(spec, grid)
    return 1.0 / (c.real**2 + c.imag**2)


def weight_function_eval(spec: CFunctionSpec, xi) -> float:
    """Pointwise Delta(xi) for an ambient vector xi."""
    rs = spec.rs
    xi = np.asarray(xi, dtype=float)
    c = 1.0 + 0j
    for av, cf in zip(rs.positive_roots_1_f, spec.cfunctions):
        th = float(np.dot(av, xi))
        c *= complex(cf._eval_raw(np.exp(-1j * th)))
    return 1.0 / abs(c) ** 2


def delta_values(rs: RootSystem, grid: QuadratureGrid) -> np.ndarray:
    out = np.ones(grid.size, dtype=complex)
    for a in rs.positive_roots_0:
        out *= grid.phase_values(rs.root_coords(a),
                                 lambda k: 2j * np.sin(((2.0 * np.pi / grid.M) * k) / 2.0))
    return out


def measure_values(spec: CFunctionSpec, grid: QuadratureGrid) -> np.ndarray:
    """Delta(xi) |delta(xi)|^2 on the grid."""
    d = delta_values(grid.rs, grid)
    return weight_function_values(spec, grid) * (d.real**2 + d.imag**2)


class QuadratureError(RuntimeError):
    pass


def bandwidth_bound(rs: RootSystem, supports) -> int:
    """Max |<mu, beta_j>| over products of terms drawn from the supports."""
    return sum(max(map(abs, itertools.chain.from_iterable(sup)))
               for sup in supports if sup)


def first_rung(rs: RootSystem, supports) -> int:
    """2 * bandwidth + 2 over the union of the supports and |delta|^2: the
    coarsest grid of the doubling ladder, exact for the unit weight."""
    union = set().union(*supports)
    dsup = weyl_denominator(rs).support()
    return 2 * bandwidth_bound(rs, [union, union, dsup, dsup]) + 2


def orbit_first_rung(rs: RootSystem, weights) -> int:
    """first_rung of the orbit sums m_lambda for lambda in weights, from the
    weights alone: the orbit of lambda reaches rs.orbit_reach(lambda), and
    the Weyl denominator, over the orbit of rho, rs.orbit_reach(rho)."""
    return 2 * (2 * max(map(rs.orbit_reach, weights)) + 2 * rs.orbit_reach(rs.rho_coords)) + 2


def gram_ladder(polys, spec: CFunctionSpec, m: int, tol: float, max_m: int):
    """(Gram, M): the Gram matrix of polys on the doubling ladder of grids.

    M doubles from the caller's first rung m (first_rung of the polys, or
    orbit_first_rung of their weights for orbit sums) until two successive
    Gram matrices agree within tol * (1 + max|G|); the first rung is exact
    for unit weights, so a unit ladder stops there.  No grid above max_m is
    built, and no rung whose arrays would exceed the byte budget; a ladder
    that cannot reach its second rung is refused before the first (see
    check_ladder).  A non-unit ladder evaluates the polys on the rung 2m,
    takes its Gram matrix, and then reads the rung m off its even points,
    in place (see _even_points): the points k of the rung at M are the
    points 2k of the rung at 2M with the same phase bits, since 2pi/(2M) is
    2pi/M halved exactly.  Later rungs are evaluated afresh.  A real-valued
    family (real_valued) is held in the packed rows of eval_real.
    """
    rs, n = polys[0].rs, len(polys)
    check_ladder(rs, spec, n, m, max_m)
    grid = QuadratureGrid(rs, m)
    if spec.is_unit:
        return gram_matrix(polys, spec, grid), m
    fine = QuadratureGrid(rs, 2 * m)
    real = real_valued(polys)
    vals = fine.eval_real(polys) if real else fine.eval_polys(polys)
    cur = gram_matrix(polys, spec, fine, vals)
    gram = gram_matrix(polys, spec, grid, _even_points(rs, vals, m))
    while True:
        if np.max(np.abs(cur - gram)) <= tol * (1.0 + np.max(np.abs(cur))):
            return cur, fine.M
        gram, vals, m = cur, None, 2 * fine.M
        if m > max_m:
            raise QuadratureError(f"Gram matrix did not stabilize below M={max_m}")
        check_bytes(f"Gram ladder of {n} weights on {rs._name()} at M={m}",
                    gram_bytes(n, m ** rs.rank))
        fine = QuadratureGrid(rs, m)
        cur = gram_matrix(polys, spec, fine)


def _even_points(rs: RootSystem, vals: np.ndarray, m: int) -> np.ndarray:
    """The values of the rung m, read off the (n, (2m)^rank) values vals of
    the rung 2m: the even points of each row are moved into the head of the
    same buffer, and the (n, m^rank) head is returned.  Row i's target ends
    before row i + 1's source begins, so only row 0, whose target overlaps
    its own source, goes through a copy."""
    n, rank = len(vals), rs.rank
    head = vals.reshape(-1)[:n * m ** rank].reshape((n,) + (m,) * rank)
    for i, row in enumerate(vals.reshape((n,) + (2 * m,) * rank)):
        even = row[(slice(0, None, 2),) * rank]
        head[i] = even.copy() if i == 0 else even
    return head.reshape(n, -1)


def gram_bytes(n: int, size: int) -> int:
    """Bytes of one rung of the Gram ladder on size grid points: the
    (n, size) complex values; the larger of the largest weighted row block
    of gram_matrix and the two accumulator rows of eval_polys (its table
    terms are views, which hold no bytes); and the float measure w.  A grid
    holds no per-point array of its own (QuadratureGrid.phases), and a
    block is weighted without a cast (gram_matrix).  The packed rows of a
    real-valued family take half the values' bytes, so for them this is an
    upper bound."""
    rows = n + max(_block_rows(_row_blocks(n)), 2)
    return size * (16 * rows + 8)


def check_ladder(rs: RootSystem, spec: CFunctionSpec, n: int, m: int, max_m: int) -> None:
    """Refuse a Gram ladder of n polynomials from the first rung m before
    anything is built.  A non-unit ladder compares two rungs, so it always
    builds the rung 2m too: the bytes and grid points of both rungs are
    checked, and each rung against max_m; a unit ladder stops at the
    first."""
    for rung in (m,) if spec.is_unit else (m, 2 * m):
        if rung > max_m:
            raise QuadratureError(
                f"Gram ladder needs M={rung} for its "
                f"{'first' if rung == m else 'second'} rung, above the largest "
                f"grid max_m={max_m}")
        check_bytes(f"Gram ladder of {n} weights on {rs._name()} at M={rung}",
                    gram_bytes(n, rung ** rs.rank))
        check_grid_points(rs, rung)


def inner_product(f: LaurentPoly, g: LaurentPoly, spec: CFunctionSpec,
                  tol: float = 1e-10, max_m: int = MAX_M) -> complex:
    """(f, g) with respect to the weight Delta |delta|^2, alcove-normalized:
    entry [0, 1] of the Gram matrix of [f, g] on the doubling ladder."""
    gram, _ = gram_ladder([f, g], spec, first_rung(f.rs, [f.support(), g.support()]),
                          tol, max_m)
    return complex(gram[0, 1])


def _row_blocks(n: int) -> list:
    """Edges of ceil(n / 32) near-equal row blocks of the Gram product.  A
    block of 16 or more rows (the fewest a split gives) keeps the bits of
    the one-call product; blocks of 3 or 4 rows move its last bits."""
    count = -(-n // GRAM_BLOCK_ROWS)
    return [n * i // count for i in range(count + 1)]


def _block_rows(edges) -> int:
    return max(b - a for a, b in zip(edges, edges[1:]))


def gram_matrix(polys, spec: CFunctionSpec, grid: QuadratureGrid,
                values=None) -> np.ndarray:
    """Gram matrix of a family of Laurent polynomials on a fixed grid.

    values, if given, are the rows E = grid.eval_polys(polys); they are
    only read.  The weighted rows conj(E) * w are formed one block of rows
    at a time, so besides the values only one block is held, and each block
    is multiplied by E.T; a block's real and imaginary parts are scaled by
    the float w in place, the products of a complex-by-real multiply with
    no cast of w to complex.  Conjugating the finished matrix gives the bits
    of the one-call product (E * w) @ conj(E).T: zgemm forms the same
    products with negated imaginary parts.

    A real-valued family (real_valued) gets the real part of that product,
    to the bit, from the packed rows E = grid.eval_real(polys): blocks
    Re E_i * w + 0i times the packed rows put G[i, 2j] and G[i, 2j + 1] in
    the lanes of entry (i, j), which zgemm sums as the complex product's
    real lane, less Im * Im terms of rounding size.
    """
    rs, n, real = polys[0].rs, len(polys), real_valued(polys)
    w = measure_values(spec, grid) / (grid.size * rs.weyl_order())
    E = values if values is not None else (
        grid.eval_real(polys) if real else grid.eval_polys(polys))
    edges = _row_blocks(n)
    # the real path writes the real parts only: the imaginary ones stay 0
    scratch = np.zeros((_block_rows(edges), grid.size), dtype=complex)
    gram = np.empty((n, len(E)), dtype=complex)
    for a, b in zip(edges, edges[1:]):
        block = scratch[:b - a]
        if real:
            for r in range(a, b):
                np.multiply(_half(E, r), w, out=block[r - a].real)
        else:
            np.conjugate(E[a:b], out=block)
            np.multiply(block.real, w, out=block.real)
            np.multiply(block.imag, w, out=block.imag)
        np.matmul(block, E.T, out=gram[a:b])
    return gram.view(float)[:, :n] if real else np.conjugate(gram, out=gram)
