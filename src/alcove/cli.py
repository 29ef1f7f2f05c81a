"""Batch front end: verify identity suites, run scattering diagnostics,
export tables.

Configuration is a single JSON file; reports embed the full configuration
and the library version so a run can be reproduced byte for byte.  Every
failure mode maps to a distinct exit code (see EXIT_*).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .harmonic import (MAX_M, QuadratureError, QuadratureGrid, check_ladder, gram_matrix,
                       orbit_first_rung, orbit_symbol)
from .orthopoly import (KoornwinderParams, MacdonaldParams, ParameterError,
                        difference_equation_residual, gram_schmidt,
                        macdonald_identity_residual, norm_constants,
                        pieri_residual, specialization_residual,
                        symmetry_residual)
from .qfun import unit_spec
from .rootsys import LABELS, BudgetExceededError, build_root_system, check_weyl_order

# laplacian, scattering and evolution are imported by the verbs and suites
# that run them, so a process loads only what its verb needs

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4
EXIT_LEAKAGE = 5


# random draws _regular_point makes before it gives up
REGULAR_POINT_TRIES = 64


class ConfigError(ValueError):
    pass


def _number(value, key: str, kind=float):
    """kind(value) for the config number at key, or a ConfigError.  Only a
    JSON number is one: a bool or a string is refused, as are NaN and
    +-Infinity, and for kind int a float with a fractional part (8.0 reads
    as 8, 2.9 is refused rather than truncated)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        out = kind(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from exc
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and out != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return out


def _numbers(values, key: str, kind=float) -> list:
    """The config list at key, each entry converted by kind."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return [_number(v, key, kind) for v in values]


def _nonnegative(value, key: str) -> int:
    """The config integer at key, or a ConfigError when it is negative."""
    n = _number(value, key, int)
    if n < 0:
        raise ConfigError(f"{key} must be nonnegative, got {n}")
    return n


TOLERANCES = {"specialization": 1e-10, "symmetry": 1e-9, "macdonald_identity": 1e-12,
              "difference_equation": 1e-8, "pieri": 1e-8, "orthonormality": 1e-8,
              "norms": 1e-8, "smatrix": 1e-13, "free": 0.0}

# the keys of each c-function family besides "family"
FAMILY_KEYS = {"unit": (), "macdonald": ("g", "q"), "koornwinder": ("ghat", "g0123", "q")}

# every key some verb reads; a dict is a section, None a value
CONFIG_KEYS = {
    "root_system": {"label": None, "rank": None},
    "cfunctions": None,  # "family" and its FAMILY_KEYS (see check_keys)
    "weights": {"tops": None, "max_height": None},
    "grid": {"M": None},
    "task": {"ray": {"direction": None, "steps": None},
             "evolve": dict.fromkeys(("times", "orbit", "radius", "center", "sign",
                                      "lattice_depth"))},
    "tolerances": dict.fromkeys(TOLERANCES),
    "seed": None,
    "n_spectral_points": None,
    "max_lambdas": None,
}


def _section(cfg: dict, key: str, where: str = "") -> dict:
    """The config object cfg[key] ({} when absent), or a ConfigError; where
    is the key path of cfg, for the message."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key} must be an object, got {value!r}")
    return value


def _check_keys(cfg: dict, schema: dict, where: str) -> None:
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key {where + key!r}; have {sorted(schema)}")
        if schema[key] is not None:
            _check_keys(_section(cfg, key, where), schema[key], f"{where}{key}.")


def check_keys(cfg: dict) -> None:
    """Refuse a key that no verb reads, or a c-function key that the family
    given does not read, naming its key path; an unknown family is left to
    build_system."""
    family = _section(cfg, "cfunctions").get("family", "unit")
    keys = FAMILY_KEYS.get(family) if isinstance(family, str) else None
    cfunctions = None if keys is None else dict.fromkeys(("family",) + keys)
    _check_keys(cfg, {**CONFIG_KEYS, "cfunctions": cfunctions}, "")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, "
                          f"got {type(cfg).__name__}")
    check_keys(cfg)
    return cfg


def _length_key(text: str) -> float:
    """A key of the per-length g object: a squared root length, as a string."""
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cfunctions.g keys must be squared root lengths, "
                          f"got {text!r}") from exc


def build_system(cfg: dict):
    rsc = _section(cfg, "root_system")
    label = rsc.get("label", "A")
    if not isinstance(label, str):
        raise ConfigError(f"root_system.label must be a string, got {label!r}")
    rank = _number(rsc.get("rank", 1), "root_system.rank", int)
    try:
        if label in LABELS:
            check_weyl_order(label, rank)
        rs = build_root_system(label, rank)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cf = _section(cfg, "cfunctions")
    family = cf.get("family", "unit")
    if family == "unit":
        return rs, None, unit_spec(rs)
    if family == "macdonald":
        g = cf.get("g", 1.0)
        if isinstance(g, dict):
            g = {_length_key(k): _number(v, f"cfunctions.g.{k}") for k, v in g.items()}
        else:
            g = _number(g, "cfunctions.g")
        q = _number(cf.get("q", 0.5), "cfunctions.q")
        params = MacdonaldParams.create(rs, g, q)
        return rs, params, params.cspec()
    if family == "koornwinder":
        g0123 = cf.get("g0123", [0.5, 0.5, 0.5, 0.5])
        if not isinstance(g0123, list) or len(g0123) != 4:
            raise ConfigError(f"cfunctions.g0123 must hold 4 couplings, got {g0123!r}")
        params = KoornwinderParams.create(
            rs, _number(cf.get("ghat", 1.0), "cfunctions.ghat"),
            _numbers(g0123, "cfunctions.g0123"),
            _number(cf.get("q", 0.5), "cfunctions.q"))
        return rs, params, params.cspec()
    raise ConfigError(f"unknown c-function family {family!r}")


def weight_tops(cfg: dict, rs) -> list:
    wc = _section(cfg, "weights")
    if "tops" in wc:
        if not isinstance(wc["tops"], list) or not wc["tops"]:
            raise ConfigError("weights.tops must be a nonempty list of weights, "
                              f"got {wc['tops']!r}")
        tops = [tuple(_numbers(t, "weights.tops", int)) for t in wc["tops"]]
        for top in tops:
            if len(top) != rs.rank or not rs.is_dominant(top):
                raise ConfigError("weights.tops must hold dominant weights of "
                                  f"rank {rs.rank}, got {list(top)}")
        return tops
    h = _nonnegative(wc.get("max_height", 2), "weights.max_height")
    import itertools
    # theta_s is dominant and in Q+, so c with sum(c + theta_s) <= h lies below
    # c + theta_s: only the shell low < sum(c) <= h can hold tops (0 is none),
    # listed in lexicographic order, each head c_0 .. c_{rank-2} (the gaps
    # between rank - 1 bars among h + rank - 1 slots) with its last coordinates
    low = max(h - sum(rs.quasi_minuscule_weight()), 0)
    bars = list(itertools.combinations(range(h + rs.rank - 1), rs.rank - 1))
    heads = np.diff(np.array(bars, dtype=np.int64).reshape(len(bars), rs.rank - 1),
                    axis=1, prepend=-1) - 1
    sums = heads.sum(axis=1)
    first = np.maximum(low + 1 - sums, 0)
    counts = h + 1 - sums - first
    box = np.column_stack([np.repeat(heads, counts, axis=0),
                           np.repeat(first + counts - np.cumsum(counts), counts)
                           + np.arange(counts.sum())])
    maximal = np.ones(len(box), dtype=bool)
    for k, d in enumerate(box):
        if maximal[k]:  # what lies below d lies below a maximal point
            below = rs.dominance_leq(box, d)
            below[k] = False
            maximal &= ~below
    return [tuple(c) for c in box[maximal].tolist()] or [(0,) * rs.rank]


def tolerances(cfg: dict) -> dict:
    given = _section(cfg, "tolerances")
    for key, value in given.items():  # check_keys refused every other key
        # NaN would fail every check, and Infinity would pass every one
        if _number(value, f"tolerances.{key}") < 0:
            raise ConfigError(f"tolerances.{key} must be nonnegative, got {value!r}")
    return {**TOLERANCES, **given}


def grid_m(cfg: dict, default: int) -> int:
    """grid.M of the configuration, or default when it is not given."""
    m = _number(_section(cfg, "grid").get("M", default), "grid.M", int)
    if m < 2:
        raise ConfigError(f"grid.M must be at least 2, got {m}")
    return m


def table_grid_m(cfg: dict, system, default: int | None = None) -> int:
    """grid.M for a wave table of system, at least grid_floor(system): the
    config's grid.M, else default raised to that floor, or the floor + 30."""
    from .scattering import grid_floor
    floor = grid_floor(system)
    m = grid_m(cfg, floor + 30 if default is None else max(default, floor))
    if m < floor:
        raise ConfigError(
            f"grid.M={m} cannot resolve the kernel frequencies of the polynomial "
            f"table; the smallest M that works is {floor}")
    return m


def check_record(name: str, residual, tolerance) -> dict:
    """One entry of a suite's report: it passes when residual <= tolerance."""
    return {"check": name, "residual": float(residual), "tolerance": tolerance,
            "pass": bool(residual <= tolerance)}


def _report(out_path, payload, cfg):
    payload = {"version": __version__, "config": cfg, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out_path:
        Path(out_path).write_text(text)
    else:
        print(text)
    return payload


# ---------------------------------------------------------------------------
# verify suites


def _suite_appendix_a(rs, params, spec, cfg, tol):
    import random
    if not isinstance(params, MacdonaldParams):
        raise ConfigError("suite appendixA needs a macdonald c-function family")
    rng = random.Random(_number(cfg.get("seed", 0), "seed", int))
    n_xi = _nonnegative(cfg.get("n_spectral_points", 20), "n_spectral_points")
    n_lam = _nonnegative(cfg.get("max_lambdas", 3), "max_lambdas")
    tops = weight_tops(cfg, rs)
    pi = rs.quasi_minuscule_weight()
    minus = rs.minuscule_weights()
    test_lams = [lam for lam in rs.saturated_weights(tops) if sum(lam) > 0]
    orbit_union = set()
    for pip in minus + [pi]:
        orbit_union |= rs.weyl_orbit(tuple(pip))
    pieri_tops = sorted({tuple(a + b for a, b in zip(lam, nu))
                         for lam in test_lams for nu in orbit_union
                         if rs.is_dominant(tuple(a + b for a, b in zip(lam, nu)))})
    fw = [tuple(1 if j == r else 0 for j in range(rs.rank)) for r in range(rs.rank)]
    system = gram_schmidt(rs, spec, list(tops) + pieri_tops + fw)
    dual = params.dual()
    dual_system = gram_schmidt(dual.rs, dual.cspec(), list(tops) + fw)

    checks = []

    def add(name, value, bound):
        checks.append(check_record(name, value, bound))

    for lam in test_lams:
        add(f"specialization {lam}", specialization_residual(params, system, lam),
            tol["specialization"])
    for lam in fw:
        for mu in fw:
            add(f"symmetry {lam}|{mu}",
                symmetry_residual(params, system, dual_system, lam, mu),
                tol["symmetry"])
    dual_minuscule = dual.rs.minuscule_weights()
    for pim in dual_minuscule:
        xi = _uniform_point(rs, rng, 0.2, 2.0)
        add(f"macdonald identity {pim}",
            macdonald_identity_residual(params, pim, xi), tol["macdonald_identity"])
    dual_pis = dual_minuscule + [dual.rs.quasi_minuscule_weight()]
    pieri_pis = minus + [pi]
    for lam in test_lams[:n_lam]:
        # the weight's points first, then each identity once over all of them
        xis = np.reshape([_regular_point(rs, rng) for _ in range(n_xi)], (n_xi, rs.dim))
        diff = [difference_equation_residual(params, system, lam, xis, pim)
                for pim in dual_pis]
        pieri = [pieri_residual(params, system, lam, xis, pip) for pip in pieri_pis]
        for k in range(n_xi):
            for pim, res in zip(dual_pis, diff):
                add(f"difference eq {lam} pi={pim} #{k}", res[k],
                    tol["difference_equation"])
            for pip, res in zip(pieri_pis, pieri):
                add(f"pieri {lam} pi={pip} #{k}", res[k], tol["pieri"])
    return checks


def _uniform_point(rs, rng, low: float, high: float) -> np.ndarray:
    """One ambient point, each coordinate drawn uniformly from low to high."""
    return np.array([rng.uniform(low, high) for _ in range(rs.dim)])


def _regular_point(rs, rng):
    for _ in range(REGULAR_POINT_TRIES):
        xi = _uniform_point(rs, rng, 0.2, 2.2)
        if np.all(np.abs(np.sin(0.5 * (rs.roots_f @ xi))) > 0.08):
            return xi
    raise RuntimeError("could not sample a point away from the singular set")


def _suite_orthonormality(rs, params, spec, cfg, tol):
    tops = weight_tops(cfg, rs)
    if spec.is_unit:
        # refuse an oversized rung before gram_schmidt folds the characters
        weights = rs.saturated_weights(tops)
        check_ladder(rs, spec, len(weights), orbit_first_rung(rs, weights), MAX_M)
    system = gram_schmidt(rs, spec, tops)
    polys = [system.poly(lam) for lam in system.weights]
    gram = gram_matrix(polys, spec, QuadratureGrid(rs, system.grid_m))
    off = float(np.max(np.abs(gram - np.eye(len(polys)))))
    checks = [check_record("orthonormality", off, tol["orthonormality"])]
    if params is not None:
        # p~_lam = (c_lam / leading) P_lam, and G[i, i] is (P_lam, P_lam)
        for i, lam in enumerate(system.weights):
            nd = norm_constants(params, lam)
            val = (nd.c_lam / system.leading(lam)) ** 2 * gram[i, i].real
            res = abs(val - nd.n0 / nd.delta) / (nd.n0 / nd.delta)
            checks.append(check_record(f"closed norm {lam}", res, tol["norms"]))
    return checks


def _suite_free_laplacian(rs, params, spec, cfg, tol):
    import itertools
    from .laplacian import LatticeFunction, apply_free, apply_free_closed
    checks = []
    h = _nonnegative(_section(cfg, "weights").get("max_height", 4), "weights.max_height")
    pis = [tuple(m) for m in rs.minuscule_weights()] + [rs.quasi_minuscule_weight()]
    worst = 0.0
    for pi in pis:
        for lam in itertools.product(range(h + 1), repeat=rs.rank):
            if sum(lam) > h:
                continue
            f = LatticeFunction.indicator(rs, lam)
            d = (apply_free(rs, pi, f) - apply_free_closed(rs, pi, f)).norm()
            worst = max(worst, d)
    checks.append(check_record("boundary rule (fold vs closed form)", worst,
                               tol["free"]))
    if rs.label.startswith("BC"):
        pi = tuple(1 if j == 0 else 0 for j in range(rs.rank))
        out = apply_free(rs, pi, LatticeFunction.indicator(rs, (0,) * rs.rank))
        origin = abs(out.get((0,) * rs.rank))
        checks.append(check_record("hard wall phi_{-1}=0", origin, 0.0))
    return checks


def _suite_smatrix(rs, params, spec, cfg, tol):
    from .scattering import root_half_phases, smatrix_factor, smatrix_factor_direct
    grid = QuadratureGrid(rs, grid_m(cfg, 48))
    unitarity = 0.0
    direct = 0.0
    halves = root_half_phases(spec, grid)
    for w in rs.weyl_group():
        sw = smatrix_factor(w, grid, halves)
        unitarity = max(unitarity, float(np.max(np.abs(np.abs(sw) - 1.0))))
        direct = max(direct, float(np.max(np.abs(
            sw - smatrix_factor_direct(spec, w, grid)))))
    count = len(rs.positive_roots_1)
    return [check_record("unitarity |S_w| = 1", unitarity, tol["smatrix"]),
            check_record(f"S_w from its {count} root factors vs C(w xi)/C(-w xi)",
                         direct, tol["smatrix"])]


SUITES = {
    "appendixA": _suite_appendix_a,
    "orthonormality": _suite_orthonormality,
    "free-laplacian": _suite_free_laplacian,
    "smatrix": _suite_smatrix,
}


def cmd_verify(args, rs, params, spec, cfg) -> int:
    checks = SUITES[args.suite](rs, params, spec, cfg, tolerances(cfg))
    ok = all(c["pass"] for c in checks)
    _report(args.out, {"suite": args.suite, "checks": checks, "pass": ok}, cfg)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# scatter


def cmd_ray(args, rs, params, spec, cfg) -> int:
    from .scattering import WaveTable, convergence_report
    ray = _section(_section(cfg, "task"), "ray", "task.")
    direction = tuple(_numbers(ray.get("direction", (1,) * rs.rank),
                               "task.ray.direction", int))
    # along a wall m(lambda) = 0 at every step, and the fit has no line
    if len(direction) != rs.rank or not rs.is_dominant(direction) \
            or rs.min_coroot_pairing(direction) == 0:
        raise ConfigError("task.ray.direction must be a dominant weight of rank "
                          f"{rs.rank} with no zero coordinate, got {list(direction)}")
    steps = _number(ray.get("steps", 6), "task.ray.steps", int)
    if steps < 2:
        raise ConfigError(f"task.ray.steps must be at least 2 for a fit, got {steps}")
    lambdas = [tuple(l * d for d in direction) for l in range(1, steps + 1)]
    # step j lies below step k exactly when (k - j) d is in Q, so the
    # last o steps top them all, o the least o >= 1 with o d in Q (or
    # every step, when o is larger)
    o = next((o for o, lam in enumerate(lambdas, 1)
              if rs.dominance_leq((0,) * rs.rank, lam)), steps)
    system = gram_schmidt(rs, spec, lambdas[-o:])
    m = table_grid_m(cfg, system)
    rep = convergence_report(WaveTable(system, QuadratureGrid(rs, m)), lambdas)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lambda", "m", "norm"])
            for lam, mm, nn in zip(rep["lambdas"], rep["m"], rep["norms"]):
                wr.writerow([" ".join(map(str, lam)), mm, repr(float(nn))])
    _report(None, {"ray": rep}, cfg)
    return EXIT_OK


def cmd_evolve(args, rs, params, spec, cfg) -> int:
    from .evolution import run_scattering_diagnostic
    from .scattering import grid_floor, symbol_geometry
    ev = _section(_section(cfg, "task"), "evolve", "task.")
    times = _numbers(ev.get("times", [4, 8, 16, 32]), "task.evolve.times")
    if len(set(times)) < 2:
        raise ConfigError("task.evolve.times must hold at least two distinct "
                          f"times for a fit, got {times}")
    if min(times) <= 0:
        raise ConfigError(f"task.evolve.times must be positive, got {times}")
    # a key that is present is read even when empty; an absent key takes
    # its default
    pi = tuple(_numbers(ev["orbit"], "task.evolve.orbit", int)) if "orbit" in ev \
        else tuple(1 if j == 0 else 0 for j in range(rs.rank))
    if len(pi) != rs.rank or not any(pi):
        raise ConfigError(f"task.evolve.orbit must be a nonzero weight of "
                          f"rank {rs.rank}, got {list(pi)}")
    sym = orbit_symbol(rs, pi)
    radius = _number(ev.get("radius", 1.0), "task.evolve.radius")
    if radius <= 0:
        raise ConfigError(f"task.evolve.radius must be positive, got {radius}")
    center = None
    if "center" in ev:
        center = np.asarray(_numbers(ev["center"], "task.evolve.center"))
        if center.shape != (rs.dim,):
            raise ConfigError(f"task.evolve.center must have {rs.dim} "
                              f"entries, got {ev['center']!r}")
    sign = _number(ev.get("sign", 1), "task.evolve.sign", int)
    if sign not in (1, -1):
        raise ConfigError(f"task.evolve.sign must be 1 or -1, got {sign}")
    lmax = _nonnegative(ev.get("lattice_depth", 0), "task.evolve.lattice_depth")
    if not lmax:
        depth = 3.2 * max(times) + 90.0 / radius
        if not math.isfinite(depth):
            raise ConfigError(f"task.evolve.times {times} and radius {radius} give "
                              "no finite lattice depth; set task.evolve.lattice_depth")
        lmax = int(depth) + 8
    tops = [(lmax,), (lmax - 1,)] if rs.rank == 1 else [(lmax,) * rs.rank]
    system = gram_schmidt(rs, spec, tops)
    if center is None:
        grid0 = QuadratureGrid(rs, max(4 * (lmax + 2), grid_floor(system)))
        _, _, distance, regular = symbol_geometry(sym, grid0)
        center = grid0.xi[int(np.argmax(np.where(regular, distance, -1)))]
    rep = run_scattering_diagnostic(system, sym, center, radius, sign, times)
    payload = json.loads(rep.to_json())
    _report(args.out, {"evolution": payload}, cfg)
    if rep.meta.get("invalid"):
        return EXIT_LEAKAGE
    return EXIT_OK if rep.success else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# export


def _export_path(args, name: str) -> Path:
    """--out/name, making --out only once a file is about to be written."""
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def cmd_export(args, rs, params, spec, cfg) -> int:
    tops = weight_tops(cfg, rs)
    what = args.what
    if what == "polynomials":
        system = gram_schmidt(rs, spec, tops)
        payload = {"version": __version__, "config": cfg,
                   "coefficients": system.export_table()}
        _export_path(args, "polynomials.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    if what == "operator":
        from .laplacian import (apply_free, apply_koornwinder, apply_macdonald_ruijsenaars,
                                operator_matrix)
        sites = rs.saturated_weights(tops)
        if params is None:
            pi = rs.quasi_minuscule_weight()
            apply_fn = lambda f: apply_free(rs, pi, f)
        elif isinstance(params, KoornwinderParams):
            apply_fn = lambda f: apply_koornwinder(params, f)
        else:
            pi = rs.quasi_minuscule_weight()
            apply_fn = lambda f: apply_macdonald_ruijsenaars(params, pi, f)
        mat = operator_matrix(apply_fn, rs, sites)
        labels = [" ".join(map(str, s)) for s in sites]
        rows, cols = np.nonzero(mat)  # row-major order
        with open(_export_path(args, "operator.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["row_weight", "col_weight", "value_re", "value_im"])
            for i, j, v in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()):
                wr.writerow([labels[i], labels[j], repr(v.real), repr(v.imag)])
        return EXIT_OK
    from .scattering import ScatteringContext, WaveTable  # what == "smatrix"
    system = gram_schmidt(rs, spec, tops)
    grid = QuadratureGrid(rs, table_grid_m(cfg, system, default=48))
    sym = orbit_symbol(rs, rs.quasi_minuscule_weight())
    ctx = ScatteringContext(WaveTable(system, grid), sym)
    ks = np.nonzero(ctx.regular_mask)[0]
    with open(_export_path(args, "smatrix.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"xi_{i}" for i in range(rs.dim)] + ["re", "im"])
        for k in ks:
            val = ctx.smatrix_at(int(k))
            wr.writerow([repr(float(x)) for x in grid.xi[k]]
                        + [repr(float(val.real)), repr(float(val.imag))])
    return EXIT_OK


# ---------------------------------------------------------------------------


def _evolution_error(name: str):
    """evolution's exception class called name, or () (which no except
    clause matches) while evolution is not loaded: only evolution raises
    it, so main need not import evolution to map it to its exit code."""
    evolution = sys.modules.get(f"{__package__}.evolution")
    return () if evolution is None else getattr(evolution, name)


def check_out(args) -> None:
    """Refuse an --out the verb cannot write, before any work: export makes
    it a directory, and the other verbs write it as a file."""
    if not args.out:
        return
    out = Path(args.out)
    if args.verb == "export":
        base = next(p for p in (out, *out.parents) if p.exists())
        if not base.is_dir():
            raise ConfigError(f"--out {args.out}: {base} is not a directory")
    elif out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {args.out} must name a file in a directory that exists")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alcove",
        description="Orthogonal polynomials on Weyl alcoves, lattice "
                    "Laplacians, and their scattering theory.",
        epilog="Exit codes: 0 ok; 2 config/parameter error or unwritable --out; "
               "3 size budget exceeded (Weyl group, weight box, grid, Gram ladder, "
               "monomial table or operator matrix bytes, or max_m); 4 verification "
               "failed; 5 window leakage or a packet outside the regular sector; "
               "1 unexpected error.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run an identity/verification suite")
    p_verify.add_argument("--suite", default="orthonormality",
                          choices=sorted(SUITES))
    p_verify.add_argument("--config", help="JSON configuration file")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(run=cmd_verify)

    p_scatter = sub.add_parser("scatter", help="convergence/evolution diagnostics")
    task = p_scatter.add_mutually_exclusive_group(required=True)
    task.add_argument("--ray", dest="run", action="store_const", const=cmd_ray)
    task.add_argument("--evolve", dest="run", action="store_const", const=cmd_evolve)
    p_scatter.add_argument("--config")
    p_scatter.add_argument("--out")

    p_export = sub.add_parser("export", help="write coefficient/operator tables")
    p_export.add_argument("what", choices=["polynomials", "operator", "smatrix"])
    p_export.add_argument("--config")
    p_export.add_argument("--out")
    p_export.set_defaults(run=cmd_export)

    args = parser.parse_args(argv)
    try:
        check_out(args)
        cfg = load_config(args.config) if args.config else {}
        return args.run(args, *build_system(cfg), cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceededError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _evolution_error("TableDepthError") as exc:
        print(f"error: {exc}; raise task.evolve.lattice_depth", file=sys.stderr)
        return EXIT_CONFIG
    except _evolution_error("PacketError") as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEAKAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
