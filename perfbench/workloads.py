"""The benchmark's workloads: inputs drawn from a seed, the ``alcove`` CLI
runs that consume them, and the checks their outputs must pass.

Each workload is scaled from a configuration the test suite already runs,
and is chosen so that one module of the package does most of its work
there and little elsewhere (see README.md for the table of reasons).
Ranks, tops, depths, times and grid sizes are fixed; a seed only moves the
couplings inside narrow ranges (and the random points of ``appendixA``).
The ranges were narrowed until every seed gives the same grid ladder and
weight counts, so the work per run does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Couplings of the workloads whose checks compare against recorded norms are
# drawn from a finite grid, so that every seed maps to an input that has a
# reference in references.json (written by record_references.py).
RAY_B2_COUPLINGS = [(g1, g2) for g1 in (0.88, 0.9, 0.92) for g2 in (1.38, 1.4, 1.42)]
EVOLVE_BC1_COUPLINGS = [(g0, g1) for g0 in (0.88, 0.9, 0.92) for g1 in (0.68, 0.7, 0.72)]

# Relative tolerance of the recorded norms.  The absolute floor only matters
# for norms below 1e-5, which sit near the quadrature noise of O(0.1) values
# and are expected to move in their last digits when the transforms change.
REF_RTOL = 1e-8
REF_ATOL = 1e-13
LEAK_TOL = 1e-6
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class Run:
    """One CLI process: its arguments, and the file its stdout goes to."""
    argv: list
    stdout: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[random.Random, int, bool], dict]
    runs: Callable[[str, Path], list]
    check: Callable[[Path, dict, bool], list]
    outputs: tuple
    # spans the traced run must see fire; a rename in the package that
    # drops one of them fails the traced run instead of losing a metric
    reaches: tuple

    def config(self, seed: int, tiny: bool = False) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"), seed, tiny)


def config_key(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REF_RTOL * abs(ref) + REF_ATOL


def _compare(name: str, values: list, refs: list) -> list:
    if len(values) != len(refs):
        return [f"{name}: {len(values)} values, reference has {len(refs)}"]
    return [f"{name}[{i}] = {v!r}, reference {r!r}"
            for i, (v, r) in enumerate(zip(values, refs)) if not _close(v, r)]


def _reference(workload: str, cfg: dict):
    refs = load_references().get(workload, {})
    return refs.get(config_key(cfg))


# -- verify-a2 --------------------------------------------------------------

# number of checks the appendixA suite reports for the two sizes; it depends
# on the tops and depths only, never on the couplings or the seed
VERIFY_A2_CHECKS = {False: 370, True: 25}


def _verify_a2_config(rng, seed, tiny):
    return {
        "root_system": {"label": "A", "rank": 2},
        "cfunctions": {"family": "macdonald",
                       "g": round(rng.uniform(1.26, 1.32), 4), "q": 0.5},
        "weights": {"tops": [[1, 1]] if tiny else [[2, 2]]},
        "seed": seed,
        "n_spectral_points": 3 if tiny else 20,
        "max_lambdas": 1 if tiny else 3,
    }


def _verify_a2_runs(config, out):
    return [Run(["verify", "--suite", "appendixA", "--config", config,
                 "--out", str(out / "report.json")])]


def _verify_a2_check(out, cfg, tiny):
    rep = json.loads((out / "report.json").read_text())
    errors = []
    if rep.get("pass") is not True:
        errors.append("report does not pass")
    failing = [c["check"] for c in rep.get("checks", []) if not c.get("pass")]
    if failing:
        errors.append(f"failing checks: {failing[:3]}")
    n = len(rep.get("checks", []))
    if n != VERIFY_A2_CHECKS[tiny]:
        errors.append(f"{n} checks, expected {VERIFY_A2_CHECKS[tiny]}")
    return errors


# -- ray-b2 -----------------------------------------------------------------


def ray_b2_config(couplings: tuple, tiny: bool) -> dict:
    g1, g2 = couplings
    return {
        "root_system": {"label": "B", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": {"1": g1, "2": g2}, "q": 0.5},
        "task": {"ray": {"direction": [1, 1], "steps": 3 if tiny else 8}},
    }


def _ray_b2_config(rng, seed, tiny):
    return ray_b2_config(rng.choice(RAY_B2_COUPLINGS), tiny)


def _ray_b2_runs(config, out):
    return [Run(["scatter", "--ray", "--config", config,
                 "--out", str(out / "ray.csv")], stdout="report.json")]


def ray_norms(out: Path) -> list:
    with open(out / "ray.csv", newline="") as fh:
        return [float(row["norm"]) for row in csv.DictReader(fh)]


def _ray_b2_check(out, cfg, tiny):
    json.loads((out / "report.json").read_text())
    norms = ray_norms(out)
    errors = []
    if not norms or not all(a > b for a, b in zip(norms, norms[1:])):
        errors.append(f"norms do not strictly decrease: {norms}")
    ref = _reference("ray-b2", cfg)
    if ref is None:
        return errors + ["no reference norms for this configuration"]
    return errors + _compare("norm", norms, ref["norms"])


# -- evolve-bc1 -------------------------------------------------------------


def evolve_bc1_config(couplings: tuple, tiny: bool) -> dict:
    g0, g1 = couplings
    return {
        "root_system": {"label": "BC", "rank": 1},
        "cfunctions": {"family": "koornwinder", "ghat": 1.0,
                       "g0123": [g0, g1, 0.6, 0.8], "q": 0.45},
        "task": {"evolve": {"times": [8, 16] if tiny else [4, 8, 16, 32],
                            "radius": 1.0,
                            "lattice_depth": 60 if tiny else 150}},
    }


def _evolve_bc1_config(rng, seed, tiny):
    return evolve_bc1_config(rng.choice(EVOLVE_BC1_COUPLINGS), tiny)


def _evolve_bc1_runs(config, out):
    return [Run(["scatter", "--evolve", "--config", config,
                 "--out", str(out / "report.json")])]


def evolution_norms(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["evolution"]["norms"]


def _evolve_bc1_check(out, cfg, tiny):
    ev = json.loads((out / "report.json").read_text())["evolution"]
    errors = []
    if ev.get("success") is not True:
        errors.append("evolution report is not a success")
    if "invalid" in ev.get("meta", {}):
        errors.append(f"invalid: {ev['meta']['invalid']}")
    leak = max(max(v) for v in ev["leakages"].values())
    if not leak <= LEAK_TOL:
        errors.append(f"leakage {leak!r} above {LEAK_TOL}")
    ref = _reference("evolve-bc1", cfg)
    if ref is None:
        return errors + ["no reference norms for this configuration"]
    if sorted(ev["norms"]) != sorted(ref["norms"]):
        return errors + [f"norm series {sorted(ev['norms'])} differ from the reference"]
    for series, values in sorted(ev["norms"].items()):
        errors += _compare(series, values, ref["norms"][series])
    return errors


# -- export-bc2 -------------------------------------------------------------


def _export_bc2_config(rng, seed, tiny):
    return {
        "root_system": {"label": "BC", "rank": 2},
        "cfunctions": {"family": "koornwinder",
                       "ghat": round(rng.uniform(1.06, 1.14), 4),
                       "g0123": [round(rng.uniform(0.88, 0.92), 4), 0.7, 0.6, 0.8],
                       "q": 0.45},
        "weights": {"tops": [[2, 1]] if tiny else [[6, 6]]},
        "grid": {"M": 32 if tiny else 96},
    }


def _export_bc2_runs(config, out):
    return [Run(["export", "operator", "--config", config, "--out", str(out)]),
            Run(["export", "smatrix", "--config", config, "--out", str(out)])]


def _export_bc2_check(out, cfg, tiny):
    errors = []
    entries = {}
    with open(out / "operator.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            entries[(row["row_weight"], row["col_weight"])] = complex(
                float(row["value_re"]), float(row["value_im"]))
    if not entries:
        errors.append("operator.csv has no entries")
    worst = max((abs(entries.get((c, r), 0.0) - v.conjugate())
                 for (r, c), v in entries.items()), default=0.0)
    if not worst <= HERMITIAN_TOL:
        errors.append(f"operator is not Hermitian: defect {worst!r}")
    rows = 0
    worst = 0.0
    with open(out / "smatrix.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            worst = max(worst, abs(float(row["re"]) ** 2 + float(row["im"]) ** 2 - 1.0))
    if rows == 0:
        errors.append("smatrix.csv has no rows")
    if not worst <= UNITARY_TOL:
        errors.append(f"|S| = 1 fails by {worst!r}")
    return errors


WORKLOADS = {w.name: w for w in [
    Workload(
        "verify-a2",
        "scalar residual work (orthopoly residuals, norm constants, "
        "q-Pochhammer); almost no grid work, the no-change side for the FFT "
        "core and integer dominance",
        _verify_a2_config, _verify_a2_runs, _verify_a2_check, ("report.json",),
        ("cli.main", "cli.build_system", "cli.report", "rootsys.saturated_weights",
         "qfun.qpochhammer_inf", "harmonic.gram_matrix", "harmonic.eval_terms",
         "orthopoly.gram_schmidt", "orthopoly.norm_constants",
         "orthopoly.residuals")),
    Workload(
        "ray-b2",
        "rank-2 dense exp-sum kernels (Gram matrix, grid evaluation, the "
        "WaveTable monomial table) and a medium dominance scan; largest memory",
        _ray_b2_config, _ray_b2_runs, _ray_b2_check, ("ray.csv", "report.json"),
        ("cli.main", "cli.build_system", "cli.report", "rootsys.dominance_leq",
         "rootsys.saturated_weights", "rootsys.weyl_group", "qfun.qpochhammer_inf",
         "harmonic.gram_matrix", "harmonic.eval_terms", "orthopoly.gram_schmidt",
         "scattering.kernel_bandwidth", "scattering.wavetable_init",
         "scattering.monomial_values", "scattering.asymptotic_wave_values",
         "scattering.convergence_report")),
    Workload(
        "evolve-bc1",
        "packet snapshots (inverse and asymptotic kernels) and the O(n^2) "
        "dominance scan of the kernel bandwidth; rank 1, so grid kernels are "
        "tiny",
        _evolve_bc1_config, _evolve_bc1_runs, _evolve_bc1_check, ("report.json",),
        ("cli.main", "cli.build_system", "cli.report", "rootsys.dominance_leq",
         "rootsys.weyl_group", "qfun.qpochhammer_inf", "orthopoly.gram_schmidt",
         "scattering.kernel_bandwidth", "scattering.wavetable_init",
         "scattering.context_init", "scattering.inverse",
         "scattering.asymptotic_wave_values", "scattering.smatrix_apply",
         "scattering.regular_sector_element", "scattering.sector_element",
         "evolution.snapshot", "evolution.packet_init", "evolution.free_packet",
         "evolution.interacting_packet", "evolution.asymptotic_packet",
         "evolution.classical_packet")),
    Workload(
        "export-bc2",
        "the only workload that reaches the hopping operator matrix; also "
        "sector elements and a rank-2 Koornwinder Gram",
        _export_bc2_config, _export_bc2_runs, _export_bc2_check,
        ("operator.csv", "smatrix.csv"),
        ("cli.main", "cli.build_system", "rootsys.saturated_weights",
         "qfun.qpochhammer_inf", "harmonic.gram_matrix", "orthopoly.gram_schmidt",
         "laplacian.operator_matrix", "laplacian.apply",
         "scattering.wavetable_init", "scattering.context_init",
         "scattering.regular_sector_element", "scattering.sector_element")),
]}
