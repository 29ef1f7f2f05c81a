"""Tests of the benchmark itself (not of alcove).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, config_key  # noqa: E402


def _sizes(cfg):
    """Everything but the couplings and the appendixA seed."""
    cfg = json.loads(json.dumps(cfg))
    cfg.pop("seed", None)
    cfg.pop("cfunctions")
    return cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_moves_only_the_couplings(name):
    wl = WORKLOADS[name]
    assert wl.config(7) == wl.config(7)
    configs = [wl.config(seed) for seed in range(40)]
    assert len({config_key(c["cfunctions"]) for c in configs}) > 1
    assert all(_sizes(c) == _sizes(configs[0]) for c in configs)
    for tiny in (False, True):
        assert _sizes(wl.config(3, tiny)) == _sizes(wl.config(4, tiny))
    assert _sizes(wl.config(3, True)) != _sizes(wl.config(3))


@pytest.mark.parametrize("name", ["ray-b2", "evolve-bc1"])
def test_every_reachable_input_has_reference_norms(name):
    refs = workloads.load_references()[name]
    for seed in range(200):
        for tiny in (False, True):
            assert config_key(WORKLOADS[name].config(seed, tiny)) in refs


def test_reference_comparison_is_relative_with_a_floor():
    assert workloads._compare("n", [1.0 + 5e-9, 2e-14], [1.0, 1e-14]) == []
    assert len(workloads._compare("n", [1.0 + 5e-8], [1.0])) == 1
    assert len(workloads._compare("n", [1.0], [1.0, 2.0])) == 1


def _write_export(out, entries, smatrix_rows):
    with open(out / "operator.csv", "w") as fh:
        fh.write("row_weight,col_weight,value_re,value_im\n")
        for (r, c), v in entries.items():
            fh.write(f"{r},{c},{v.real!r},{v.imag!r}\n")
    with open(out / "smatrix.csv", "w") as fh:
        fh.write("xi_0,xi_1,re,im\n")
        for re, im in smatrix_rows:
            fh.write(f"0.1,0.2,{re!r},{im!r}\n")


def test_export_check_catches_non_hermitian_and_non_unitary(tmp_path):
    check = WORKLOADS["export-bc2"].check
    good = {("0 0", "1 0"): 0.5 + 0.25j, ("1 0", "0 0"): 0.5 - 0.25j,
            ("0 0", "0 0"): 2.0 + 0j}
    _write_export(tmp_path, good, [(0.6, 0.8), (1.0, 0.0)])
    assert check(tmp_path, {}, False) == []
    bad = dict(good)
    bad[("1 0", "0 0")] = 0.5 + 0.25j
    _write_export(tmp_path, bad, [(0.6, 0.8)])
    assert any("Hermitian" in e for e in check(tmp_path, {}, False))
    _write_export(tmp_path, good, [(0.6, 0.8), (0.6, 0.8 + 1e-9)])
    assert any("|S| = 1" in e for e in check(tmp_path, {}, False))


def test_ray_check_needs_decreasing_norms_matching_the_reference(tmp_path):
    cfg = WORKLOADS["ray-b2"].config(0, tiny=True)
    ref = workloads.load_references()["ray-b2"][config_key(cfg)]["norms"]
    check = WORKLOADS["ray-b2"].check

    def write(norms):
        (tmp_path / "report.json").write_text("{}")
        rows = "".join(f"{i} {i},{i}.0,{n!r}\n" for i, n in enumerate(norms, 1))
        (tmp_path / "ray.csv").write_text("lambda,m,norm\n" + rows)

    write(ref)
    assert check(tmp_path, cfg, True) == []
    write([ref[0] * (1 + 1e-6)] + ref[1:])
    assert check(tmp_path, cfg, True)
    write(list(reversed(ref)))
    assert any("decrease" in e for e in check(tmp_path, cfg, True))


def _dump(spans, counts=None, maxima=None):
    names = sorted({s[1] for s in spans})
    return {"run_id": "t", "names": names, "counts": counts or {},
            "maxima": maxima or {},
            "spans": [[i, names.index(n), a, b, p] for i, n, a, b, p in spans]}


def test_derive_self_time_nesting_and_tree_metrics():
    spans = [
        (0, "cli.main", 0.0, 10.0, -1),
        (1, "orthopoly.gram_schmidt", 1.0, 5.0, 0),
        (2, "harmonic.gram_matrix", 1.0, 2.0, 1),
        (3, "harmonic.gram_matrix", 2.0, 4.0, 1),
        (4, "harmonic.eval_terms", 2.0, 3.0, 3),
        (5, "scattering.regular_sector_element", 6.0, 7.0, 0),
        (6, "scattering.sector_element", 6.0, 6.5, 5),
        (7, "scattering.regular_sector_element", 7.0, 7.5, 0),
        (8, "scattering.inverse", 8.0, 9.0, 0),
        (9, "scattering.inverse", 8.2, 8.4, 8),
    ]
    m = layers.derive([_dump(spans, {"scattering.inverse.lambdas": 5},
                             {"orthopoly.gram_schmidt.grid_m": 96})])
    assert m["orthopoly.gram_schmidt.s"] == 4.0
    assert m["orthopoly.gram_schmidt.m_steps"] == 2
    assert m["harmonic.gram_matrix.calls"] == 2
    assert m["harmonic.gram_matrix.s"] == 3.0
    assert m["harmonic.self_s"] == 3.0          # 1 + (2 - 1) + 1
    assert m["orthopoly.self_s"] == 1.0
    assert m["cli.self_s"] == 10.0 - 4.0 - 1.0 - 0.5 - 1.0
    assert m["scattering.inverse.s"] == 1.0     # nested span not counted twice
    assert m["scattering.sector_cache.hit_ratio"] == 0.5
    assert m["scattering.inverse.lambdas"] == 5
    assert m["orthopoly.gram_schmidt.grid_m"] == 96
    assert m["laplacian.operator_matrix.s"] == 0.0
    assert set(m) == {n for n, _, _ in layers.PER_LAYER} - set(layers.RUN_LEVEL)


def test_install_wraps_every_import_site():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from spans import Tracer, install, TARGETS\n"
        "import alcove, alcove.cli, alcove.orthopoly, alcove.scattering\n"
        "orig = alcove.orthopoly.gram_schmidt\n"
        "rebound = install(Tracer('x'))\n"
        "assert alcove.cli.gram_schmidt is alcove.orthopoly.gram_schmidt is alcove.gram_schmidt\n"
        "assert alcove.cli.gram_schmidt is not orig\n"
        "assert alcove.cli.gram_schmidt.__wrapped__ is orig\n"
        "assert rebound > 0\n"
        "print('ok')\n" % str(BENCH))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-a2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_every_workload_both_modes():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
