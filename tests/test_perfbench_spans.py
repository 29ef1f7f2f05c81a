"""The benchmark's trace targets still exist, and the Gram ladder still
passes through the spans the benchmark requires, checked in process."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import alcove.harmonic as harmonic
import alcove.qfun as qfun
from alcove.cli import check_keys, main
from alcove.harmonic import QuadratureGrid
from alcove.orthopoly import MacdonaldParams, gram_schmidt

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def _load_perfbench(monkeypatch, path=SPANS):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    spans = _load_perfbench(monkeypatch)
    assert spans.TARGETS
    for t in spans.TARGETS:
        owner = importlib.import_module(f"alcove.{t.module}")
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = inspect.getattr_static(owner, attr)
        assert callable(target) or isinstance(target, property), t


def test_gram_schmidt_reaches_gram_matrix_once_per_rung(b2, monkeypatch):
    built, gram_rungs, eval_calls = [], [], []
    gram_matrix, eval_terms = harmonic.gram_matrix, QuadratureGrid.eval_terms

    class RecordingGrid(QuadratureGrid):
        def __init__(self, rs, M):
            built.append(M)
            super().__init__(rs, M)

    def recording_gram(polys, spec, grid, values=None):
        gram_rungs.append(grid.M)
        return gram_matrix(polys, spec, grid, values)

    def recording_eval(grid, terms, out=None, acc=None):
        eval_calls.append(grid.M)
        return eval_terms(grid, terms, out, acc)

    monkeypatch.setattr(harmonic, "QuadratureGrid", RecordingGrid)
    monkeypatch.setattr(harmonic, "gram_matrix", recording_gram)
    monkeypatch.setattr(QuadratureGrid, "eval_terms", recording_eval)
    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    system = gram_schmidt(b2, spec, [(2, 2)])
    # the rung 2m's Gram matrix comes before the rung m's, which is read off
    # its even points
    assert len(built) >= 2 and sorted(gram_rungs) == sorted(built)
    assert system.grid_m == max(built)
    assert set(eval_calls) == set(built) - {min(built)}


def test_gram_schmidt_reaches_qpochhammer_per_distinct_phase(b2, monkeypatch):
    # every workload's traced run must see qfun.qpochhammer_inf fire; the
    # Gram ladder still reaches it, through the measure, with at most one
    # point per distinct phase of a root on the rung
    workloads = _load_perfbench(monkeypatch, WORKLOADS)
    assert all("qfun.qpochhammer_inf" in w.reaches for w in workloads.WORKLOADS.values())
    rungs, calls = [], []
    qpochhammer_inf, measure_values = qfun.qpochhammer_inf, harmonic.measure_values

    def measuring(spec, grid):
        rungs.append(grid)
        return measure_values(spec, grid)

    def recording(z, q, tol=1e-15):
        calls.append((rungs[-1], np.size(z)))
        return qpochhammer_inf(z, q, tol)

    spec = MacdonaldParams.create(b2, {1: 0.9, 2: 1.4}, 0.5).cspec()
    monkeypatch.setattr(harmonic, "measure_values", measuring)
    monkeypatch.setattr(qfun, "qpochhammer_inf", recording)
    gram_schmidt(b2, spec, [(2, 2)])
    assert len(rungs) >= 2 and {grid for grid, _ in calls} == set(rungs)
    for grid, points in calls:
        phases = max(len(np.unique(grid.phases(b2.root_coords(a))))
                     for a in b2.positive_roots_1)
        assert points <= phases < grid.size



def test_every_required_span_fires(tmp_path, monkeypatch):
    # each run of every workload's tiny configuration goes through the
    # benchmark's own traced child; every span the workload requires fires
    workloads = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    silent = {}
    for name, workload in workloads.items():
        base = tmp_path / name
        out = base / "out"
        out.mkdir(parents=True)
        config = base / "config.json"
        config.write_text(json.dumps(workload.config(3, tiny=True)))
        fired = set()
        for i, run in enumerate(workload.runs(str(config), out)):
            spans = base / f"spans{i}.json"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans),
                 f"{name}.{i}", "--", *run.argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            dump = json.loads(spans.read_text())
            fired.update(dump["names"][span[1]] for span in dump["spans"])
        silent[name] = sorted(set(workload.reaches) - fired)
    assert silent and not any(silent.values()), silent


def test_every_workload_config_passes_the_key_check(monkeypatch):
    # each benchmark configuration, tiny and full, over seeds 0 to 9, reads
    # only keys that some verb reads; nothing is run
    workloads = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS
    for workload in workloads.values():
        for seed in range(10):
            for tiny in (False, True):
                check_keys(json.loads(json.dumps(workload.config(seed, tiny=tiny))))


def _wrap_targets(spans, monkeypatch, seen):
    """Wrap every trace target, and every module-level name bound to one,
    so that each call appends (span, on the main thread) to seen."""
    def wrap(name, fn):
        def recording(*args, **kwargs):
            seen.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return recording

    originals = {}
    for t in spans.TARGETS:
        owner = importlib.import_module(f"alcove.{t.module}")
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, property):
            monkeypatch.setattr(owner, attr, property(wrap(t.span, original.fget)))
            continue
        wrapped = wrap(t.span, original)
        monkeypatch.setattr(owner, attr, wrapped)
        if not path:
            originals[id(original)] = (original, wrapped)
    for name, module in list(sys.modules.items()):
        if name == "alcove" or name.startswith("alcove."):
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, key, hit[1])


def test_trace_targets_stay_on_the_main_thread(tmp_path, monkeypatch, capsys):
    # the tiny ray-b2 and export-bc2 runs, in process: every trace target is
    # entered on the main thread only, and no run leaves a second thread
    spans = _load_perfbench(monkeypatch)
    workloads = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS
    for name in ("ray-b2", "export-bc2"):
        workload = workloads[name]
        out = tmp_path / name
        out.mkdir()
        config = out / "config.json"
        config.write_text(json.dumps(workload.config(3, tiny=True)))
        seen = []
        with monkeypatch.context() as patch:
            _wrap_targets(spans, patch, seen)
            for run in workload.runs(str(config), out):
                assert main(run.argv) == 0
        capsys.readouterr()
        assert seen and all(on_main for _, on_main in seen), name
        assert {"harmonic.eval_terms", "harmonic.gram_matrix"} <= {s for s, _ in seen}
        assert threading.active_count() == 1, name


def test_small_workloads_start_no_thread(tmp_path, monkeypatch):
    # verify-a2 and evolve-bc1, tiny and full, in one child process: every
    # run exits 0 and no run leaves a thread beside the main one
    workloads = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS
    argvs = []
    for name in ("verify-a2", "evolve-bc1"):
        for tiny in (True, False):
            out = tmp_path / f"{name}-{tiny}"
            out.mkdir()
            config = out / "config.json"
            config.write_text(json.dumps(workloads[name].config(3, tiny=tiny)))
            argvs += [run.argv for run in workloads[name].runs(str(config), out)]
    code = f"""
import json
import threading
from alcove.cli import main
codes = [main(argv) for argv in {argvs!r}]
print(json.dumps([codes, threading.active_count()]))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, threads = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs) and threads == 1
