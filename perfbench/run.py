"""Benchmark of the ``alcove`` command line, one workload per verb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that has ``src/alcove``.  Each sample
is a fresh ``python3 -m alcove.cli`` process, exactly as a user runs it:
a closed loop with one client and one CLI process at a time.  Within a
run the workload's samples are interleaved round-robin with a calibration
probe, a fixed program that never imports alcove, and a set-up probe (a
fresh process timed until ``alcove.cli.build_system`` returns).  The
calibration probes on both sides of a sample give its host-speed factor:
wall times are reported as seconds on a host that runs the probe in
REFERENCE_CALIBRATION_S, because on a shared host the median of a run
moved by up to 1.7x between runs minutes apart.  Raw times are kept in the fuller record.

``--trace 0`` reports the end-to-end metrics (medians over the run);
``--trace 1`` runs the same commands in process with spans recorded around
each module's entry points, alternating with untraced runs, and reports the
per-layer metrics.  Every sample's outputs are checked; a failed check or a
nonzero exit counts as a failed run.  The last line of stdout is the JSON
result; a fuller record goes to ``.perfbench_out/BENCH_<workload>.json``.
``--smoke`` runs every workload once at tiny sizes, in both modes, and
validates the output against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: a second OpenBLAS thread spins without shortening the
# runs, and outputs of ray-b2 and evolve-bc1 differ in their last bits
# between one and two threads, which would break the determinism check.
BLAS_THREADS = 1
# Wall times are scaled to a host that runs the calibration probe in this
# many seconds; the reference machine (2-vCPU Xeon) takes 0.16-0.35 s.
REFERENCE_CALIBRATION_S = 0.2
HARD_LIMIT_S = 170.0     # a run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    started: float       # CLOCK_MONOTONIC just before the process was started
    stdout: bytes
    stderr: str


class Runner:
    """Starts one child at a time and waits for it, within the hard limit."""

    def __init__(self, t_start: float):
        self.env = child_env()
        self.hard_deadline = t_start + HARD_LIMIT_S

    def spawn(self, argv: list, stdout_path: Path | None = None) -> Child:
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        with tempfile.TemporaryFile() as err, \
                (open(stdout_path, "w+b") if stdout_path else tempfile.TemporaryFile()) as out:
            started = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss, started,
                         out.read(), err.read().decode(errors="replace"))

    def setup_probe(self, config: Path) -> float:
        child = self.spawn([sys.executable, str(HERE / "probes.py"), "setup", str(config)])
        if child.code != 0:
            raise BenchError(f"set-up probe exited {child.code}: {child.stderr[-800:]}")
        return float(child.stdout.decode().strip().splitlines()[-1]) - child.started

    def calibrate(self) -> dict:
        """Runs the calibration probe; returns its JSON line."""
        child = self.spawn([sys.executable, str(HERE / "probes.py"), "calibrate"])
        if child.code != 0:
            raise BenchError(f"calibration probe exited {child.code}: {child.stderr[-800:]}")
        return json.loads(child.stdout.decode().strip().splitlines()[-1])


@dataclass
class Sample:
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""
    dumps: list = field(default_factory=list)
    setup: float | None = None                  # set-up probe after the sample
    scale: float = 1.0                          # host-speed factor

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale


def run_iteration(runner: Runner, wl: Workload, cfg: dict, cfg_path: Path,
                  out: Path, tiny: bool, trace_id: str | None = None) -> Sample:
    """All CLI processes of one workload sample, then its output check."""
    out.mkdir()
    sample = Sample()
    for i, run in enumerate(wl.runs(str(cfg_path), out)):
        if trace_id is None:
            argv = [sys.executable, "-m", "alcove.cli", *run.argv]
        else:
            spans = out / f"spans{i}.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans),
                    f"{trace_id}.{i}", "--", *run.argv]
        child = runner.spawn(argv, out / run.stdout if run.stdout else None)
        sample.wall += child.wall
        sample.cpu += child.cpu
        sample.maxrss_kb = max(sample.maxrss_kb, child.maxrss_kb)
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-3:]
            sample.errors.append(f"`alcove {' '.join(run.argv[:2])}` exited "
                                 f"{child.code}: {' | '.join(tail)}")
            break
        if trace_id is not None:
            sample.dumps.append(json.loads(spans.read_text()))
    if not sample.errors:
        try:
            sample.errors = wl.check(out, cfg, tiny)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample.errors = [f"output check raised {type(exc).__name__}: {exc}"]
    if not sample.errors:
        digest = hashlib.sha256()
        for name in wl.outputs:
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        sample.digest = digest.hexdigest()
    shutil.rmtree(out)
    return sample


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(calibration: list) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    first = calibration[0] if calibration else {}
    return {"python": first.get("python"), "numpy": first.get("numpy"),
            "openblas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def measure(wl: Workload, seed: int, seconds: int, trace: bool, tiny: bool) -> dict:
    t_start = time.monotonic()
    runner = Runner(t_start)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        cfg = wl.config(seed, tiny)
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        runner.setup_probe(cfg_path)            # warm-up: compiles the package
        deadline = time.monotonic() + seconds
        samples, traced = [], []
        calibration = [runner.calibrate()]
        n = 0

        def sample(trace_id: str | None) -> Sample:
            """One sample, a calibration probe, then a set-up probe; the
            calibration probes on both sides give the host-speed factor."""
            out = tmp / f"{'t' if trace_id else 'u'}{n}"
            s = run_iteration(runner, wl, cfg, cfg_path, out, tiny, trace_id)
            calibration.append(runner.calibrate())
            around = (calibration[-2]["seconds"] + calibration[-1]["seconds"]) / 2
            s.scale = REFERENCE_CALIBRATION_S / around
            if not trace:
                s.setup = runner.setup_probe(cfg_path)
            return s

        # start another iteration only if one as long as the last still fits;
        # a traced run needs two traced samples for its repeatability check
        while True:
            t_iter = time.monotonic()
            if trace:
                traced.append(sample(f"{wl.name}.{seed}.{n}"))
            samples.append(sample(None))
            n += 1
            now = time.monotonic()
            left = min(deadline, runner.hard_deadline - 5.0) - now
            if (len(traced) >= 2 or not trace) and now - t_iter > left:
                break
        return report(wl, seed, seconds, trace, tiny, cfg, samples, traced, calibration)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(wl, seed, seconds, trace, tiny, cfg, samples, traced, calibration):
    everything = samples + traced
    failed = sum(1 for s in everything if s.errors)
    errors = [e for s in everything for e in s.errors]
    digests = {s.digest for s in everything if not s.errors}
    identical = len(digests) <= 1
    if not identical:
        errors.append(f"outputs differ between runs of one set ({len(digests)} digests)")
    good = [s for s in samples if not s.errors] or samples
    calib = [c["seconds"] for c in calibration]
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "config": cfg, "environment": environment(calibration),
              "identical_outputs": identical, "calibration_s": summary(calib)}
    if trace:
        metrics, trace_errors, per_run = traced_metrics(wl, traced, good, calib)
        if trace_errors:
            # spans that failed the coverage or repeat check fail their runs
            errors += trace_errors
            failed += sum(1 for s in traced if not s.errors)
        detail["traced_runs"] = per_run
        detail["untraced_wall_s"] = summary([s.scaled_wall for s in good])
    else:
        series = {"wall_s": [s.scaled_wall for s in good],
                  "setup_s": [s.setup * s.scale for s in samples],
                  "peak_rss_mb": [s.maxrss_kb / 1024.0 for s in good]}
        raw = {"wall_s": [s.wall for s in good],
               "setup_s": [s.setup for s in samples],
               "cpu_s": [s.cpu for s in good]}
        detail["samples"] = series
        detail["summary"] = {k: summary(v) for k, v in series.items()}
        detail["raw_samples"] = raw
        detail["raw_summary"] = {k: summary(v) for k, v in raw.items()}
        metrics = {name: {"value": detail["summary"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not errors, "attempted": len(everything), "failed": failed,
              "metrics": metrics}
    detail["errors"] = errors
    detail["result"] = result
    return detail


def traced_metrics(wl, traced, untraced, calib):
    """Per-layer metrics from the traced iterations, plus coverage and
    repeatability checks of their spans."""
    errors = []
    good = [s for s in traced if not s.errors]
    per_run = [layers.derive(s.dumps) for s in good]
    if not per_run:
        return ({name: {"value": 0.0, "unit": unit} for name, unit, _ in layers.PER_LAYER},
                ["no traced run succeeded"], [])
    calls = layers.span_stats([d for s in good for d in s.dumps])["calls"]
    silent = [name for name in wl.reaches if not calls.get(name)]
    if silent:
        errors.append(f"trace coverage: spans {silent} never fired on {wl.name}")
    first = per_run[0]
    for other in per_run[1:]:
        moved = [k for k in first if layers.exact(k) and first[k] != other[k]]
        if moved:
            errors.append(f"exact counts differ between traced runs: {moved}")
    values = {}
    for name, unit, _ in layers.PER_LAYER:
        if name == "trace.overhead_s":
            v = (statistics.median(s.scaled_wall for s in good)
                 - statistics.median(s.scaled_wall for s in untraced))
        elif name == "host.calibration_s":
            v = statistics.median(calib)
        elif layers.exact(name):
            v = first[name]
        else:
            v = statistics.median(r[name] for r in per_run)
        values[name] = {"value": v, "unit": unit}
    for e in errors:
        print(f"perfbench: TRACE CHECK FAILED: {e}", file=sys.stderr)
    return values, errors, per_run


def print_summary(detail: dict) -> None:
    res = detail["result"]
    env = detail["environment"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"trace={int(detail['trace'])}{' tiny' if detail['tiny'] else ''}: "
          f"{res['attempted']} runs, {res['failed']} failed, outputs identical: "
          f"{'yes' if detail['identical_outputs'] else 'NO'}")
    for name, stats in detail.get("summary", {}).items():
        print(f"  {name:<12} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
              f"q3 {stats['q3']:.4f}  n={stats['n']}")
    for name, stats in detail.get("raw_summary", {}).items():
        print(f"  raw {name:<8} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
              f"q3 {stats['q3']:.4f}  (not host-scaled)")
    cal = detail["calibration_s"]
    print(f"  calibration  median {cal['median']:.4f} s  n={cal['n']}")
    print(f"  environment  python {env['python']}, numpy {env['numpy']}, "
          f"OpenBLAS threads {env['openblas_threads']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}")
    for e in detail["errors"][:10]:
        print(f"  error: {e}")


def smoke() -> int:
    """Every workload once at tiny sizes, both modes, checked against
    the metric names and units of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        print("smoke: workloads differ from BENCHMARK.json", file=sys.stderr)
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=180)
            problems += [f"{name} trace={trace}: {p}"
                         for p in validate(proc, expected[trace])]
            print(f"smoke {name} trace={trace}: exit {proc.returncode}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def validate(proc, expected: dict) -> list:
    """Problems with one run's exit code and last stdout line."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line of stdout is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if res["correct"] is not True or res["failed"] != 0:
        problems.append(f"correct={res['correct']} failed={res['failed']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append(f"attempted={res['attempted']}")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        problems.append(f"metric names or units differ: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))[:6]}")
    bad = [k for k, v in res["metrics"].items()
           if isinstance(v.get("value"), bool) or not isinstance(v.get("value"), (int, float))]
    if bad:
        problems.append(f"non-numeric values: {bad}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=34)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke test only")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at tiny sizes and validate the output")
    args = p.parse_args(argv)
    if not (SRC / "alcove" / "cli.py").is_file():
        print(f"perfbench: no alcove package under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        detail = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True))
    print_summary(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
