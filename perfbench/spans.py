"""Spans and counts recorded around the public entry points of each module.

The package itself is not changed: ``install`` replaces each target with a
wrapper that records a span (name, start, end, parent, run id) and, for
some targets, a count computed from the call's arguments or result.  Every
module that imported a target by name is patched too, so a ``from .x
import f`` binding cannot bypass its span.  A target that no longer exists
raises at install time.

The tracer assumes one thread; the CLI runs without workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Tracer:
    """Spans kept in memory and written out once the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_index: dict = {}
        self.spans: list = []      # [id, name index, start, end, parent id]
        self._stack: list = []
        self.counts: dict = {}
        self.maxima: dict = {}
        self._seen = weakref.WeakSet()

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def first_time(self, obj) -> bool:
        """True on the first call for obj (held weakly)."""
        if obj in self._seen:
            return False
        self._seen.add(obj)
        return True

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({
            "run_id": self.run_id, "names": self.names, "spans": self.spans,
            "counts": self.counts, "maxima": self.maxima}))


# -- counts taken at the boundaries ------------------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _points(tr, args, kwargs, result):
    import numpy as np
    tr.add("qfun.qpochhammer_inf.points", int(np.size(_arg(args, kwargs, 0, "z"))))


def _saturated(tr, args, kwargs, result):
    tr.add("rootsys.saturated_weights.weights", len(result))


def _gram(tr, args, kwargs, result):
    polys, grid = _arg(args, kwargs, 0, "polys"), _arg(args, kwargs, 2, "grid")
    tr.add("harmonic.gram_matrix.exp_evals", sum(len(p.terms) for p in polys) * grid.size)
    tr.add("harmonic.gram_matrix.bytes", grid.size * len(polys) * 16)


def _eval_terms(tr, args, kwargs, result):
    grid, terms = args[0], _arg(args, kwargs, 1, "terms")
    tr.add("harmonic.eval_terms.exp_evals", len(terms) * grid.size)


def _gram_schmidt(tr, args, kwargs, result):
    tr.add("orthopoly.gram_schmidt.weights", len(result.weights))
    tr.maximum("orthopoly.gram_schmidt.grid_m", int(result.grid_m))
    tr.maximum("orthopoly.gram_schmidt.cond", float(result.cond))


def _operator_sites(tr, args, kwargs, result):
    tr.add("laplacian.operator_matrix.sites", len(_arg(args, kwargs, 2, "sites")))


def _monomial_bytes(tr, args, kwargs, result):
    if tr.first_time(args[0]):
        tr.add("scattering.monomial_values.bytes", int(result.nbytes))


def _inverse_lambdas(tr, args, kwargs, result):
    tr.add("scattering.inverse.lambdas", len(_arg(args, kwargs, 2, "window")))


def _snapshot_m(tr, args, kwargs, result):
    tr.maximum("evolution.snapshot.grid_m", int(result))


def _report_bytes(tr, args, kwargs, result):
    out_path = _arg(args, kwargs, 0, "out_path")
    if out_path:
        tr.add("cli.report.bytes", os.path.getsize(out_path))
    else:
        sys.stdout.flush()
        tr.add("cli.report.bytes", os.fstat(sys.stdout.fileno()).st_size)


@dataclass(frozen=True)
class Target:
    module: str          # module of the alcove package
    attr: str            # "function" or "Class.method"
    span: str            # span name; its first part names the layer
    count: Callable | None = None


TARGETS = [
    Target("rootsys", "RootSystem.dominance_leq", "rootsys.dominance_leq"),
    Target("rootsys", "RootSystem.saturated_weights", "rootsys.saturated_weights", _saturated),
    Target("rootsys", "RootSystem.weyl_group", "rootsys.weyl_group"),
    Target("qfun", "qpochhammer_inf", "qfun.qpochhammer_inf", _points),
    Target("harmonic", "gram_matrix", "harmonic.gram_matrix", _gram),
    Target("harmonic", "QuadratureGrid.eval_terms", "harmonic.eval_terms", _eval_terms),
    Target("orthopoly", "gram_schmidt", "orthopoly.gram_schmidt", _gram_schmidt),
    Target("orthopoly", "norm_constants", "orthopoly.norm_constants"),
    Target("orthopoly", "specialization_residual", "orthopoly.residuals"),
    Target("orthopoly", "symmetry_residual", "orthopoly.residuals"),
    Target("orthopoly", "macdonald_identity_residual", "orthopoly.residuals"),
    Target("orthopoly", "difference_equation_residual", "orthopoly.residuals"),
    Target("orthopoly", "pieri_residual", "orthopoly.residuals"),
    Target("laplacian", "operator_matrix", "laplacian.operator_matrix", _operator_sites),
    Target("laplacian", "apply_free", "laplacian.apply"),
    Target("laplacian", "apply_macdonald_ruijsenaars", "laplacian.apply"),
    Target("laplacian", "apply_koornwinder", "laplacian.apply"),
    Target("scattering", "_kernel_bandwidth", "scattering.kernel_bandwidth"),
    Target("scattering", "WaveTable.__init__", "scattering.wavetable_init"),
    Target("scattering", "WaveTable.monomial_values", "scattering.monomial_values",
           _monomial_bytes),
    Target("scattering", "WaveTable.forward", "scattering.forward"),
    Target("scattering", "WaveTable.forward_free", "scattering.forward"),
    Target("scattering", "WaveTable.inverse", "scattering.inverse", _inverse_lambdas),
    Target("scattering", "WaveTable.inverse_free", "scattering.inverse", _inverse_lambdas),
    Target("scattering", "asymptotic_wave_values", "scattering.asymptotic_wave_values"),
    Target("scattering", "convergence_report", "scattering.convergence_report"),
    Target("scattering", "ScatteringContext.__init__", "scattering.context_init"),
    Target("scattering", "ScatteringContext.smatrix_apply", "scattering.smatrix_apply"),
    Target("scattering", "ScatteringContext.regular_sector_element",
           "scattering.regular_sector_element"),
    Target("scattering", "ScatteringContext.sector_element", "scattering.sector_element"),
    Target("evolution", "run_scattering_diagnostic", "evolution.run_scattering_diagnostic"),
    Target("evolution", "_diagnostic_snapshot", "evolution.snapshot"),
    Target("evolution", "suggest_subdivision", "evolution.suggest_subdivision", _snapshot_m),
    Target("evolution", "WavePacket.__init__", "evolution.packet_init"),
    Target("evolution", "free_packet", "evolution.free_packet"),
    Target("evolution", "interacting_packet", "evolution.interacting_packet"),
    Target("evolution", "asymptotic_packet", "evolution.asymptotic_packet"),
    Target("evolution", "classical_packet", "evolution.classical_packet"),
    Target("cli", "build_system", "cli.build_system"),
    Target("cli", "_report", "cli.report", _report_bytes),
    Target("cli", "main", "cli.main"),
]


def install(tracer: Tracer) -> int:
    """Wrap every target and rebind every module-level name that held one.

    Returns the number of bindings replaced beyond the targets themselves.
    """
    originals: dict = {}
    for t in TARGETS:
        owner = importlib.import_module(f"alcove.{t.module}")
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, property):
            setattr(owner, attr, property(tracer.wrap(t.span, original.fget, t.count)))
            continue
        if not callable(original):
            raise TypeError(f"trace target alcove.{t.module}.{t.attr} is not callable")
        wrapped = tracer.wrap(t.span, original, t.count)
        setattr(owner, attr, wrapped)
        if not path:
            originals[id(original)] = (original, wrapped)
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name != "alcove" and not name.startswith("alcove."):
            continue
        for key, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
                rebound += 1
    return rebound
