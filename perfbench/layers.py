"""Per-layer metrics derived from the spans and counts of traced runs.

Naming: ``<span>.s`` is the inclusive time of a span (a span nested in one
of the same name is not counted twice), ``<span>.calls`` its number of
calls, ``<layer>.self_s`` the time spent in the layer's spans minus the time
their child spans cover.  Other names are counts taken at the boundaries
(summed over the runs of a traced iteration) or maxima, and two that are
derived from the span tree: the grids tried by ``gram_schmidt`` and the
hit ratio of the sector cache.
"""

from __future__ import annotations

# name, unit, better; order is the order of BENCHMARK.json
PER_LAYER = [
    ("rootsys.dominance_leq.calls", "count", "lower"),
    ("rootsys.dominance_leq.s", "s", "lower"),
    ("rootsys.saturated_weights.s", "s", "lower"),
    ("rootsys.saturated_weights.weights", "count", "lower"),
    ("rootsys.weyl_group.s", "s", "lower"),
    ("rootsys.self_s", "s", "lower"),
    ("qfun.qpochhammer_inf.calls", "count", "lower"),
    ("qfun.qpochhammer_inf.points", "count", "lower"),
    ("qfun.qpochhammer_inf.s", "s", "lower"),
    ("qfun.self_s", "s", "lower"),
    ("harmonic.gram_matrix.s", "s", "lower"),
    ("harmonic.gram_matrix.calls", "count", "lower"),
    ("harmonic.gram_matrix.exp_evals", "count", "lower"),
    ("harmonic.gram_matrix.bytes", "B", "lower"),
    ("harmonic.eval_terms.s", "s", "lower"),
    ("harmonic.eval_terms.exp_evals", "count", "lower"),
    ("harmonic.self_s", "s", "lower"),
    ("orthopoly.gram_schmidt.s", "s", "lower"),
    ("orthopoly.gram_schmidt.weights", "count", "lower"),
    ("orthopoly.gram_schmidt.grid_m", "points", "lower"),
    ("orthopoly.gram_schmidt.m_steps", "count", "lower"),
    ("orthopoly.gram_schmidt.cond", "1", "lower"),
    ("orthopoly.norm_constants.calls", "count", "lower"),
    ("orthopoly.norm_constants.s", "s", "lower"),
    ("orthopoly.residuals.s", "s", "lower"),
    ("orthopoly.residuals.calls", "count", "lower"),
    ("orthopoly.self_s", "s", "lower"),
    ("laplacian.operator_matrix.s", "s", "lower"),
    ("laplacian.operator_matrix.sites", "count", "lower"),
    ("laplacian.apply.calls", "count", "lower"),
    ("laplacian.self_s", "s", "lower"),
    ("scattering.kernel_bandwidth.s", "s", "lower"),
    ("scattering.kernel_bandwidth.calls", "count", "lower"),
    ("scattering.wavetable_init.s", "s", "lower"),
    ("scattering.monomial_values.s", "s", "lower"),
    ("scattering.monomial_values.bytes", "B", "lower"),
    ("scattering.forward.s", "s", "lower"),
    ("scattering.inverse.s", "s", "lower"),
    ("scattering.inverse.lambdas", "count", "lower"),
    ("scattering.asymptotic_wave_values.s", "s", "lower"),
    ("scattering.asymptotic_wave_values.calls", "count", "lower"),
    ("scattering.convergence_report.s", "s", "lower"),
    ("scattering.context_init.s", "s", "lower"),
    ("scattering.smatrix_apply.s", "s", "lower"),
    ("scattering.sector_element.calls", "count", "lower"),
    ("scattering.sector_cache.hit_ratio", "1", "higher"),
    ("scattering.self_s", "s", "lower"),
    ("evolution.snapshot.s", "s", "lower"),
    ("evolution.snapshot.grid_m", "points", "lower"),
    ("evolution.packet_init.s", "s", "lower"),
    ("evolution.free_packet.s", "s", "lower"),
    ("evolution.interacting_packet.s", "s", "lower"),
    ("evolution.asymptotic_packet.s", "s", "lower"),
    ("evolution.classical_packet.s", "s", "lower"),
    ("evolution.self_s", "s", "lower"),
    ("cli.build_system.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.report.bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.calibration_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# measured by the benchmark around the traced runs, not from their spans
RUN_LEVEL = ("trace.overhead_s", "host.calibration_s")


def _nested(spans: list, sid: int) -> bool:
    name, parent = spans[sid][1], spans[sid][4]
    while parent >= 0:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][4]
    return False


def span_stats(dumps: list) -> dict:
    """Per span name: calls and inclusive seconds; per layer: self seconds."""
    calls: dict = {}
    inclusive: dict = {}
    self_s: dict = {}
    m_steps = regular = misses = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        covered = [0.0] * len(spans)
        for sid, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, ni, start, end, parent in spans:
            name = names[ni]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur - covered[sid]
            if not _nested(spans, sid):
                inclusive[name] = inclusive.get(name, 0.0) + dur
            parent_name = names[spans[parent][1]] if parent >= 0 else None
            if name == "harmonic.gram_matrix" and parent_name == "orthopoly.gram_schmidt":
                m_steps += 1
            elif name == "scattering.regular_sector_element":
                regular += 1
            elif (name == "scattering.sector_element"
                  and parent_name == "scattering.regular_sector_element"):
                misses += 1
    return {"calls": calls, "inclusive": inclusive, "self": self_s,
            "m_steps": m_steps, "regular": regular, "misses": misses}


def derive(dumps: list) -> dict:
    """Every per-layer metric except the run-level ones, from one traced
    iteration (one dump per CLI process).  Layers a workload never reaches
    read 0."""
    st = span_stats(dumps)
    counts: dict = {}
    maxima: dict = {}
    for dump in dumps:
        for k, v in dump["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in dump["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in RUN_LEVEL:
            continue
        if name == "orthopoly.gram_schmidt.m_steps":
            out[name] = st["m_steps"]
        elif name == "scattering.sector_cache.hit_ratio":
            out[name] = (st["regular"] - st["misses"]) / st["regular"] if st["regular"] else 0.0
        elif name.endswith(".self_s"):
            out[name] = st["self"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            out[name] = st["inclusive"].get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            out[name] = st["calls"].get(name[: -len(".calls")], 0)
        elif name in maxima:
            out[name] = maxima[name]
        else:
            out[name] = counts.get(name, 0)
    return out


def exact(name: str) -> bool:
    """Metrics that are counts, sizes or deterministic values, which must
    repeat exactly between traced runs of the same input."""
    return UNITS[name] != "s"
