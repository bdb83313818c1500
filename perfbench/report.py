"""The benchmark's metrics: names, units, directions, and how the
per-layer ones are read off a traced run.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and
:data:`PER_LAYER` (a self-test keeps them in step).
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None


#: Measured untraced.  ``bound``: the share of the parent's median a
#: metric may worsen by before a change counts as a regression.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cells_per_s", "cells/s", "higher", 0.25),
    Metric("flow_s", "s", "lower", 0.25),
    Metric("pfail_ci_rel", "fraction", "lower", 0.25),
    Metric("job_p50_s", "s", "lower", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("read_p99_ms", "ms", "lower", 0.25),
    Metric("ok_frac", "fraction", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_SOLVERS = (
    "hold_state", "hold_trip", "read_node", "read_trip",
    "write_node", "write_trip", "write_time", "access_current",
)

#: Read off the traced run (plus the load generator's own numbers).
PER_LAYER = (
    Metric("devices.current.calls", "count", "lower"),
    Metric("devices.current.elements", "count", "lower"),
    Metric("devices.current.self_s", "s", "lower"),
    *(Metric(f"sram.solver.{s}.self_s", "s", "lower") for s in _SOLVERS),
    Metric("sram.solver.hold_state.device_calls", "count", "lower"),
    Metric("sram.solver.bisect.calls", "count", "lower"),
    Metric("sram.solver.bisect.self_s", "s", "lower"),
    Metric("sram.metrics.cell_metrics.calls", "count", "lower"),
    Metric("sram.metrics.cell_metrics.cells", "count", "lower"),
    Metric("sram.metrics.cell_metrics.self_s", "s", "lower"),
    Metric("sram.metrics.hold_margin.calls", "count", "lower"),
    Metric("sram.metrics.hold_margin.cells", "count", "lower"),
    Metric("sram.metrics.hold_margin.self_s", "s", "lower"),
    Metric("sram.metrics.cells_per_batch", "cells", "higher"),
    Metric("sram.leakage.cell_leakage.self_s", "s", "lower"),
    Metric("sram.cell.sample_dvt.self_s", "s", "lower"),
    Metric("stats.sampling.draws", "count", "lower"),
    Metric("stats.sampling.self_s", "s", "lower"),
    Metric("stats.rare_event.sample.calls", "count", "lower"),
    Metric("stats.rare_event.sample.self_s", "s", "lower"),
    Metric("stats.rare_event.ess_fraction", "fraction", "higher"),
    Metric("failures.criteria.calibrate.self_s", "s", "lower"),
    Metric("failures.mpfp.direction_seeds.calls", "count", "lower"),
    Metric("failures.mpfp.direction_seeds.self_s", "s", "lower"),
    Metric("failures.analysis.estimates", "count", "lower"),
    Metric("failures.analysis.estimate.self_s", "s", "lower"),
    Metric("failures.analysis.solver_calls_per_estimate", "cells", "lower"),
    Metric("core.tables.build.self_s", "s", "lower"),
    Metric("core.tables.cells", "count", "lower"),
    Metric("experiments.asb.hold_table.self_s", "s", "lower"),
    Metric("experiments.asb.cells", "count", "lower"),
    Metric("core.monitor.calibrate.self_s", "s", "lower"),
    Metric("core.lot.run.self_s", "s", "lower"),
    Metric("core.lot.die.calls", "count", "lower"),
    Metric("core.lot.die.self_s", "s", "lower"),
    Metric("core.body_bias.array_leakage.self_s", "s", "lower"),
    Metric("power.standby.self_s", "s", "lower"),
    Metric("parallel.executor.map.calls", "count", "lower"),
    Metric("parallel.executor.tasks", "count", "lower"),
    Metric("parallel.executor.map.self_s", "s", "lower"),
    Metric("parallel.executor.retries", "count", "lower"),
    Metric("parallel.cache.hits", "count", "higher"),
    Metric("parallel.cache.misses", "count", "lower"),
    Metric("parallel.cache.get.self_s", "s", "lower"),
    Metric("parallel.cache.put.self_s", "s", "lower"),
    Metric("parallel.cache.put.bytes", "bytes", "lower"),
    Metric("checkpoint.flushes", "count", "lower"),
    Metric("checkpoint.flush.self_s", "s", "lower"),
    Metric("durable.write.calls", "count", "lower"),
    Metric("durable.write.self_s", "s", "lower"),
    Metric("durable.write.bytes", "bytes", "lower"),
    Metric("service.jobs.queue_wait_s", "s", "lower"),
    Metric("service.jobs.run_s", "s", "lower"),
    Metric("service.jobs.execute.self_s", "s", "lower"),
    Metric("service.ledger.append.calls", "count", "lower"),
    Metric("service.ledger.append.self_s", "s", "lower"),
    Metric("service.client.submit_ms", "ms", "lower"),
    Metric("service.client.status_ms", "ms", "lower"),
    Metric("service.client.result_ms", "ms", "lower"),
    Metric("service.dedupe_frac", "fraction", "higher"),
    Metric("observability.instrument.calls", "count", "lower"),
    Metric("observability.instrument.self_s", "s", "lower"),
    Metric("observability.trace_overhead_frac", "fraction", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.attributed_frac", "fraction", "higher"),
    Metric("loadgen.lag_p99_ms", "ms", "lower"),
    Metric("loadgen.requests", "count", "higher"),
)

#: Root span the child opens around the measured work.
ROOT_SPAN = "bench.run"

#: per-layer metric -> (span, field) read straight off the span totals.
_SPAN_FIELDS = {
    "devices.current.self_s": ("devices.current", "self_s"),
    "sram.solver.bisect.calls": ("sram.solver.bisect", "calls"),
    "failures.analysis.estimates": ("failures.analysis.estimate", "calls"),
    "parallel.executor.retries": ("parallel.executor.retry", "calls"),
    "checkpoint.flushes": ("checkpoint.flush", "calls"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced process (absent layers read 0).

    ``spans`` and ``counters`` are a trace document's ``otherData``
    blocks (see :meth:`layers.Recorder.document`).
    """

    def span(name: str, field: str) -> float:
        return float(spans.get(name, {}).get(field, 0.0))

    out = {}
    for metric in PER_LAYER:
        name = metric.name
        if name in _SPAN_FIELDS:
            out[name] = span(*_SPAN_FIELDS[name])
        elif name in counters:
            out[name] = float(counters[name])
        elif name.endswith((".self_s", ".calls")):
            base, field = name.rsplit(".", 1)
            out[name] = span(base, field)
        else:
            out[name] = float(counters.get(name, 0.0))
    out["sram.solver.hold_state.device_calls"] = _ratio(
        counters.get("sram.solver.hold_state.devices.current.calls", 0.0),
        span("sram.solver.hold_state", "calls"),
    )
    out["sram.metrics.cells_per_batch"] = _ratio(
        counters.get("sram.metrics.cells", 0.0),
        span("sram.metrics.cell_metrics", "calls")
        + span("sram.metrics.hold_margin", "calls"),
    )
    out["stats.rare_event.ess_fraction"] = _ratio(
        counters.get("stats.rare_event.ess_sum", 0.0),
        counters.get("stats.rare_event.ess_n", 0.0),
    )
    out["failures.analysis.solver_calls_per_estimate"] = _ratio(
        counters.get("failures.analysis.estimate.sram.metrics.cells", 0.0),
        span("failures.analysis.estimate", "calls"),
    )
    root_total = span(ROOT_SPAN, "total_s")
    out["trace.wall_s"] = root_total
    out["trace.attributed_frac"] = _ratio(
        root_total - span(ROOT_SPAN, "self_s"), root_total
    )
    return out
