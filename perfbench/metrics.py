"""End-to-end metrics from timed units; per-layer metrics from traced units."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from tracing import LAYERS, Tracer
from workloads import Unit

Metric = Tuple[float, str]  # (value, unit)

#: Count metrics that must repeat exactly for a fixed seed; later count-based
#: claims rest on them, so the traced run checks them across its units.
EXACT = (
    "scenarios.build_network_calls",
    "scenarios.builds_per_point",
    "core.engine_runs",
    "core.events",
    "graphs.exact_metrics_calls",
    "graphs.csr_convert_calls",
    "dynamics.snapshot_calls",
    "service.http_requests_per_point",
    "sink.bytes_written",
    "sink.cache_hit_ratio",
    "execution.items",
    "execution.retries",
    "execution.failures",
)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method; the value itself for one sample)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(units: List[Unit], setup_samples: List[float],
               attempted: int, failed: int) -> Dict[str, Metric]:
    """Every end-to-end metric, from the untraced units of one run.

    Times are in reference seconds (see ``speed.py``): a unit's wall and boot
    times scaled by its calibration factor, point latencies by the samples
    around each point.
    """
    boots = [unit.setup_s * unit.factor for unit in units if unit.setup_s is not None]
    setup = statistics.median(setup_samples) + (statistics.median(boots) if boots else 0.0)
    latencies = [seconds for unit in units for seconds, _ in unit.latencies]

    def class_time(kind: str) -> float:
        return statistics.median(
            sum(seconds for seconds, cls in unit.latencies if cls == kind) for unit in units
        )

    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(unit.wall_s * unit.factor for unit in units), "s"),
        "static_s": (class_time("static"), "s"),
        "dynamic_s": (class_time("dynamic"), "s"),
        "point_latency_s.p50": (percentile(latencies, 50), "s"),
        "point_latency_s.p90": (percentile(latencies, 90), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(tracer: Tracer, unit: Unit) -> Dict[str, Metric]:
    """Per-layer metrics of one traced unit."""
    summary = tracer.summary()
    spans = tracer.spans

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def inclusive(name: str) -> float:
        return summary.get(name, {}).get("inclusive_s", 0.0)

    def named(name: str):
        return [span for span in spans if span.name == name]

    def duration(span) -> float:
        return (span.end - span.start) / 1e9

    engines = named("core.engine")
    runs = sum(span.attrs.get("runs", 0) for span in engines)
    events = sum(span.attrs.get("events", 0) for span in engines)
    engine_s = inclusive("core.engine")
    acquires = named("service.lease_acquire")
    granted = [span for span in acquires if span.attrs.get("granted")]
    leases = named("distributed.execute_lease")
    reports = named("service.lease_report")
    worker_calls = len(granted) + calls("distributed.sink_load") \
        + calls("distributed.sink_store") + len(reports)
    worker_busy = sum(duration(span) for span in granted + leases + reports)
    loads = named("api.sink_load") + named("distributed.sink_load")
    stored = sum(span.attrs.get("bytes", 0) for span in named("api.sink_store"))
    roots = named("bench.iteration")
    root_s = sum(duration(span) for span in roots)
    own = tracer.self_times()
    root_self = sum(own[index] for index, span in enumerate(spans)
                    if span.name == "bench.iteration") / 1e9
    points = max(unit.points, 1)

    metrics: Dict[str, Metric] = {
        "graphs.exact_metrics_s": (inclusive("graphs.exact_metrics"), "s"),
        "graphs.exact_metrics_calls": (calls("graphs.exact_metrics"), "count"),
        "graphs.csr_convert_s": (inclusive("graphs.csr_convert"), "s"),
        "graphs.csr_convert_calls": (calls("graphs.csr_convert"), "count"),
        "scenarios.build_network_s": (inclusive("scenarios.build_network"), "s"),
        "scenarios.build_network_calls": (calls("scenarios.build_network"), "count"),
        "scenarios.builds_per_point": (calls("scenarios.build_network") / points, "count/point"),
        "scenarios.measure_point_self_s": (
            summary.get("scenarios.measure_point", {}).get("self_s", 0.0), "s"),
        "checks.evaluate_s": (inclusive("checks.evaluate"), "s"),
        "core.engine_runs": (runs, "count"),
        "core.engine_s": (engine_s, "s"),
        "core.events": (events, "count"),
        "core.events_per_s": (events / engine_s if engine_s else 0.0, "1/s"),
        "core.run_overhead_ms": (1e3 * engine_s / runs if runs else 0.0, "ms"),
        "core.percolation_s": (inclusive("core.percolation"), "s"),
        "dynamics.snapshot_calls": (calls("dynamics.snapshot"), "count"),
        "dynamics.snapshot_s": (inclusive("dynamics.snapshot"), "s"),
        "service.http_requests_per_point": (worker_calls / points if leases else 0.0,
                                            "count/point"),
        "service.lease_acquire_s": (sum(duration(span) for span in granted), "s"),
        "service.lease_report_s": (sum(duration(span) for span in reports), "s"),
        "service.registry_s": (inclusive("service.registry"), "s"),
        "distributed.execute_lease_s": (inclusive("distributed.execute_lease"), "s"),
        "distributed.sink_store_s": (inclusive("distributed.sink_store"), "s"),
        "distributed.sink_load_s": (inclusive("distributed.sink_load"), "s"),
        "distributed.worker_idle_s": (unit.wall_s - worker_busy if leases else 0.0, "s"),
        "execution.items": (unit.execution.get("items", 0), "count"),
        "execution.retries": (unit.execution.get("retries", 0), "count"),
        "execution.failures": (unit.execution.get("failures", 0), "count"),
        "sink.bytes_written": (stored, "bytes"),
        "sink.cache_hit_ratio": (
            sum(1 for span in loads if span.attrs.get("hit")) / len(loads) if loads else 0.0,
            "ratio"),
        "trace.other_share": (root_self / root_s if root_s else 0.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    layers = tracer.layer_table()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
    return metrics


def combine_layers(per_unit: List[Dict[str, Metric]]) -> Tuple[Dict[str, Metric], List[str]]:
    """Median over traced units; exact counts must agree between them."""
    failures = []
    combined: Dict[str, Metric] = {}
    for name, (_, unit) in per_unit[0].items():
        values = [metrics[name][0] for metrics in per_unit]
        if name in EXACT and len(set(values)) > 1:
            failures.append(f"{name} differs between traced units: {values}")
        combined[name] = (statistics.median(values), unit)
    return combined, failures
