"""Which entry points of each layer the traced run wraps, and what it counts.

Every probe is a public function or method of ``src/repro``; the span name is
``<layer>.<what>``.  Annotations attach the counts the per-layer metrics need
(engine runs and events, lease grant states, sink hits, stored bytes).
"""

from __future__ import annotations

import json
from typing import Any

from tracing import Span, Tracer


def _engine_result(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    results = result if isinstance(result, list) else [result]
    span.attrs["runs"] = len(results)
    span.attrs["events"] = sum(int(getattr(item, "events", 0)) for item in results)


def _sink_load(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _sink_store(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # store(self, key, spec, kind, payload): canonical payload bytes, the
    # same encoding every sink checksums.
    payload = args[4] if len(args) > 4 else kwargs["payload"]
    span.attrs["bytes"] = len(
        json.dumps(payload, sort_keys=True, allow_nan=True).encode("utf-8")
    )


def _lease_state(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["state"] = result.get("state") if isinstance(result, dict) else None
    span.attrs["granted"] = len(result.get("leases", ())) if isinstance(result, dict) else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.api.client import ServiceClient
    from repro.api.sinks import LocalDirSink, MemorySink
    from repro.core.asynchronous import AsynchronousRumorSpreading
    from repro.core.batched import BatchedRumorSpreading
    from repro.core.synchronous import SynchronousRumorSpreading
    from repro.distributed.http_sink import HttpSink
    from repro.dynamics.base import DynamicNetwork
    from repro.graphs.csr import CsrSnapshot
    from repro.scenarios.scenario import ScenarioPoint
    from repro.service.http import RequestHandler
    from repro.service.leases import LeaseRegistry

    # graphs
    tracer.patch_function("repro.graphs.metrics", "conductance_exact", "graphs.exact_metrics")
    tracer.patch_function("repro.graphs.metrics", "diligence_exact", "graphs.exact_metrics")
    tracer.patch_method(CsrSnapshot, "from_networkx", "graphs.csr_convert")
    # dynamics
    tracer.patch_method(DynamicNetwork, "snapshot_for_step", "dynamics.snapshot")
    # core
    tracer.patch_method(AsynchronousRumorSpreading, "run", "core.engine", _engine_result)
    tracer.patch_method(SynchronousRumorSpreading, "run", "core.engine", _engine_result)
    tracer.patch_method(BatchedRumorSpreading, "run_batch", "core.engine", _engine_result)
    tracer.patch_function("repro.core.percolation", "first_passage_times", "core.percolation")
    # scenarios
    tracer.patch_method(ScenarioPoint, "build_network", "scenarios.build_network")
    tracer.patch_function("repro.scenarios.measurements", "measure_point",
                          "scenarios.measure_point")
    # execution
    tracer.patch_function("repro.execution.supervisor", "supervised_map",
                          "execution.supervised_map")
    # api (local sinks and the service client surface)
    for sink in (LocalDirSink, MemorySink):
        tracer.patch_method(sink, "load", "api.sink_load", _sink_load)
        tracer.patch_method(sink, "store", "api.sink_store", _sink_store)
    tracer.patch_method(ServiceClient, "submit", "api.submit")
    # Blocking for a run to finish gets its own layer, so waiting is not
    # counted as api or service work: the client's wait, and the server's
    # event stream that feeds it (a GET that lasts the whole run).
    tracer.patch_method(ServiceClient, "wait", "waiting.client_wait")
    tracer.patch_method(RequestHandler, "_stream_events", "waiting.event_stream")
    # checks
    tracer.patch_function("repro.checks.evaluate", "evaluate_checks", "checks.evaluate")
    # service (client side of the lease protocol, server side of the registry)
    tracer.patch_method(ServiceClient, "acquire_leases", "service.lease_acquire", _lease_state)
    tracer.patch_method(ServiceClient, "report_lease", "service.lease_report")
    tracer.patch_method(LeaseRegistry, "acquire", "service.registry")
    tracer.patch_method(LeaseRegistry, "complete", "service.registry")
    for method in ("do_GET", "do_POST", "do_PUT"):
        tracer.patch_method(RequestHandler, method, "service.http_handle")
    # distributed
    tracer.patch_function("repro.distributed.worker", "execute_lease",
                          "distributed.execute_lease")
    tracer.patch_method(HttpSink, "load", "distributed.sink_load", _sink_load)
    tracer.patch_method(HttpSink, "store", "distributed.sink_store", _sink_store)
