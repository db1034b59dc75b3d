"""``repro.api`` — the one fluent, typed public surface of the library.

Everything that executes the rumor-spreading engines goes through here: the
fluent builder for programs, the scenario bindings for data-driven workloads,
the streaming observer protocol for anything that watches a run, and the
result-sink abstraction behind the pipeline's artifact cache.

Quickstart::

    from repro import api

    # one run
    result = api.run(network="clique", n=200, seed=0).once()

    # parallel trials with adaptive early stopping
    trials = (
        api.run(network="edge-markovian", n=128, birth=0.4, death=0.2, seed=7)
        .trials(until_ci_width=2.0, max_trials=200)
        .workers(4)
        .collect()
    )

    # a sweep, as aligned columns
    frame = api.run(network="clique", seed=3).trials(20).sweep([64, 128, 256])
    frame.column("mean")

This is the only trial and sweep entry point: the CLI, the experiments
E1–E9 and the scenario measurements all speak it.  The engine classes
(``AsynchronousRumorSpreading(...).run``) stay available for direct access
to a single run.
"""

from repro.api.builder import (
    NetworkLike,
    RunBuilder,
    RunSpec,
    bind_point,
    run,
    sweep_scenario,
)
from repro.api.client import (
    DEFAULT_STREAM_TIMEOUT,
    DEFAULT_TIMEOUT,
    ServiceClient,
    ServiceError,
)
from repro.api.observers import (
    CIWidthRule,
    EventLog,
    ObserverChain,
    RunObserver,
    StructuredObserver,
    event_to_dict,
)
from repro.api.results import RunResult, SweepFrame, TrialSet
from repro.api.sinks import (
    LocalDirSink,
    MemorySink,
    NullSink,
    ResultSink,
    payload_checksum,
    sink_from_url,
)
from repro.checks import Check, CheckReport, CheckResult, evaluate_checks
from repro.execution import ChaosMonkey, ExecutionReport, RetryPolicy

__all__ = [
    "CIWidthRule",
    "ChaosMonkey",
    "Check",
    "CheckReport",
    "CheckResult",
    "EventLog",
    "ExecutionReport",
    "LocalDirSink",
    "MemorySink",
    "NetworkLike",
    "NullSink",
    "ObserverChain",
    "ResultSink",
    "RetryPolicy",
    "RunBuilder",
    "RunObserver",
    "RunResult",
    "RunSpec",
    "ServiceClient",
    "ServiceError",
    "StructuredObserver",
    "SweepFrame",
    "TrialSet",
    "bind_point",
    "evaluate_checks",
    "event_to_dict",
    "payload_checksum",
    "run",
    "sink_from_url",
    "sweep_scenario",
]
