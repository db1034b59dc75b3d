"""The ``repro worker`` loop: lease points, execute, push artifacts, report.

A worker is stateless and interchangeable: it registers with a coordinator
(``repro serve --coordinator``), repeatedly asks for point leases, executes
each leased point through the *existing* measurement path
(:func:`repro.scenarios.measurements.measure_point` + the pipeline's JSON
normalisation), pushes the payload to the shared artifact store
(:class:`repro.distributed.HttpSink`) and reports the attempt's outcome.
Because every payload is a pure function of the point's scenario seed policy,
any number of workers — joining late, dying mid-lease, overlapping after a
reclamation — produce exactly the bytes a single-machine serial run would.

Chaos: the ``REPRO_CHAOS`` schedule is applied at lease granularity, indexed
by the point's position in its run and the lease's attempt number — the same
``(index, attempt)`` pure-function contract as the in-process supervisor, so
a kill/slow schedule replays identically across the wire.  A ``kill``
decision terminates the worker process abruptly (``os._exit(86)``) when the
loop runs as its own process (the CLI); in-process callers get it degraded to
a raised :class:`repro.execution.chaos.ChaosKill` so chaos can never take
down a test runner or a supervising parent.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.client import ServiceClient, ServiceError
from repro.api.sinks import ResultSink
from repro.distributed.http_sink import HttpSink
from repro.execution.chaos import ChaosKill, ChaosMonkey, chaos_from_env
from repro.execution.supervisor import limit_blas_threads
from repro.scenarios.measurements import measure_point
from repro.scenarios.pipeline import _normalise
from repro.scenarios.scenario import Scenario, ScenarioPoint

#: Seconds between lease requests while the coordinator reports ``busy``.
DEFAULT_POLL_SECONDS = 0.5


@dataclass
class WorkerStats:
    """What one worker loop did (returned by :func:`run_worker`)."""

    worker_id: str = ""
    leases: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    stopped: str = "closed"
    notes: list = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "leases": self.leases,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "stopped": self.stopped,
        }


def point_from_lease(lease: Dict[str, Any]) -> ScenarioPoint:
    """Rebuild the exact :class:`ScenarioPoint` a lease describes."""
    spec = lease["point"]
    scenario = Scenario.from_dict(spec["scenario"])
    return ScenarioPoint(scenario=scenario, value=spec["value"], index=spec["index"])


def execute_lease(
    sink: ResultSink,
    lease: Dict[str, Any],
    chaos: Optional[ChaosMonkey] = None,
    kill_exits_process: bool = False,
) -> Dict[str, Any]:
    """Execute one leased point against ``sink``; returns ``{"cached": bool}``.

    Resumes from the shared store when the artifact already exists (another
    worker got there first, or a stale lease completed after reclamation);
    otherwise measures the point and pushes the normalised payload.  The
    lease's ``key`` is cross-checked against the locally derived cache key so
    a coordinator/worker version skew fails loudly instead of storing a
    payload under a key other consumers would never look up.
    """
    point = point_from_lease(lease)
    key = lease["key"]
    derived = point.cache_key()
    if derived != key:
        raise RuntimeError(
            f"lease key {key[:12]}… does not match locally derived key "
            f"{derived[:12]}… (coordinator/worker version skew?)"
        )
    if chaos is not None:
        fault = chaos.decision(int(lease["point"].get("chaos_index", 0)),
                               int(lease["attempt"]))
        if fault == "kill":
            if kill_exits_process:
                os._exit(86)  # abrupt worker death: the lease must expire
            raise ChaosKill(
                f"chaos kill for lease {lease['lease']} "
                "(degraded to a raise in-process)"
            )
        if fault == "raise":
            raise RuntimeError(f"chaos raise for lease {lease['lease']}")
        if fault == "slow":
            time.sleep(chaos.slow_seconds)
    spec = _normalise(point.spec())
    if sink.load(key, spec) is not None:
        return {"cached": True}
    payload = _normalise(measure_point(point))
    sink.store(key, spec, point.scenario.kind, payload)
    return {"cached": False}


def run_worker(
    coordinator: str,
    name: Optional[str] = None,
    max_points: int = 1,
    poll: float = DEFAULT_POLL_SECONDS,
    exit_when_idle: bool = False,
    chaos: Optional[ChaosMonkey] = None,
    kill_exits_process: bool = False,
    sink: Optional[ResultSink] = None,
    max_leases: Optional[int] = None,
) -> WorkerStats:
    """Register with ``coordinator`` and work leases until done.

    The loop ends when the coordinator reports ``closed`` (service shutting
    down), when ``exit_when_idle`` is set and no open work remains, or after
    ``max_leases`` grants (a test/chaos bound).  ``chaos`` defaults to the
    ``REPRO_CHAOS`` environment schedule.  Like a pool worker, the process
    pins numpy's OpenBLAS to one thread (:func:`limit_blas_threads`).
    """
    limit_blas_threads()
    client = ServiceClient(coordinator)
    if sink is None:
        sink = HttpSink(coordinator)
    if chaos is None:
        chaos = chaos_from_env()
    stats = WorkerStats()
    try:
        stats.worker_id = client.register_worker(name)
    except (ServiceError, OSError) as error:
        stats.stopped = f"unreachable: {error}"
        return stats
    while True:
        if max_leases is not None and stats.leases >= max_leases:
            stats.stopped = "max_leases"
            break
        try:
            response = client.acquire_leases(stats.worker_id, max_points=max_points)
        except (ServiceError, OSError) as error:
            stats.stopped = f"coordinator lost: {error}"
            break
        state = response.get("state")
        if state == "closed":
            stats.stopped = "closed"
            break
        if state == "granted":
            for lease in response["leases"]:
                stats.leases += 1
                try:
                    outcome = execute_lease(
                        sink, lease, chaos=chaos,
                        kill_exits_process=kill_exits_process,
                    )
                    client.report_lease(lease["lease"], stats.worker_id, ok=True,
                                        cached=outcome["cached"])
                    stats.completed += 1
                    stats.cached += 1 if outcome["cached"] else 0
                except (ServiceError, OSError) as error:
                    # Transport loss mid-report: the lease will expire and be
                    # re-issued; any stored artifact makes the re-run a hit.
                    stats.stopped = f"coordinator lost: {error}"
                    return stats
                except Exception as error:  # noqa: BLE001 - report, keep leasing
                    stats.failed += 1
                    client.report_lease(
                        lease["lease"], stats.worker_id, ok=False,
                        error=f"{type(error).__name__}: {error}",
                    )
            continue
        if state == "idle" and exit_when_idle:
            stats.stopped = "idle"
            break
        time.sleep(poll)
    return stats


__all__ = [
    "DEFAULT_POLL_SECONDS",
    "WorkerStats",
    "execute_lease",
    "point_from_lease",
    "run_worker",
]
