"""Point leases: the worker fleet's transport for scenario points.

A coordinator-mode service does not execute scenario points itself; it hands
them out as **leases** to remote workers (``repro worker``).  A lease is one
attempt at one point, bounded by a wall-clock TTL.  Whether a point gets
another attempt is decided by the same :class:`repro.execution.ledger.AttemptLedger`
that drives the local supervisor: a grant charges an attempt, a lease that
outlives its TTL is **reclaimed** as a timed-out attempt (counted in
``reclaims``, never charged twice), and a **stale** completion (the worker
finished after its lease was reclaimed) is accepted while the point is still
open, because artifact writes are content-addressed and idempotent.

Determinism note: lease *placement* carries no entropy.  Every point derives
its payload purely from the scenario seed policy, so which worker computes a
point — first grant, reclaimed re-issue, or stale overlap — cannot change a
result byte.  The registry only decides *whether* and *how often* a point is
attempted.

All state transitions synchronise on one condition variable; the coordinator
blocks in :meth:`LeaseRegistry.wait_run` while workers mutate tasks from HTTP
handler threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.execution.ledger import (
    ABORTED, FAILED, OK, PENDING, RUNNING, TIMEOUT, AttemptLedger, AttemptRecord,
)
from repro.utils.validation import require

#: Ledger state -> lease wire name (``PointTask.state``, ``GET /leases``).
#: A reclaimed-out point is ``timeout`` in the ledger but ``failed`` on the
#: wire; run results report the ledger state.
LEASE_STATES = {
    PENDING: "pending",
    RUNNING: "leased",
    OK: "completed",
    FAILED: "failed",
    TIMEOUT: "failed",
    ABORTED: "aborted",
}

#: Default seconds a lease may run before it is reclaimed.
DEFAULT_LEASE_TTL = 60.0

#: Default attempt budget per point (matches RetryPolicy.max_attempts).
DEFAULT_LEASE_ATTEMPTS = 3


@dataclass
class PointTask:
    """One leaseable scenario point of a coordinated run.

    ``spec`` is the wire form a worker needs to reconstruct the point exactly
    (the scenario's ``to_dict()`` plus the point's sweep value and index);
    ``key`` is the point's content-addressed cache key, so workers and the
    coordinator agree on where the artifact lives without re-deriving it.
    ``record`` is the point's live ledger entry, the source of ``state``,
    ``attempts`` and ``error``.
    """

    run_id: str
    task_id: str
    spec: Dict[str, Any]
    key: str
    record: AttemptRecord
    reclaims: int = 0
    worker: Optional[str] = None
    lease_id: Optional[str] = None
    lease_expires: Optional[float] = None
    completed_by: Optional[str] = None
    cached: bool = False

    @property
    def state(self) -> str:
        return LEASE_STATES[self.record.state]

    @property
    def attempts(self) -> int:
        return self.record.attempts

    @property
    def error(self) -> Optional[str]:
        return self.record.error

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready task status (the ``GET /leases`` listing entry)."""
        return {
            "run": self.run_id,
            "task": self.task_id,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "reclaims": self.reclaims,
            "error": self.error,
            "worker": self.worker,
            "lease": self.lease_id,
            "completed_by": self.completed_by,
        }


@dataclass(frozen=True)
class Lease:
    """One granted attempt at one point, as handed to a worker."""

    lease_id: str
    worker: str
    task: PointTask = field(repr=False)
    attempt: int = 1
    ttl: float = DEFAULT_LEASE_TTL

    def as_dict(self) -> Dict[str, Any]:
        """The wire form of a grant (everything a worker needs to execute)."""
        return {
            "lease": self.lease_id,
            "worker": self.worker,
            "run": self.task.run_id,
            "task": self.task.task_id,
            "key": self.task.key,
            "attempt": self.attempt,
            "ttl": self.ttl,
            "point": self.task.spec,
        }


class LeaseRegistry:
    """Thread-safe pool of leaseable points with TTL reclamation.

    Parameters
    ----------
    ttl:
        Seconds a lease may run before an expiry sweep reclaims it.
    max_attempts:
        Attempt budget per point (grants, including reclaimed re-issues),
        kept by the registry's :class:`AttemptLedger`.
    clock:
        Monotonic time source (injectable for deterministic expiry tests).
    """

    def __init__(
        self,
        ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_LEASE_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ):
        require(ttl > 0, f"lease ttl must be positive, got {ttl!r}")
        self._ledger = AttemptLedger(max_attempts)
        self.ttl = float(ttl)
        self.max_attempts = max_attempts
        self._clock = clock
        self._cond = threading.Condition()
        # Tasks, workers and leases are never removed, so each dict's size
        # numbers the next id and its insertion order is submission order.
        self._tasks: Dict[str, PointTask] = {}
        self._workers: Dict[str, Dict[str, Any]] = {}
        # Every lease ever granted, so stale reports (reclaimed leases)
        # still resolve to their task.  Bounded by points × max_attempts.
        self._leases: Dict[str, PointTask] = {}
        #: Reclamations performed (expired leases returned to the pool).
        self.reclaimed = 0

    # -- run side (coordinator) ---------------------------------------------

    def add_point(self, run_id: str, spec: Dict[str, Any], key: str) -> PointTask:
        """Enqueue one leaseable point for ``run_id``; returns its task."""
        with self._cond:
            task_id = f"task-{len(self._tasks) + 1:06d}"
            task = PointTask(
                run_id=run_id,
                task_id=task_id,
                spec=spec,
                key=key,
                record=self._ledger.add(task_id),
            )
            self._tasks[task_id] = task
            self._cond.notify_all()
            return task

    def wait_run(self, run_id: str, timeout: Optional[float] = None,
                 poll: float = 0.25) -> bool:
        """Block until every task of ``run_id`` is terminal.

        Wakes at least every ``poll`` seconds to sweep expired leases, so a
        dead worker's points are re-issued even while no other worker is
        actively asking for leases.  Returns False on overall ``timeout``.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                self.reclaim_expired()
                if all(not task.record.open for task in self._tasks.values()
                       if task.run_id == run_id):
                    return True
                if deadline is not None and self._clock() >= deadline:
                    return False
                wait = poll
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - self._clock()))
                self._cond.wait(timeout=wait)

    def abort_open(self, run_id: Optional[str] = None, error: str = "aborted") -> int:
        """Force every open task (of ``run_id``, or all runs) terminal."""
        with self._cond:
            aborted = self._ledger.abort_open(error, [
                task.task_id for task in self._tasks.values()
                if run_id is None or task.run_id == run_id
            ])
            if aborted:
                self._cond.notify_all()
            return aborted

    # -- worker side ---------------------------------------------------------

    def register_worker(self, name: Optional[str] = None) -> str:
        """Register a worker; returns its stable id."""
        with self._cond:
            worker_id = f"worker-{len(self._workers) + 1:06d}"
            self._workers[worker_id] = {
                "id": worker_id,
                "name": name or worker_id,
                "registered_at": time.time(),
                "leases_granted": 0,
                "completions": 0,
            }
            return worker_id

    def workers(self) -> List[Dict[str, Any]]:
        """Registered workers (registration order)."""
        with self._cond:
            return [dict(entry) for entry in self._workers.values()]

    def acquire(self, worker: str, max_points: int = 1) -> List[Lease]:
        """Grant up to ``max_points`` leases to ``worker`` (oldest first).

        Sweeps expired leases first, so a reclaimed point is immediately
        re-issuable.
        """
        require(isinstance(max_points, int) and max_points >= 1,
                f"max_points must be a positive integer, got {max_points!r}")
        with self._cond:
            self.reclaim_expired()
            grants: List[Lease] = []
            for task in self._tasks.values():
                if len(grants) >= max_points:
                    break
                if task.record.state != PENDING:
                    continue
                lease_id = f"lease-{len(self._leases) + 1:06d}"
                self._leases[lease_id] = task
                attempt = self._ledger.grant(task.task_id)
                task.worker = worker
                task.lease_id = lease_id
                task.lease_expires = self._clock() + self.ttl
                if worker in self._workers:
                    self._workers[worker]["leases_granted"] += 1
                grants.append(Lease(
                    lease_id=lease_id, worker=worker, task=task,
                    attempt=attempt, ttl=self.ttl,
                ))
            return grants

    def open_work(self) -> bool:
        """True while any task could still receive (or holds) a lease."""
        return self.open_count() > 0

    def open_count(self) -> int:
        """How many tasks are not yet terminal (a ``/metrics`` gauge)."""
        with self._cond:
            return sum(1 for task in self._tasks.values() if task.record.open)

    def complete(self, lease_id: str, worker: str,
                 cached: bool = False) -> Tuple[Optional[PointTask], bool]:
        """Record a successful attempt; returns ``(task, accepted)``.

        Accepted while the point is open, even from a reclaimed lease: the
        artifact is content-addressed, so a late result equals a fresh one.
        """
        with self._cond:
            task = self._leases.get(lease_id)
            if task is None:
                return None, False
            if not self._ledger.succeed(task.task_id):
                return task, False
            task.cached = bool(cached)
            task.completed_by = worker
            self._end_lease(task)
            if worker in self._workers:
                self._workers[worker]["completions"] += 1
            self._cond.notify_all()
            return task, True

    def fail(self, lease_id: str, worker: str, error: str) -> Tuple[Optional[PointTask], bool]:
        """Record a failed attempt; the ledger re-pends the point or ends it.

        Stale failures (reclaimed or terminal point) are ignored — the
        reclamation already handled the attempt.
        """
        with self._cond:
            task = self._leases.get(lease_id)
            if task is None or not task.record.open or task.lease_id != lease_id:
                return task, False
            self._end_lease(task)
            self._ledger.fail(task.task_id, error)
            self._cond.notify_all()
            return task, True

    # -- expiry --------------------------------------------------------------

    def reclaim_expired(self) -> int:
        """Sweep expired leases back to the pool; returns how many.

        Callers that already hold the (reentrant) lock call this directly.
        """
        with self._cond:
            now = self._clock()
            reclaimed = 0
            for task in self._tasks.values():
                if task.record.state != RUNNING or now < task.lease_expires:
                    continue
                error = (f"lease {task.lease_id} expired after {self.ttl:g}s "
                         f"on {task.worker}")
                self._end_lease(task)
                task.reclaims += 1
                # The expired grant's attempt is already charged; the ledger
                # re-pends without charging another (the next grant will).
                self._ledger.fail(task.task_id, error, timeout=True)
                reclaimed += 1
            if reclaimed:
                self.reclaimed += reclaimed
                self._cond.notify_all()
            return reclaimed

    @staticmethod
    def _end_lease(task: PointTask) -> None:
        task.worker = task.lease_id = task.lease_expires = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready listing of every task (the ``GET /leases`` body)."""
        with self._cond:
            return {
                "ttl": self.ttl,
                "max_attempts": self.max_attempts,
                "reclaimed": self.reclaimed,
                "tasks": [task.as_dict() for task in self._tasks.values()],
                "workers": [dict(entry) for entry in self._workers.values()],
            }


__all__ = [
    "DEFAULT_LEASE_ATTEMPTS",
    "DEFAULT_LEASE_TTL",
    "LEASE_STATES",
    "Lease",
    "LeaseRegistry",
    "PointTask",
]
