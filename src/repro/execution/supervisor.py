"""Supervised fan-out over forked worker processes.

This is the resilience layer between the api/pipeline and the raw process
pool.  With a bare ``pool.map``, one OOM-killed child, one raising item or
one runaway run would abort the whole sweep with no retry, no timeout and no
partial result.  :func:`supervised_map` is instead a per-item future
scheduler:

* every work item is submitted **individually** (no chunking — one poisoned
  item can never fail its neighbours), with the number of queued futures
  bounded to at most 4× the worker count so dispatch overhead stays flat;
* whether an item gets another attempt is decided by one
  :class:`repro.execution.ledger.AttemptLedger`, the state machine that also
  drives the worker fleet's leases; retries back off exponentially with
  deterministic jitter (:class:`repro.execution.policy.RetryPolicy`);
* a broken pool (a worker killed by the OOM reaper, a chaos ``os._exit``)
  is respawned and its in-flight items re-leased;
* per-item wall-clock timeouts are enforced by recycling the pool (the only
  way to reclaim a stuck worker); the innocent in-flight items are released
  back to the ledger with their attempts refunded;
* when pool breaks exceed ``max_pool_respawns``, execution degrades to an
  in-process serial loop so a sweep always makes progress.

Work items are pure functions of spawned generators, so a retry replays the
same stream and successful results are **bit-identical** however many faults
were recovered along the way.  Every recovery action is counted in an
:class:`repro.execution.report.ExecutionReport`.

The pool path passes the callable and the items to workers through
fork-inherited memory (no pickling of closures); the payload window is
serialised by a lock so concurrent supervised runs cannot fork workers that
inherit each other's payload.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.execution.chaos import ChaosMonkey
from repro.execution.ledger import OK, TIMEOUT, AttemptLedger
from repro.execution.policy import DEFAULT_POLICY, RetryPolicy
from repro.execution.report import ExecutionReport


class ItemFailedError(RuntimeError):
    """A supervised item exhausted its attempts without a captured exception."""


class ItemTimeoutError(ItemFailedError):
    """A supervised item exceeded its wall-clock timeout on every attempt."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ItemOutcome:
    """The terminal state of one supervised work item.

    ``status`` is the item's terminal ledger state: ``"ok"``, ``"failed"``,
    ``"timeout"`` or ``"aborted"``.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when the item produced a value."""
        return self.status == OK


#: Payload inherited by forked workers (set only around a supervised run).
_PAYLOAD: Optional[Tuple[Callable, Sequence, Optional[ChaosMonkey]]] = None

#: Serialises the set-payload / fork-workers / clear-payload window.
_PAYLOAD_LOCK = threading.Lock()


def _supervised_call(index: int, attempt: int):
    """Run item ``index`` in a worker, injecting this attempt's chaos first."""
    fn, items, chaos = _PAYLOAD
    if chaos is not None:
        chaos.maybe_inject(index, attempt)
    return fn(items[index])


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Supervisor:
    """One supervised run, over a (respawnable) forked pool or in-process.

    The :class:`AttemptLedger` decides every item's fate; this class keeps
    what the ledger does not: produced values, the exception behind a
    terminal failure, the run-wide failure count behind ``max_failures``,
    and the pool's scheduling state.
    """

    def __init__(
        self,
        fn: Callable,
        items: Sequence,
        workers: int,
        policy: RetryPolicy,
        chaos: Optional[ChaosMonkey],
        report: ExecutionReport,
        max_failures: Optional[int],
    ):
        self.fn = fn
        self.items = items
        self.policy = policy
        self.chaos = chaos
        self.report = report
        self.max_failures = max_failures
        self.ledger = AttemptLedger(policy.max_attempts, range(len(items)))
        self.values: Dict[int, Any] = {}
        self.exceptions: Dict[int, Optional[BaseException]] = {}
        self.failures = 0
        self.aborted = False
        self.workers = min(workers, len(items))
        #: True once attempts run in this process: no pool, or a degraded one.
        self.in_process = self.workers < 2 or not fork_available()
        #: (ready_at, index) heap of items awaiting (re)submission.
        self.ready: List[Tuple[float, int]] = [(0.0, index) for index in range(len(items))]
        heapq.heapify(self.ready)
        #: future -> (index, deadline) for submitted attempts.
        self.inflight: Dict[Any, Tuple[int, float]] = {}
        self.breaks = 0

    def _succeed(self, index: int, value: Any) -> None:
        self.ledger.succeed(index)
        self.values[index] = value

    def _fail(
        self,
        index: int,
        error: str,
        exception: Optional[BaseException] = None,
        timeout: bool = False,
    ) -> None:
        """Charge a failed attempt; back off before the retry unless terminal.

        In-process the backoff is slept here; on the pool the item waits in
        the ready heap while other items run.
        """
        if self.ledger.fail(index, error, timeout=timeout):
            self.exceptions[index] = exception
            self.failures += 1
            if self.max_failures is not None and self.failures > self.max_failures:
                self.aborted = True
            return
        self.report.retries += 1
        delay = self.policy.backoff_delay(index, self.ledger.records[index].attempts + 1)
        if self.in_process:
            time.sleep(delay)
        else:
            heapq.heappush(self.ready, (time.monotonic() + delay, index))

    def _serial(self) -> None:
        """Run every open item in-process, honouring retry and chaos.

        Continues existing attempt counts (the pool path hands over here when
        it degrades), so an item's total attempts stay bounded by
        ``max_attempts``.  Wall-clock timeouts cannot preempt an in-process
        item and are not enforced on this path.
        """
        for index in range(len(self.items)):
            while self.ledger.records[index].open and not self.aborted:
                attempt = self.ledger.grant(index)
                try:
                    if self.chaos is not None:
                        # In-process, a chaos kill degrades to ChaosKill (raise).
                        self.chaos.maybe_inject(index, attempt)
                    value = self.fn(self.items[index])
                except Exception as exc:
                    self._fail(index, _describe(exc), exception=exc)
                else:
                    self._succeed(index, value)

    def _outcomes(self) -> List[ItemOutcome]:
        if self.aborted:
            self.ledger.abort_open(
                f"aborted after {self.failures} failures (max_failures={self.max_failures})"
            )
        return [
            ItemOutcome(
                index, record.state, value=self.values.get(index), error=record.error,
                attempts=record.attempts, exception=self.exceptions.get(index),
            )
            for index, record in self.ledger.records.items()
        ]

    # -- pool lifecycle ----------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)

    @staticmethod
    def _shutdown(pool: Optional[ProcessPoolExecutor], force: bool) -> None:
        if pool is None:
            return
        if force:
            # Stuck or doomed workers cannot be joined; terminate them so the
            # pool's resources are reclaimed without blocking the supervisor.
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=not force, cancel_futures=force)
        except Exception:
            pass

    # -- scheduling --------------------------------------------------------

    def _max_inflight(self) -> int:
        # With a timeout configured, queued-but-not-started futures would
        # burn deadline while waiting for a worker; cap in-flight at the
        # worker count so a submitted attempt starts (almost) immediately.
        if self.policy.timeout is not None:
            return self.workers
        return 4 * self.workers

    def _submit_ready(self, pool: ProcessPoolExecutor) -> bool:
        """Submit eligible items; True when the pool turned out to be broken."""
        now = time.monotonic()
        limit = self._max_inflight()
        while self.ready and len(self.inflight) < limit:
            ready_at, index = self.ready[0]
            if ready_at > now:
                break
            heapq.heappop(self.ready)
            attempt = self.ledger.grant(index)
            try:
                future = pool.submit(_supervised_call, index, attempt)
            except (BrokenProcessPool, RuntimeError):
                # Pool already broke; refund and let the break handler re-lease.
                self.ledger.release(index)
                heapq.heappush(self.ready, (ready_at, index))
                return True
            deadline = now + self.policy.timeout if self.policy.timeout else math.inf
            self.inflight[future] = (index, deadline)
        return False

    def _consume(self, done) -> bool:
        """Record completed futures; True when the pool broke underneath."""
        broke = False
        for future in done:
            index, _deadline = self.inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                broke = True
                self._fail(index, "worker process died (process pool broken)")
            except Exception as exc:
                self._fail(index, _describe(exc), exception=exc)
            else:
                self._succeed(index, value)
        return broke

    def _handle_break(self, pool) -> Optional[ProcessPoolExecutor]:
        """Respawn after an unexpected pool break, re-leasing in-flight items.

        Which worker died cannot be observed, so every in-flight attempt is
        charged as used — chaos decisions advance and a deterministic killer
        cannot livelock the supervisor.
        """
        self.breaks += 1
        for index, _deadline in self.inflight.values():
            self._fail(index, "worker process died (process pool broken)")
        self.in_process = self.breaks > self.policy.max_pool_respawns
        return self._recycle(pool)

    def _enforce_deadlines(self, pool) -> Optional[ProcessPoolExecutor]:
        """Censor timed-out attempts; recycle the pool to reclaim workers."""
        if self.policy.timeout is None or not self.inflight:
            return pool
        now = time.monotonic()
        expired = [
            (future, index)
            for future, (index, deadline) in self.inflight.items()
            if deadline <= now
        ]
        if not expired:
            return pool
        self.report.timeouts += len(expired)
        for future, index in expired:
            del self.inflight[future]
            self._fail(index, f"attempt timed out after {self.policy.timeout:g}s", timeout=True)
        # The stuck workers can only be reclaimed by recycling the pool.
        # Innocent in-flight attempts are released without consuming an
        # attempt: the supervisor interrupted them, they did not fail.
        for index, _deadline in self.inflight.values():
            self.ledger.release(index)
            heapq.heappush(self.ready, (time.monotonic(), index))
        return self._recycle(pool)

    def _recycle(self, pool) -> Optional[ProcessPoolExecutor]:
        """Tear the pool down; a fresh one unless the run aborted or degraded."""
        self.report.pool_respawns += 1
        self.inflight.clear()
        self._shutdown(pool, force=True)
        if self.aborted or self.in_process:
            return None
        return self._new_pool()

    def _wait_timeout(self) -> Optional[float]:
        next_event = math.inf
        if self.inflight:
            next_event = min(deadline for _index, deadline in self.inflight.values())
        if self.ready:
            next_event = min(next_event, self.ready[0][0])
        if math.isinf(next_event):
            return None
        return max(0.0, next_event - time.monotonic()) + 0.005

    # -- the supervision loop ----------------------------------------------

    def run(self) -> List[ItemOutcome]:
        if self.in_process:
            self._serial()
        else:
            global _PAYLOAD
            with _PAYLOAD_LOCK:
                _PAYLOAD = (self.fn, self.items, self.chaos)
                try:
                    self._loop()
                finally:
                    _PAYLOAD = None
        return self._outcomes()

    def _loop(self) -> None:
        pool: Optional[ProcessPoolExecutor] = self._new_pool()
        try:
            # Every open item is either waiting in ``ready`` or in flight.
            while pool is not None and (self.ready or self.inflight) and not self.aborted:
                if self._submit_ready(pool):
                    pool = self._handle_break(pool)
                    continue
                if not self.inflight:
                    # Everything eligible is backing off; sleep until the
                    # earliest retry becomes ready.
                    delay = max(0.0, self.ready[0][0] - time.monotonic())
                    time.sleep(min(delay, 0.25))
                    continue
                done, _pending = wait_futures(
                    set(self.inflight), timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                if self._consume(done):
                    pool = self._handle_break(pool)
                    continue
                pool = self._enforce_deadlines(pool)
        finally:
            self._shutdown(pool, force=self.aborted or bool(self.inflight))
        if self.in_process and self.ready and not self.aborted:
            # Last resort: finish the remaining items in-process.
            self.report.serial_fallbacks += 1
            self._serial()


def supervised_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosMonkey] = None,
    report: Optional[ExecutionReport] = None,
    max_failures: Optional[int] = None,
) -> List[ItemOutcome]:
    """Map ``fn`` over ``items`` under supervision; one outcome per item.

    Outcomes come back in item order.  ``workers > 1`` fans items over a
    forked process pool (when the platform has ``fork``); otherwise items run
    in-process with the same retry/chaos semantics.  Nothing raises on item
    failure — inspect the outcomes, or use :func:`raise_first_failure`.
    ``max_failures`` aborts the run (statuses ``"aborted"``) once strictly
    more than that many items have failed.
    """
    items = list(items)
    policy = DEFAULT_POLICY if policy is None else policy
    report = ExecutionReport() if report is None else report
    if not items:
        return []
    report.items += len(items)
    outcomes = _Supervisor(fn, items, workers, policy, chaos, report, max_failures).run()
    report.succeeded += sum(1 for outcome in outcomes if outcome.ok)
    report.failures += sum(1 for outcome in outcomes if not outcome.ok)
    return outcomes


def raise_first_failure(outcomes: Sequence[ItemOutcome]) -> None:
    """Re-raise the first failed outcome's exception (by item order).

    Worker exceptions are re-raised as the original object (with the remote
    traceback attached by ``concurrent.futures``); timeouts and
    exception-less failures raise :class:`ItemTimeoutError` /
    :class:`ItemFailedError`.
    """
    for outcome in outcomes:
        if outcome.ok:
            continue
        if outcome.exception is not None:
            raise outcome.exception
        message = f"item {outcome.index}: {outcome.error}"
        if outcome.status == TIMEOUT:
            raise ItemTimeoutError(message)
        raise ItemFailedError(message)


__all__ = [
    "ItemFailedError",
    "ItemOutcome",
    "ItemTimeoutError",
    "fork_available",
    "raise_first_failure",
    "supervised_map",
]
