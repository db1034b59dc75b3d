"""The attempt ledger: the one retry state machine behind every transport.

Scenario points run through the local fork pool
(:func:`repro.execution.supervisor.supervised_map`) or the worker fleet
(:class:`repro.service.leases.LeaseRegistry`).  Both follow one rule, written
once here: a grant charges an attempt, a failure that spends the budget makes
the item terminal, and an interrupted item re-pends without a charge.

The ledger is pure bookkeeping and not thread-safe (the lease registry calls
it under its lock).  Timing stays with the callers (lease TTLs, backoff,
deadlines), so it takes no clock: no budget decision depends on time.  A move
not listed on a method raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional

from repro.utils.validation import require

#: Ledger states.  The terminal names double as the supervisor's statuses.
PENDING = "pending"
RUNNING = "running"
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"
ABORTED = "aborted"


@dataclass
class AttemptRecord:
    """One item's entry: its state, attempts charged and last error."""

    state: str = PENDING
    attempts: int = 0
    error: Optional[str] = None

    @property
    def open(self) -> bool:
        return self.state in (PENDING, RUNNING)


class AttemptLedger:
    """Attempt budgets and states for items keyed by any hashable."""

    def __init__(self, max_attempts: int, keys: Iterable[Hashable] = ()):
        require(isinstance(max_attempts, int) and max_attempts >= 1,
                f"max_attempts must be a positive integer, got {max_attempts!r}")
        self.max_attempts = max_attempts
        self.records: Dict[Hashable, AttemptRecord] = {}
        for key in keys:
            self.add(key)

    def add(self, key: Hashable) -> AttemptRecord:
        """Enter a new pending item; returns its live record."""
        record = self.records[key] = AttemptRecord()
        return record

    def _expect(self, key: Hashable, state: str) -> AttemptRecord:
        record = self.records[key]
        require(record.state == state, f"item {key!r} is {record.state}, not {state}")
        return record

    def grant(self, key: Hashable) -> int:
        """pending → running, charging one attempt; returns its number."""
        record = self._expect(key, PENDING)
        record.state = RUNNING
        record.attempts += 1
        return record.attempts

    def succeed(self, key: Hashable) -> bool:
        """open → ok; False, changing nothing, once the item is terminal.

        A pending item may succeed too: a stale lease's late result counts.
        """
        record = self.records[key]
        if not record.open:
            return False
        record.state, record.error = OK, None
        return True

    def fail(self, key: Hashable, error: str, timeout: bool = False) -> bool:
        """running → pending, or terminal once the budget is spent (True).

        The attempt was charged at grant, so failing charges nothing more.
        A spent item ends ``timeout`` for a timed-out attempt, else ``failed``.
        """
        record = self._expect(key, RUNNING)
        if record.attempts < self.max_attempts:
            record.state, record.error = PENDING, error
            return False
        if timeout:
            # A timeout names the attempt, not the item: say why it stops.
            record.state = TIMEOUT
            record.error = f"{error}; attempt budget ({self.max_attempts}) exhausted"
        else:
            record.state, record.error = FAILED, error
        return True

    def release(self, key: Hashable) -> None:
        """running → pending, refunding the attempt: the caller interrupted it."""
        record = self._expect(key, RUNNING)
        record.state = PENDING
        record.attempts -= 1

    def abort_open(self, error: str, keys: Optional[Iterable[Hashable]] = None) -> int:
        """Every open item (of ``keys``, or all) → aborted; returns how many."""
        aborted = 0
        for key in self.records if keys is None else keys:
            record = self.records[key]
            if record.open:
                record.state, record.error = ABORTED, error
                aborted += 1
        return aborted


__all__ = [
    "ABORTED",
    "AttemptLedger",
    "AttemptRecord",
    "FAILED",
    "OK",
    "PENDING",
    "RUNNING",
    "TIMEOUT",
]
