"""Fault-tolerant execution layer: supervised pool, retry policy, chaos.

``repro.execution`` sits between the api/pipeline layer and the raw forked
worker pool.  :func:`supervised_map` schedules every work item as its own
future with retry/backoff/timeout (:class:`RetryPolicy`), recovers broken
pools, and degrades to an in-process serial loop as a last resort; every
recovery action is counted in an :class:`ExecutionReport`.  Whether an item
gets another attempt is decided by one :class:`AttemptLedger`, the state
machine that also drives the worker fleet's leases
(:class:`repro.service.leases.LeaseRegistry`).  The seeded
:class:`ChaosMonkey` injects worker kills, raises, slow workers and artifact
bit-rot deterministically so the recovery paths stay tested.
"""

from repro.execution.chaos import (
    CHAOS_ENV,
    ChaosError,
    ChaosKill,
    ChaosMonkey,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.execution.ledger import AttemptLedger
from repro.execution.policy import (
    DEFAULT_POLICY,
    ONE_SHOT_POLICY,
    RetryPolicy,
    deterministic_uniform,
)
from repro.execution.report import ExecutionReport
from repro.execution.supervisor import (
    ItemFailedError,
    ItemOutcome,
    ItemTimeoutError,
    fork_available,
    raise_first_failure,
    supervised_map,
)

__all__ = [
    "AttemptLedger",
    "CHAOS_ENV",
    "ChaosError",
    "ChaosKill",
    "ChaosMonkey",
    "DEFAULT_POLICY",
    "ExecutionReport",
    "ItemFailedError",
    "ItemOutcome",
    "ItemTimeoutError",
    "ONE_SHOT_POLICY",
    "RetryPolicy",
    "chaos_from_env",
    "deterministic_uniform",
    "fork_available",
    "parse_chaos_spec",
    "raise_first_failure",
    "supervised_map",
]
