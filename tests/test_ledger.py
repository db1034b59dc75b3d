"""Property tests for the attempt ledger shared by the supervisor and the leases.

A hypothesis state machine drives one :class:`AttemptLedger` through random
``grant``/``succeed``/``fail``/``release``/``abort_open`` sequences, including
moves the ledger must refuse, and checks it against a shadow model:

* attempts never exceed ``max_attempts``;
* a terminal item never reopens or takes another grant;
* ``release`` never refunds below the failures already charged;
* ``fail`` goes terminal exactly when the budget is spent.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.execution.ledger import (
    ABORTED,
    FAILED,
    OK,
    PENDING,
    RUNNING,
    TIMEOUT,
    AttemptLedger,
)

KEYS = ("a", "b", "c")
TERMINAL = (OK, FAILED, TIMEOUT, ABORTED)

keys = st.sampled_from(KEYS)


class LedgerMachine(RuleBasedStateMachine):
    @initialize(max_attempts=st.integers(min_value=1, max_value=4))
    def start(self, max_attempts):
        self.ledger = AttemptLedger(max_attempts, KEYS)
        #: Failures charged per item (each one spent a granted attempt).
        self.failures = dict.fromkeys(KEYS, 0)
        #: Records of items seen terminal, frozen at that moment.
        self.terminal = {}

    def _state(self, key):
        return self.ledger.records[key].state

    def _snapshot(self, key):
        record = self.ledger.records[key]
        return (record.state, record.attempts, record.error)

    def _refused(self, move, key, *args, **kwargs):
        before = self._snapshot(key)
        with pytest.raises(ValueError):
            move(key, *args, **kwargs)
        assert self._snapshot(key) == before

    @rule(key=keys)
    def grant(self, key):
        if self._state(key) != PENDING:
            self._refused(self.ledger.grant, key)
            return
        before = self.ledger.records[key].attempts
        assert self.ledger.grant(key) == before + 1
        assert self._state(key) == RUNNING

    @rule(key=keys)
    def succeed(self, key):
        was_open = self.ledger.records[key].open
        before = self._snapshot(key)
        assert self.ledger.succeed(key) is was_open
        if was_open:
            assert self._state(key) == OK and self.ledger.records[key].error is None
        else:
            assert self._snapshot(key) == before

    @rule(key=keys, timeout=st.booleans())
    def fail(self, key, timeout):
        if self._state(key) != RUNNING:
            self._refused(self.ledger.fail, key, "boom", timeout=timeout)
            return
        attempts = self.ledger.records[key].attempts
        spent = attempts == self.ledger.max_attempts
        assert self.ledger.fail(key, "boom", timeout=timeout) is spent
        self.failures[key] += 1
        record = self.ledger.records[key]
        assert record.attempts == attempts  # failing charges nothing more
        if spent:
            assert record.state == (TIMEOUT if timeout else FAILED)
        else:
            assert record.state == PENDING and record.error == "boom"

    @rule(key=keys)
    def release(self, key):
        if self._state(key) != RUNNING:
            self._refused(self.ledger.release, key)
            return
        attempts = self.ledger.records[key].attempts
        self.ledger.release(key)
        assert self._state(key) == PENDING
        assert self.ledger.records[key].attempts == attempts - 1

    @rule(subset=st.lists(keys, unique=True))
    def abort_open(self, subset):
        opened = [key for key in subset if self.ledger.records[key].open]
        assert self.ledger.abort_open("stop", subset) == len(opened)
        assert all(self._state(key) == ABORTED for key in opened)

    @invariant()
    def attempts_within_budget(self):
        for record in self.ledger.records.values():
            assert 0 <= record.attempts <= self.ledger.max_attempts

    @invariant()
    def terminal_items_never_reopen(self):
        for key in KEYS:
            if key in self.terminal:
                assert self._snapshot(key) == self.terminal[key]
            elif self._state(key) in TERMINAL:
                self.terminal[key] = self._snapshot(key)

    @invariant()
    def refunds_stay_above_charged_failures(self):
        for key, record in self.ledger.records.items():
            charged = self.failures[key]
            if record.state == PENDING:
                assert record.attempts == charged
            elif record.state == RUNNING:
                assert record.attempts == charged + 1
            else:
                assert record.attempts >= charged


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_timeout_on_last_attempt_names_the_budget():
    ledger = AttemptLedger(max_attempts=1, keys=["k"])
    ledger.grant("k")
    assert ledger.fail("k", "attempt timed out after 1s", timeout=True)
    record = ledger.records["k"]
    assert record.state == TIMEOUT
    assert record.error == "attempt timed out after 1s; attempt budget (1) exhausted"


def test_rejects_bad_budgets():
    with pytest.raises(ValueError, match="max_attempts must be a positive integer"):
        AttemptLedger(0)
