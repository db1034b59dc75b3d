"""Tests for the supervised execution layer (policy, report, supervisor)."""

import time

import pytest

from repro.execution import (
    DEFAULT_POLICY,
    ONE_SHOT_POLICY,
    ChaosMonkey,
    ExecutionReport,
    ItemFailedError,
    RetryPolicy,
    deterministic_uniform,
    fork_available,
    parse_chaos_spec,
    raise_first_failure,
    supervised_map,
)
from repro.api._exec import _fan_out
from repro.execution.supervisor import limit_blas_threads, openblas_thread_functions

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _square(value):
    return value * value


class TestDeterministicUniform:
    def test_pure_function_of_entropy(self):
        assert deterministic_uniform(3, 7) == deterministic_uniform(3, 7)
        assert deterministic_uniform(3, 7) != deterministic_uniform(3, 8)

    def test_range(self):
        draws = [deterministic_uniform(index) for index in range(64)]
        assert all(0.0 <= draw < 1.0 for draw in draws)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0)
        delays = [policy.backoff_delay(0, attempt) for attempt in (2, 3, 4)]
        assert delays == [policy.backoff_delay(0, attempt) for attempt in (2, 3, 4)]
        assert delays[0] < delays[1] < delays[2]

    def test_backoff_clamped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_max=0.5, jitter=0.0)
        assert policy.backoff_delay(0, 9) == 0.5

    def test_jitter_depends_on_index(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=1.0)
        assert policy.backoff_delay(0, 2) != policy.backoff_delay(1, 2)

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"backoff_factor": 0.5},
        {"jitter": 2.0},
        {"max_pool_respawns": -1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)

    def test_canned_policies(self):
        assert DEFAULT_POLICY.max_attempts > 1
        assert ONE_SHOT_POLICY.max_attempts == 1
        assert ONE_SHOT_POLICY.max_pool_respawns == 0


class TestExecutionReport:
    def test_merge_sums_counters(self):
        left = ExecutionReport(items=2, retries=1)
        right = ExecutionReport(items=3, timeouts=2)
        left.merge(right)
        assert left.items == 5 and left.retries == 1 and left.timeouts == 2

    def test_clean(self):
        assert ExecutionReport(items=5, succeeded=5, cache_hits=3).clean
        assert not ExecutionReport(retries=1).clean
        assert not ExecutionReport(cache_corruption=1).clean

    def test_dict_round_trip(self):
        report = ExecutionReport(items=4, succeeded=3, failures=1, pool_respawns=2)
        assert ExecutionReport.from_dict(report.as_dict()) == report
        assert list(report.as_dict())[:2] == ["items", "succeeded"]


class TestParseChaosSpec:
    def test_parses_all_fields(self):
        monkey = parse_chaos_spec("kill=0.1,raise=0.2,slow=0.3,corrupt=0.4,"
                                  "slow_seconds=0.5,seed=7")
        assert monkey == ChaosMonkey(seed=7, kill_rate=0.1, raise_rate=0.2,
                                     slow_rate=0.3, slow_seconds=0.5, corrupt_rate=0.4)

    @pytest.mark.parametrize("spec", ["", "  ", "0", "off", "none"])
    def test_blank_means_no_chaos(self, spec):
        assert parse_chaos_spec(spec) is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_chaos_spec("kill=0.1,typo=1")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_chaos_spec("kill")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("kill=0.8,raise=0.8")


class TestChaosDecisions:
    def test_decisions_are_deterministic(self):
        monkey = ChaosMonkey(seed=5, kill_rate=0.3, raise_rate=0.3, slow_rate=0.3)
        first = [monkey.decision(index, 1) for index in range(32)]
        second = [monkey.decision(index, 1) for index in range(32)]
        assert first == second
        assert set(first) <= {None, "kill", "raise", "slow"}

    def test_zero_rates_never_fire(self):
        monkey = ChaosMonkey(seed=5)
        assert all(monkey.decision(index, attempt) is None
                   for index in range(16) for attempt in range(1, 4))
        monkey.maybe_inject(0, 1)  # must be a no-op


class TestSupervisedMapSerial:
    def test_values_in_item_order(self):
        outcomes = supervised_map(_square, [3, 1, 2], workers=1)
        assert [outcome.value for outcome in outcomes] == [9, 1, 4]
        assert all(outcome.ok and outcome.attempts == 1 for outcome in outcomes)

    def test_empty_items(self):
        assert supervised_map(_square, [], workers=4) == []

    def test_retry_until_success(self):
        attempts_seen = []

        def flaky(value):
            attempts_seen.append(value)
            if attempts_seen.count(value) < 3:
                raise ValueError("transient")
            return value

        policy = RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0)
        report = ExecutionReport()
        outcomes = supervised_map(flaky, [7], workers=1, policy=policy, report=report)
        assert outcomes[0].ok and outcomes[0].value == 7
        assert outcomes[0].attempts == 3
        assert report.retries == 2 and report.failures == 0

    def test_exhausted_retries_fail_with_original_exception(self):
        def doomed(value):
            raise ValueError(f"always broken: {value}")

        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
        report = ExecutionReport()
        outcomes = supervised_map(doomed, [1, 2], workers=1, policy=policy, report=report)
        assert [outcome.status for outcome in outcomes] == ["failed", "failed"]
        assert all(outcome.attempts == 2 for outcome in outcomes)
        assert report.failures == 2 and report.succeeded == 0
        with pytest.raises(ValueError, match="always broken: 1"):
            raise_first_failure(outcomes)

    def test_max_failures_aborts_remaining(self):
        def sometimes(value):
            if value < 0:
                raise ValueError("negative")
            return value

        policy = RetryPolicy(max_attempts=1)
        outcomes = supervised_map(
            sometimes, [-1, -2, 5], workers=1, policy=policy, max_failures=1
        )
        assert [outcome.status for outcome in outcomes] == ["failed", "failed", "aborted"]
        assert outcomes[2].error and "max_failures=1" in outcomes[2].error

    def test_failure_without_exception_raises_item_failed(self):
        from repro.execution.supervisor import ItemOutcome

        outcome = ItemOutcome(index=0, status="failed", error="worker died", attempts=1)
        with pytest.raises(ItemFailedError, match="worker died"):
            raise_first_failure([outcome])


class TestSupervisedMapPool:
    def test_parallel_matches_serial(self):
        items = list(range(10))
        serial = supervised_map(_square, items, workers=1)
        parallel = supervised_map(_square, items, workers=4)
        assert [outcome.value for outcome in serial] == \
               [outcome.value for outcome in parallel]

    def test_worker_exception_is_captured_per_item(self):
        def picky(value):
            if value == 3:
                raise ValueError("item three is cursed")
            return value

        policy = RetryPolicy(max_attempts=1, backoff_base=0.0)
        outcomes = supervised_map(picky, list(range(6)), workers=3, policy=policy)
        assert [outcome.ok for outcome in outcomes] == [True, True, True, False, True, True]
        assert isinstance(outcomes[3].exception, ValueError)
        assert outcomes[3].error == "ValueError: item three is cursed"

    def test_closures_need_no_pickling(self):
        bound = {"offset": 100}
        outcomes = supervised_map(lambda v: v + bound["offset"], [1, 2, 3], workers=2)
        assert [outcome.value for outcome in outcomes] == [101, 102, 103]


def _blas_threads(_):
    return openblas_thread_functions()[1]()


class TestBlasThreads:
    """Pool workers pin numpy's OpenBLAS to one thread unless told otherwise."""

    @pytest.fixture
    def blas(self, monkeypatch):
        functions = openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exports no openblas_set_num_threads symbol")
        setter, getter = functions
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        before = getter()
        setter(2)
        yield getter
        setter(before)

    def test_pool_workers_run_one_blas_thread(self, blas):
        outcomes = supervised_map(_blas_threads, [0, 1, 2], workers=2)
        assert [outcome.value for outcome in outcomes] == [1, 1, 1]

    def test_thread_variables_take_precedence(self, blas, monkeypatch):
        if blas() != 2:
            pytest.skip("this OpenBLAS cannot run two threads here")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        limit_blas_threads()
        assert blas() == 2
        outcomes = supervised_map(_blas_threads, [0, 1], workers=2)
        assert [outcome.value for outcome in outcomes] == [2, 2]


class TestForkMapCompat:
    """The api's trial fan-out: one attempt per item unless a policy says more."""

    def test_results_in_order(self):
        assert _fan_out(_square, [4, 2, 3], 2, None, None) == [16, 4, 9]

    def test_empty(self):
        assert _fan_out(_square, [], 2, None, None) == []

    def test_original_exception_re_raised(self):
        def boom(value):
            if value == 1:
                raise KeyError("gone")
            return value

        with pytest.raises(KeyError, match="gone"):
            _fan_out(boom, [0, 1, 2], 2, None, None)

    def test_policy_enables_retry(self, tmp_path):
        marker = tmp_path / "first-attempt"

        def flaky_once(value):
            if value == 1 and not marker.exists():
                marker.write_text("seen")
                raise ValueError("transient")
            return value * 10

        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        report = ExecutionReport()
        values = _fan_out(flaky_once, [0, 1, 2], 2, policy, report)
        assert values == [0, 10, 20]
        assert report.retries >= 1


class TestTimeoutEnforcement:
    def test_runaway_item_is_censored(self):
        def sleepy(value):
            if value == 1:
                time.sleep(30.0)
            return value

        policy = RetryPolicy(
            max_attempts=2, timeout=0.5, backoff_base=0.0, jitter=0.0,
            max_pool_respawns=10,
        )
        report = ExecutionReport()
        start = time.monotonic()
        outcomes = supervised_map(sleepy, [0, 1, 2, 3], workers=2,
                                  policy=policy, report=report)
        elapsed = time.monotonic() - start
        assert elapsed < 20.0  # the sleeper was preempted, not awaited
        assert [outcome.ok for outcome in outcomes] == [True, False, True, True]
        assert outcomes[1].status == "timeout"
        assert report.timeouts >= 1 and report.pool_respawns >= 1
        assert [outcome.value for outcome in outcomes if outcome.ok] == [0, 2, 3]
