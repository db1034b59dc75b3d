"""Engine dispatch: selection, auto mode, and up-front validation parity.

The new engines must fail *identically* from every entry point: an
unsupported combination raises the same ``ValueError`` family from all three
``RunBuilder`` terminals (``collect``/``sweep``/``once``) and from
``Scenario.bind()`` — never mid-run after trials have already burned time.
"""

import warnings

import pytest

from repro import api
from repro.api._deprecation import reset_warnings
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.batched import BatchedRumorSpreading
from repro.api.builder import ENGINES, resolve_process
from repro.scenarios.scenario import Scenario


def terminals(builder):
    """The three terminal invocations, normalised to zero-argument thunks."""
    return {
        "collect": builder.collect,
        "sweep": lambda: builder.sweep([8, 12]),
        "once": builder.once,
    }


class TestEngineRegistry:
    def test_engines_tuple(self):
        assert ENGINES == ("boundary", "naive", "batched", "auto")

    def test_resolve_process_maps_every_engine(self):
        assert isinstance(resolve_process("async", engine="naive"), AsynchronousRumorSpreading)
        assert resolve_process("async", engine="naive").engine == "naive"
        assert isinstance(resolve_process("async", engine="batched"), BatchedRumorSpreading)
        # auto at process level means boundary; terminals do the batched pick.
        assert resolve_process("async", engine="auto").engine == "boundary"

    def test_unknown_engine_rejected_everywhere(self):
        builder = api.run(network="clique", n=8).engine("warp")
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="engine"):
                terminal()
        with pytest.raises(ValueError, match="engine"):
            Scenario(label="x", network="clique", params={"n": 8}, engine="warp")


class TestBatchedValidationParity:
    def test_dynamic_network_rejected_from_all_terminals(self):
        builder = api.run(network="dynamic-star", n=16).engine("batched").trials(3)
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="static"):
                terminal()

    def test_observers_rejected_from_all_terminals(self):
        class Probe(api.RunObserver):
            pass

        builder = api.run(network="clique", n=8).engine("batched").observe(Probe())
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="observer"):
                terminal()

    def test_adaptive_trials_rejected(self):
        builder = (
            api.run(network="clique", n=8)
            .engine("batched")
            .trials(until_ci_width=0.1, max_trials=20)
        )
        for name in ("collect", "sweep"):
            with pytest.raises(ValueError, match="until_ci_width"):
                terminals(builder)[name]()

    def test_sync_algorithm_rejected(self):
        builder = api.run(network="clique", n=8, algorithm="sync").engine("batched")
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="asynchronous"):
                terminal()

    def test_scenario_bind_raises_the_same_errors(self):
        with pytest.raises(ValueError, match="asynchronous"):
            Scenario(
                label="s", network="clique", params={"n": 8},
                algorithm="sync", engine="batched",
            )
        adaptive = Scenario(
            label="s", network="clique", params={"n": 8}, engine="batched",
            trials=10, options={"until_ci_width": 0.1, "max_trials": 20},
        )
        with pytest.raises(ValueError, match="until_ci_width"):
            adaptive.bind()
        dynamic = Scenario(
            label="s", network="dynamic-star", params={"n": 16}, engine="batched",
            trials=3,
        )
        with pytest.raises(ValueError, match="static"):
            dynamic.bind().collect()


class TestEngineExecution:
    def test_batched_collect_and_sweep_run(self):
        trial_set = api.run(network="clique", n=24).engine("batched").trials(10).seed(1).collect()
        assert trial_set.nodes == 24 and len(trial_set.spread_times) == 10
        frame = api.run(network="clique").engine("batched").trials(5).seed(2).sweep([12, 16])
        assert [point.nodes for point in frame.points] == [12, 16]

    def test_batched_once_runs_single_trial(self):
        result = api.run(network="clique", n=16).engine("batched").seed(3).once()
        assert result.spread.completed and result.spread.n == 16

    def test_jit_engine_through_api(self):
        # The retired name still runs, as the boundary engine.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            builder = api.run(network="clique", n=16).engine("jit")
        trial_set = builder.trials(4).seed(4).collect()
        boundary = api.run(network="clique", n=16).trials(4).seed(4).collect()
        assert list(trial_set.spread_times) == list(boundary.spread_times)

    def test_auto_uses_batched_on_static_network(self):
        # Identical seeds: the auto path must reproduce the batched path
        # exactly (both consume the master stream through run_batch).
        auto = api.run(network="clique", n=20).engine("auto").trials(8).seed(7).collect()
        batched = api.run(network="clique", n=20).engine("batched").trials(8).seed(7).collect()
        assert list(auto.spread_times) == list(batched.spread_times)

    def test_auto_falls_back_on_dynamic_network(self):
        auto = api.run(network="dynamic-star", n=12).engine("auto").trials(3).seed(7).collect()
        boundary = api.run(network="dynamic-star", n=12).trials(3).seed(7).collect()
        assert list(auto.spread_times) == list(boundary.spread_times)

    def test_auto_falls_back_with_observers(self):
        class Counter(api.RunObserver):
            def __init__(self):
                self.trials = 0

            def on_trial(self, index, result):
                self.trials += 1

        counter = Counter()
        trial_set = (
            api.run(network="clique", n=12)
            .engine("auto")
            .trials(3)
            .seed(7)
            .observe(counter)
            .collect()
        )
        assert counter.trials == 3 and len(trial_set.spread_times) == 3

    def test_default_engine_unchanged(self):
        assert api.run(network="clique", n=8).spec.engine == "boundary"


def deprecations_from(*calls):
    """Run ``calls`` from a fresh warn-once registry; return the warnings."""
    reset_warnings()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [call() for call in calls]
    finally:
        reset_warnings()
    messages = [
        str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    return messages, results


class TestRetiredJitAlias:
    """``engine="jit"`` maps to ``"boundary"`` with one warning per process."""

    def test_builder_warns_once_and_runs_boundary(self):
        jit = lambda: api.run(network="clique", n=8).engine("jit")
        messages, builders = deprecations_from(jit, jit)
        assert len(messages) == 1 and "'jit'" in messages[0]
        assert all(b.spec.engine == "boundary" for b in builders)
        assert builders[0].resolved_engine() == "boundary"
        once = builders[0].seed(3).once().spread
        reference = api.run(network="clique", n=8).seed(3).once().spread
        assert once.informed_times == reference.informed_times

    def test_scenario_warns_once_and_runs_boundary(self):
        jit = lambda: Scenario(label="x", network="clique", params={"n": 8}, engine="jit")
        messages, scenarios = deprecations_from(
            jit, jit, lambda: Scenario.from_dict({**jit().to_dict(), "engine": "jit"})
        )
        assert len(messages) == 1 and "'jit'" in messages[0]
        assert all(s.engine == "boundary" for s in scenarios)
        assert scenarios[0] == Scenario(label="x", network="clique", params={"n": 8})
