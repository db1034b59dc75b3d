"""Tests for the declarative scenario subsystem (dataclass + network registry)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.synchronous import SynchronousRumorSpreading
from repro.scenarios import (
    Scenario,
    ScenarioPoint,
    build_network,
    get_network_family,
    measure_point,
    network_families,
    scenario_seed,
)
from repro.scenarios.networks import REQUIRED


class TestNetworkRegistry:
    #: Small, fast-to-build instance parameters per family.
    SMOKE_PARAMS = {
        "clique": {"n": 8},
        "star": {"n": 8},
        "cycle": {"n": 8},
        "path": {"n": 8},
        "expander": {"n": 10, "degree": 4},
        "erdos-renyi": {"n": 20, "p": 0.3},
        "dynamic-star": {"n": 8},
        "clique-bridge": {"n": 8},
        "diligent": {"n": 120, "rho": 0.5},
        "absolute-diligent": {"n": 48, "rho": 0.25},
        "edge-markovian": {"n": 8},
        "mobile-agents": {"n": 8, "side": 5},
        "alternating-regular-complete": {"n": 10},
    }

    def test_every_family_builds(self):
        for name in network_families():
            network = build_network(name, rng=0, **self.SMOKE_PARAMS[name])
            assert network.n >= 1
            network.reset(0)
            network.graph_for_step(0, frozenset())

    def test_smoke_params_cover_registry(self):
        assert set(self.SMOKE_PARAMS) == set(network_families())

    def test_unknown_family_lists_known_names(self):
        with pytest.raises(ValueError, match="clique"):
            get_network_family("hypercube")

    def test_unknown_param_rejected_with_declared_names(self):
        with pytest.raises(ValueError, match="rho"):
            build_network("clique", n=8, rho=0.5)

    def test_missing_required_param_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            build_network("clique")

    def test_every_declared_default_is_json_or_required(self):
        for name in network_families():
            for value in get_network_family(name).defaults.values():
                assert value is REQUIRED or isinstance(value, (int, float, str))


# -- property-based dict/JSON round-trip -------------------------------------

_network_strategy = st.sampled_from([None, "clique", "diligent", "edge-markovian"])

_params_for = {
    None: st.just({}),
    "clique": st.just({}),
    "diligent": st.fixed_dictionaries({}, optional={"rho": st.floats(0.1, 1.0)}),
    "edge-markovian": st.fixed_dictionaries(
        {}, optional={"birth": st.floats(0.01, 0.99), "death": st.floats(0.01, 0.99)}
    ),
}

_faults_strategy = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {},
        optional={
            "drop_probability": st.floats(0.0, 0.9),
            "crashed_nodes": st.lists(st.integers(0, 30), max_size=3, unique=True),
            "crash_times": st.dictionaries(
                st.integers(0, 30).map(str), st.floats(0.0, 50.0), max_size=3
            ),
        },
    ),
)


@st.composite
def scenarios_strategy(draw):
    network = draw(_network_strategy)
    algorithm = draw(st.sampled_from(["async", "sync"]))
    if algorithm == "sync":
        variant, engine = "push-pull", "boundary"
    else:
        variant = draw(st.sampled_from(["push-pull", "push", "pull", "2-push"]))
        engine = draw(st.sampled_from(["boundary", "naive"]))
    sweep = draw(
        st.lists(st.integers(2, 500), min_size=0, max_size=4, unique=True).map(tuple)
    )
    if network is not None and not sweep:
        params = {"n": draw(st.integers(40, 200)), **draw(_params_for[network])}
    else:
        params = draw(_params_for[network])
    return Scenario(
        label=draw(st.text(min_size=1, max_size=20)),
        kind="trials",
        network=network,
        params=params,
        sweep_name="n",
        sweep=sweep,
        algorithm=algorithm,
        variant=variant,
        engine=engine,
        faults=draw(_faults_strategy),
        trials=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**40)),
        max_time=draw(st.one_of(st.none(), st.floats(1.0, 1e6))),
        options=draw(
            st.fixed_dictionaries({}, optional={"whp_quantile": st.floats(0.5, 0.99)})
        ),
    )


class TestScenarioRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios_strategy())
    def test_dict_round_trip(self, scenario):
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios_strategy())
    def test_json_round_trip(self, scenario):
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        # The JSON form itself must be pure JSON (lists, dicts, scalars).
        json.loads(scenario.to_json())

    @settings(max_examples=30, deadline=None)
    @given(scenario=scenarios_strategy())
    def test_point_specs_are_stable(self, scenario):
        first = [point.spec() for point in scenario.points()]
        second = [point.spec() for point in scenario.points()]
        assert first == second
        keys = [point.cache_key() for point in scenario.points()]
        assert len(set(keys)) == len(keys)


class TestScenarioValidation:
    def test_sync_with_variant_rejected(self):
        with pytest.raises(ValueError, match="asynchronous"):
            Scenario(label="bad", network="clique", params={"n": 8},
                     algorithm="sync", variant="push")

    def test_sync_with_engine_rejected(self):
        with pytest.raises(ValueError, match="asynchronous"):
            Scenario(label="bad", network="clique", params={"n": 8},
                     algorithm="sync", engine="naive")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            Scenario(label="bad", algorithm="quantum")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            Scenario(label="bad", variant="telepathy")

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="known families"):
            Scenario(label="bad", network="hypercube", sweep=(8,))

    def test_unknown_network_param_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            Scenario(label="bad", network="clique", params={"rho": 0.5}, sweep=(8,))

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_dict({"label": "x", "workers": 4})

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            Scenario(label="bad", faults={"nuke_probability": 1.0})


class TestScenarioPoints:
    def test_sweep_expands_in_order(self):
        scenario = Scenario(label="s", network="clique", sweep=(8, 16, 32), seed=1)
        points = scenario.points()
        assert [point.value for point in points] == [8, 16, 32]
        assert [point.index for point in points] == [0, 1, 2]

    def test_empty_sweep_is_single_point(self):
        scenario = Scenario(label="s", network="clique", params={"n": 8}, seed=1)
        points = scenario.points()
        assert len(points) == 1
        assert points[0].value is None
        assert points[0].network_params() == {"n": 8}

    def test_point_networks_are_deterministic(self):
        scenario = Scenario(label="s", network="expander", sweep=(12,), seed=5)
        point = scenario.points()[0]
        first = point.build_network()
        second = point.build_network()
        first.reset(0)
        second.reset(0)
        assert set(first.graph_for_step(0, frozenset()).edges()) == set(
            second.graph_for_step(0, frozenset()).edges()
        )

    def test_fault_model_coerces_json_node_labels(self):
        scenario = Scenario(
            label="s",
            network="clique",
            params={"n": 8},
            faults={"drop_probability": 0.1, "crashed_nodes": [2], "crash_times": {"3": 1.5}},
        )
        model = Scenario.from_json(scenario.to_json()).fault_model()
        assert model.drop_probability == pytest.approx(0.1)
        assert model.crashed_nodes == frozenset({2})
        assert model.crash_times == {3: 1.5}

    def test_seed_policy_differs_across_points_and_scenarios(self):
        a = Scenario(label="a", network="clique", sweep=(8, 16), seed=scenario_seed(0, 0))
        b = Scenario(label="b", network="clique", sweep=(8, 16), seed=scenario_seed(0, 1))
        keys = {point.cache_key() for point in a.points()} | {
            point.cache_key() for point in b.points()
        }
        assert len(keys) == 4

    def test_scenario_seed_is_deterministic(self):
        assert scenario_seed(2020, 3) == scenario_seed(2020, 3)
        assert scenario_seed(2020, 3) != scenario_seed(2020, 4)
        assert scenario_seed(2020, 3) != scenario_seed(2021, 3)


class TestMeasurementRegistry:
    def test_unknown_kind_rejected_at_version_lookup(self):
        from repro.scenarios import measurement_version

        with pytest.raises(ValueError, match="known kinds"):
            measurement_version("teleport")

    def test_known_kinds_present(self):
        from repro.scenarios import measurement_kinds

        assert {"trials", "tabs_trials", "bound_series", "hk_snapshot",
                "two_push_chain", "sequence_bound_estimate"} <= set(measurement_kinds())

    def test_trials_payload_shape(self):
        from repro.scenarios import measure_point

        scenario = Scenario(label="s", network="clique", sweep=(8,), trials=3, seed=0)
        payload = measure_point(scenario.points()[0])
        assert payload["n"] == 8
        assert len(payload["spread_times"]) == 3
        assert math.isfinite(payload["summary"]["mean"])


class TestOneNetworkPerPoint:
    """A point builds its network once; every trial reuses that instance."""

    PROCESSES = {
        "async": (AsynchronousRumorSpreading(), {"max_time": 60.0}),
        "sync": (SynchronousRumorSpreading(), {"max_rounds": 60}),
    }

    @pytest.mark.parametrize("algorithm", sorted(PROCESSES))
    @pytest.mark.parametrize("name", sorted(TestNetworkRegistry.SMOKE_PARAMS))
    def test_reused_instance_runs_like_fresh_instances(self, name, algorithm):
        # Engines call network.reset(rng) first, so a family whose reset
        # misses per-run state shows up here as a diverging second trial.
        process, horizon = self.PROCESSES[algorithm]
        params = TestNetworkRegistry.SMOKE_PARAMS[name]
        reused = build_network(name, rng=0, **params)

        def trials(network_for):
            results = [process.run(network_for(), rng=seed, **horizon) for seed in (11, 12)]
            return [(result.spread_time, result.informed_times) for result in results]

        assert trials(lambda: reused) == trials(lambda: build_network(name, rng=0, **params))

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []
        original = ScenarioPoint.build_network

        def counting(point):
            calls.append(point.index)
            return original(point)

        monkeypatch.setattr(ScenarioPoint, "build_network", counting)
        return calls

    # A probed max_time_policy exercises the probe path of the trials kind.
    POLICY = {
        "max_time_policy": {"attr": "predicted_upper_bound", "scale": 2.0},
        "probe": ["k", {"name": "lower", "attr": "predicted_lower_bound"}],
    }

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(label="t", network="dynamic-star", sweep=(8,), trials=4, seed=0),
            Scenario(label="p", network="diligent", params={"rho": 0.5}, sweep=(120,),
                     trials=2, seed=0, options=POLICY),
            Scenario(label="a", kind="tabs_trials", network="dynamic-star", sweep=(8,),
                     trials=4, seed=0),
        ],
        ids=["trials", "trials-probe", "tabs_trials"],
    )
    def test_measure_point_builds_once(self, scenario, monkeypatch):
        calls = self._count_builds(monkeypatch)
        measure_point(scenario.points()[0])
        assert calls == [0]

    def test_bind_and_sweep_build_once_per_point(self, monkeypatch):
        from repro.api import sweep_scenario

        scenario = Scenario(label="p", network="diligent", params={"rho": 0.5},
                            sweep=(120, 160), trials=2, seed=0, options=self.POLICY)
        calls = self._count_builds(monkeypatch)
        bound = scenario.bind(index=1)
        assert calls == [1]
        assert bound.spec.max_time == 2.0 * bound.spec.network.predicted_upper_bound()
        calls.clear()
        frame = sweep_scenario(scenario)
        assert calls == [0, 1]
        assert list(frame.points[1].spread_times) == list(bound.collect().spread_times)
