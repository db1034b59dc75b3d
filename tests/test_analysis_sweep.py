"""Unit tests for parameter sweeps through :meth:`repro.api.RunBuilder.sweep`."""

import pytest

from repro import api
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.graphs.generators import clique, cycle


def clique_factory(n):
    return StaticDynamicNetwork(clique(range(n)))


def clique_sweep(values, seed, trials, **options):
    return api.run(network=clique_factory, seed=seed).trials(trials).sweep(values, **options)


class TestSweep:
    def test_sweep_produces_one_point_per_value(self):
        frame = clique_sweep([6, 8, 10], seed=0, trials=3)
        assert frame.parameter_name == "n"
        assert list(frame.values) == [6, 8, 10]
        assert len(frame.points) == 3

    def test_rows_are_flat_dicts(self):
        rows = clique_sweep([6, 8], seed=1, trials=2).rows()
        assert rows[0]["n"] == 6
        assert "mean" in rows[0]
        assert "whp" in rows[0]

    def test_series_extraction(self):
        frame = clique_sweep([6, 8], seed=2, trials=2)
        assert len(frame.column("mean")) == 2
        with pytest.raises(ValueError):
            frame.column("no_such_column")

    def test_extras_for_adds_columns(self):
        frame = clique_sweep(
            [6, 8], seed=3, trials=2,
            extras_for=lambda value, summary: {"twice_n": 2 * value},
        )
        assert [row["twice_n"] for row in frame.rows()] == [12, 16]

    def test_source_for_override(self):
        captured = []

        def source_for(value, network):
            captured.append(value)
            return value - 1

        frame = (
            api.run(network=lambda n: StaticDynamicNetwork(cycle(range(n))), seed=4)
            .keep_results()
            .sweep([6, 8], source_for=source_for)
        )
        assert captured == [6, 8]
        assert frame.points[0].results[0].source == 5
        assert frame.points[1].results[0].source == 7

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            clique_sweep([], seed=None, trials=1)

    def test_reproducibility(self):
        first = clique_sweep([6, 8], seed=77, trials=3)
        second = clique_sweep([6, 8], seed=77, trials=3)
        assert list(first.column("mean")) == list(second.column("mean"))
