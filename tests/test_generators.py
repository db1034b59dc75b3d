"""Unit tests for the static graph generators."""

import networkx as nx
import pytest

from repro.graphs.generators import (
    bridged_double_clique,
    clique,
    clique_with_pendant,
    complete_bipartite_chain,
    cycle,
    dynamic_star_graph,
    near_regular_with_hub,
    path,
    random_regular_expander,
    regular_connected_graph,
    spectral_gap,
    star,
)


class TestElementaryTopologies:
    def test_clique_structure(self):
        graph = clique(range(6))
        assert graph.number_of_nodes() == 6
        assert graph.number_of_edges() == 15
        assert all(degree == 5 for _, degree in graph.degree())

    def test_clique_requires_nodes(self):
        with pytest.raises(ValueError):
            clique([])

    def test_star_structure(self):
        graph = star("hub", ["a", "b", "c"])
        assert graph.degree("hub") == 3
        assert all(graph.degree(leaf) == 1 for leaf in "abc")

    def test_star_rejects_center_among_leaves(self):
        with pytest.raises(ValueError):
            star(0, [0, 1, 2])

    def test_dynamic_star_graph_center(self):
        graph = dynamic_star_graph(6, center=3)
        assert graph.degree(3) == 5
        assert set(graph.nodes()) == set(range(6))

    def test_dynamic_star_graph_rejects_unknown_center(self):
        with pytest.raises(ValueError):
            dynamic_star_graph(5, center=9)

    def test_cycle_structure(self):
        graph = cycle(range(7))
        assert graph.number_of_edges() == 7
        assert all(degree == 2 for _, degree in graph.degree())

    def test_cycle_needs_three_nodes(self):
        with pytest.raises(ValueError):
            cycle(range(2))

    def test_path_structure(self):
        graph = path(range(5))
        assert graph.number_of_edges() == 4
        assert graph.degree(0) == 1
        assert graph.degree(2) == 2

    def test_complete_bipartite_chain(self):
        clusters = [[0, 1], [2, 3], [4, 5]]
        graph = complete_bipartite_chain(clusters)
        assert graph.number_of_edges() == 8
        assert graph.has_edge(0, 2)
        assert graph.has_edge(3, 5)
        assert not graph.has_edge(0, 4)
        assert not graph.has_edge(0, 1)

    def test_complete_bipartite_chain_rejects_overlap(self):
        with pytest.raises(ValueError):
            complete_bipartite_chain([[0, 1], [1, 2]])


class TestExpanders:
    def test_random_regular_expander_is_regular_and_connected(self):
        graph = random_regular_expander(4, range(30), rng=0)
        assert all(degree == 4 for _, degree in graph.degree())
        assert nx.is_connected(graph)
        assert set(graph.nodes()) == set(range(30))

    def test_random_regular_expander_has_spectral_gap(self):
        graph = random_regular_expander(4, range(60), rng=1)
        assert spectral_gap(graph) >= 0.1

    def test_expander_relabels_onto_given_nodes(self):
        labels = [f"node{i}" for i in range(20)]
        graph = random_regular_expander(4, labels, rng=2)
        assert set(graph.nodes()) == set(labels)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_sparse_expander_retries_until_gap_met(self, seed):
        # 3-regular graphs on 64 nodes meet the gap threshold rarely; these
        # seeds need more than 25 draws.
        graph = random_regular_expander(3, range(64), rng=seed)
        assert all(degree == 3 for _, degree in graph.degree())
        assert nx.is_connected(graph)
        assert spectral_gap(graph) >= 0.1

    def test_expander_rejects_odd_degree_times_n(self):
        with pytest.raises(ValueError):
            random_regular_expander(3, range(7), rng=0)

    def test_expander_rejects_degree_too_large(self):
        with pytest.raises(ValueError):
            random_regular_expander(10, range(6), rng=0)


class TestRegularConstructions:
    def test_regular_connected_graph_even_degree(self):
        graph = regular_connected_graph(list(range(12)), 4)
        assert all(degree == 4 for _, degree in graph.degree())
        assert nx.is_connected(graph)

    def test_regular_connected_graph_odd_degree(self):
        graph = regular_connected_graph(list(range(10)), 3, rng=0)
        assert all(degree == 3 for _, degree in graph.degree())
        assert nx.is_connected(graph)

    def test_near_regular_with_hub_degrees(self):
        nodes = list(range(30))
        graph, hub = near_regular_with_hub(nodes, base_degree=4, hub_degree=10, rng=0)
        assert graph.degree(hub) == 10
        others = [graph.degree(u) for u in nodes if u != hub]
        assert all(degree == 4 for degree in others)
        assert nx.is_connected(graph)

    def test_near_regular_with_hub_no_extra(self):
        graph, hub = near_regular_with_hub(list(range(10)), base_degree=4, hub_degree=4)
        assert graph.degree(hub) == 4

    def test_near_regular_with_hub_rejects_odd_degrees(self):
        with pytest.raises(ValueError):
            near_regular_with_hub(list(range(10)), base_degree=3, hub_degree=6)
        with pytest.raises(ValueError):
            near_regular_with_hub(list(range(10)), base_degree=4, hub_degree=7)


class TestFigureOneBuildingBlocks:
    def test_clique_with_pendant_structure(self):
        graph = clique_with_pendant(8)
        assert graph.number_of_nodes() == 9
        assert graph.degree(9) == 1
        assert graph.has_edge(1, 9)
        assert graph.degree(1) == 8

    def test_bridged_double_clique_structure(self):
        graph = bridged_double_clique(9)
        assert graph.number_of_nodes() == 10
        assert graph.has_edge(1, 10)
        assert nx.is_connected(graph)
        # Removing the bridge disconnects the graph into the two cliques.
        copy = graph.copy()
        copy.remove_edge(1, 10)
        components = list(nx.connected_components(copy))
        assert len(components) == 2
        sizes = sorted(len(component) for component in components)
        assert sizes == [5, 5]

    def test_bridged_double_clique_sides_are_cliques(self):
        graph = bridged_double_clique(11)
        copy = graph.copy()
        copy.remove_edge(1, 12)
        for component in nx.connected_components(copy):
            sub = copy.subgraph(component)
            size = sub.number_of_nodes()
            assert sub.number_of_edges() == size * (size - 1) // 2
