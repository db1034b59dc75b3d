"""The array-native ``H_{k,Δ}`` assembly against the networkx one it replaced.

``oracle_build_hk_delta`` below is the networkx assembly (chain, relabelled
expanders, two ``compose`` calls, round-robin attachment), kept verbatim
apart from its name and the oracle expander draw.  The CSR build must give
the ``indptr``/``indices`` of ``CsrSnapshot.from_networkx(oracle.graph,
nodes=...)`` exactly, consume the generator identically, and keep the
networkx view's node order (and therefore spectral floats) unchanged.
"""

import random
from typing import Hashable, Sequence

import networkx as nx
import numpy as np
import pytest

from repro.dynamics.base import DynamicNetwork
from repro.dynamics.diligent import DiligentDynamicNetwork
from repro.graphs.csr import CsrSnapshot
from repro.graphs.generators import complete_bipartite_chain
from repro.graphs.hk_delta import HkDeltaGraph, build_hk_delta, minimum_side_sizes
from repro.graphs.metrics import conductance_spectral_bounds
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_node_count

from test_expander_draw import oracle_random_regular_expander

_MIN_EXPANDER_SIZE = 5


# ---------------------------------------------------------------------------
# Oracle: the networkx assembly, verbatim.
# ---------------------------------------------------------------------------

def _oracle_attach_cluster_to_expander(
    graph: nx.Graph,
    cluster: Sequence[Hashable],
    expander_nodes: Sequence[Hashable],
    delta: int,
) -> None:
    expander_nodes = list(expander_nodes)
    require(
        len(expander_nodes) >= delta,
        "expander side too small to give each cluster node Δ distinct neighbours "
        f"(need at least {delta}, have {len(expander_nodes)})",
    )
    position = 0
    total = len(expander_nodes)
    for node in cluster:
        attached = 0
        scanned = 0
        while attached < delta:
            require(scanned <= 2 * total, "internal error: could not place cluster edges")
            target = expander_nodes[position % total]
            position += 1
            scanned += 1
            if target != node and not graph.has_edge(node, target):
                graph.add_edge(node, target)
                attached += 1


def oracle_build_hk_delta(part_a, part_b, k, delta, rng=None):
    part_a = list(part_a)
    part_b = list(part_b)
    require(len(set(part_a) & set(part_b)) == 0, "part_a and part_b must be disjoint")
    require_node_count(k, minimum=1, name="k")
    require_node_count(delta, minimum=1, name="delta")
    require(
        len(part_a) >= delta + _MIN_EXPANDER_SIZE,
        f"|A| must be at least Δ + {_MIN_EXPANDER_SIZE} = {delta + _MIN_EXPANDER_SIZE}, "
        f"got {len(part_a)}",
    )
    require(
        len(part_b) >= k * delta + _MIN_EXPANDER_SIZE,
        f"|B| must be at least kΔ + {_MIN_EXPANDER_SIZE} = {k * delta + _MIN_EXPANDER_SIZE}, "
        f"got {len(part_b)}",
    )
    gen = ensure_rng(rng)

    cluster_s0 = tuple(part_a[:delta])
    expander_a_nodes = part_a[delta:]
    clusters_b = [tuple(part_b[i * delta:(i + 1) * delta]) for i in range(k)]
    expander_b_nodes = part_b[k * delta:]
    clusters = (cluster_s0, *clusters_b)

    # Step 1: the chain of complete bipartite graphs S_0 - S_1 - ... - S_k.
    graph = complete_bipartite_chain(clusters)

    # Step 2: the two 4-regular expanders, glued to S_0 and S_k respectively.
    expander_a = oracle_random_regular_expander(4, expander_a_nodes, rng=gen)
    expander_b = oracle_random_regular_expander(4, expander_b_nodes, rng=gen)
    graph = nx.compose(graph, expander_a)
    graph = nx.compose(graph, expander_b)
    _oracle_attach_cluster_to_expander(graph, cluster_s0, expander_a_nodes, delta)
    _oracle_attach_cluster_to_expander(graph, clusters[-1], expander_b_nodes, delta)

    return graph, clusters


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def _random_partitions(count):
    """``count`` random (part_a, part_b, k, delta, nodes) cases.

    Labels are non-contiguous and shuffled; Δ = 1 and k = 1 are forced on a
    share of the cases, and the E2 sizes (n = 120 snapshots with Δ ∈ {2, 4, 5},
    the n = 160 diligent family with Δ ∈ {2, 4, 10}) are included.
    """
    picker = random.Random(20240611)
    cases = []
    for delta in (2, 4, 5):
        cases.append((list(range(30)), list(range(30, 120)), 3, delta, list(range(120))))
    for delta in (2, 4, 10):
        cases.append((list(range(40)), list(range(40, 160)), 3, delta, list(range(160))))
    while len(cases) < count:
        k = 1 if picker.random() < 0.25 else picker.randint(1, 5)
        delta = 1 if picker.random() < 0.25 else picker.randint(1, 6)
        min_a, min_b = minimum_side_sizes(k, delta)
        size_a = picker.randint(max(min_a, 2 * delta), min_a + 40)
        size_b = picker.randint(min_b + max(0, delta - _MIN_EXPANDER_SIZE), min_b + 80)
        labels = picker.sample(range(10 * (size_a + size_b)), size_a + size_b)
        part_a, part_b = labels[:size_a], labels[size_a:]
        nodes = picker.sample(labels, len(labels))
        cases.append((part_a, part_b, k, delta, nodes))
    return cases


class TestAgainstNetworkxAssembly:
    def test_csr_equals_oracle_on_random_partitions(self):
        cases = _random_partitions(200)
        assert any(delta == 1 for _, _, _, delta, _ in cases)
        assert any(k == 1 for _, _, k, _, _ in cases)
        for index, (part_a, part_b, k, delta, nodes) in enumerate(cases):
            gen, oracle_gen = np.random.default_rng(index), np.random.default_rng(index)
            built = build_hk_delta(part_a, part_b, k=k, delta=delta, rng=gen, nodes=nodes)
            oracle, clusters = oracle_build_hk_delta(part_a, part_b, k, delta, rng=oracle_gen)
            expected = CsrSnapshot.from_networkx(oracle, nodes=nodes)
            assert built.snapshot.nodes == tuple(nodes)
            assert np.array_equal(built.snapshot.indptr, expected.indptr)
            assert np.array_equal(built.snapshot.indices, expected.indices)
            assert gen.bit_generator.state == oracle_gen.bit_generator.state
            assert built.clusters == clusters
            assert built.n == oracle.number_of_nodes()

    def test_default_order_is_the_construction_order(self):
        part_a, part_b = list(range(30)), list(range(30, 120))
        built = build_hk_delta(part_a, part_b, k=3, delta=4, rng=1)
        oracle, _ = oracle_build_hk_delta(part_a, part_b, 3, 4, rng=1)
        expected = CsrSnapshot.from_networkx(oracle)
        assert built.snapshot.nodes == tuple(oracle.nodes())
        assert np.array_equal(built.snapshot.indptr, expected.indptr)
        assert np.array_equal(built.snapshot.indices, expected.indices)

    @pytest.mark.parametrize("delta", [2, 4, 5])
    def test_graph_view_keeps_node_order_and_cheeger_floats(self, delta):
        # The E2 Observation 4.1 snapshots: n = 120, Δ ∈ {2, 4, 5}.
        part_a, part_b = list(range(30)), list(range(30, 120))
        built = build_hk_delta(part_a, part_b, k=3, delta=delta, rng=7, nodes=range(120))
        oracle, _ = oracle_build_hk_delta(part_a, part_b, 3, delta, rng=7)
        assert list(built.graph.nodes()) == list(oracle.nodes())
        assert set(map(frozenset, built.graph.edges())) == set(map(frozenset, oracle.edges()))
        assert conductance_spectral_bounds(built.graph) == conductance_spectral_bounds(oracle)
        assert built.graph is built.graph

    def test_same_validation_errors(self):
        # Δ larger than the A-side expander: the attachment cannot place Δ
        # distinct neighbours per cluster node.
        with pytest.raises(ValueError) as raised:
            build_hk_delta(list(range(15)), list(range(15, 40)), k=1, delta=10, rng=0)
        with pytest.raises(ValueError) as expected:
            oracle_build_hk_delta(list(range(15)), list(range(15, 40)), 1, 10, rng=0)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError):
            build_hk_delta(list(range(30)), list(range(30, 120)), k=3, delta=4, nodes=range(119))


# ---------------------------------------------------------------------------
# The dynamic family against the networkx adapter path
# ---------------------------------------------------------------------------

class _OracleDiligentNetwork(DiligentDynamicNetwork):
    """The family as it was: networkx snapshots through the base adapter."""

    _build_snapshot_step = DynamicNetwork._build_snapshot_step

    def _on_reset(self, rng):
        super()._on_reset(rng)
        self._graph = None

    def _rebuild_graph(self, part_b):
        part_a = [u for u in self.nodes if u not in part_b]
        graph, _ = oracle_build_hk_delta(part_a, sorted(part_b), self.k, self.delta,
                                         rng=self._run_rng)
        return graph

    def _build_step(self, t, informed):
        if t == 0 or self._graph is None:
            self._graph = self._rebuild_graph(self._part_b)
            return self._graph
        new_b = self._part_b - informed
        _, min_b = minimum_side_sizes(self.k, self.delta)
        if len(new_b) < len(self._part_b) and len(new_b) >= max(self.n // 4, min_b):
            self._part_b = new_b
            self._graph = self._rebuild_graph(new_b)
        return self._graph


class TestDiligentFamilyMatchesAdapter:
    @pytest.mark.parametrize("n, rho", [(160, 0.25), (160, 0.1), (200, 0.5)])
    def test_snapshot_sequence(self, n, rho):
        network = DiligentDynamicNetwork(n, rho)
        oracle = _OracleDiligentNetwork(n, rho)
        picker = random.Random(n)
        network.reset(3)
        oracle.reset(3)
        informed = {network.default_source()}
        previous = None
        for t in range(8):
            snapshot = network.snapshot_for_step(t, informed)
            expected = oracle.snapshot_for_step(t, informed)
            assert np.array_equal(snapshot.indptr, expected.indptr)
            assert np.array_equal(snapshot.indices, expected.indices)
            assert snapshot.nodes == expected.nodes
            if previous is not None and t % 2:
                assert snapshot is previous  # nothing new informed: kept
            previous = snapshot
            if t % 2:
                informed |= set(picker.sample(range(n // 4, n), 3))
        assert network._run_rng.bit_generator.state == oracle._run_rng.bit_generator.state

    def test_graph_for_step_is_the_snapshot_view(self):
        network = DiligentDynamicNetwork(160, 0.25)
        network.reset(0)
        graph = network.graph_for_step(0, {network.default_source()})
        assert graph is network._current.snapshot.to_networkx()
        assert isinstance(network._current, HkDeltaGraph)
