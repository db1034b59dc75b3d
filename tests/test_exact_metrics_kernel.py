"""The bitmask cut kernel behind ``conductance_exact`` / ``diligence_exact``.

The oracle below is the per-cut Python enumeration the library used before
the array kernel, kept verbatim (only renamed).  The kernel must return the
*same floats* — compared with ``==``, never ``approx`` — on every graph, for
``networkx`` and :class:`CsrSnapshot` input alike.  Analytic values at
``n = EXACT_ENUMERATION_LIMIT`` exercise enumerations that span many chunks.
"""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import metrics
from repro.graphs.csr import CsrSnapshot
from repro.graphs.metrics import (
    EXACT_ENUMERATION_LIMIT,
    conductance_exact,
    conductance_of_cut,
    diligence_exact,
    diligence_of_cut,
    measure_graph,
    volume,
)
from repro.utils.validation import require, require_node_count


# ---------------------------------------------------------------------------
# Oracle: the per-cut loops, verbatim.
# ---------------------------------------------------------------------------

def oracle_conductance_exact(graph: nx.Graph) -> float:
    """Return the exact conductance ``Φ(G)`` by enumerating all cuts.

    Only feasible for small graphs (``n ≤ EXACT_ENUMERATION_LIMIT``).  Returns
    ``0.0`` for disconnected or empty graphs, matching the convention used by
    the paper for the ``⌈Φ⌉`` indicator in Theorem 1.3.
    """
    n = graph.number_of_nodes()
    require_node_count(n, minimum=1)
    if graph.number_of_edges() == 0:
        return 0.0
    if not nx.is_connected(graph):
        return 0.0
    require(
        n <= EXACT_ENUMERATION_LIMIT,
        f"conductance_exact enumerates 2^n cuts and is limited to n <= "
        f"{EXACT_ENUMERATION_LIMIT}; use conductance_spectral_bounds or the "
        f"construction's analytic value instead (n = {n})",
    )
    nodes = list(graph.nodes())
    best = math.inf
    # Enumerate subsets containing nodes[0] to avoid double counting S / S̄.
    rest = nodes[1:]
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            subset = {nodes[0], *combo}
            if len(subset) == n:
                continue
            phi = conductance_of_cut(graph, subset)
            if phi < best:
                best = phi
    return best


def oracle_diligence_exact(graph: nx.Graph) -> float:
    """Return the exact diligence ``ρ(G)`` by cut enumeration.

    Matches the paper's conventions: ``ρ(G) = 0`` when ``G`` is disconnected,
    and for connected graphs ``1/(n-1) ≤ ρ(G) ≤ 1``.  Limited to
    ``n ≤ EXACT_ENUMERATION_LIMIT``.
    """
    n = graph.number_of_nodes()
    require_node_count(n, minimum=1)
    if n == 1:
        return 1.0
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    require(
        n <= EXACT_ENUMERATION_LIMIT,
        f"diligence_exact enumerates 2^n cuts and is limited to n <= "
        f"{EXACT_ENUMERATION_LIMIT}; use diligence_sampled or the "
        f"construction's analytic value instead (n = {n})",
    )
    total_volume = volume(graph)
    nodes = list(graph.nodes())
    best = math.inf
    for size in range(1, n):
        for combo in itertools.combinations(nodes, size):
            subset = set(combo)
            vol_s = volume(graph, subset)
            if vol_s == 0 or vol_s > total_volume / 2:
                continue
            rho = diligence_of_cut(graph, subset)
            if rho < best:
                best = rho
    return best if best is not math.inf else 1.0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def assert_matches_oracle(graph: nx.Graph) -> None:
    """Kernel == oracle, bit for bit, on the graph and on its CSR snapshot."""
    expected = (oracle_conductance_exact(graph), oracle_diligence_exact(graph))
    snapshot = CsrSnapshot.from_networkx(graph, cache_graph=False)
    for given_graph in (graph, snapshot):
        got = (conductance_exact(given_graph), diligence_exact(given_graph))
        assert got == expected
        assert all(type(value) is float for value in got)


def random_graphs():
    """Strategy: arbitrary simple graphs (possibly disconnected) on 1..11 nodes."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 11))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
        graph = nx.Graph()
        # A shuffled label order checks that compact ids need not follow labels.
        graph.add_nodes_from(draw(st.permutations(list(range(n)))))
        graph.add_edges_from(edge for edge, kept in zip(possible, keep) if kept)
        return graph

    return build()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestKernelMatchesOracle:
    @given(graph=random_graphs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bit_identical_on_random_graphs(self, graph):
        assert_matches_oracle(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(nx.empty_graph(1), id="n=1"),
            pytest.param(nx.complete_graph(2), id="K2"),
            pytest.param(nx.Graph([(0, 1), (2, 3), (3, 4)]), id="disconnected"),
            pytest.param(nx.empty_graph(5), id="edgeless"),
            pytest.param(nx.star_graph(8), id="star"),
            pytest.param(nx.lollipop_graph(6, 1), id="pendant"),
            pytest.param(nx.barbell_graph(4, 2), id="barbell"),
            pytest.param(nx.path_graph(9), id="path"),
        ],
    )
    def test_edge_cases(self, graph):
        assert_matches_oracle(graph)

    def test_string_labels(self):
        graph = nx.relabel_nodes(nx.lollipop_graph(5, 3), lambda u: f"v{u}")
        assert_matches_oracle(graph)

    def test_limit_still_enforced(self):
        graph = nx.cycle_graph(EXACT_ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError):
            conductance_exact(graph)
        with pytest.raises(ValueError):
            diligence_exact(CsrSnapshot.from_networkx(graph))


class TestAnalyticValuesAtTheLimit:
    n = EXACT_ENUMERATION_LIMIT

    def test_enumeration_spans_several_chunks(self):
        assert (1 << (self.n - 1)) - 1 > 4 * metrics._CUT_CHUNK

    def test_complete_graph(self):
        graph = nx.complete_graph(self.n)
        # Balanced cut of K18: 9·9 crossing edges over volume 9·17.
        assert conductance_exact(graph) == 9 / 17
        assert diligence_exact(CsrSnapshot.from_networkx(graph)) == 1.0

    def test_cycle(self):
        graph = nx.cycle_graph(self.n)
        # Two crossing edges over half the volume (18).
        assert conductance_exact(CsrSnapshot.from_networkx(graph)) == 1 / 9
        assert diligence_exact(graph) == 1.0

    @pytest.mark.parametrize("degree", [3, 4])
    def test_regular_graphs_are_one_diligent(self, degree):
        graph = nx.random_regular_graph(degree, self.n, seed=degree)
        assert nx.is_connected(graph)
        assert diligence_exact(graph) == 1.0


class TestMeasureGraphOnSnapshots:
    @pytest.mark.parametrize(
        "graph",
        [nx.lollipop_graph(7, 3), nx.Graph([(0, 1), (2, 3)]), nx.complete_graph(2)],
        ids=["lollipop", "disconnected", "K2"],
    )
    def test_snapshot_measures_like_its_networkx_graph(self, graph):
        assert measure_graph(CsrSnapshot.from_networkx(graph, cache_graph=False)) == (
            measure_graph(graph)
        )

    def test_large_snapshot_falls_back_to_estimates(self):
        graph = nx.cycle_graph(EXACT_ENUMERATION_LIMIT + 2)
        snapshot = CsrSnapshot.from_networkx(graph, cache_graph=False)
        measured = measure_graph(snapshot, rng=1)
        assert measured == measure_graph(snapshot.to_networkx(), rng=1)
        assert not measured.exact
