"""The array-native random-regular expander draw against networkx.

``regular_expander_edges`` ports networkx 3.6.1's stub pairing and replaces
the networkx Laplacian/``eigvalsh`` verdict with a Cholesky certificate.  The
oracles below are the networkx path it replaced, kept verbatim (only
renamed): every draw must be the same graph, adjacency order included, leave
the generator in the same state, and reach the same accept/reject verdict.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.generators import (
    EXPANDER_GAP_THRESHOLD,
    EXPANDER_MAX_ATTEMPTS,
    random_regular_expander,
    regular_connected_graph,
    regular_expander_edges,
    spectral_gap,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_node_count


# ---------------------------------------------------------------------------
# Oracles: the networkx draws, verbatim.
# ---------------------------------------------------------------------------

def oracle_random_regular_expander(
    degree,
    nodes,
    rng=None,
    gap_threshold=EXPANDER_GAP_THRESHOLD,
    max_attempts=EXPANDER_MAX_ATTEMPTS,
):
    nodes = list(nodes)
    n = len(nodes)
    require_node_count(n, minimum=2)
    require(0 < degree < n, f"degree must satisfy 0 < degree < n (degree={degree}, n={n})")
    require(degree * n % 2 == 0, "degree * n must be even for a regular graph to exist")
    gen = ensure_rng(rng)
    # Very small graphs cannot meet asymptotic gap thresholds; be lenient.
    effective_threshold = gap_threshold if n >= 8 else 0.0
    last_gap = 0.0
    for _ in range(max_attempts):
        seed = int(gen.integers(0, 2**32 - 1))
        candidate = nx.random_regular_graph(degree, n, seed=seed)
        if not nx.is_connected(candidate):
            continue
        last_gap = spectral_gap(candidate)
        if last_gap >= effective_threshold:
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError(
        f"failed to generate a {degree}-regular expander on {n} nodes after "
        f"{max_attempts} attempts (last spectral gap {last_gap:.4f} < "
        f"{effective_threshold})"
    )


def oracle_regular_connected_graph_odd(nodes, degree, rng=None):
    nodes = list(nodes)
    n = len(nodes)
    gen = ensure_rng(rng)
    for _ in range(EXPANDER_MAX_ATTEMPTS):
        seed = int(gen.integers(0, 2**32 - 1))
        candidate = nx.random_regular_graph(degree, n, seed=seed)
        if nx.is_connected(candidate):
            return nx.relabel_nodes(candidate, dict(zip(range(n), nodes)))
    raise RuntimeError(f"failed to build a connected {degree}-regular graph on {n} nodes")


def _triples(count):
    """``count`` deterministic (seed, n, d) triples, d ∈ {3, 4}, 5 ≤ n ≤ 400."""
    triples = []
    i = 0
    while len(triples) < count:
        degree = 3 if i % 3 == 0 else 4
        n = 5 + (i * 37) % 396
        if degree * n % 2 == 0:
            triples.append((1_000_003 * i + 7, n, degree))
        i += 1
    return triples


def _as_graph(n, u_ids, v_ids):
    graph = nx.empty_graph(n)
    graph.add_edges_from(zip(u_ids.tolist(), v_ids.tolist()))
    return graph


def _gen_state(gen):
    return gen.bit_generator.state


# ---------------------------------------------------------------------------
# Pairing and Laplacian
# ---------------------------------------------------------------------------

class TestPairing:
    def test_edge_sequence_matches_networkx_on_a_thousand_triples(self):
        triples = _triples(1000)
        assert {d for _, _, d in triples} == {3, 4}
        assert min(n for _, n, _ in triples) <= 6 and max(n for _, n, _ in triples) >= 395
        for seed, n, degree in triples:
            expected = nx.random_regular_graph(degree, n, seed=seed)
            u_ids, v_ids = generators._random_regular_arrays(degree, n, seed)
            assert bool(np.all(u_ids < v_ids))
            # Per-node adjacency order is the insertion sequence as networkx
            # saw it, so equal adjacencies mean an equal edge sequence.
            assert list(_as_graph(n, u_ids, v_ids).adjacency()) == list(expected.adjacency())


class TestLaplacian:
    @pytest.mark.parametrize("degree, n", [(3, 8), (3, 64), (3, 122), (4, 9), (4, 64), (4, 121)])
    def test_bitwise_equal_to_networkx(self, degree, n):
        for seed in range(5):
            u_ids, v_ids = generators._random_regular_arrays(degree, n, seed)
            graph = _as_graph(n, u_ids, v_ids)
            expected = nx.normalized_laplacian_matrix(graph).toarray()
            built = generators._regular_normalized_laplacian(n, degree, u_ids, v_ids)
            assert built.dtype == expected.dtype
            assert built.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Gap verdicts
# ---------------------------------------------------------------------------

def _verdict_draws():
    # E7's 3-regular n=64 graphs sit near the 0.1 threshold (about 12% pass);
    # the 4-regular sizes are those of the H_{k,Δ} expanders.
    for seed in range(700):
        yield seed, 64, 3
    for seed in range(120):
        yield seed, 30, 3
    for n in (20, 61, 121):
        for seed in range(70):
            yield seed, n, 4


class TestGapVerdict:
    def test_verdicts_equal_eigvalsh_on_a_thousand_draws(self):
        checked = accepted = 0
        for seed, n, degree in _verdict_draws():
            u_ids, v_ids = generators._random_regular_arrays(degree, n, seed)
            graph = _as_graph(n, u_ids, v_ids)
            if not nx.is_connected(graph):
                continue
            laplacian = generators._regular_normalized_laplacian(n, degree, u_ids, v_ids)
            expected = spectral_gap(graph) >= EXPANDER_GAP_THRESHOLD
            assert generators._regular_gap_at_least(laplacian, EXPANDER_GAP_THRESHOLD) == expected
            checked += 1
            accepted += expected
        assert checked >= 1000
        assert 0 < accepted < checked

    def test_margin_defers_to_the_dense_solve(self, monkeypatch):
        calls = []
        solve = generators._second_eigenvalue
        monkeypatch.setattr(
            generators, "_second_eigenvalue", lambda lap: calls.append(1) or solve(lap)
        )
        u_ids, v_ids = generators._random_regular_arrays(3, 64, 11)
        laplacian = generators._regular_normalized_laplacian(64, 3, u_ids, v_ids)
        gap = solve(laplacian)
        assert generators._regular_gap_at_least(laplacian, gap)
        assert not generators._regular_gap_at_least(laplacian, float(np.nextafter(gap, 1.0)))
        assert len(calls) == 2
        # Far from the threshold the certificate alone decides.
        assert generators._regular_gap_at_least(laplacian, gap - 0.01)
        assert not generators._regular_gap_at_least(laplacian, gap + 0.01)
        assert len(calls) == 2

    def test_accepted_h_k_delta_draws_skip_the_dense_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(generators, "_second_eigenvalue", lambda lap: calls.append(1))
        for seed in range(10):
            regular_expander_edges(4, 121, rng=seed)
        assert calls == []

    def test_zero_threshold_accepts_every_connected_draw(self):
        u_ids, v_ids = generators._random_regular_arrays(4, 7, 0)
        laplacian = generators._regular_normalized_laplacian(7, 4, u_ids, v_ids)
        assert generators._regular_gap_at_least(laplacian, 0.0)


# ---------------------------------------------------------------------------
# Whole draws against the networkx path
# ---------------------------------------------------------------------------

class TestDrawsMatchNetworkxPath:
    @pytest.mark.parametrize(
        "degree, nodes",
        [
            (3, range(64)),
            (3, range(30)),
            (4, range(5)),
            (4, range(7)),
            (4, range(121)),
            (4, [f"v{i}" for i in range(40)]),
            (4, list(range(300, 200, -3))),
        ],
    )
    def test_same_graph_and_generator_state(self, degree, nodes):
        for seed in range(6):
            gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            graph = random_regular_expander(degree, nodes, rng=gen)
            expected = oracle_random_regular_expander(degree, nodes, rng=oracle_gen)
            assert list(graph.nodes()) == list(expected.nodes())
            assert list(graph.adjacency()) == list(expected.adjacency())
            assert _gen_state(gen) == _gen_state(oracle_gen)

    def test_same_failure_message(self):
        with pytest.raises(RuntimeError) as raised:
            random_regular_expander(3, range(64), rng=5, gap_threshold=0.5, max_attempts=4)
        with pytest.raises(RuntimeError) as expected:
            oracle_random_regular_expander(3, range(64), rng=5, gap_threshold=0.5, max_attempts=4)
        assert str(raised.value) == str(expected.value)

    def test_odd_degree_connected_graph_matches(self):
        for seed in range(6):
            gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            graph = regular_connected_graph(list(range(10, 50)), 3, rng=gen)
            expected = oracle_regular_connected_graph_odd(list(range(10, 50)), 3, rng=oracle_gen)
            assert list(graph.adjacency()) == list(expected.adjacency())
            assert _gen_state(gen) == _gen_state(oracle_gen)
