"""Graph parameters used throughout the paper.

The paper's analysis is driven by three quantities of a static snapshot
``G = (V, E)``:

* the **conductance** ``Φ(G) = min_S |E(S, S̄)| / min(vol(S), vol(S̄))``
  (Equation (2) of the paper);
* the **diligence** ``ρ(G) = min_S min_{(u,v)∈E(S,S̄)} max(d̄(S)/d_u, d̄(S)/d_v)``
  where the outer minimum ranges over cuts with ``0 < vol(S) ≤ vol(G)/2`` and
  ``d̄(S)`` is the average degree of the smaller side (Section 1.1);
* the **absolute diligence**
  ``ρ̄(G) = min_{(u,v)∈E} max(1/d_u, 1/d_v)`` (Section 5).

Both ``Φ`` and ``ρ`` minimise over exponentially many cuts, so exact values are
only computed for small graphs (``n ≤ EXACT_ENUMERATION_LIMIT``).  For larger
graphs the library offers spectral (Cheeger) bounds for ``Φ`` and a sampled-cut
upper estimate for ``ρ``; the paper's own constructions expose analytic values
via :class:`repro.dynamics.base.DynamicNetwork.known_metrics`.

The exact values come from one numpy kernel over the degree array and the
edge endpoints, fed by a ``networkx.Graph`` or a :class:`CsrSnapshot` alike.
Every cut ``{S, S̄}`` is a bitmask over the compact node ids with node 0 in
``S``; the ``2^(n-1) - 1`` masks are enumerated in chunks of ``_CUT_CHUNK``.
Each chunk builds a boolean ``(cuts × m)`` crossing mask plus ``vol(S)`` and
``|S|``, so the working set stays near 2 MB at ``n = 18`` whatever the number
of chunks.  ``Φ`` reduces the chunk as ``|E(S, S̄)| / min(vol(S), vol(S̄))``.
``ρ`` uses ``ρ(S) = d̄(S) / max over crossing edges of min(d_u, d_v)`` on the
smaller-volume side (both sides on a tie).  Division is correctly rounded and
monotone, so this is the same float as the definition's
``min max(d̄/d_u, d̄/d_v)``, and the kernel is bit-identical to a per-cut loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

import networkx as nx
import numpy as np

from repro.graphs.csr import CsrSnapshot
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Largest node count for which exact (cut-enumeration) metrics are attempted.
EXACT_ENUMERATION_LIMIT = 18


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def volume(graph: nx.Graph, nodes: Optional[Iterable] = None) -> int:
    """Return ``vol(S) = Σ_{u∈S} d_u`` (or ``vol(G)`` when ``nodes`` is None)."""
    if nodes is None:
        return 2 * graph.number_of_edges()
    return sum(graph.degree(u) for u in nodes)


def cut_edges(graph: nx.Graph, subset: Iterable) -> Set[Tuple]:
    """Return the set of edges crossing ``subset`` and its complement.

    Edges are returned with the endpoint inside ``subset`` first, which the
    simulators rely on when computing push/pull rates per crossing edge.
    """
    inside = set(subset)
    crossing = set()
    for u in inside:
        if u not in graph:
            raise ValueError(f"node {u!r} not in graph")
        for v in graph.neighbors(u):
            if v not in inside:
                crossing.add((u, v))
    return crossing


def average_degree(graph: nx.Graph, nodes: Iterable) -> float:
    """Return ``d̄(S) = vol(S)/|S|`` for the node set ``nodes``."""
    nodes = list(nodes)
    require(len(nodes) > 0, "average_degree requires a non-empty node set")
    return volume(graph, nodes) / len(nodes)


# ---------------------------------------------------------------------------
# Exact cut enumeration
# ---------------------------------------------------------------------------

#: Either graph representation the metrics accept.
GraphLike = Union[nx.Graph, CsrSnapshot]

#: Cuts per kernel step.  At ``n = EXACT_ENUMERATION_LIMIT`` (``K18`` has 153
#: edges) one step's masks take about 2 MB, however many steps there are.
_CUT_CHUNK = 1 << 12


def _shape(graph: GraphLike) -> Tuple[int, int, bool]:
    """Return ``(n, edge count, connected)`` of either representation."""
    if isinstance(graph, CsrSnapshot):
        m = graph.edge_count
        return graph.n, m, m > 0 and graph.is_connected()
    m = graph.number_of_edges()
    return graph.number_of_nodes(), m, m > 0 and nx.is_connected(graph)


def _cut_arrays(graph: GraphLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(degrees, u, v)`` over compact ids, edges heaviest first.

    An edge's weight is ``min(d_u, d_v)``; the sort is what lets
    :func:`diligence_exact` find the heaviest crossing edge with one
    ``argmax``.
    """
    if isinstance(graph, CsrSnapshot):
        degrees = np.asarray(graph.degrees, dtype=np.int64)
        owner = graph.row_owner
        forward = owner < graph.indices
        u, v = owner[forward], graph.indices[forward]
    else:
        index = {label: i for i, label in enumerate(graph.nodes())}
        degrees = np.fromiter((d for _, d in graph.degree()), dtype=np.int64, count=len(index))
        pairs = np.array(
            [(index[a], index[b]) for a, b in graph.edges()], dtype=np.int64
        ).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
    order = np.argsort(-np.minimum(degrees[u], degrees[v]), kind="stable")
    return degrees, u[order], v[order]


def _cuts(degrees: np.ndarray, u: np.ndarray, v: np.ndarray) -> Iterator[Tuple[np.ndarray, ...]]:
    """Yield ``(vol, size, crossing)`` for every cut, ``_CUT_CHUNK`` cuts at a time.

    Each cut ``{S, S̄}`` is visited once, as the side ``S ≠ V`` that holds
    node 0: bit ``i`` of its mask is node ``i``.  ``vol`` and ``size`` are
    ``vol(S)`` and ``|S|``; ``crossing[c, e]`` says whether edge ``e`` crosses
    cut ``c``.
    """
    shifts = np.arange(len(degrees), dtype=np.int64)
    count = (1 << (len(degrees) - 1)) - 1
    for start in range(0, count, _CUT_CHUNK):
        masks = np.arange(start, min(start + _CUT_CHUNK, count), dtype=np.int64) * 2 + 1
        bits = (masks[:, None] >> shifts) & 1
        inside = bits.astype(bool)
        yield bits @ degrees, bits.sum(axis=1), inside[:, u] != inside[:, v]


# ---------------------------------------------------------------------------
# Conductance
# ---------------------------------------------------------------------------

def conductance_of_cut(graph: nx.Graph, subset: Iterable) -> float:
    """Return ``|E(S, S̄)| / min(vol(S), vol(S̄))`` for the cut defined by ``subset``.

    Raises ``ValueError`` when either side has zero volume (the ratio is not
    defined by Equation (2) in that case).
    """
    subset = set(subset)
    complement = set(graph.nodes()) - subset
    vol_s = volume(graph, subset)
    vol_c = volume(graph, complement)
    denom = min(vol_s, vol_c)
    require(denom > 0, "conductance_of_cut: both sides of the cut must have positive volume")
    return len(cut_edges(graph, subset)) / denom


def conductance_exact(graph: GraphLike) -> float:
    """Return the exact conductance ``Φ(G)`` by enumerating all cuts.

    Accepts a ``networkx.Graph`` or a :class:`CsrSnapshot`.  Only feasible
    for small graphs (``n ≤ EXACT_ENUMERATION_LIMIT``).  Returns ``0.0`` for
    disconnected or empty graphs, matching the convention used by the paper
    for the ``⌈Φ⌉`` indicator in Theorem 1.3.
    """
    n, m, connected = _shape(graph)
    require_node_count(n, minimum=1)
    if m == 0 or not connected:
        return 0.0
    require(
        n <= EXACT_ENUMERATION_LIMIT,
        f"conductance_exact enumerates 2^n cuts and is limited to n <= "
        f"{EXACT_ENUMERATION_LIMIT}; use conductance_spectral_bounds or the "
        f"construction's analytic value instead (n = {n})",
    )
    degrees, u, v = _cut_arrays(graph)
    total = int(degrees.sum())
    best = math.inf
    for vol, _, crossing in _cuts(degrees, u, v):
        phi = np.count_nonzero(crossing, axis=1) / np.minimum(vol, total - vol)
        best = min(best, float(phi.min()))
    return best


def conductance_spectral_bounds(graph: nx.Graph) -> Tuple[float, float]:
    """Return Cheeger bounds ``(λ₂/2, sqrt(2 λ₂))`` on the conductance.

    ``λ₂`` is the second-smallest eigenvalue of the normalised Laplacian.  The
    true conductance satisfies ``λ₂/2 ≤ Φ(G) ≤ sqrt(2 λ₂)``.  Returns
    ``(0.0, 0.0)`` for disconnected graphs.
    """
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return (0.0, 0.0)
    if graph.number_of_nodes() < 3:
        # K2: conductance is exactly 1.
        return (1.0, 1.0)
    laplacian = nx.normalized_laplacian_matrix(graph).toarray()
    eigenvalues = np.sort(np.linalg.eigvalsh(laplacian))
    lambda2 = max(float(eigenvalues[1]), 0.0)
    return (lambda2 / 2.0, math.sqrt(2.0 * lambda2))


def conductance_estimate(graph: nx.Graph) -> float:
    """Best-effort conductance: exact for small graphs, Cheeger midpoint otherwise."""
    n = graph.number_of_nodes()
    if n <= EXACT_ENUMERATION_LIMIT:
        return conductance_exact(graph)
    low, high = conductance_spectral_bounds(graph)
    return math.sqrt(low * high) if low > 0 else 0.0


# ---------------------------------------------------------------------------
# Diligence
# ---------------------------------------------------------------------------

def diligence_of_cut(graph: nx.Graph, subset: Iterable) -> float:
    """Return ``ρ(S) = min_{(u,v)∈E(S,S̄)} max(d̄(S)/d_u, d̄(S)/d_v)``.

    ``subset`` must identify the *smaller-volume* side of the cut; the
    function checks this and raises otherwise, because the paper's definition
    takes ``d̄`` over the smaller side.  Returns ``inf`` when no edge crosses
    the cut (such cuts never constrain the minimum over connected graphs).
    """
    subset = set(subset)
    complement = set(graph.nodes()) - subset
    require(len(subset) > 0 and len(complement) > 0, "cut must be a proper non-empty subset")
    vol_s = volume(graph, subset)
    vol_c = volume(graph, complement)
    require(vol_s > 0, "the chosen side of the cut must have positive volume")
    require(
        vol_s <= vol_c,
        "diligence_of_cut expects the smaller-volume side of the cut "
        f"(vol(S)={vol_s} > vol(S̄)={vol_c})",
    )
    crossing = cut_edges(graph, subset)
    if not crossing:
        return math.inf
    d_bar = vol_s / len(subset)
    return min(max(d_bar / graph.degree(u), d_bar / graph.degree(v)) for u, v in crossing)


def diligence_exact(graph: GraphLike) -> float:
    """Return the exact diligence ``ρ(G)`` by cut enumeration.

    Accepts a ``networkx.Graph`` or a :class:`CsrSnapshot`.  Matches the
    paper's conventions: ``ρ(G) = 0`` when ``G`` is disconnected, and for
    connected graphs ``1/(n-1) ≤ ρ(G) ≤ 1``.  Limited to
    ``n ≤ EXACT_ENUMERATION_LIMIT``.
    """
    n, m, connected = _shape(graph)
    require_node_count(n, minimum=1)
    if n == 1:
        return 1.0
    if m == 0 or not connected:
        return 0.0
    require(
        n <= EXACT_ENUMERATION_LIMIT,
        f"diligence_exact enumerates 2^n cuts and is limited to n <= "
        f"{EXACT_ENUMERATION_LIMIT}; use diligence_sampled or the "
        f"construction's analytic value instead (n = {n})",
    )
    degrees, u, v = _cut_arrays(graph)
    total = int(degrees.sum())
    weight = np.minimum(degrees[u], degrees[v])
    best = math.inf
    for vol, size, crossing in _cuts(degrees, u, v):
        # Edges are sorted by descending weight, so argmax picks the heaviest
        # crossing edge: ρ(S) = d̄(S) / max over E(S, S̄) of min(d_u, d_v).
        top = weight[crossing.argmax(axis=1)]
        # Either side of a cut may be the smaller-volume one (both on a tie).
        for side_vol, side_size in ((vol, size), (total - vol, n - size)):
            rho = np.where(2 * side_vol <= total, side_vol / side_size / top, np.inf)
            best = min(best, float(rho.min()))
    return best if best < math.inf else 1.0


def diligence_sampled(
    graph: nx.Graph,
    samples: int = 200,
    rng: RngLike = None,
) -> float:
    """Return an *upper estimate* of ``ρ(G)`` from randomly sampled cuts.

    ``ρ(G)`` is a minimum over cuts, so sampling can only overestimate it.
    The sampler mixes three cut families that are the usual minimisers:
    single-node cuts, random balanced bisections, and BFS-ball cuts around a
    random centre.
    """
    require_node_count(graph.number_of_nodes(), minimum=2)
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return 0.0
    gen = ensure_rng(rng)
    nodes = list(graph.nodes())
    total_volume = volume(graph)
    best = math.inf

    def consider(subset: Set) -> None:
        nonlocal best
        if not subset or len(subset) == len(nodes):
            return
        vol_s = volume(graph, subset)
        complement_vol = total_volume - vol_s
        if vol_s == 0:
            return
        side = subset if vol_s <= complement_vol else set(nodes) - subset
        if volume(graph, side) == 0:
            return
        rho = diligence_of_cut(graph, side)
        if rho < best:
            best = rho

    # Single-node cuts: often the minimiser when degrees are skewed.
    for u in nodes:
        consider({u})
    for _ in range(samples):
        mode = gen.integers(0, 2)
        if mode == 0:
            size = int(gen.integers(1, len(nodes)))
            subset = set(gen.choice(nodes, size=size, replace=False).tolist())
        else:
            centre = nodes[int(gen.integers(0, len(nodes)))]
            radius = int(gen.integers(1, 4))
            subset = set(nx.single_source_shortest_path_length(graph, centre, cutoff=radius))
        consider(subset)
    return best if best is not math.inf else 1.0


# ---------------------------------------------------------------------------
# Absolute diligence and other degree statistics
# ---------------------------------------------------------------------------

def absolute_diligence(graph: GraphLike) -> float:
    """Return ``ρ̄(G) = min_{(u,v)∈E} max(1/d_u, 1/d_v)``; 0 for empty graphs."""
    if isinstance(graph, CsrSnapshot):
        return graph.absolute_diligence()
    if graph.number_of_edges() == 0:
        return 0.0
    return min(
        max(1.0 / graph.degree(u), 1.0 / graph.degree(v)) for u, v in graph.edges()
    )


def degree_variation_ratio(degree_history: Dict) -> float:
    """Return ``M(G) = max_u Δ_u / δ_u`` from per-node degree histories.

    ``degree_history`` maps each node to an iterable of its degrees over the
    time steps considered.  This is the quantity appearing in the upper bound
    of Giakkoupis, Sauerwald and Stauffer [17] that the paper's Section 1.2
    compares against.  Nodes whose minimum degree is zero are skipped (the
    ratio is undefined); if every node has minimum degree zero the function
    raises.
    """
    best = 0.0
    found = False
    for node, degrees in degree_history.items():
        degrees = list(degrees)
        require(len(degrees) > 0, f"empty degree history for node {node!r}")
        low = min(degrees)
        high = max(degrees)
        if low == 0:
            continue
        found = True
        best = max(best, high / low)
    require(found, "degree_variation_ratio: every node has minimum degree 0")
    return best


# ---------------------------------------------------------------------------
# Bundled snapshot metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphMetrics:
    """All per-snapshot quantities the bounds of the paper consume.

    Attributes
    ----------
    conductance:
        ``Φ(G)`` (exact, analytic, or an estimate depending on provenance).
    diligence:
        ``ρ(G)``.
    absolute_diligence:
        ``ρ̄(G)``.
    connected:
        Whether the snapshot is connected; drives the ``⌈Φ⌉`` indicator of
        Theorem 1.3.
    n:
        Number of nodes.
    exact:
        True when conductance and diligence were computed by full cut
        enumeration (or supplied analytically by a construction).
    """

    conductance: float
    diligence: float
    absolute_diligence: float
    connected: bool
    n: int
    exact: bool = True

    def conductance_indicator(self) -> int:
        """Return ``⌈Φ(G)⌉`` as used by Theorem 1.3: 1 if connected else 0."""
        return 1 if self.connected else 0


def measure_graph(graph: GraphLike, sampled_cuts: int = 200, rng: RngLike = None) -> GraphMetrics:
    """Compute a :class:`GraphMetrics` bundle for ``graph``.

    Uses exact enumeration when the graph is small enough and falls back to
    spectral / sampled estimates otherwise (marking ``exact=False``).  A
    :class:`CsrSnapshot` is measured on its arrays; only the estimates need
    its networkx view.
    """
    n, _, connected = _shape(graph)
    if n <= EXACT_ENUMERATION_LIMIT:
        phi = conductance_exact(graph) if n >= 1 else 0.0
        rho = diligence_exact(graph)
        exact = True
    else:
        if isinstance(graph, CsrSnapshot):
            graph = graph.to_networkx()
        phi = conductance_estimate(graph)
        rho = diligence_sampled(graph, samples=sampled_cuts, rng=rng)
        exact = False
    return GraphMetrics(
        conductance=phi,
        diligence=rho,
        absolute_diligence=absolute_diligence(graph),
        connected=connected,
        n=n,
        exact=exact,
    )


__all__ = [
    "EXACT_ENUMERATION_LIMIT",
    "GraphMetrics",
    "absolute_diligence",
    "average_degree",
    "conductance_estimate",
    "conductance_exact",
    "conductance_of_cut",
    "conductance_spectral_bounds",
    "cut_edges",
    "degree_variation_ratio",
    "diligence_exact",
    "diligence_of_cut",
    "diligence_sampled",
    "measure_graph",
    "volume",
]
