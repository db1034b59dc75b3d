"""The ``H_{k,Δ}(A, B)`` construction of Section 4.

The lower-bound family of Theorem 1.2 is built from snapshots of the form
``H_{k,Δ}(A, B)`` where ``A ∪ B`` partitions the node set:

1. Disjoint clusters ``S_0, ..., S_k`` of size ``Δ`` each, with ``S_0 ⊂ A``
   and ``S_1 ∪ ... ∪ S_k ⊂ B``; consecutive clusters are completely joined
   (a "string of complete bipartite graphs" with ``kΔ²`` edges).
2. Two 4-regular expanders, ``G₁`` on ``A \\ S_0`` and ``G₂`` on
   ``B \\ (S_1 ∪ ... ∪ S_k)``; every node of ``S_0`` is attached to ``Δ``
   distinct nodes of ``G₁`` (and every node of ``S_k`` to ``Δ`` distinct nodes
   of ``G₂``) so that no expander node gains more than a constant number of
   extra edges.

Observation 4.1 gives the analytic parameters used by the bounds:
``Φ(H_{k,Δ}) = Θ(Δ² / (kΔ² + n))`` and ``ρ(H_{k,Δ}) = Θ(1/Δ)``.

Array assembly
--------------
:func:`build_hk_delta` emits the snapshot straight into CSR form.  Nodes are
laid out in *construction order*: ``S_0, ..., S_k``, then ``G₁``'s nodes,
then ``G₂``'s.  The edges are index arithmetic on those positions, inserted
in this sequence: the chain (``S_i × S_{i+1}`` row-major, via
``repeat``/``tile``), the two expander draws of
:func:`repro.graphs.generators.regular_expander_edges` in their insertion
order, then the attachments of ``S_0`` to ``G₁`` and ``S_k`` to ``G₂``,
which walk the expander round-robin so cluster node ``c`` takes positions
``cΔ, ..., cΔ + Δ − 1`` modulo the expander size.  Every edge's first
endpoint is its earlier one, and one stable sort on it orders the edges by
(position of the earlier endpoint, insertion index).  That is the order in
which ``networkx`` yields ``edges()`` for the graph assembled as
``compose(compose(chain, G₁), G₂)`` plus the attachment edges, so the
snapshot's ``indptr``/``indices`` equal ``CsrSnapshot.from_networkx`` of
that graph exactly, under any node order for the compact ids.  The
networkx view :attr:`HkDeltaGraph.graph` is built on demand, in construction
order, which keeps spectral measurements on it bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CsrSnapshot
from repro.graphs.generators import regular_expander_edges
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_node_count

#: Minimum expander size; 4-regular graphs need at least 5 nodes.
_MIN_EXPANDER_SIZE = 5


@dataclass
class HkDeltaGraph:
    """A built ``H_{k,Δ}(A, B)`` snapshot together with its structure.

    Attributes
    ----------
    snapshot:
        The assembled simple graph in CSR form; its compact ids follow the
        ``nodes`` order passed to :func:`build_hk_delta`.
    part_a, part_b:
        The two sides of the partition (``A`` holds ``S_0`` and expander
        ``G₁``; ``B`` holds ``S_1..S_k`` and expander ``G₂``).
    clusters:
        The clusters ``S_0, ..., S_k`` in order.
    delta:
        Cluster size ``Δ``.
    k:
        Number of cluster-to-cluster hops (there are ``k + 1`` clusters).
    """

    snapshot: CsrSnapshot
    part_a: Tuple[Hashable, ...]
    part_b: Tuple[Hashable, ...]
    clusters: Tuple[Tuple[Hashable, ...], ...]
    delta: int
    k: int
    _graph: Optional[nx.Graph] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return len(self.part_a) + len(self.part_b)

    @property
    def graph(self) -> nx.Graph:
        """The snapshot as a ``networkx.Graph`` in construction order (cached).

        Nodes come in the order ``S_0, ..., S_k``, ``G₁``, ``G₂``, so the
        node-ordered matrices of the graph (such as its normalised
        Laplacian) are those of the networkx assembly this replaced.
        """
        if self._graph is None:
            snapshot = self.snapshot
            labels = snapshot.nodes
            owner = snapshot.row_owner
            forward = owner < snapshot.indices
            graph = nx.Graph()
            graph.add_nodes_from(_construction_order(self.part_a, self.part_b, self.k, self.delta))
            graph.add_edges_from(
                (labels[u], labels[v])
                for u, v in zip(owner[forward].tolist(), snapshot.indices[forward].tolist())
            )
            self._graph = graph
        return self._graph

    def analytic_conductance(self) -> float:
        """Return the Observation 4.1 value ``Δ² / (kΔ² + n)`` (up to Θ(1))."""
        return self.delta**2 / (self.k * self.delta**2 + self.n)

    def analytic_diligence(self) -> float:
        """Return the Observation 4.1 value ``1/Δ`` (up to Θ(1))."""
        return 1.0 / self.delta

    def analytic_absolute_diligence(self) -> float:
        """Return ``ρ̄`` of the snapshot, which is ``Θ(1/Δ)`` as well.

        Every crossing edge of the bottleneck has both endpoints of degree
        ``2Δ``; the global minimum over edges is attained there, giving
        ``1/(2Δ)``.
        """
        return 1.0 / (2.0 * self.delta)

    def cluster_of(self, node: Hashable) -> int:
        """Return the index ``i`` such that ``node ∈ S_i``, or ``-1`` if none."""
        for index, cluster in enumerate(self.clusters):
            if node in cluster:
                return index
        return -1


def _construction_order(
    part_a: Sequence[Hashable], part_b: Sequence[Hashable], k: int, delta: int
) -> List[Hashable]:
    """Node labels in the order ``S_0, ..., S_k``, ``G₁``, ``G₂``."""
    return [*part_a[:delta], *part_b[:k * delta], *part_a[delta:], *part_b[k * delta:]]


def _attachment_edges(
    cluster_start: int, expander_start: int, expander_size: int, delta: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the edges joining a cluster to ``Δ`` distinct expander nodes.

    Edges are distributed round-robin over the expander so each expander node
    gains at most ``⌈Δ²/|expander|⌉`` extra edges — an additive constant
    whenever ``Δ² = O(|expander|)``, matching the paper's requirement.
    """
    require(
        expander_size >= delta,
        "expander side too small to give each cluster node Δ distinct neighbours "
        f"(need at least {delta}, have {expander_size})",
    )
    sources = cluster_start + np.repeat(np.arange(delta, dtype=np.int64), delta)
    targets = expander_start + np.arange(delta * delta, dtype=np.int64) % expander_size
    return sources, targets


def build_hk_delta(
    part_a: Sequence[Hashable],
    part_b: Sequence[Hashable],
    k: int,
    delta: int,
    rng: RngLike = None,
    nodes: Optional[Sequence[Hashable]] = None,
) -> HkDeltaGraph:
    """Build ``H_{k,Δ}(A, B)`` over the given partition.

    Parameters
    ----------
    part_a, part_b:
        Disjoint node sets forming the partition ``A ∪ B``.  The paper assumes
        ``n/4 ≤ |A| ≤ 3n/4``; the builder only requires each side to be large
        enough to host its clusters plus a 4-regular expander.
    k:
        Number of bipartite hops; the chain has ``k + 1`` clusters.
    delta:
        Cluster size ``Δ`` (the paper takes ``Δ = ⌈1/ρ⌉ = O(√n)``).
    rng:
        Seed / generator used for the two random regular expanders.
    nodes:
        Node order of the snapshot's compact ids (a permutation of
        ``A ∪ B``); defaults to the construction order.  A dynamic network
        passes its fixed node tuple so ids stay stable across rebuilds.

    Returns
    -------
    HkDeltaGraph
        The snapshot plus its structural metadata and analytic metrics.
    """
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
    clusters_b = [tuple(part_b[i * delta:(i + 1) * delta]) for i in range(k)]
    clusters = (cluster_s0, *clusters_b)
    chain_size = (k + 1) * delta
    size_a = len(part_a) - delta
    size_b = len(part_b) - k * delta
    start_a, start_b = chain_size, chain_size + size_a
    attach_a = _attachment_edges(0, start_a, size_a, delta)
    attach_b = _attachment_edges(k * delta, start_b, size_b, delta)

    # Step 1: the chain of complete bipartite graphs S_0 - S_1 - ... - S_k.
    chain_u = np.repeat(np.arange(k * delta, dtype=np.int64), delta)
    chain_v = (chain_u // delta + 1) * delta + np.tile(np.arange(delta, dtype=np.int64), k * delta)
    # Step 2: the two 4-regular expanders, glued to S_0 and S_k respectively.
    expander_a = regular_expander_edges(4, size_a, rng=gen)
    expander_b = regular_expander_edges(4, size_b, rng=gen)
    u_ids = np.concatenate(
        [chain_u, expander_a[0] + start_a, expander_b[0] + start_b, attach_a[0], attach_b[0]]
    )
    v_ids = np.concatenate(
        [chain_v, expander_a[1] + start_a, expander_b[1] + start_b, attach_a[1], attach_b[1]]
    )
    order = np.argsort(u_ids, kind="stable")

    construction = _construction_order(part_a, part_b, k, delta)
    nodes = construction if nodes is None else tuple(nodes)
    index = {label: i for i, label in enumerate(nodes)}
    require(
        len(index) == len(nodes) == len(construction)
        and all(label in index for label in construction),
        "nodes must be a permutation of part_a + part_b",
    )
    position = np.fromiter(
        (index[label] for label in construction), dtype=np.int64, count=len(construction)
    )
    snapshot = CsrSnapshot.from_edge_arrays(
        nodes, position[u_ids[order]], position[v_ids[order]]
    )
    return HkDeltaGraph(
        snapshot=snapshot,
        part_a=tuple(part_a),
        part_b=tuple(part_b),
        clusters=clusters,
        delta=delta,
        k=k,
    )


def minimum_side_sizes(k: int, delta: int) -> Tuple[int, int]:
    """Return the minimum ``(|A|, |B|)`` accepted by :func:`build_hk_delta`."""
    return (delta + _MIN_EXPANDER_SIZE, k * delta + _MIN_EXPANDER_SIZE)


__all__ = ["HkDeltaGraph", "build_hk_delta", "minimum_side_sizes"]
