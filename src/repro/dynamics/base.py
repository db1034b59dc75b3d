"""The dynamic evolving network interface.

A *dynamic evolving network* is a sequence of simple graphs over a fixed node
set, one exposed per discrete time step ``t = 0, 1, ...`` (Definition 1 of the
paper).  Crucially, the adversary producing snapshot ``G(t)`` may look at the
set of informed nodes at the beginning of step ``t`` — the paper's lower-bound
constructions (Sections 4, 5.1 and 6) all do.  The interface therefore hands
the informed set to :meth:`DynamicNetwork.graph_for_step`.

Simulators drive a network like this::

    network.reset(rng)
    g0 = network.graph_for_step(0, informed)
    ... simulate continuous time in [0, 1) on g0 ...
    g1 = network.graph_for_step(1, informed)
    ... and so on ...

``reset`` must be called before each independent run; ``graph_for_step`` must
be called with strictly increasing ``t`` within a run (adaptive constructions
keep per-run state such as "re-use the previous snapshot").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.graphs.csr import CsrSnapshot
from repro.graphs.metrics import GraphMetrics, absolute_diligence, measure_graph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require


class DynamicNetwork(ABC):
    """Abstract base class for dynamic evolving networks.

    Subclasses must implement :meth:`_build_step`; the base class enforces the
    call protocol (reset before use, non-decreasing time steps) and offers
    optional analytic metrics for the bounds of Theorems 1.1 and 1.3.
    """

    def __init__(self, nodes: Sequence[Hashable]):
        nodes = tuple(nodes)
        require(len(nodes) >= 1, "a dynamic network needs at least one node")
        node_set = frozenset(nodes)
        require(len(node_set) == len(nodes), "node labels must be distinct")
        self._nodes: Tuple[Hashable, ...] = nodes
        self._node_set: FrozenSet[Hashable] = node_set
        self._last_step: Optional[int] = None
        self._was_reset = False
        # One-entry cache for the default nx -> CSR snapshot adapter.
        self._adapter_graph: Optional[nx.Graph] = None
        self._adapter_snapshot: Optional[CsrSnapshot] = None

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        """The fixed node set shared by every snapshot."""
        return self._nodes

    @property
    def node_set(self) -> FrozenSet[Hashable]:
        """The node labels as a cached frozenset (for O(1) membership tests)."""
        return self._node_set

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def default_source(self) -> Hashable:
        """The node the construction intends to start the rumor at.

        Defaults to the first node; lower-bound constructions override this
        (e.g. the pendant node of ``G1``, a leaf of the dynamic star, a node
        of part ``A`` for the Theorem 1.2 family).
        """
        return self._nodes[0]

    # -- run protocol ------------------------------------------------------

    def reset(self, rng: RngLike = None) -> None:
        """Prepare the network for a fresh, independent run."""
        self._last_step = None
        self._was_reset = True
        self._on_reset(ensure_rng(rng))

    def _on_reset(self, rng) -> None:
        """Hook for subclasses to clear per-run state; default does nothing."""

    def _advance_step(self, t: int) -> None:
        """Enforce the snapshot call protocol (reset first, increasing ``t``)."""
        require(self._was_reset, "call reset() before requesting snapshots")
        require(isinstance(t, int) and t >= 0, f"t must be a non-negative integer, got {t!r}")
        if self._last_step is not None:
            require(
                t > self._last_step,
                f"graph_for_step must be called with increasing t "
                f"(got {t} after {self._last_step})",
            )
        self._last_step = t

    def graph_for_step(self, t: int, informed: AbstractSet[Hashable]) -> nx.Graph:
        """Return the snapshot ``G(t)`` governing the interval ``[t, t+1)``.

        ``informed`` is the set of informed nodes at the beginning of step
        ``t``; oblivious networks ignore it, adaptive ones may not.
        """
        self._advance_step(t)
        graph = self._build_step(t, frozenset(informed))
        self._check_snapshot(graph)
        return graph

    def snapshot_for_step(self, t: int, informed: AbstractSet[Hashable]) -> CsrSnapshot:
        """Return snapshot ``G(t)`` as a :class:`CsrSnapshot` (engine fast path).

        Compact ids follow :attr:`nodes` order, so they are stable across all
        snapshots of a run.  The default implementation adapts
        :meth:`_build_step`'s networkx output; constructions with an obvious
        array form override :meth:`_build_snapshot_step` to emit CSR directly
        and never materialise a dict-of-dict graph on the hot path.
        """
        self._advance_step(t)
        snapshot = self._build_snapshot_step(t, frozenset(informed))
        # Engines index per-node state by position in self._nodes, so the
        # snapshot's node order (not just its count) must match exactly.
        require(
            snapshot.nodes is self._nodes or snapshot.nodes == self._nodes,
            "snapshot node order differs from the dynamic network's node tuple",
        )
        return snapshot

    @abstractmethod
    def _build_step(self, t: int, informed: frozenset) -> nx.Graph:
        """Build (or retrieve) the snapshot for step ``t``."""

    def _build_snapshot_step(self, t: int, informed: frozenset) -> CsrSnapshot:
        """Build the CSR snapshot for step ``t`` (default: adapt ``_build_step``).

        The adapter caches the last conversion keyed by graph identity, so
        networks that return the same graph object across steps (static and
        explicit-sequence networks) pay the conversion once, and the engines'
        ``snapshot is previous_snapshot`` rebuild-elision keeps working.
        """
        graph = self._build_step(t, informed)
        if graph is not None and graph is self._adapter_graph:
            return self._adapter_snapshot
        self._check_snapshot(graph)
        snapshot = CsrSnapshot.from_networkx(graph, nodes=self._nodes)
        self._adapter_graph = graph
        self._adapter_snapshot = snapshot
        return snapshot

    def _check_snapshot(self, graph: nx.Graph) -> None:
        require(
            graph.number_of_nodes() == self.n and self._node_set.issuperset(graph.nodes()),
            "snapshot node set differs from the dynamic network's node set",
        )

    # -- analytic metrics ----------------------------------------------------

    def known_step_metrics(self, t: int) -> Optional[GraphMetrics]:
        """Analytic ``(Φ, ρ, ρ̄)`` of snapshot ``t``, if the construction knows them.

        Returns ``None`` when no closed form is available, in which case the
        bounds fall back to measuring the recorded snapshots.
        """
        return None


@dataclass(frozen=True)
class RecordedStep:
    """One snapshot observed during a run, with its measured metrics."""

    t: int
    metrics: GraphMetrics
    informed_count: int


class SnapshotRecorder:
    """Records per-step metrics of the snapshots a simulator actually used.

    The upper bounds ``T(G, c)`` and ``T_abs(G)`` are defined on the realised
    sequence of snapshots; for adaptive constructions that sequence depends on
    the run.  Simulators accept an optional recorder and feed it every
    snapshot, so bound evaluation can be done post hoc on exactly the graphs
    the rumor traversed.
    """

    #: Accepted measurement modes: "full" computes conductance and diligence
    #: (exact or estimated) for snapshots without analytic metrics; "cheap"
    #: only computes connectivity and absolute diligence (sufficient for the
    #: Theorem 1.3 bound and orders of magnitude faster on large snapshots).
    MODES = ("full", "cheap")

    def __init__(
        self,
        mode: str = "full",
        prefer_known: bool = True,
        sampled_cuts: int = 100,
        track_degrees: bool = True,
        rng: RngLike = None,
    ):
        require(mode in self.MODES, f"mode must be one of {self.MODES}, got {mode!r}")
        self._mode = mode
        self._prefer_known = prefer_known
        self._sampled_cuts = sampled_cuts
        self._track_degrees = track_degrees
        self._rng = ensure_rng(rng)
        self.steps: List[RecordedStep] = []
        self.degree_history: Dict[Hashable, List[int]] = {}

    def record(
        self,
        network: DynamicNetwork,
        t: int,
        graph: Union[nx.Graph, CsrSnapshot],
        informed_count: int,
    ) -> None:
        """Record snapshot ``graph`` used at step ``t``.

        Accepts either representation a simulator may be driving: a networkx
        graph or a :class:`CsrSnapshot`.  Both are measured as given:
        :func:`repro.graphs.metrics.measure_graph` and the cheap metrics read
        a snapshot's arrays directly.
        """
        snapshot = graph if isinstance(graph, CsrSnapshot) else None
        metrics: Optional[GraphMetrics] = None
        if self._prefer_known:
            metrics = network.known_step_metrics(t)
        if metrics is None and self._mode == "full":
            metrics = measure_graph(graph, sampled_cuts=self._sampled_cuts, rng=self._rng)
        if metrics is None:
            # Cheap record: only the quantities Theorem 1.3 needs.
            if snapshot is not None:
                connected = snapshot.is_connected()
                n = snapshot.n
            else:
                connected = graph.number_of_edges() > 0 and nx.is_connected(graph)
                n = graph.number_of_nodes()
            metrics = GraphMetrics(
                conductance=float("nan"),
                diligence=float("nan"),
                absolute_diligence=absolute_diligence(graph),
                connected=connected,
                n=n,
                exact=False,
            )
        self.steps.append(RecordedStep(t=t, metrics=metrics, informed_count=informed_count))
        if self._track_degrees:
            if snapshot is not None:
                for node, degree in zip(snapshot.nodes, snapshot.degrees):
                    self.degree_history.setdefault(node, []).append(int(degree))
            else:
                for node in graph.nodes():
                    self.degree_history.setdefault(node, []).append(graph.degree(node))

    def conductance_series(self) -> List[float]:
        """Per-step conductance values in step order."""
        return [step.metrics.conductance for step in self.steps]

    def diligence_series(self) -> List[float]:
        """Per-step diligence values in step order."""
        return [step.metrics.diligence for step in self.steps]

    def absolute_diligence_series(self) -> List[float]:
        """Per-step absolute diligence values in step order."""
        return [step.metrics.absolute_diligence for step in self.steps]

    def connectivity_series(self) -> List[int]:
        """Per-step ``⌈Φ⌉`` indicators (1 when connected, else 0)."""
        return [step.metrics.conductance_indicator() for step in self.steps]


__all__ = ["DynamicNetwork", "RecordedStep", "SnapshotRecorder"]
