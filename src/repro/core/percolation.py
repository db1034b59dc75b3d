"""Exact first-passage (percolation) solver for batched static races.

The asynchronous push–pull race of Definition 1 is a superposition of
independent exponential clocks, one per *directed* adjacency entry: while
``u`` is informed-and-up and ``v`` is uninformed-and-up, the contact process
along ``u → v`` is Poisson with constant rate ``delivery·(a/d_u + b/d_v)``
(push thinned by the uniform neighbour mark, pull likewise; drop faults thin
the process again).  By memorylessness the first effective contact after
``u`` becomes informed is ``T(u) + Exp(rate)``, independent across entries —
so the informing times are exactly the shortest-path distances from the
source under i.i.d. exponential edge delays.  This is the classical
Richardson / first-passage-percolation equivalence for SI-type spreads, and
it is an *equality in distribution of the whole informing-time vector*, not
an approximation.

Scheduled crashes stay exact: a transmission along ``u → v`` is effective
only while both endpoints are up, so the candidate ``T(u) + X`` is valid iff
it lands strictly before ``min(θ_u, θ_v)`` (the endpoint crash times) — a
static per-entry *clip*.  A node informed before its crash time stays
informed; every finite time the solver returns therefore already respects
``T(v) < θ_v``.  The time horizon censors identically: candidates at or
beyond ``limit`` are discarded, which is exact because delays are
non-negative (no path through a censored node can re-enter the horizon).

The solver itself is a frontier label-correcting Bellman–Ford over the flat
``(trial, node)`` pair space, with a delta-stepping-style twist: each round
expands only the earliest ~quarter of the pending pairs (a ``np.partition``
threshold), which approximates Dijkstra's settled order closely enough to cut
edge re-expansion from ~4.7 to ~1.4 touches per directed entry on G(10⁴, p)
while keeping every scatter an O(frontier)-sized vectorised batch
(``np.minimum.at``).  Expansion order cannot change the fixed point — every
finite time is the same left-associated sum of delays along the same optimal
path — so the result is bit-identical for any ordering (and to the heap
Dijkstra reference below, which the test-suite checks exactly).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.graphs.csr import CsrSnapshot

#: Fraction of pending (trial, node) pairs expanded per round — the earliest
#: ones by tentative time.  Smaller fractions mean fewer wasted re-expansions
#: but more rounds of python-level overhead; ~0.25 is near the throughput
#: plateau on G(n, p)-class graphs.
EXPAND_FRACTION = 0.25

#: Below this many pending pairs the partition threshold is skipped and the
#: whole frontier expands at once (ordering overhead beats the savings).
ORDERED_EXPANSION_MIN = 64


def entry_transmission_rates(
    snapshot: CsrSnapshot, a: float, b: float, delivery: float
) -> np.ndarray:
    """Per-entry transmission rate for ``owner → neighbour`` delivery.

    Entry ``e`` of the CSR arrays (owner ``v = row_owner[e]``, neighbour
    ``u = indices[e]``) carries the rumor *from the owner to the neighbour*
    at rate ``delivery·(a/d_v + b/d_u)`` — the owner's push clock plus the
    neighbour's pull clock, both restricted to this edge.
    """
    inv = snapshot.inverse_degrees
    return delivery * (a * inv[snapshot.row_owner] + b * inv[snapshot.indices])


def first_passage_times(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    delays: np.ndarray,
    source_id: int,
    clip: Optional[np.ndarray] = None,
    limit: float = np.inf,
) -> np.ndarray:
    """Informing times for every trial: ``(T, n)`` shortest-path distances.

    ``delays`` is a ``(T, m)`` matrix of per-trial exponential delays indexed
    by CSR entry in *outgoing* orientation (entry ``e`` delays the
    ``row_owner[e] → indices[e]`` transmission).  ``clip`` optionally bounds
    each entry: a candidate ``T(owner) + delays[t, e]`` only counts when it
    is strictly below ``clip[e]`` (crash censoring).  Times at or beyond
    ``limit`` are censored to ``inf``.

    Returns the dense time matrix; uninformed (never reached, crashed first,
    censored) entries are ``inf``.
    """
    trials, m = delays.shape
    n = indptr.shape[0] - 1
    times = np.full(trials * n, np.inf)
    sources = np.arange(trials) * n + source_id
    times[sources] = 0.0
    if limit <= 0.0:
        # Degenerate horizon: nothing besides the source can be informed
        # (matches the event engines, which only record events before limit).
        return times.reshape(trials, n)

    delays_flat = delays.reshape(-1)
    pending = np.zeros(trials * n, dtype=bool)
    pending[sources] = True
    while True:
        flat = np.nonzero(pending)[0]
        if flat.size == 0:
            break
        if flat.size > ORDERED_EXPANSION_MIN:
            # Expand the earliest pairs first: close enough to Dijkstra's
            # settled order that later improvement (and re-expansion) of an
            # already-expanded pair becomes rare.
            tentative = times[flat]
            k = max(1, int(flat.size * EXPAND_FRACTION))
            threshold = np.partition(tentative, k - 1)[k - 1]
            flat = flat[tentative <= threshold]
        pending[flat] = False
        trial = flat // n
        node = flat % n
        counts = degrees[node]
        total = int(counts.sum())
        if total == 0:
            continue
        trial_rep = np.repeat(trial, counts)
        # Row-gather machinery: entry e of pair (t, v) sits at
        # delays_flat[t·m + indptr[v] + e]; one repeat builds the bases.
        offsets = np.cumsum(counts) - counts
        position = np.arange(total) + np.repeat(
            trial * m + indptr[node] - offsets, counts
        )
        entry = position - trial_rep * m
        candidate = np.repeat(times[flat], counts) + delays_flat[position]
        if clip is not None:
            candidate = np.where(candidate < clip[entry], candidate, np.inf)
        target = trial_rep * n + indices[entry]
        before = times[target]
        keep = candidate < before
        if limit != np.inf:
            keep &= candidate < limit
        target = target[keep]
        candidate = candidate[keep]
        if target.size == 0:
            continue
        np.minimum.at(times, target, candidate)
        # A target pair re-enters the pending set when anything lowered it
        # this round (its own slot or a sibling candidate's).
        pending[target[times[target] < before[keep]]] = True
    return times.reshape(trials, n)


def first_passage_times_reference(
    indptr: np.ndarray,
    indices: np.ndarray,
    delays_row: np.ndarray,
    source_id: int,
    clip: Optional[np.ndarray] = None,
    limit: float = np.inf,
) -> np.ndarray:
    """Single-trial heap Dijkstra with the same clip/limit semantics.

    Bit-identical to one row of :func:`first_passage_times`: every finite
    time either solver produces is the same left-associated sum of delays
    along the same optimal path, so the comparison in the test-suite is exact
    float equality, not approximate.
    """
    n = indptr.shape[0] - 1
    times = np.full(n, np.inf)
    times[source_id] = 0.0
    heap = [(0.0, source_id)]
    while heap:
        time, node = heapq.heappop(heap)
        if time > times[node]:
            continue  # stale entry
        for e in range(indptr[node], indptr[node + 1]):
            candidate = time + delays_row[e]
            if clip is not None and not (candidate < clip[e]):
                continue
            if not (candidate < limit):
                continue
            neighbour = indices[e]
            if candidate < times[neighbour]:
                times[neighbour] = candidate
                heapq.heappush(heap, (candidate, int(neighbour)))
    return times


__all__ = [
    "entry_transmission_rates",
    "first_passage_times",
    "first_passage_times_reference",
]
