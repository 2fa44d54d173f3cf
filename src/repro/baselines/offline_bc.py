"""Offline biconnected clustering — the Section 7.3 comparator ([2]).

Bansal et al.'s blog-topic method identifies keyword clusters as biconnected
components.  The paper re-implements it "on exactly the same graph on which
SCP clusters are computed": after every quantum, the biconnected components
of the **entire AKG** are recomputed globally (the graph must be stable
during the computation, which is precisely the limitation the SCP method
removes).  Edges in no biconnected component are optionally reported as
clusters of size 2.

The observer attaches to a running :class:`~repro.api.session.DetectorSession`
so both methods see the identical AKG (same node/edge lifecycle), exactly
like the paper's setup.  Per-quantum wall time of the global recomputation is
recorded for the "SCP computes clusters 46% faster" comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Set, Tuple

from repro.baselines.tracking import SnapshotEventTracker
from repro.core.ranking import cluster_rank
from repro.graph.biconnected import biconnected_components, component_nodes
from repro.graph.dynamic_graph import EdgeKey

if TYPE_CHECKING:  # type-only: the api layer imports this module
    from repro.api.session import DetectorSession


@dataclass
class BcQuantumSnapshot:
    """One quantum's offline clustering and its cost."""

    quantum: int
    clusters: List[Tuple[FrozenSet[str], FrozenSet[EdgeKey]]]
    edge_clusters: List[EdgeKey]
    elapsed_seconds: float

    @property
    def num_with_edges(self) -> int:
        return len(self.clusters) + len(self.edge_clusters)


class OfflineBcObserver:
    """Recomputes global biconnected clusters after each detector quantum."""

    def __init__(
        self,
        detector: "DetectorSession",
        include_edge_clusters: bool = True,
        min_overlap: int = 2,
    ) -> None:
        self.detector = detector
        self.include_edge_clusters = include_edge_clusters
        self.tracker = SnapshotEventTracker(min_overlap=min_overlap)
        self.tracker_with_edges = SnapshotEventTracker(min_overlap=1)
        self.snapshots: List[BcQuantumSnapshot] = []
        self.total_seconds = 0.0

    def observe_quantum(self) -> BcQuantumSnapshot:
        """Run the offline clustering on the detector's current AKG.

        Call once after each ``detector.process_quantum`` — by then the AKG
        reflects the quantum, matching the paper's "after each quantum, the
        BCs are computed on the entire graph in an offline manner".
        """
        graph = self.detector.graph
        quantum = self.detector.current_quantum
        start = time.perf_counter()
        components = biconnected_components(graph)
        clusters: List[Tuple[FrozenSet[str], FrozenSet[EdgeKey]]] = []
        edge_clusters: List[EdgeKey] = []
        for component in components:
            if len(component) == 1:
                edge_clusters.append(next(iter(component)))
            else:
                clusters.append(
                    (
                        frozenset(str(n) for n in component_nodes(component)),
                        frozenset(component),
                    )
                )
        elapsed = time.perf_counter() - start
        self.total_seconds += elapsed
        snapshot = BcQuantumSnapshot(
            quantum=quantum,
            clusters=clusters,
            edge_clusters=edge_clusters,
            elapsed_seconds=elapsed,
        )
        self.snapshots.append(snapshot)
        self._track(snapshot)
        return snapshot

    # ------------------------------------------------------------ tracking

    def _ranked(
        self, nodes: FrozenSet[str], edges: FrozenSet[EdgeKey]
    ) -> Tuple[FrozenSet[str], float, float, int]:
        """Rank an offline cluster with the same Section 6 function."""
        builder = self.detector.builder
        graph = self.detector.graph
        weights = builder.node_weights(nodes)
        correlations = {e: graph.edge_weight(e[0], e[1]) for e in edges}
        rank = cluster_rank(nodes, edges, weights, correlations)
        support = float(sum(weights.values()))
        return (nodes, rank, support, len(edges))

    def _track(self, snapshot: BcQuantumSnapshot) -> None:
        ranked = [self._ranked(n, e) for n, e in snapshot.clusters]
        self.tracker.observe_quantum(snapshot.quantum, ranked)
        if self.include_edge_clusters:
            with_edges = list(ranked)
            for u, v in snapshot.edge_clusters:
                nodes = frozenset((str(u), str(v)))
                with_edges.append(self._ranked(nodes, frozenset(((u, v),))))
            self.tracker_with_edges.observe_quantum(snapshot.quantum, with_edges)

    # ------------------------------------------------------------- access

    def events(self, with_edge_clusters: bool = False):
        """Event records of the offline method (± size-2 edge clusters)."""
        tracker = self.tracker_with_edges if with_edge_clusters else self.tracker
        return tracker.all_events()


__all__ = ["OfflineBcObserver", "BcQuantumSnapshot"]
