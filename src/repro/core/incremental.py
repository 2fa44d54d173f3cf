"""Incremental cluster ranking driven by the typed change log.

The rank of a cluster (Section 6) is a pure function of its node set, edge
set, node weights and edge correlations.  None of those can change without
the maintenance layer recording a :class:`~repro.core.changelog.ChangeEvent`,
so a cached rank stays exact until its cluster is marked dirty by a drained
:class:`~repro.core.changelog.ChangeBatch`.  :class:`IncrementalRanker`
exploits this: the ranked-result list is maintained *in place* — per quantum
it touches only the dirtied clusters, turning the rank stage from
O(live clusters x cluster size^2) into O(dirty clusters x cluster size^2).
There is no per-quantum cache sweep over the live clusters at all: a cluster
that appears, changes size, or dies necessarily produced a structural event
(DESIGN.md Section 2), so the dirty set is the complete edit script for the
result list.

Its from-scratch referee, which recomputes every cluster on every call, is a
test-side subclass (``tests/oracles.py``); the property tests assert that,
after arbitrary mutation sequences, the two rank identically (DESIGN.md
Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.changelog import ChangeBatch
from repro.core.clusters import Cluster, ClusterRegistry
from repro.core.ranking import rank_and_support
from repro.graph.dynamic_graph import DynamicGraph, EdgeKey

Node = Hashable

NodeWeightFn = Callable[[Iterable[Node]], Mapping[Node, float]]
"""Resolves a node set to its current window-support weights (the engine
passes :meth:`repro.akg.builder.AkgBuilder.node_weights`)."""


@dataclass
class RankEntry:
    """Cached per-cluster ranking state, valid until the cluster is dirtied.

    The input snapshots (``weights``, ``correlations``) are what the tests'
    cache verifier diffs to pinpoint *which* rank input went stale when the
    propagation contract is violated.
    ``cluster`` is the registry object the entry was computed from; it is
    refreshed on every recompute because splits replace the surviving id's
    object.
    """

    rank: float
    support: float
    weights: Dict[Node, float]
    correlations: Dict[EdgeKey, float]
    cluster: Optional[Cluster] = field(default=None, repr=False)


@dataclass
class RankStats:
    """Work counters for one :meth:`IncrementalRanker.rank_all` call.

    ``dirty_processed`` counts the clusters the call actually visited; the
    dirty-only regression tests assert it scales with churn while
    ``ranked`` (derived from the maintained result list, not from a sweep)
    does not.
    """

    ranked: int = 0
    recomputed: int = 0
    cache_hits: int = 0
    evicted: int = 0
    dirty_processed: int = 0

    def reset(self) -> None:
        self.ranked = self.recomputed = 0
        self.cache_hits = self.evicted = self.dirty_processed = 0


class IncrementalRanker:
    """Maintains the ranked-result list in place, touching only dirty clusters.

    Parameters
    ----------
    registry, graph:
        The live decomposition and its substrate (shared with the
        maintainer, read-only here).
    node_weight_fn:
        Callable mapping a node iterable to current node weights.
    """

    def __init__(
        self,
        registry: ClusterRegistry,
        graph: DynamicGraph,
        node_weight_fn: NodeWeightFn,
    ) -> None:
        self.registry = registry
        self.graph = graph
        self.node_weight_fn = node_weight_fn
        self.stats = RankStats()
        self._cache: Dict[int, RankEntry] = {}
        # Clusters alive before this ranker existed produced their change
        # events in the past; seed them as dirty so the first rank_all
        # covers them without a registry sweep ever happening again.
        self._dirty: Set[int] = {cluster.cluster_id for cluster in registry}
        # Per-quantum result-list edit script for the report stage: which
        # entries the last apply()/rank_all() round recomputed and which it
        # dropped.
        self.last_recomputed: Set[int] = set()
        self.last_removed: Set[int] = set()
        self._removed_pending: Set[int] = set()

    # ----------------------------------------------------------- propagation

    def apply(self, batch: ChangeBatch) -> Set[int]:
        """Absorb one quantum's change batch; returns the dirtied ids.

        Retired clusters (dissolved or absorbed by a merge) are evicted from
        the cache; every other referenced cluster is marked dirty and will be
        recomputed by the next :meth:`rank_all`.  Dirt accumulates across
        calls until consumed, so draining multiple batches before ranking is
        safe.
        """
        for cid in batch.retired_ids():
            if self._cache.pop(cid, None) is not None:
                self.stats.evicted += 1
                self._removed_pending.add(cid)
            self._dirty.discard(cid)
        dirty = batch.dirty_clusters(self.registry)
        self._dirty |= dirty
        return dirty

    # ---------------------------------------------------------------- ranking

    def _compute(self, cluster: Cluster) -> RankEntry:
        weights = dict(self.node_weight_fn(cluster.nodes))
        edge_weight = self.graph.edge_weight
        correlations = {e: edge_weight(e[0], e[1]) for e in cluster.edges}
        rank, support = rank_and_support(
            cluster.nodes, cluster.edges, weights, correlations
        )
        return RankEntry(rank, support, weights, correlations, cluster)

    def rank_all(self) -> List[Tuple[Cluster, float, float]]:
        """``(cluster, rank, support)`` for every live cluster.

        Edits the maintained result list: each accumulated dirty id is
        recomputed (or leaves the list when it has died), and every
        untouched entry is returned as-is — no per-cluster work, no registry
        sweep.  The returned ranking reflects the current registry exactly
        (DESIGN.md Section 3) and is ordered by cluster id, so it does not
        depend on the insertion history.
        """
        stats = self.stats
        stats.reset()
        cache = self._cache
        registry = self.registry
        recomputed: Set[int] = set()
        for cid in self._dirty:
            stats.dirty_processed += 1
            if cid not in registry:
                # Normally retirement events already evicted it; a dirty id
                # can still die later in the same batch (merge after update).
                if cache.pop(cid, None) is not None:
                    stats.evicted += 1
                    self._removed_pending.add(cid)
                continue
            cache[cid] = self._compute(registry.get(cid))
            recomputed.add(cid)
            stats.recomputed += 1
        self._dirty.clear()
        self.last_recomputed = recomputed
        self.last_removed = self._removed_pending
        self._removed_pending = set()
        stats.ranked = len(cache)
        stats.cache_hits = stats.ranked - stats.recomputed
        return [
            (entry.cluster, entry.rank, entry.support)
            for _, entry in sorted(cache.items())
        ]

    def result(self, cluster_id: int) -> Tuple[Cluster, float, float]:
        """The last-computed ``(cluster, rank, support)`` for one id.

        Serves the report stage's delta updates without re-materialising the
        full result list; valid for any id in :attr:`last_recomputed`.
        """
        entry = self._cache[cluster_id]
        assert entry.cluster is not None
        return entry.cluster, entry.rank, entry.support

    def rebuild_cache(self) -> List[Tuple[Cluster, float, float]]:
        """Recompute every live cluster from current state.

        The checkpoint-restore path: ranks are pure functions of the graph
        and window state (DESIGN.md Section 2), so recomputing them after
        restoring that state reproduces the pre-snapshot cache bit for bit —
        no rank floats ever need to be serialized.  Returns the full ranking
        in cluster-id order (used to re-seed the report index).
        """
        self._cache.clear()
        self._dirty.clear()
        self._removed_pending.clear()
        self.last_recomputed = set()
        self.last_removed = set()
        out: List[Tuple[Cluster, float, float]] = []
        for cluster in self.registry:
            entry = self._compute(cluster)
            self._cache[cluster.cluster_id] = entry
            out.append((cluster, entry.rank, entry.support))
        out.sort(key=lambda item: item[0].cluster_id)
        return out


__all__ = ["IncrementalRanker", "RankEntry", "RankStats"]
