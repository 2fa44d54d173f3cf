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

``oracle=True`` disables the cache entirely and recomputes every cluster
from scratch on every call.  The oracle is the verification baseline: the
property tests assert that, after arbitrary mutation sequences, incremental
and oracle ranks are identical (see DESIGN.md Section 3), and the
``bench_incremental_ranking`` benchmark measures the speedup between the two
modes across churn rates.  Both construct it directly (as does
``tests/oracles.py`` for a whole session); no session setting selects it.
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

    The input snapshots (``weights``, ``correlations``) are what
    :meth:`IncrementalRanker.verify_against_oracle` diffs to pinpoint *which*
    rank input went stale when the propagation contract is violated.
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
    oracle:
        When True, ignore the cache and recompute everything on every call —
        the from-scratch baseline used for verification and benchmarking.
    """

    def __init__(
        self,
        registry: ClusterRegistry,
        graph: DynamicGraph,
        node_weight_fn: NodeWeightFn,
        oracle: bool = False,
    ) -> None:
        self.registry = registry
        self.graph = graph
        self.node_weight_fn = node_weight_fn
        self.oracle = oracle
        self.stats = RankStats()
        self._cache: Dict[int, RankEntry] = {}
        # Clusters alive before this ranker existed produced their change
        # events in the past; seed them as dirty so the first rank_all
        # covers them without a registry sweep ever happening again.
        self._dirty: Set[int] = {cluster.cluster_id for cluster in registry}
        # Per-quantum result-list edit script for the report stage: which
        # entries the last apply()/rank_all() round recomputed and which it
        # dropped.  In oracle mode the "delta" is the full ranking, mirroring
        # the oracle's O(live) cost.
        self.last_recomputed: Set[int] = set()
        self.last_removed: Set[int] = set()
        self._removed_pending: Set[int] = set()
        self._oracle_results: Dict[int, Tuple[Cluster, float, float]] = {}

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

        Incremental mode edits the maintained result list: each accumulated
        dirty id is recomputed (or leaves the list when it has died), and
        every untouched entry is returned as-is — no per-cluster work, no
        registry sweep.  Oracle mode recomputes everything.  Either way the
        returned ranking reflects the current registry exactly (DESIGN.md
        Section 3) and is ordered by cluster id, so the two modes emit
        identically ordered output whatever the insertion history.
        """
        stats = self.stats
        stats.reset()
        if self.oracle:
            results: Dict[int, Tuple[Cluster, float, float]] = {}
            for cluster in self.registry:
                entry = self._compute(cluster)
                results[cluster.cluster_id] = (cluster, entry.rank, entry.support)
            stats.ranked = stats.recomputed = len(results)
            out = [results[cid] for cid in sorted(results)]
            # The oracle's "delta" is the full ranking: everything was
            # recomputed, and whatever ranked last call but not now is gone.
            self.last_recomputed = set(results)
            self.last_removed = (
                set(self._oracle_results) - set(results)
            ) | self._removed_pending
            self._removed_pending = set()
            self._oracle_results = results
            return out

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
        if self.oracle:
            return self._oracle_results[cluster_id]
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
        self._oracle_results = {}
        out: List[Tuple[Cluster, float, float]] = []
        for cluster in self.registry:
            entry = self._compute(cluster)
            triple = (cluster, entry.rank, entry.support)
            if self.oracle:
                self._oracle_results[cluster.cluster_id] = triple
            else:
                self._cache[cluster.cluster_id] = entry
            out.append(triple)
        out.sort(key=lambda item: item[0].cluster_id)
        return out

    # ------------------------------------------------------------ validation

    def verify_against_oracle(self) -> None:
        """Assert every cached entry equals a from-scratch recomputation.

        Test helper mirroring
        :meth:`~repro.core.maintenance.ClusterMaintainer.check_against_oracle`:
        raises AssertionError on any divergence between the cache and the
        ground-truth rank of the current state.  Also asserts the maintained
        result list covers exactly the live clusters — the no-sweep
        contract.
        """
        live = {c.cluster_id for c in self.registry}
        cached = set(self._cache)
        unexpected = cached - live - self._dirty
        missing = live - cached - self._dirty
        assert not unexpected and not missing, (
            f"maintained result list diverged from the registry:\n"
            f"  entries for dead clusters:       {sorted(unexpected)}\n"
            f"  live clusters missing an entry:  {sorted(missing)}"
        )
        for cluster in self.registry:
            entry = self._cache.get(cluster.cluster_id)
            if entry is None:
                continue  # not ranked yet; nothing stale to check
            if cluster.cluster_id in self._dirty:
                continue  # known-dirty, will be recomputed on next rank_all
            fresh = self._compute(cluster)
            assert entry.cluster is cluster, (
                f"stale cluster object cached for {cluster.cluster_id} "
                f"(the registry replaced it without a change event)"
            )
            assert (
                entry.weights == fresh.weights
                and entry.correlations == fresh.correlations
            ), (
                f"stale rank inputs cached for cluster {cluster.cluster_id} "
                f"(a weight or correlation changed without a change event):\n"
                f"  cached weights:      {entry.weights}\n"
                f"  fresh weights:       {fresh.weights}\n"
                f"  cached correlations: {entry.correlations}\n"
                f"  fresh correlations:  {fresh.correlations}"
            )
            assert entry.rank == fresh.rank and entry.support == fresh.support, (
                f"stale rank cache for cluster {cluster.cluster_id}: "
                f"cached ({entry.rank}, {entry.support}) != "
                f"fresh ({fresh.rank}, {fresh.support})"
            )


__all__ = ["IncrementalRanker", "RankEntry", "RankStats"]
