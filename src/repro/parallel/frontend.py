"""The merge side of the sharded AKG stage: deterministic, shard-order fusion.

:class:`ShardedAkgFrontend` is the sharded counterpart of
:class:`~repro.akg.builder.AkgBuilder` — same constructor role, same
``process_quantum`` / ``node_weights`` / ``to_state`` / ``from_state``
surface, so the session and the pipeline stages cannot tell them apart.
Per quantum it runs two worker phases around one merge:

1. **scatter** (:meth:`ShardedAkgFrontend.scatter`): partitions the
   quantum's ``keyword -> users`` mapping by shard and fans the slices out
   to the shard workers (:mod:`repro.parallel.pool`), which do the
   keyword-local window slide in parallel.  This phase reads *no* graph
   state, which is what lets the pipelined session overlap it with the
   previous quantum's serial tail.
2. **exchange + merge** (:meth:`ShardedAkgFrontend.complete`): merges the
   returned :class:`~repro.parallel.shard_state.ShardUpdate`\\ s, then
   classifies the quantum's candidate and refresh pairs against the
   (pre-mutation) graph: pairs whose members share a shard are answered by
   that worker as finished exact ECs; only the id sets of keywords in
   *cross-shard* pairs ride the exchange.  With the gathered answers it
   drives the *identical* update sequence the serial builder drives — the
   shared primitives of :mod:`repro.akg.builder` (candidate pairing, EC
   qualification, incident refresh, the dead-node predicate) are called
   with lookups over the gathered data instead of over live indexes.

Because every mutation applied to the authoritative
``DynamicGraph``/``ClusterMaintainer`` is ordered by keyword (never by
shard arrival, set iteration, or worker count), the resulting graph,
clusters, change events, reports and checkpoints are bit-identical for any
``workers``/``shard_count`` — including ``W=1`` against the serial builder
itself (DESIGN.md Section 7).

Merge-side mirrors: the frontend keeps two parent-side derived maps — the
window support per keyword (fed by the merged support deltas) and the burst
automaton (fed by the merged bursty sets).  Both are O(churn) to maintain
and let the rank stage's ``node_weights`` and the dead-node predicate run
without a worker round-trip; both are reconstructed exactly on restore.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.akg.builder import (
    AkgQuantumStats,
    akg_quantum_op,
    akg_small_state,
    candidate_edge_pairs,
    drain_removal_candidates,
    per_pair_ec,
    qualify_new_edges,
    refresh_incident_edges,
    select_dead_nodes,
)
from repro.akg.burstiness import BurstinessTracker
from repro.akg.idsets import WindowEdit
from repro.config import DetectorConfig
from repro.core.changelog import NodeWeightChanged
from repro.core.maintenance import ClusterMaintainer
from repro.errors import GraphError
from repro.parallel.pool import WorkerPool, make_pool
from repro.parallel.router import ShardRouter
from repro.parallel.shard_state import ShardParams, ShardUpdate

Keyword = str
UserId = Hashable


@dataclass
class PendingQuantum:
    """A scattered-but-not-merged quantum (phase one in flight/landed).

    Produced by :meth:`ShardedAkgFrontend.scatter`, consumed exactly once
    by :meth:`ShardedAkgFrontend.complete`.  Holding the phase-one updates
    here (instead of frontend attributes) is what lets the pipelined
    session keep quantum *q+1*'s scatter result parked while quantum *q*'s
    tail still runs.
    """

    quantum: int
    keyword_users: Mapping[Keyword, Set[UserId]]
    updates: List[ShardUpdate] = field(default_factory=list)


_KEYWORD = itemgetter(0)  # sort key of a ``[keyword, value]`` block entry


def _merged_window(windows: Iterable[list]) -> list:
    """Keyword-disjoint shard window queues as one serial-layout queue
    (oldest first, each block sorted by keyword)."""
    blocks: Dict[int, list] = {}
    for window in windows:
        for q, block in window:
            blocks.setdefault(q, []).extend(block)
    return [[q, sorted(blocks[q], key=_KEYWORD)] for q in sorted(blocks)]


def _merged_edit(edits: List[WindowEdit]) -> WindowEdit:
    """Keyword-disjoint shard window edits as the one edit a serial index
    would report: a block exists globally iff some shard holds part of it."""
    dropped: Set[int] = set()
    live: Set[int] = set()
    entries: Optional[list] = None
    for shard_dropped, shard_live, shard_entries in edits:
        dropped.update(shard_dropped)
        live.update(shard_live)
        if shard_entries is not None:
            entries = (entries or []) + shard_entries
    if entries is not None:
        entries.sort(key=_KEYWORD)
    return sorted(dropped), sorted(live), entries


def _shard_windows(window: list, shard_count: int, shard_of) -> List[list]:
    """A serial-layout window queue split into per-shard queues (a block a
    shard holds nothing of is not a block of its window)."""
    shards: List[list] = [[] for _ in range(shard_count)]
    for q, block in window:
        parts: Dict[int, list] = {}
        for entry in block:
            parts.setdefault(shard_of(entry[0]), []).append(entry)
        for shard, mine in parts.items():
            shards[shard].append([q, mine])
    return shards


class ShardedAkgFrontend:
    """Keyword-range-sharded drop-in for the serial ``AkgBuilder``."""

    #: duck-typed parity with ``AkgBuilder`` — the sharded front-end has no
    #: oracle mode (the oracle is the *serial* verification baseline).
    oracle = False

    def __init__(
        self,
        config: DetectorConfig,
        maintainer: ClusterMaintainer,
        worker_backend: Optional[str] = None,
    ) -> None:
        self.config = config
        self.maintainer = maintainer
        self.router = ShardRouter(config.effective_shard_count)
        self.pool: WorkerPool = make_pool(
            config.effective_shard_count,
            config.worker_count,
            ShardParams(
                window_quanta=config.window_quanta,
                minhash_size=config.effective_minhash_size,
                seed=config.seed,
                theta=config.high_state_threshold,
                use_minhash=config.use_minhash_filter,
            ),
            backend=worker_backend,
            endpoints=config.worker_endpoints,
        )
        #: wall seconds the last quantum's phase-two exchange round trip
        #: took (scatter-to-gather over all workers); surfaced as
        #: ``StageTimings.exchange``.
        self.last_exchange_seconds = 0.0
        self.burstiness = BurstinessTracker(config.high_state_threshold)
        # Parent-side support mirror: keyword -> window support, maintained
        # from the merged support deltas (exactly IdSetIndex.support).
        self._support: Dict[Keyword, int] = {}
        self._grace_deadlines: Dict[int, Set[Keyword]] = {}
        self._newly_unclustered: Set[Keyword] = set()
        self._last_quantum: Optional[int] = None
        maintainer.registry.add_unclustered_listener(self._on_node_unclustered)

    def _on_node_unclustered(self, node: Keyword) -> None:
        self._newly_unclustered.add(node)

    # ----------------------------------------------------------- main loop

    def scatter(
        self,
        quantum: int,
        keyword_users: Mapping[Keyword, Set[UserId]],
        slices: Optional[List[Dict[Keyword, Set[UserId]]]] = None,
    ) -> PendingQuantum:
        """Phase one: fan the quantum's slices out to the shard workers.

        ``slices`` may carry the quantum's mapping already partitioned by
        shard (the sharded extract stage routes as it extracts); otherwise
        it is partitioned here.  Reads nothing from the graph or maintainer —
        the pipelined session calls this for quantum *q+1* while quantum
        *q*'s serial tail is still mutating them on another thread.
        """
        if slices is None:
            slices = self.router.partition(keyword_users)
        updates = self.pool.ingest(quantum, slices)
        return PendingQuantum(
            quantum=quantum, keyword_users=keyword_users, updates=updates
        )

    def complete(
        self,
        pending: PendingQuantum,
        on_exchange_done=None,
    ) -> AkgQuantumStats:
        """Phase two + merge: exchange ECs, then apply deterministically.

        ``on_exchange_done`` (if given) fires the moment the last worker
        round trip of this quantum has returned — after it the frontend
        makes no further pool calls for this quantum, so the pipelined
        session uses it as the barrier behind which the *next* quantum's
        scatter may start.

        Every mutation applied to the authoritative graph/maintainer is
        ordered by keyword exactly as in the serial builder; where the EC
        came from (worker-local intra-shard computation vs. a parent-side
        evaluation over gathered id sets) never changes its value or the
        order it is consumed in.
        """
        quantum = pending.quantum
        keyword_users = pending.keyword_users
        stats = AkgQuantumStats(quantum=quantum)
        graph = self.maintainer.graph
        self.maintainer.current_quantum = quantum
        self._last_quantum = quantum

        # -- merge the keyword-disjoint phase-one outputs -----------------
        support_deltas: Dict[Keyword, tuple] = {}
        emptied: Set[Keyword] = set()
        bursty: Set[Keyword] = set()
        sketches: Dict[Keyword, tuple] = {}
        for update in pending.updates:  # shard order; keys disjoint
            support_deltas.update(update.support_deltas)
            emptied |= update.emptied
            bursty |= update.bursty
            sketches.update(update.sketches)

        # -- classify this quantum's EC pairs against the pre-mutation ----
        # graph.  Valid because nothing below mutates edges before the
        # closure runs: node adds don't change ``has_edge``/``neighbors``
        # of *existing* nodes, and the only edges unknown at classification
        # time are the ones qualified this quantum — whose ECs are already
        # in hand from their candidate-pair classification.
        pairs = list(
            candidate_edge_pairs(
                sorted(bursty),
                self.config.use_minhash_filter,
                lambda kw: sketches.get(kw, ()),
            )
        )
        shard_of = self.router.shard_of
        intra: Dict[int, Set[Tuple[Keyword, Keyword]]] = {}
        want: Dict[int, Set[Keyword]] = {}

        def classify(kw1: Keyword, kw2: Keyword) -> None:
            shard1 = shard_of(kw1)
            shard2 = shard_of(kw2)
            if shard1 == shard2:
                intra.setdefault(shard1, set()).add((kw1, kw2))
            else:
                want.setdefault(shard1, set()).add(kw1)
                want.setdefault(shard2, set()).add(kw2)

        for kw1, kw2 in pairs:
            if not graph.has_edge(kw1, kw2):  # mirrors qualify_new_edges
                classify(kw1, kw2)
        for kw in keyword_users:  # the refresh set (paper set (2)),
            if not graph.has_node(kw):  # normalised as in the refresher
                continue
            for nbr in graph.neighbors(kw):
                if kw <= nbr:
                    classify(kw, nbr)
                else:
                    classify(nbr, kw)

        # -- phase two: the EC exchange -----------------------------------
        requests = [
            (
                shard,
                sorted(intra.get(shard, ())),
                sorted(want.get(shard, ())),
            )
            for shard in sorted(intra.keys() | want.keys())
        ]
        exchange_started = time.perf_counter()
        answers = self.pool.exchange(requests)
        self.last_exchange_seconds = time.perf_counter() - exchange_started
        if on_exchange_done is not None:
            on_exchange_done()
        intra_ecs: Dict[Tuple[Keyword, Keyword], float] = {}
        id_sets: Dict[Keyword, FrozenSet[UserId]] = {}
        for _, ecs, answer_sets in answers:  # shard order; keys disjoint
            intra_ecs.update(ecs)
            id_sets.update(answer_sets)

        # Iteration order here is shard-then-slice order: deterministic for
        # a fixed shard count, and changelog event *order* is semantically
        # free (consumers build sets/maps; the property tests compare event
        # multisets) — so no canonical re-sort is spent on the hot path.
        changelog = self.maintainer.changelog
        support = self._support
        for kw, (old, new) in support_deltas.items():
            if new:
                support[kw] = new
            else:
                support.pop(kw, None)
            if graph.has_node(kw):
                changelog.record(NodeWeightChanged(kw, old, new))
                stats.node_weight_deltas += 1

        self.burstiness.observe_bursty(quantum, bursty)
        stats.bursty_keywords = len(bursty)

        # -- nodes: newly bursty keywords enter the AKG -------------------
        grace = self.config.node_grace_quanta
        deadline = quantum + grace + 1  # == first_droppable after a burst
        for kw in sorted(bursty):
            if not graph.has_node(kw):
                self.maintainer.add_node(kw)
                stats.nodes_added += 1
            self._grace_deadlines.setdefault(deadline, set()).add(kw)

        # -- edges: candidates + refresh over the gathered exchange data --
        def jaccard(kw1: Keyword, kw2: Keyword) -> float:
            ec = intra_ecs.get((kw1, kw2))
            if ec is not None:
                return ec
            set1 = id_sets.get(kw1)
            set2 = id_sets.get(kw2)
            if not set1 or not set2:
                return 0.0
            intersection = len(set1 & set2)
            union = len(set1) + len(set2) - intersection
            return intersection / union if union else 0.0

        ec_of = per_pair_ec(jaccard)
        new_edges = qualify_new_edges(
            pairs, graph, self.config.ec_threshold, ec_of, stats
        )
        for kw1, kw2, ec in new_edges:
            self.maintainer.add_edge(kw1, kw2, ec)
            stats.edges_added += 1

        refresh_incident_edges(
            keyword_users.keys(),
            self.maintainer,
            self.config.ec_threshold,
            ec_of,
            stats,
        )

        # -- nodes: stale and lazy removal --------------------------------
        due = drain_removal_candidates(quantum, emptied, self._grace_deadlines)
        due |= self._newly_unclustered
        self._newly_unclustered = set()
        stale, lazy = select_dead_nodes(
            due,
            self.maintainer,
            lambda kw: self._support.get(kw, 0),
            lambda kw: self.burstiness.aged_out(kw, quantum, grace),
            stats,
        )
        stats.nodes_removed_stale = len(stale)
        stats.nodes_removed_lazy = len(lazy)
        if stale or lazy:
            self.maintainer.remove_nodes(stale + lazy)
            self.burstiness.forget(stale + lazy)

        stats.akg_nodes = graph.num_nodes
        stats.akg_edges = graph.num_edges
        return stats

    def process_quantum(
        self,
        quantum: int,
        keyword_users: Mapping[Keyword, Set[UserId]],
        slices: Optional[List[Dict[Keyword, Set[UserId]]]] = None,
    ) -> AkgQuantumStats:
        """One quantum, unpipelined: scatter then complete back to back
        (the ``AkgBuilder``-parity surface)."""
        return self.complete(self.scatter(quantum, keyword_users, slices))

    # ---------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Serial-layout checkpoint state, merged across shards.

        The shards' window queues are keyword-disjoint and each block is
        already sorted, so concatenating same-quantum blocks in shard-range
        order and re-sorting them by keyword reproduces the serial index's
        snapshot byte for byte — a checkpoint written under any
        ``workers`` / ``shard_count`` is indistinguishable from a serial
        one, and restores under any other (DESIGN.md Section 7).
        """
        states = self.pool.export_states()
        return {
            "oracle": False,
            "idsets": {
                "last_quantum": self._last_quantum,
                "window": _merged_window(s[1]["window"] for s in states),
            },
            **self._small_state(),
        }

    def _small_state(self) -> dict:
        return akg_small_state(
            self.burstiness, self._grace_deadlines, self._newly_unclustered
        )

    def quantum_op(self, quantum: int) -> list:
        """Edit op turning the previous quantum's :meth:`to_state` tree
        into the current one: the shards' window edits, merged the way
        :meth:`to_state` merges their windows, from one round trip."""
        shard_edits = self.pool.export_edits(quantum)
        return akg_quantum_op(
            quantum,
            _merged_edit([edit for _, edit in shard_edits]),
            self._small_state(),
        )

    def from_state(self, state: dict) -> None:
        """Restore from a serial-layout snapshot (any origin W/S)."""
        if state["oracle"]:
            raise GraphError(
                "checkpoint was taken with oracle=True; the sharded "
                "front-end has no oracle mode — resume a serial session"
            )
        self._last_quantum = state["idsets"]["last_quantum"]
        shard_count = self.router.shard_count
        shard_of = self.router.shard_of
        users_of: Dict[Keyword, Set[UserId]] = {}
        for _, block in state["idsets"]["window"]:
            for kw, users in block:
                users_of.setdefault(kw, set()).update(users)
        idsets = _shard_windows(
            state["idsets"]["window"], shard_count, shard_of
        )
        self.pool.load_states(
            [
                (
                    shard,
                    {
                        "last_quantum": self._last_quantum,
                        "window": idsets[shard],
                    },
                )
                for shard in range(shard_count)
            ]
        )
        self._support = {kw: len(users) for kw, users in users_of.items()}
        self.burstiness.from_state(state["burstiness"])
        self._grace_deadlines = {
            deadline: set(kws) for deadline, kws in state["grace_deadlines"]
        }
        self._newly_unclustered = set(state["newly_unclustered"])

    # ------------------------------------------------------------- access

    def node_weights(self, nodes: Iterable[Keyword]) -> Dict[Keyword, int]:
        """Window support per node, served from the merge-side mirror."""
        return {kw: self._support.get(kw, 0) for kw in nodes}

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self.pool.close()


__all__ = ["ShardedAkgFrontend"]
