"""Per-quantum AKG maintenance (Section 3) driving cluster maintenance.

For every quantum the builder:

1. advances the sliding id-set index (Section 3.2);
2. runs the burstiness automaton; newly bursty keywords enter the AKG
   (Section 3.1);
3. computes new-edge candidates **only among keywords bursty in this
   quantum** (the paper's set (1), Section 3.2.1), optionally pre-filtered by
   MinHash sketch collisions (Section 3.2.2), and inserts edges whose exact
   EC clears gamma;
4. lazily refreshes the EC of edges incident to AKG nodes that occur in
   this quantum (the paper's set (2)); edges falling below gamma are deleted;
5. removes stale nodes (absent from the whole window) and lazily drops
   non-clustered nodes whose burst has aged past the grace period.

Every insertion/deletion flows through the
:class:`~repro.core.maintenance.ClusterMaintainer`, which keeps the SCP
cluster decomposition exact at all times — this is what makes discovery
*real-time* rather than snapshot-based.

Sized by the graph (DESIGN.md Section 5): the quantum's vocabulary stays
in the id columns of the extract stage and the slide, and Python work per
quantum is O(AKG nodes + bursty + emptied).  Node-weight moves are read off
the slide's support columns at the nodes' entity ids; the bursty set is
``counts >= theta`` over the quantum's segments, and burstiness advances
only for it; sketches are computed only for the bursty keywords; refresh
starts from the nodes a presence mask over the quantum's ids marks; and
step 5 checks only three delta-sized candidate pools — nodes whose
support just hit zero (stale), keywords whose burst grace period expires
this quantum (scheduled at burst time), and nodes that just lost their last
cluster membership (registry listener).  The window index is the column
engine (DESIGN.md Section 9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.akg.burstiness import BurstinessTracker
from repro.akg.idsets import IdSetIndex, Sketch
from repro.akg.minhash import HASH_SEED
from repro.config import DetectorConfig
from repro.core.changelog import NodeWeightChanged
from repro.core.maintenance import ClusterMaintainer
from repro.stream.window import QuantumColumns

Keyword = str
WeightMove = Tuple[Keyword, int, int]


AKG_SUB_SPANS = ("slide", "sketch", "pairing", "correlate")
"""The timed sub-spans of one quantum's update, in execution order: the
id-set window slide, the bursty keywords' sketches, candidate pairing (the
sketch-value buckets) and the one edge-correlation kernel call."""


@dataclass
class AkgQuantumStats:
    """Work and size counters for one quantum (feeds Section 7.4)."""

    quantum: int = 0
    bursty_keywords: int = 0
    nodes_added: int = 0
    nodes_removed_stale: int = 0
    nodes_removed_lazy: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    edges_refreshed: int = 0
    node_weight_deltas: int = 0
    candidate_pairs: int = 0
    ec_computations: int = 0
    removal_candidates: int = 0
    akg_nodes: int = 0
    akg_edges: int = 0


class AkgBuilder:
    """Maintains the active keyword graph over a sliding window.

    :meth:`process_columns` is the entry: it consumes the extract
    stage's pre-interned :class:`~repro.stream.window.QuantumColumns`
    (which must have been built over ``idsets.ents``/``idsets.acts``),
    slides the window and hands steps 2-5, :meth:`_update_graph`, what
    they read of the quantum: the nodes' weight moves, the bursty
    keywords' counts, the nodes that occur and the emptied keywords.

    Beyond those, the cross-keyword steps — candidate pairing, new-edge
    qualification, incident-edge refresh, the dead-node predicate — read
    the window only through :meth:`_sketches_of`, :meth:`_ec_of`,
    ``idsets.support`` and the candidate pool of
    :meth:`_removal_candidates`.  A from-scratch referee that computes the
    four inputs its own way and overrides just those runs *identical*
    candidate, insertion, refresh and removal sequences, which is what
    lets the differential suites compare the two quantum by quantum
    (DESIGN.md S5).
    """

    def __init__(
        self, config: DetectorConfig, maintainer: ClusterMaintainer
    ) -> None:
        self.config = config
        self.maintainer = maintainer
        self.idsets = IdSetIndex(config.window_quanta, seed=HASH_SEED)
        #: wall seconds the last quantum spent in each sub-span of the
        #: update (surfaced as the ``StageTimings`` fields of the same
        #: names).
        self.sub_spans: Dict[str, float] = dict.fromkeys(AKG_SUB_SPANS, 0.0)
        self.burstiness = BurstinessTracker(config.high_state_threshold)
        # Lazy-removal schedule: quantum -> keywords whose grace period can
        # first be exceeded then.  Armed on every burst; checked when due.
        self._grace_deadlines: Dict[int, Set[Keyword]] = {}
        # Nodes that lost their last cluster membership since the previous
        # step-5 pass (registry listener; hints only, re-verified on use).
        self._newly_unclustered: Set[Keyword] = set()
        maintainer.registry.add_unclustered_listener(self._on_node_unclustered)

    def _on_node_unclustered(self, node: Keyword) -> None:
        self._newly_unclustered.add(node)

    # ----------------------------------------------------------- main loop

    def process_columns(
        self, quantum: int, columns: QuantumColumns
    ) -> AkgQuantumStats:
        """Apply one quantum of pre-interned pair columns to the AKG.

        Strings are looked up only for the graph's nodes and the bursty
        keywords.  The nodes' entity ids are read before the slide, which
        releases the id of a keyword whose last window entry expires: such
        a node's ``(old, 0)`` move is still recorded, and the dead-node
        pass checks those nodes, not every keyword the slide emptied.
        Vanished users release their interner slot inside ``add_columns``.
        """
        idsets = self.idsets
        eid_of = idsets.ents.ids.get
        nodes = sorted(
            (eid, kw)
            for kw in self.maintainer.graph.nodes()
            if (eid := eid_of(kw)) is not None
        )
        started = time.perf_counter()
        delta = idsets.add_columns(quantum, columns)
        self.sub_spans["slide"] = time.perf_counter() - started

        eids = np.array([eid for eid, _ in nodes], dtype=np.int64)
        old = delta.before[eids]
        new = delta.after[eids]
        moved = np.flatnonzero(old != new).tolist()
        moves = [
            (nodes[i][1], o, n)
            for i, o, n in zip(moved, old[moved].tolist(), new[moved].tolist())
        ]
        hot = columns.counts >= self.burstiness.theta
        bursty = dict(
            zip(
                map(idsets.ents.objs.__getitem__, columns.eids[hot].tolist()),
                columns.counts[hot].tolist(),
            )
        )
        seen = np.zeros(len(delta.after), dtype=bool)
        seen[columns.eids] = True
        active = [
            kw for (_, kw), hit in zip(nodes, seen[eids].tolist()) if hit
        ]
        emptied = frozenset(kw for kw, _, n in moves if n == 0)
        return self._update_graph(quantum, moves, bursty, active, emptied)

    def _update_graph(
        self,
        quantum: int,
        moves: Iterable[WeightMove],
        quantum_support: Mapping[Keyword, int],
        active: Iterable[Keyword],
        emptied: FrozenSet[Keyword],
    ) -> AkgQuantumStats:
        """Steps 2-5 of the per-quantum update, given the window slide.

        ``moves`` are ``(node, old, new)`` for every AKG node whose window
        support moved, in the order they are recorded; ``quantum_support``
        maps keywords of the quantum to their distinct-user counts in it
        and holds at least every keyword at or above theta (lower counts
        are ignored); ``active`` are the AKG nodes that occur in the
        quantum; ``emptied`` the keywords (at least the nodes) whose
        support reached zero.
        """
        stats = AkgQuantumStats(quantum=quantum)
        graph = self.maintainer.graph
        self.maintainer.current_quantum = quantum
        # Node-weight deltas feed the incremental ranker.  Only nodes already
        # in the AKG matter: a keyword entering the graph (and a cluster)
        # later this quantum is covered by that cluster's structural event.
        changelog = self.maintainer.changelog
        for kw, old, new in moves:
            changelog.record(NodeWeightChanged(kw, old, new))
            stats.node_weight_deltas += 1
        bursty = self.burstiness.observe_quantum(quantum, quantum_support)
        stats.bursty_keywords = len(bursty)

        # -- nodes: newly bursty keywords enter the AKG -------------------
        grace = self.config.node_grace_quanta
        for kw in bursty:
            if not graph.has_node(kw):
                self.maintainer.add_node(kw)
                stats.nodes_added += 1
            deadline = self.burstiness.first_droppable_quantum(kw, grace)
            self._grace_deadlines.setdefault(deadline, set()).add(kw)

        # -- edges: one EC pass over the new-edge candidates among this
        # quantum's bursty set (paper set (1)), then the edges incident to
        # the nodes seen this quantum (set (2)).  EC reads only the window,
        # which the graph edits below leave alone, so each new edge's EC is
        # also its refreshed value.
        incident = {
            (kw, nbr) if kw <= nbr else (nbr, kw)
            for kw in {*active, *bursty}
            for nbr in graph.neighbors(kw)
        }
        pairs = self._candidate_pairs(sorted(bursty))
        stats.candidate_pairs = len(pairs)
        # An edge between two bursty keywords is incident to both.
        wanted = [pair for pair in pairs if pair not in incident]
        existing = sorted(incident)
        ecs = self._correlate(wanted + existing)
        ec_of = dict(zip(existing, ecs[len(wanted):]))
        gamma = self.config.ec_threshold
        for pair, ec in zip(wanted, ecs):
            if ec >= gamma:
                self.maintainer.add_edge(*pair, ec)
                stats.edges_added += 1
                ec_of[pair] = ec
        stats.ec_computations = len(wanted) + len(ec_of)
        to_remove: List[Tuple[Keyword, Keyword]] = []
        for pair, ec in sorted(ec_of.items()):
            if ec < gamma:
                to_remove.append(pair)
                stats.edges_removed += 1
            else:
                self.maintainer.set_edge_weight(*pair, ec)
                stats.edges_refreshed += 1
        if to_remove:
            self.maintainer.remove_edges(to_remove)

        # -- nodes: stale and lazy removal --------------------------------
        self._remove_dead_nodes(quantum, emptied, stats)

        stats.akg_nodes = graph.num_nodes
        stats.akg_edges = graph.num_edges
        return stats

    # ------------------------------------------------------------ helpers

    def _candidate_pairs(
        self, bursty: List[Keyword]
    ) -> List[Tuple[Keyword, Keyword]]:
        """The quantum's new-edge candidate pairs, in deterministic order.

        ``bursty`` is sorted.  Under the Section 3.2.2 filter the candidates
        are the pairs whose sketches share a hash value: bucketing by value
        finds exactly those without comparing all O(B^2) combinations, and
        the sorted output depends only on the sketches.  Without it every
        pair is a candidate, in ``bursty`` order — the paper's ablation
        baseline.
        """
        started = sketched = time.perf_counter()
        if self.config.use_minhash_filter:
            sketches = self._sketches_of(bursty)
            sketched = time.perf_counter()
            buckets: Dict[int, List[Keyword]] = {}
            for kw in bursty:
                for value in sketches[kw]:
                    buckets.setdefault(value, []).append(kw)
            seen: Set[Tuple[Keyword, Keyword]] = set()
            for members in buckets.values():  # sorted, as ``bursty`` is
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        seen.add((members[i], members[j]))
            pairs = sorted(seen)
        else:
            pairs = [
                (bursty[i], bursty[j])
                for i in range(len(bursty))
                for j in range(i + 1, len(bursty))
            ]
        self.sub_spans["sketch"] = sketched - started
        self.sub_spans["pairing"] = time.perf_counter() - sketched
        return pairs

    def _sketches_of(self, keywords: List[Keyword]) -> Dict[Keyword, Sketch]:
        """The Section 3.2.2 sketches of ``keywords``, read off the window."""
        return self.idsets.sketch_many(
            keywords, self.config.effective_minhash_size
        )

    def _ec_of(self, pairs: List[Tuple[Keyword, Keyword]]) -> List[float]:
        """The exact ECs of ``pairs``: one batched Jaccard kernel call."""
        return self.idsets.jaccard_many(pairs)

    def _correlate(
        self, pairs: List[Tuple[Keyword, Keyword]]
    ) -> List[float]:
        """The exact ECs of ``pairs``, on the ``correlate`` clock."""
        started = time.perf_counter()
        ecs = self._ec_of(pairs)
        self.sub_spans["correlate"] = time.perf_counter() - started
        return ecs

    # ------------------------------------------------------- dead-node pass

    def _removal_candidates(
        self, quantum: int, emptied: FrozenSet[Keyword]
    ) -> Set[Keyword]:
        """The delta-sized pool of nodes that *could* die this quantum.

        Completeness argument (DESIGN.md Section 5): a node is removed when
        (a) its window support is zero — support reaches zero exactly in the
        slide that expires its last entry, so ``emptied`` covers it;
        or (b) it is unclustered and its last burst aged past the grace
        period — which first becomes true either at the burst's scheduled
        deadline (popped from ``_grace_deadlines`` here, due entries
        consumed) or, if it was clustered then, at the later quantum where
        it loses its last membership (the registry listener's
        ``_newly_unclustered`` hints, drained here).  Any node outside
        these pools fails the removal predicate for the same reason it did
        last quantum.
        """
        due: Set[Keyword] = set(emptied)
        for deadline in [q for q in self._grace_deadlines if q <= quantum]:
            due |= self._grace_deadlines.pop(deadline)
        due |= self._newly_unclustered
        self._newly_unclustered = set()
        return due

    def _remove_dead_nodes(
        self, quantum: int, emptied: FrozenSet[Keyword], stats: AkgQuantumStats
    ) -> None:
        """Stale removal plus the lazy-update drop of Section 3.1.

        Stale: the keyword did not occur in any of the last w quanta (its
        window id set is empty).  Lazy: the keyword is in no cluster and its
        last burst is older than the grace period — it can only re-enter the
        AKG by bursting again, exactly the hysteresis the paper describes.

        The predicate is evaluated over the delta-sized candidate pool
        only, in the same sorted order the maintainer applies the removals
        in.
        """
        grace = self.config.node_grace_quanta
        candidates = self._removal_candidates(quantum, emptied)
        graph = self.maintainer.graph
        registry = self.maintainer.registry
        stale: List[Keyword] = []
        lazy: List[Keyword] = []
        for kw in sorted(candidates):
            if not graph.has_node(kw):
                continue
            stats.removal_candidates += 1
            if self.idsets.support(kw) == 0:
                stale.append(kw)
            elif registry.clusters_of_node(kw):
                continue
            elif self.burstiness.aged_out(kw, quantum, grace):
                lazy.append(kw)
        stats.nodes_removed_stale = len(stale)
        stats.nodes_removed_lazy = len(lazy)
        if stale or lazy:
            self.maintainer.remove_nodes(stale + lazy)
            self.burstiness.forget(stale + lazy)

    # ---------------------------------------------------------- persistence

    def to_state(self, window_from: Optional[int] = None) -> dict:
        """Checkpointable snapshot of the AKG stage's window bookkeeping.

        Composes the child components' states (id sets, burstiness
        automaton) with the builder's own lazy-removal schedule.  Sketches
        are read off the id sets when asked for and hashes are a pure
        salted function of the user id, so neither is state.
        ``window_from`` is the id-set window's (:meth:`IdSetIndex.to_state`).
        """
        return {
            "idsets": self.idsets.to_state(window_from),
            "burstiness": self.burstiness.to_state(),
            "grace_deadlines": [
                [deadline, sorted(kws)]
                for deadline, kws in sorted(self._grace_deadlines.items())
            ],
            "newly_unclustered": sorted(self._newly_unclustered),
        }

    def from_state(
        self,
        state: dict,
        window: Iterable[Tuple[int, np.ndarray]] = (),
    ) -> None:
        """Restore the AKG stage in place from :meth:`to_state` output;
        ``window`` is the id-set window's (:meth:`IdSetIndex.from_state`)."""
        self.idsets.from_state(state["idsets"], window)
        self.burstiness.from_state(state["burstiness"])
        self._grace_deadlines = {
            deadline: set(kws) for deadline, kws in state["grace_deadlines"]
        }
        self._newly_unclustered = set(state["newly_unclustered"])

    # ------------------------------------------------------------- access

    def node_weights(self, nodes: Iterable[Keyword]) -> Dict[Keyword, int]:
        """Window support of each node — the W vector of the rank function."""
        return {kw: self.idsets.support(kw) for kw in nodes}


__all__ = ["AKG_SUB_SPANS", "AkgBuilder", "AkgQuantumStats"]
