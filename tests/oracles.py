"""The from-scratch referees of the incremental paths, and a detector
session re-wired onto them.

``src/`` holds the one production path of each stage; its referees live
here, as the paper's definitions computed the slow, obviously-correct way
(Sections 3 and 5, Theorem 3):

* :class:`MinHasher`, :class:`OracleIdSetIndex` and
  :class:`OracleSketchIndex` recompute window state — id sets, supports,
  the slide's full diff (:class:`ScratchSlide`), bottom-p sketches — from
  the raw retained quanta on every slide, sweeping the full vocabulary;
* :class:`ReferenceAkgBuilder` is the production
  :class:`~repro.akg.builder.AkgBuilder` on those components, with a
  whole-graph dead-node sweep: it derives the graph update's inputs from
  the full diff and overrides the window reads and the removal pool, and
  nothing else, so both run identical candidate, insertion, refresh and
  removal sequences;
* :class:`ScratchRanker` re-ranks every live cluster on every call, and
  :func:`verify_ranker` checks a ranker's cache against a recomputation;
* :class:`ScratchEventTracker` records event histories by diffing a full
  ranking by value every quantum, where the session's tracker reads the
  ranker's edit script.

:func:`oracle_session` assembles a session on them from public parts: an
ordinary session whose engine components are swapped, before the first
quantum, for a fresh :class:`~repro.core.maintenance.ClusterMaintainer`,
the referee builder and/or ranker, driven by a
:class:`~repro.pipeline.stages.Pipeline` of the public stage classes.
Everything else — batching, filters, tracker, notifications — is the
session's own.

The product extracts a quantum in one form, interned pair columns; the
from-scratch AKG takes the ``entity -> actors`` mapping instead, so its
builder sits behind :class:`MappingFeed`, which decodes the columns back
into that mapping for the unchanged :class:`AkgUpdateStage`.

A referee session is for comparing reports, notes and histories; the
from-scratch builder keeps no checkpointable state, so it is never
snapshotted or delta-logged.

:class:`NotifiedReferee` is the referee of a session's notifications: the
stored-state diff of every report against a kept copy of what was last
notified, which the session derives from the report index's delta instead.
"""

import heapq
from dataclasses import dataclass
from hashlib import blake2b

from helpers import entity_actors
from repro.akg.builder import AkgBuilder
from repro.akg.minhash import HASH_SEED
from repro.api import EventKind, SessionEvent, open_session
from repro.core.changelog import ChangeBatch
from repro.core.events import EventTracker
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer
from repro.errors import ConfigError, StreamError
from repro.interning import Interner
from repro.pipeline.stages import (
    AkgUpdateStage,
    ColumnExtractStage,
    MaintainStage,
    Pipeline,
    PropagateStage,
    RankStage,
    ReportStage,
)


class MinHasher:
    """Salted, memoised 64-bit user hashing + sketch construction: the
    object-level form of Section 3.2.2's sketch, bit-identical to
    :func:`repro.akg.minhash.user_hash_fn` (same digest, same salt).

    Its per-user memo is *bounded*: the reference builder evicts users
    reported by ``ScratchSlide.vanished_users`` — users whose last window
    occurrence just expired — so it tracks the live window population
    instead of every user id ever seen.
    """

    __slots__ = ("p", "_salt", "_cache")

    def __init__(self, p, seed=0):
        if p < 1:
            raise ConfigError(f"sketch size p must be >= 1, got {p}")
        self.p = p
        self._salt = seed.to_bytes(8, "little", signed=False)
        self._cache = {}

    def hash_user(self, user):
        """Stable 64-bit hash of a user id (uniform over (0, 2^64))."""
        cached = self._cache.get(user)
        if cached is not None:
            return cached
        digest = blake2b(
            repr(user).encode("utf-8"), digest_size=8, salt=self._salt
        ).digest()
        value = int.from_bytes(digest, "big")
        self._cache[user] = value
        return value

    def evict(self, users):
        """Drop memoised hashes for users that left the window entirely;
        returns the number of entries removed.  A user who returns is
        simply re-memoised: hashes are a pure salted function of the id."""
        removed = 0
        cache = self._cache
        for user in users:
            if cache.pop(user, None) is not None:
                removed += 1
        return removed

    def clear(self):
        """Drop the whole memo."""
        self._cache.clear()

    @property
    def cache_size(self):
        """Current number of memoised user hashes."""
        return len(self._cache)

    def sketch(self, users):
        """The p smallest *distinct* user hashes, ascending (may be < p).

        Hash values are deduplicated before the bottom-p cut so that a
        colliding pair of users cannot occupy two sketch slots — the sketch
        is a function of the *set of hash values*, which is also how the
        column kernel computes it (equal hashes share one rank).
        """
        hashes = map(self.hash_user, users)
        if self.p == 1:
            smallest = min(hashes, default=None)
            return () if smallest is None else (smallest,)
        return tuple(heapq.nsmallest(self.p, set(hashes)))


@dataclass(frozen=True)
class ScratchSlide:
    """One slide of :class:`OracleIdSetIndex`, diffed in full.

    ``support_deltas`` maps every keyword whose window support moved to
    ``(old, new)``; ``emptied`` are those whose support reached zero;
    ``vanished_users`` the users that left every id set.
    """

    quantum: int
    support_deltas: dict
    emptied: frozenset
    vanished_users: frozenset


class OracleIdSetIndex:
    """Window id sets recomputed from the raw quantum log on every slide.

    Interface-compatible with the test-side mapping entry of
    :class:`repro.akg.idsets.IdSetIndex` (``helpers.MappingIdSetIndex``);
    every :meth:`add_quantum` rebuilds the per-keyword user sets from
    scratch over the retained quanta and returns a :class:`ScratchSlide`,
    diffing the full before/after support maps — O(window x vocabulary)
    work, which is the point: no incremental state exists to go stale.
    """

    def __init__(self, window_quanta):
        if window_quanta < 1:
            raise StreamError(f"window_quanta must be >= 1, got {window_quanta}")
        self.window_quanta = window_quanta
        self._window = []
        self._sets = {}
        self._last_quantum = None

    def add_quantum(self, quantum, keyword_users):
        if self._last_quantum is not None and quantum <= self._last_quantum:
            raise StreamError(
                f"quanta must be added in increasing order: got {quantum} "
                f"after {self._last_quantum}"
            )
        self._last_quantum = quantum
        old_support = {kw: len(users) for kw, users in self._sets.items()}
        old_users = set()
        for users in self._sets.values():
            old_users |= users
        frozen = {
            kw: frozenset(users) for kw, users in keyword_users.items() if users
        }
        cutoff = quantum - self.window_quanta
        self._window.append((quantum, frozen))
        self._window = [
            (q, content) for q, content in self._window if q > cutoff
        ]
        sets = {}
        for _, content in self._window:
            for kw, users in content.items():
                sets.setdefault(kw, set()).update(users)
        self._sets = sets
        support_deltas = {
            kw: (old_support.get(kw, 0), len(sets.get(kw, ())))
            for kw in set(old_support) | set(sets)
            if old_support.get(kw, 0) != len(sets.get(kw, ()))
        }
        emptied = frozenset(
            kw for kw, (_, new) in support_deltas.items() if new == 0
        )
        new_users = set()
        for users in sets.values():
            new_users |= users
        return ScratchSlide(
            quantum=quantum,
            support_deltas=support_deltas,
            emptied=emptied,
            vanished_users=frozenset(old_users - new_users),
        )

    def window_users(self):
        """Every user present in at least one window id set."""
        out = set()
        for users in self._sets.values():
            out |= users
        return out

    def __contains__(self, keyword):
        return keyword in self._sets

    def keywords(self):
        return self._sets.keys()

    @property
    def num_keywords(self):
        return len(self._sets)

    def users(self, keyword):
        return set(self._sets.get(keyword, ()))

    def support(self, keyword):
        return len(self._sets.get(keyword, ()))

    def jaccard(self, kw1, kw2):
        s1 = self._sets.get(kw1)
        s2 = self._sets.get(kw2)
        if not s1 or not s2:
            return 0.0
        intersection = len(s1 & s2)
        union = len(s1) + len(s2) - intersection
        return intersection / union if union else 0.0


class OracleSketchIndex:
    """Sketches recomputed from the full window id set on every query.

    The referee of :meth:`repro.akg.idsets.IdSetIndex.sketch_many`, and
    stateless: it reads the id-set index it is given and hashes the
    complete id set per query.  Both compute the paper's definition —
    the bottom-p distinct hash values of the window id set — so the two
    must agree value for value.
    """

    def __init__(self, hasher, idsets):
        self.hasher = hasher
        self._idsets = idsets

    def sketch(self, keyword):
        return self.hasher.sketch(self._idsets.users(keyword))


class ReferenceAkgBuilder(AkgBuilder):
    """The AKG builder on from-scratch window state.

    Id sets are recomputed from raw retained quanta, sketches hashed from
    whole id sets, and every graph node is a removal candidate each
    quantum.  The graph update's inputs come from the full slide diff and
    the whole quantum's counts.  Steps 2-5 are the production builder's
    own, so the two run identical update sequences.  Fed by
    :meth:`process_quantum` (the mapping form); it keeps no checkpointable
    state.
    """

    def __init__(self, config, maintainer):
        super().__init__(config, maintainer)
        self.idsets = OracleIdSetIndex(config.window_quanta)
        self.minhasher = MinHasher(config.effective_minhash_size, seed=HASH_SEED)
        self.sketches = OracleSketchIndex(self.minhasher, self.idsets)

    def process_quantum(self, quantum, keyword_users):
        slide = self.idsets.add_quantum(quantum, keyword_users)
        # Users whose last window occurrence just expired leave the memo.
        if slide.vanished_users:
            self.minhasher.evict(slide.vanished_users)
        graph = self.maintainer.graph
        moves = [
            (kw, old, new)
            for kw, (old, new) in sorted(slide.support_deltas.items())
            if graph.has_node(kw)
        ]
        quantum_support = {
            kw: len(users) for kw, users in keyword_users.items() if users
        }
        active = [kw for kw in quantum_support if graph.has_node(kw)]
        return self._update_graph(
            quantum, moves, quantum_support, active, slide.emptied
        )

    def _sketches_of(self, keywords):
        return {kw: self.sketches.sketch(kw) for kw in keywords}

    def _ec_of(self, pairs):
        return [self.idsets.jaccard(kw1, kw2) for kw1, kw2 in pairs]

    def _removal_candidates(self, quantum, emptied):
        super()._removal_candidates(quantum, emptied)  # drain, stay bounded
        return set(self.maintainer.graph.nodes())


class ScratchRanker(IncrementalRanker):
    """The ranker with no cache: every call re-ranks every live cluster.

    Its per-quantum edit script is the full ranking — everything was
    recomputed, and whatever ranked last call but not now is gone —
    mirroring its O(live) cost.
    """

    def __init__(self, registry, graph, node_weight_fn):
        super().__init__(registry, graph, node_weight_fn)
        self._results = {}

    def rank_all(self):
        stats = self.stats
        stats.reset()
        results = {}
        for cluster in self.registry:
            entry = self._compute(cluster)
            results[cluster.cluster_id] = (cluster, entry.rank, entry.support)
        stats.ranked = stats.recomputed = len(results)
        self._dirty.clear()
        self.last_recomputed = set(results)
        self.last_removed = (
            set(self._results) - set(results)
        ) | self._removed_pending
        self._removed_pending = set()
        self._results = results
        return [results[cid] for cid in sorted(results)]

    def result(self, cluster_id):
        return self._results[cluster_id]


class ScratchEventTracker(EventTracker):
    """The event tracker fed a *full* ranking: every live cluster is
    visited and diffed by value, so its change points — and hence its
    records — must equal the edit-script path's."""

    def observe_quantum(self, quantum, ranked_clusters, changes=ChangeBatch()):
        """Record the end-of-quantum state from ``(cluster, rank,
        support)`` triples for every live cluster; ``changes`` (a
        :class:`ChangeBatch` or any iterable of change events) attributes
        deaths to merges."""
        absorbed = ChangeBatch(tuple(changes)).absorbed_into()
        seen = set()
        for cluster, rank, support in ranked_clusters:
            seen.add(cluster.cluster_id)
            self._touch(
                cluster.cluster_id,
                quantum,
                frozenset(str(n) for n in cluster.nodes),
                rank,
                support,
                cluster.num_edges,
            )
        for event_id, record in self._records.items():
            if record.alive and event_id not in seen:
                record.died_quantum = quantum
                record.absorbed_into = absorbed.get(event_id)
        self._last_quantum = quantum


def verify_ranker(ranker):
    """Assert every cached entry of ``ranker`` equals a from-scratch
    recomputation.

    Raises AssertionError on any divergence between the cache and the
    ground-truth rank of the current state.  Also asserts the maintained
    result list covers exactly the live clusters — the no-sweep contract.
    """
    live = {c.cluster_id for c in ranker.registry}
    cached = set(ranker._cache)
    unexpected = cached - live - ranker._dirty
    missing = live - cached - ranker._dirty
    assert not unexpected and not missing, (
        f"maintained result list diverged from the registry:\n"
        f"  entries for dead clusters:       {sorted(unexpected)}\n"
        f"  live clusters missing an entry:  {sorted(missing)}"
    )
    for cluster in ranker.registry:
        entry = ranker._cache.get(cluster.cluster_id)
        if entry is None:
            continue  # not ranked yet; nothing stale to check
        if cluster.cluster_id in ranker._dirty:
            continue  # known-dirty, will be recomputed on next rank_all
        fresh = ranker._compute(cluster)
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


class MappingFeed:
    """A from-scratch builder behind the ``process_columns`` entry
    :class:`AkgUpdateStage` calls: the columns, extracted over ``ents`` and
    ``acts``, reach it as the mapping its window indexes take."""

    def __init__(self, builder, ents, acts):
        self.builder = builder
        self.ents = ents
        self.acts = acts
        self.sub_spans = builder.sub_spans

    def process_columns(self, quantum, columns):
        return self.builder.process_quantum(
            quantum, entity_actors(columns, self.ents, self.acts)
        )


def oracle_session(config=None, *, akg=True, ranking=False, **session_kwargs):
    """A fresh session running the from-scratch AKG stage (``akg``) and/or
    the from-scratch rank stage (``ranking``)."""
    session = open_session(config, **session_kwargs)
    config = session.config
    maintainer = ClusterMaintainer()
    builder = (ReferenceAkgBuilder if akg else AkgBuilder)(config, maintainer)
    ranker = (ScratchRanker if ranking else IncrementalRanker)(
        maintainer.registry, maintainer.graph, builder.node_weights
    )
    if akg:
        ents, acts = Interner(), Interner()
        feed = MappingFeed(builder, ents, acts)
    else:
        ents, acts = builder.idsets.ents, builder.idsets.acts
        feed = builder
    session.maintainer = maintainer
    session.builder = builder
    session.ranker = ranker
    session.pipeline = Pipeline(
        [
            ColumnExtractStage(
                session.extractor, config.max_tokens_per_message, ents, acts
            ),
            AkgUpdateStage(feed, maintainer),
            MaintainStage(maintainer),
            PropagateStage(maintainer, ranker),
            RankStage(ranker),
            ReportStage(session.tracker, ranker, session.report_index),
        ]
    )
    return session


class RefereeSubscription:
    """One subscription of a :class:`NotifiedReferee`: what it was asked
    for, the ids its top-k view has announced, and the notes it received."""

    def __init__(self, kinds, top_k):
        self.kinds = frozenset(EventKind if kinds is None else kinds)
        self.top_k = top_k
        self.announced = set()
        self.notes = []


class NotifiedReferee:
    """Session notifications as a diff against stored state.

    ``notified`` maps every reported event id to the entry it was last
    notified with.  :meth:`observe` diffs one report's reported list
    against it — ``EMERGING`` / ``GROWING`` / ``RANK_CHANGED`` in the
    report's order, then ``DYING`` by id — and delivers to the
    subscriptions, a top-k subscription seeing the report's first ``k``
    reported events as its view.  The state lives as long as the referee,
    so one referee spans a session's snapshot and restore: it is what the
    checkpoint would have carried.
    """

    def __init__(self):
        self.notified = {}
        self.subscriptions = []

    def subscribe(self, kinds=None, top_k=None):
        subscription = RefereeSubscription(kinds, top_k)
        self.subscriptions.append(subscription)
        return subscription

    def observe(self, report):
        quantum = report.quantum
        notes = []
        for event in report.reported:
            prev = self.notified.get(event.event_id)
            if prev is None:
                notes.append(SessionEvent(
                    EventKind.EMERGING, quantum, event.event_id,
                    event.keywords, event.rank, event.size,
                ))
            else:
                if event.keywords - prev.keywords:
                    notes.append(SessionEvent(
                        EventKind.GROWING, quantum, event.event_id,
                        event.keywords, event.rank, event.size,
                        previous_rank=prev.rank, previous_size=prev.size,
                    ))
                if event.rank != prev.rank:
                    notes.append(SessionEvent(
                        EventKind.RANK_CHANGED, quantum, event.event_id,
                        event.keywords, event.rank, event.size,
                        previous_rank=prev.rank, previous_size=prev.size,
                    ))
            self.notified[event.event_id] = event
        reported_ids = {event.event_id for event in report.reported}
        for event_id in sorted(set(self.notified) - reported_ids):
            prev = self.notified.pop(event_id)
            notes.append(SessionEvent(
                EventKind.DYING, quantum, event_id,
                prev.keywords, prev.rank, prev.size,
            ))
        if not notes:
            return
        for subscription in self.subscriptions:
            if subscription.top_k is None:
                subscription.notes += [
                    n for n in notes if n.kind in subscription.kinds
                ]
                continue
            top = report.reported[:subscription.top_k]
            view = {e.event_id: e for e in top}
            for cid in sorted(set(view) - subscription.announced):
                subscription.announced.add(cid)
                entry = view[cid]
                if EventKind.EMERGING in subscription.kinds:
                    subscription.notes.append(SessionEvent(
                        EventKind.EMERGING, quantum, cid,
                        entry.keywords, entry.rank, entry.size,
                    ))
            for note in notes:
                if note.kind is EventKind.DYING:
                    if note.event_id in subscription.announced:
                        subscription.announced.discard(note.event_id)
                        if EventKind.DYING in subscription.kinds:
                            subscription.notes.append(note)
                elif (
                    note.event_id in view
                    and note.kind is not EventKind.EMERGING
                    and note.kind in subscription.kinds
                ):
                    subscription.notes.append(note)
