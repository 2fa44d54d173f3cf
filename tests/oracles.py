"""Session-level referees: a detector session re-wired onto the from-scratch
AKG builder and/or ranker.

The product has one way to run — the incremental stages ``open_session``
builds.  The differential suites compare it against the paper's
from-scratch definitions (Sections 3 and 5, Theorem 3) at the session
level too, so this module assembles such a session from public parts: an
ordinary session whose engine components are swapped, before the first
quantum, for a fresh :class:`~repro.core.maintenance.ClusterMaintainer`,
``AkgBuilder(oracle=akg)`` and ``IncrementalRanker(oracle=ranking)``,
driven by a :class:`~repro.pipeline.stages.Pipeline` of the public stage
classes.  Everything else — batching, filters, tracker, notifications —
is the session's own.

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

from helpers import entity_actors
from repro.akg.builder import AkgBuilder
from repro.api import EventKind, SessionEvent, open_session
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer
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


class MappingFeed:
    """A from-scratch builder behind the ``process_columns`` entry
    :class:`AkgUpdateStage` calls: the columns, extracted over ``acts``,
    reach it as the mapping its window indexes take."""

    def __init__(self, builder, acts):
        self.builder = builder
        self.acts = acts
        self.sub_spans = builder.sub_spans

    def process_columns(self, quantum, columns):
        return self.builder.process_quantum(
            quantum, entity_actors(columns, self.acts)
        )


def oracle_session(config=None, *, akg=True, ranking=False, **session_kwargs):
    """A fresh session running the from-scratch AKG stage (``akg``) and/or
    the from-scratch rank stage (``ranking``)."""
    session = open_session(config, **session_kwargs)
    config = session.config
    maintainer = ClusterMaintainer()
    builder = AkgBuilder(config, maintainer, oracle=akg)
    ranker = IncrementalRanker(
        maintainer.registry,
        maintainer.graph,
        builder.node_weights,
        oracle=ranking,
    )
    if akg:
        ents, acts = Interner(), Interner()
        feed = MappingFeed(builder, acts)
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
