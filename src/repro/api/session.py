"""Long-lived, resumable detector sessions over unbounded streams.

:func:`open_session` is the one way to open a detector: it returns a
:class:`DetectorSession` that owns the engine components and drives the
composable stage pipeline of :mod:`repro.pipeline` one quantum at a time.
Beyond ``process_quantum``, a session offers the three capabilities a
production deployment needs:

* **push-based subscription** — :meth:`DetectorSession.subscribe` delivers
  ``EMERGING`` / ``GROWING`` / ``DYING`` / ``RANK_CHANGED`` notifications
  (:mod:`repro.api.session_events`) to callback or queue sinks, filtered
  through the report stage's threshold index (optionally top-k limited);
* **incremental ingestion** — :meth:`DetectorSession.ingest` /
  :meth:`DetectorSession.ingest_many` accept messages whenever they arrive;
  partial quanta stay buffered across calls (and across checkpoints)
  instead of being force-flushed;
* **checkpoint/restore** — :meth:`DetectorSession.snapshot` serializes the
  full detector state through the layers' ``to_state()`` hooks, and
  ``open_session(resume=path)`` reconstructs a session that continues the
  stream *bit-identically* to one that never stopped (DESIGN.md Section 6).

Typical use::

    from repro.api import open_session, QueueSink, EventKind

    session = open_session(DetectorConfig(quantum_size=160))
    inbox = QueueSink()
    session.subscribe(inbox, kinds={EventKind.EMERGING, EventKind.DYING})
    for report in session.ingest_many(stream):
        for note in inbox.drain():
            print(note.kind.value, sorted(note.keywords))
    session.snapshot("detector.ckpt")          # later:
    session = open_session(resume="detector.ckpt")
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field as dataclass_field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.akg.builder import AkgBuilder
from repro.api.checkpoint import load_checkpoint, save_checkpoint
from repro.api.session_events import EventKind, SessionEvent
from repro.api.sinks import CallbackSink, Sink
from repro.config import DetectorConfig
from repro.core.events import EventRecord, EventTracker
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer
from repro.core.ranking import minimum_rank
from repro.errors import CheckpointError, ConfigError, GraphError, PipelineError
from repro.extract import (
    EntityExtractor,
    extractor_spec,
    is_reconstructible,
    make_extractor,
)
from repro.pipeline.report_index import ThresholdIndex
from repro.pipeline.reports import QuantumReport, ReportedEvent, StageTimings
from repro.pipeline.stages import (
    Pipeline,
    QuantumContext,
    ReportStage,
    build_stages,
)
from repro.stream.messages import Message
from repro.stream.sources import message_from_record, message_to_record
from repro.stream.window import QuantumBatcher
from repro.text.pos import NounTagger


class _Notified(NamedTuple):
    """Last-notified state of one reported event (the lifecycle diff base)."""

    rank: float
    size: int
    keywords: frozenset


@dataclass
class Subscription:
    """Handle returned by :meth:`DetectorSession.subscribe`.

    ``kinds`` restricts delivery to the given lifecycle transitions.
    ``top_k`` scopes the subscription to the report index's top-k *view*:
    an event is announced with an ``EMERGING`` delivery when it first enters
    the view (even if it originally emerged further down the ranking),
    receives its ``GROWING``/``RANK_CHANGED`` updates while inside it, and
    is closed by its ``DYING`` — so the subscriber always sees a consistent
    announce/update/close stream.  ``_announced`` is that per-subscription
    memory; it is not part of session checkpoints (sinks re-subscribe after
    a restore).  ``unsubscribe()`` detaches the sink.
    """

    sink: Sink
    kinds: frozenset
    top_k: Optional[int]
    _session: "DetectorSession"
    _announced: Set[int] = dataclass_field(default_factory=set)

    def unsubscribe(self) -> None:
        """Stop delivering events to this subscription's sink."""
        try:
            self._session._subscriptions.remove(self)
        except ValueError:
            pass


class DetectorSession:
    """One long-lived detection session over one (resumable) stream."""

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        *,
        noun_tagger: Optional[NounTagger] = None,
        extractor: Optional[EntityExtractor] = None,
        profile: bool = False,
    ) -> None:
        """Build a fresh session (use :func:`open_session` in client code).

        The ingestion extractor comes from ``config.extractor`` /
        ``config.extractor_options`` (the registry path — checkpointable);
        ``extractor`` overrides it with an explicit
        :class:`~repro.extract.base.EntityExtractor` instance — e.g.
        ``KeywordExtractor(tokenizer=...)`` around a custom text tokenizer.
        ``noun_tagger`` overrides the report-time noun filter (applied only
        when the extractor is ``textual``).  ``profile=True`` runs the
        stage pipeline under cProfile; read the accumulated data with
        :meth:`profile_stats`.
        """
        self.config = config if config is not None else DetectorConfig()
        # Function-valued state cannot be checkpointed; remember whether the
        # defaults were overridden so restore() can demand the same objects
        # back instead of silently diverging (DESIGN.md Section 6).
        self.extractor = (
            extractor
            if extractor is not None
            else make_extractor(
                self.config.extractor, self.config.extractor_options
            )
        )
        self._custom_extractor = not is_reconstructible(self.extractor)
        self._custom_noun_tagger = noun_tagger is not None
        self.noun_tagger = (
            noun_tagger if noun_tagger is not None else NounTagger()
        )
        self.maintainer = ClusterMaintainer()
        self.builder = AkgBuilder(self.config, self.maintainer)
        self.ranker = IncrementalRanker(
            self.maintainer.registry,
            self.maintainer.graph,
            self.builder.node_weights,
            min_cluster_size=self.config.min_cluster_size,
        )
        self.tracker = EventTracker()
        self.batcher = QuantumBatcher(self.config.quantum_size)
        self._rank_floor = self.config.rank_threshold_scale * minimum_rank(
            self.config.high_state_threshold, self.config.ec_threshold
        )
        self.report_index = ThresholdIndex(self._passes_filters)
        stages = build_stages(
            self.extractor,
            self.maintainer,
            self.builder,
            self.ranker,
            self.tracker,
            self.report_index,
            self.config.max_tokens_per_message,
        )
        self.pipeline = Pipeline(stages)
        self._profiler = cProfile.Profile() if profile else None
        self._quantum = -1
        self.total_messages = 0
        self.total_seconds = 0.0
        self.total_timings = StageTimings()
        self._subscriptions: List[Subscription] = []
        self._notified: Dict[int, _Notified] = {}
        self._delta_writer = None
        self._closed = False

    # ------------------------------------------------------------- access

    @property
    def graph(self):
        """The live AKG (read-only by convention)."""
        return self.maintainer.graph

    @property
    def registry(self):
        """The live SCP cluster registry (read-only by convention)."""
        return self.maintainer.registry

    @property
    def current_quantum(self) -> int:
        """Index of the last completed quantum (-1 before the first)."""
        return self._quantum

    def _passes_filters(self, event: ReportedEvent) -> bool:
        """Section 7.2.2 report-time filters: rank floor and noun check.

        The noun filter is a *textual* heuristic ("a real-world event
        mentions at least one noun") — it only applies when the extractor
        produces natural-language entities; product ids or tagged field
        values have no part of speech to test.
        """
        if event.rank < self._rank_floor:
            return False
        if (
            self.config.require_noun
            and self.extractor.textual
            and not self.noun_tagger.has_noun(event.keywords)
        ):
            return False
        return True

    # ---------------------------------------------------------- ingestion

    def ingest(self, message: Message) -> Optional[QuantumReport]:
        """Feed one message; returns a report when a quantum completes."""
        quantum = self.batcher.push(message)
        if quantum is None:
            return None
        return self.process_quantum(quantum)

    def ingest_many(
        self, messages: Iterable[Message], *, flush: bool = False
    ) -> Iterator[QuantumReport]:
        """Feed a message iterable, yielding one report per completed quantum.

        A trailing partial quantum is *kept buffered* by default so the
        session (and its checkpoints) composes across calls; pass
        ``flush=True`` — or call :meth:`flush` — to force-process the
        remainder as a final short quantum.
        """
        stream = iter(messages)
        while True:
            quantum = self.batcher.fill(stream)
            if quantum is None:
                break
            yield self.process_quantum(quantum)
        if flush:
            tail = self.flush()
            if tail is not None:
                yield tail

    def flush(self) -> Optional[QuantumReport]:
        """Process any buffered partial quantum now (end-of-stream)."""
        tail = self.batcher.flush()
        if not tail:
            return None
        return self.process_quantum(tail)

    def process_quantum(self, messages: Sequence[Message]) -> QuantumReport:
        """Advance the window by one full quantum of messages."""
        if self._closed:
            raise PipelineError(
                "session is closed; open a new session (or resume from a "
                "checkpoint) to keep ingesting"
            )
        start = time.perf_counter()
        self._quantum += 1
        ctx = QuantumContext(quantum=self._quantum, messages=messages)
        if self._profiler is not None:
            self._profiler.enable()
            try:
                self.pipeline.run(ctx)
            finally:
                self._profiler.disable()
        else:
            self.pipeline.run(ctx)
        report = ctx.report
        report.messages_processed = len(ctx.messages)
        report.timings = ctx.timings
        report.changes = len(ctx.batch)
        report.dirty_clusters = len(ctx.dirty)
        report.ranked_clusters = self.ranker.stats.ranked
        report.rank_cache_hits = self.ranker.stats.cache_hits
        report.elapsed_seconds = time.perf_counter() - start
        self.total_messages += len(ctx.messages)
        self.total_seconds += report.elapsed_seconds
        self.total_timings.add(ctx.timings)
        self._dispatch(report)
        if self._delta_writer is not None:
            # One framed edit op per completed quantum: the durable
            # stream a FollowerSession tails to stay warm (DESIGN.md
            # Section 10).  An append failure propagates — a leader whose
            # durability channel broke must not keep running silently.
            self._delta_writer.append(self)
        return report

    # -------------------------------------------------------- subscription

    def subscribe(
        self,
        sink: Union[Sink, callable],
        kinds: Optional[Iterable[EventKind]] = None,
        top_k: Optional[int] = None,
    ) -> Subscription:
        """Attach a sink for lifecycle notifications.

        ``sink`` may be a :class:`~repro.api.sinks.Sink` or a plain callable
        (wrapped in a :class:`~repro.api.sinks.CallbackSink`).  ``kinds``
        defaults to all four transitions.  ``top_k`` scopes the subscription
        to the report index's top-k view: events are announced (as
        ``EMERGING``) when they first enter the view — including by climbing
        into it — updated while inside it, and closed by their ``DYING``
        (see :class:`Subscription`).
        """
        if not hasattr(sink, "emit"):
            sink = CallbackSink(sink)
        selected = (
            frozenset(EventKind) if kinds is None else frozenset(kinds)
        )
        subscription = Subscription(sink, selected, top_k, self)
        self._subscriptions.append(subscription)
        return subscription

    def _dispatch(self, report: QuantumReport) -> None:
        """Diff the report against the notified state; deliver transitions.

        Runs unconditionally (not only when sinks are attached) so the
        notified state — which is checkpointed — does not depend on who is
        listening.
        """
        notifications: List[SessionEvent] = []
        reported_ids: Set[int] = set()
        for event in report.reported:
            reported_ids.add(event.event_id)
            prev = self._notified.get(event.event_id)
            if prev is None:
                notifications.append(
                    SessionEvent(
                        EventKind.EMERGING,
                        report.quantum,
                        event.event_id,
                        event.keywords,
                        event.rank,
                        event.size,
                    )
                )
            else:
                if event.keywords - prev.keywords:
                    notifications.append(
                        SessionEvent(
                            EventKind.GROWING,
                            report.quantum,
                            event.event_id,
                            event.keywords,
                            event.rank,
                            event.size,
                            previous_rank=prev.rank,
                            previous_size=prev.size,
                        )
                    )
                if event.rank != prev.rank:
                    notifications.append(
                        SessionEvent(
                            EventKind.RANK_CHANGED,
                            report.quantum,
                            event.event_id,
                            event.keywords,
                            event.rank,
                            event.size,
                            previous_rank=prev.rank,
                            previous_size=prev.size,
                        )
                    )
            self._notified[event.event_id] = _Notified(
                event.rank, event.size, event.keywords
            )
        for event_id in sorted(set(self._notified) - reported_ids):
            prev = self._notified.pop(event_id)
            notifications.append(
                SessionEvent(
                    EventKind.DYING,
                    report.quantum,
                    event_id,
                    prev.keywords,
                    prev.rank,
                    prev.size,
                )
            )
        if not notifications or not self._subscriptions:
            return
        top_ids: Dict[int, Set[int]] = {}
        for subscription in list(self._subscriptions):
            if subscription.top_k is None:
                for note in notifications:
                    if note.kind in subscription.kinds:
                        subscription.sink.emit(note)
                continue
            ids = top_ids.get(subscription.top_k)
            if ids is None:
                ids = {
                    e.event_id
                    for e in self.report_index.top(subscription.top_k)
                }
                top_ids[subscription.top_k] = ids
            announced = subscription._announced
            # Announce every event newly inside the view, *whatever* moved
            # it in — its own emergence, climbing past a faller, or another
            # event's death vacating a slot.  (Sound to do only on
            # notification-bearing quanta: an empty batch cannot change the
            # reported list, hence cannot change the view.)
            for cid in sorted(ids - announced):
                entry = self.report_index.entries()[cid]
                announced.add(cid)
                if EventKind.EMERGING in subscription.kinds:
                    subscription.sink.emit(
                        SessionEvent(
                            EventKind.EMERGING,
                            report.quantum,
                            cid,
                            entry.keywords,
                            entry.rank,
                            entry.size,
                        )
                    )
            for note in notifications:
                if note.kind is EventKind.DYING:
                    if note.event_id in announced:
                        announced.discard(note.event_id)
                        if EventKind.DYING in subscription.kinds:
                            subscription.sink.emit(note)
                    continue
                if (
                    note.event_id in ids
                    and note.kind is not EventKind.EMERGING
                    and note.kind in subscription.kinds
                ):
                    subscription.sink.emit(note)

    # ------------------------------------------------------------ summary

    def throughput(self) -> float:
        """Messages processed per second of session CPU time so far."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.total_messages / self.total_seconds

    def profile_stats(self, top: int = 20) -> str:
        """Formatted cProfile data for the pipeline work so far.

        Requires the session to have been opened with ``profile=True``;
        returns the ``top`` hottest functions by cumulative time —
        ``detect --profile`` prints this after the run, and perf PRs should
        start from it rather than guessing at the hot path.
        """
        if self._profiler is None:
            raise ConfigError(
                "profiling is off; open the session with profile=True "
                "(detect --profile) to collect pipeline profiles"
            )
        out = io.StringIO()
        stats = pstats.Stats(self._profiler, stream=out)
        stats.sort_stats("cumulative").print_stats(top)
        return out.getvalue()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release session resources (delta log, sinks).

        Idempotent and safe mid-quantum: the first call closes the
        delta-log writer and every subscribed sink exposing a
        ``close()`` method **exactly once**; subsequent calls are no-ops.
        A buffered partial quantum is *never* force-processed — it stays
        readable through :meth:`snapshot` (which remains callable on a
        closed session) and is otherwise discarded with the object, so
        teardown is deterministic regardless of where in a quantum the
        caller stopped.  Further ``ingest``/``process_quantum`` calls
        raise :class:`~repro.errors.PipelineError`.

        A delta log's appends are fsynced as they happen, so close only
        releases the handle — it never loses records.
        """
        if self._closed:
            return
        self._closed = True
        if self._delta_writer is not None:
            self._delta_writer.close()
        for subscription in list(self._subscriptions):
            sink_close = getattr(subscription.sink, "close", None)
            if sink_close is not None:
                sink_close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (ingestion refused afterwards)."""
        return self._closed

    def __enter__(self) -> "DetectorSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def events(self, include_spurious: bool = True) -> List[EventRecord]:
        """All events observed so far (optionally post-hoc filtered)."""
        if include_spurious:
            return self.tracker.all_events()
        return self.tracker.real_events()

    # --------------------------------------------------------- checkpoints

    def snapshot(self, path) -> None:
        """Serialize the full session state to ``path``.

        Callable between any two ``ingest`` calls — a buffered partial
        quantum is included.  The ranker cache and report index are *not*
        serialized: both are pure functions of the serialized state and are
        recomputed bit-identically on restore (DESIGN.md Section 6).
        """
        save_checkpoint(path, self._state_tree())

    def enable_delta_log(self, path, *, compact_ratio: float = 4.0) -> None:
        """Start incremental checkpointing into the directory ``path``.

        Writes a base snapshot of the current state now, then appends one
        framed edit op per completed quantum (compacting — fresh base,
        truncated log — once the log passes ``compact_ratio`` times the
        base size).  The directory loads like any checkpoint
        (``open_session(resume=path)``) and is what a
        :class:`~repro.api.follower.FollowerSession` tails to stay warm.
        An existing delta checkpoint directory is attached with a fresh
        generation (new base from this session's state), which is how a
        promoted follower chains its own standby.
        """
        from repro.api.deltalog import DeltaCheckpointWriter

        if self._delta_writer is not None:
            raise CheckpointError(
                "a delta log is already enabled for this session"
            )
        writer = DeltaCheckpointWriter(path, compact_ratio=compact_ratio)
        writer.start(self)
        self._delta_writer = writer

    @property
    def delta_writer(self):
        """The active delta-log writer, or None (read-only by convention)."""
        return self._delta_writer

    def _state_tree(self) -> dict:
        """Compose the full serializable session state (DESIGN.md S6/S10)."""
        return {
            "config": self.config.to_dict(),
            # Extractor identity: the registry spec that rebuilds the
            # ingestion stage on resume (None when function-valued state
            # makes the extractor non-reconstructible — the caller must
            # then pass the same object back, like custom noun taggers).
            "extractor": (
                None
                if self._custom_extractor
                else extractor_spec(self.extractor)
            ),
            "custom_extractor": self._custom_extractor,
            "custom_noun_tagger": self._custom_noun_tagger,
            "builder": self.builder.to_state(),
            "tracker": self.tracker.to_state(),
            **self._volatile_state(),
        }

    def _volatile_state(self) -> dict:
        """The small subtrees every quantum rewrites: a delta-log record
        ships them whole (diffing them would cost more than it saves)."""
        try:
            maintainer_state = self.maintainer.to_state()
        except GraphError as exc:
            raise CheckpointError(str(exc)) from exc
        return {
            "quantum": self._quantum,
            "total_messages": self.total_messages,
            "total_seconds": self.total_seconds,
            "timings": self.total_timings.as_dict(),
            "pending": [
                message_to_record(m) for m in self.batcher.pending_messages()
            ],
            "maintainer": maintainer_state,
            "notified": [
                [cid, note.rank, note.size, sorted(note.keywords)]
                for cid, note in sorted(self._notified.items())
            ],
        }

    def _quantum_op(self) -> list:
        """Edit op turning the previous quantum boundary's
        :meth:`_state_tree` into the current one — the delta-log record.

        The layers' own ops for the quantum just finished (the AKG stage's
        window splices, the tracker's record patches) plus
        :meth:`_volatile_state` replaced whole; the identity keys (config,
        extractor) never change within a session.
        """
        sets = [
            [key, ["r", value]]
            for key, value in self._volatile_state().items()
        ]
        touched = self.ranker.last_recomputed | self.ranker.last_removed
        sets.append(["builder", self.builder.quantum_op(self._quantum)])
        sets.append(["tracker", self.tracker.quantum_op(self._quantum, touched)])
        return ["d", sets, []]

    @classmethod
    def restore(
        cls,
        path,
        *,
        noun_tagger: Optional[NounTagger] = None,
        extractor: Optional[EntityExtractor] = None,
        profile: bool = False,
    ) -> "DetectorSession":
        """Reconstruct a session from a :meth:`snapshot` file.

        Registered extractors are rebuilt by value from the spec the
        checkpoint records.  ``noun_tagger`` and custom ``extractor``
        instances are function-valued state the checkpoint cannot carry:
        it records whether the original session overrode the defaults, and
        restore refuses a mismatch — resuming with a different tagger or
        extractor would silently break the bit-identical guarantee.  Pass
        the same objects the original session used.
        """
        return cls._from_state_tree(
            load_checkpoint(path),
            noun_tagger=noun_tagger,
            extractor=extractor,
            profile=profile,
        )

    @classmethod
    def _from_state_tree(
        cls,
        state: dict,
        *,
        noun_tagger: Optional[NounTagger] = None,
        extractor: Optional[EntityExtractor] = None,
        profile: bool = False,
    ) -> "DetectorSession":
        """Materialize a live session from a decoded state tree.

        The common trunk under :meth:`restore` and
        :meth:`~repro.api.follower.FollowerSession.promote`: the tree may
        come from a monolithic snapshot, a replayed delta log, or a warm
        follower — the resume guarantees apply identically.  The caller
        yields ownership of ``state``; layers may keep references into it.
        """
        config = DetectorConfig.from_dict(state["config"])
        if state["custom_noun_tagger"] and noun_tagger is None:
            raise CheckpointError(
                "checkpoint was taken with a custom noun_tagger; pass the "
                "same one to open_session(resume=..., noun_tagger=...) or "
                "the resumed stream would diverge"
            )
        if not state["custom_noun_tagger"] and noun_tagger is not None:
            raise CheckpointError(
                "checkpoint was taken with the default noun_tagger; "
                "resuming with a custom one would diverge"
            )
        if state["custom_extractor"]:
            if extractor is None:
                raise CheckpointError(
                    "checkpoint was taken with a custom extractor; pass "
                    "the same one to open_session(resume=..., "
                    "extractor=...) or the resumed stream would diverge"
                )
            if is_reconstructible(extractor):
                # A registered extractor cannot be the custom one the
                # checkpoint demands back — accepting it would silently
                # diverge (and the next snapshot would launder the stream
                # into a 'registered' checkpoint).
                raise CheckpointError(
                    "checkpoint was taken with a custom extractor; the "
                    f"registered {extractor.name!r} extractor passed to "
                    "open_session(resume=...) cannot be it, and the "
                    "resumed stream would diverge"
                )
        else:
            # Rebuild from the recorded spec: authoritative even when it
            # differs from the config fields (a session opened with an
            # explicit registered extractor instance snapshots that spec).
            # A caller re-passing an equivalent registered instance is
            # fine; anything whose spec differs would diverge.
            spec = state["extractor"]
            if extractor is not None and (
                not is_reconstructible(extractor)
                or extractor_spec(extractor) != spec
            ):
                raise CheckpointError(
                    f"checkpoint was taken with the registered "
                    f"{spec['name']!r} extractor (options "
                    f"{spec['options']!r}); the extractor passed to "
                    f"open_session(resume=...) does not match and the "
                    f"resumed stream would diverge"
                )
            if extractor is None:
                extractor = make_extractor(spec["name"], spec["options"])
        session = cls(
            config,
            noun_tagger=noun_tagger,
            extractor=extractor,
            profile=profile,
        )
        session.maintainer.from_state(state["maintainer"])
        session.builder.from_state(state["builder"])
        session.tracker.from_state(state["tracker"])
        session.batcher.load_pending(
            message_from_record(record) for record in state["pending"]
        )
        session._quantum = state["quantum"]
        session.total_messages = state["total_messages"]
        session.total_seconds = state["total_seconds"]
        session.total_timings = StageTimings.from_dict(state["timings"])
        session._notified = {
            cid: _Notified(rank, size, frozenset(keywords))
            for cid, rank, size, keywords in state["notified"]
        }
        # Derived state: recompute the rank cache from the restored graph
        # and window state, then re-seed the report index from it.  Both are
        # bit-identical to their pre-snapshot values because ranks and
        # filter verdicts are pure functions of the restored inputs.
        ranked = session.ranker.rebuild_cache()
        report_stage = session.pipeline.stage("report")
        assert isinstance(report_stage, ReportStage)
        report_stage.seed(ranked)
        return session


def open_session(
    config: Optional[DetectorConfig] = None,
    *,
    resume=None,
    noun_tagger: Optional[NounTagger] = None,
    extractor: Optional[EntityExtractor] = None,
    profile: bool = False,
    delta_log=None,
    delta_compact_ratio: float = 4.0,
) -> DetectorSession:
    """Open a detector session — fresh, or resumed from a checkpoint.

    With ``resume=path`` the session is reconstructed from the checkpoint
    (including its configuration; passing ``config`` too is an error to
    avoid silently ignoring one of them).  Otherwise a fresh session is
    built from ``config`` (Table 2 nominal when omitted).

    The ingestion extractor is selected by ``config.extractor`` (see
    :mod:`repro.extract`); ``extractor`` passes an explicit instance (a
    custom text tokenizer rides in as ``KeywordExtractor(tokenizer=...)``).
    On resume, registered extractors are rebuilt from the checkpoint;
    custom ones must be passed back in.

    ``profile=True`` collects a cProfile of the stage pipeline
    (``DetectorSession.profile_stats``).

    ``delta_log=path`` enables incremental checkpointing: a base snapshot
    now, then one durable edit-script record per completed quantum into
    the directory ``path`` (compacted past ``delta_compact_ratio`` times
    the base size) — the stream a warm-standby
    :class:`~repro.api.follower.FollowerSession` tails (DESIGN.md
    Section 10).  ``resume`` accepts a delta-checkpoint directory as well
    as a monolithic snapshot file.
    """
    if resume is not None:
        if config is not None:
            raise CheckpointError(
                "pass either config or resume, not both: a resumed session "
                "runs under its checkpoint's configuration"
            )
        session = DetectorSession.restore(
            resume,
            noun_tagger=noun_tagger,
            extractor=extractor,
            profile=profile,
        )
        if delta_log is not None:
            session.enable_delta_log(
                delta_log, compact_ratio=delta_compact_ratio
            )
        return session
    session = DetectorSession(
        config,
        noun_tagger=noun_tagger,
        extractor=extractor,
        profile=profile,
    )
    if delta_log is not None:
        session.enable_delta_log(delta_log, compact_ratio=delta_compact_ratio)
    return session


__all__ = ["DetectorSession", "Subscription", "open_session"]
