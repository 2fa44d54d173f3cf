"""Session lifecycle: ingestion, subscription sinks, notification semantics."""

import pytest

from repro.api import (
    CallbackSink,
    DetectorSession,
    EventKind,
    QueueSink,
    open_session,
)
from repro.config import DetectorConfig
from repro.datasets.figure1 import figure1_messages
from repro.errors import CheckpointError, ConfigError
from repro.stream.messages import Message


def exact_config(**overrides):
    base = dict(
        quantum_size=6,
        window_quanta=5,
        high_state_threshold=2,
        ec_threshold=0.1,
        use_minhash_filter=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def burst(keywords, users):
    return [Message(f"u{u}", tokens=tuple(keywords)) for u in users]


class TestOpenSession:
    def test_returns_session(self):
        session = open_session(exact_config())
        assert isinstance(session, DetectorSession)
        assert session.current_quantum == -1

    def test_default_config_is_nominal(self):
        assert open_session().config == DetectorConfig()

    def test_config_and_resume_are_mutually_exclusive(self, tmp_path):
        session = open_session(exact_config())
        path = tmp_path / "s.ckpt"
        session.snapshot(path)
        with pytest.raises(CheckpointError):
            open_session(exact_config(), resume=path)

    @pytest.mark.parametrize(
        "kwarg",
        [
            "workers", "shard_count", "worker_backend", "overlap",
            "oracle_akg", "oracle_ranking", "tokenizer",
        ],
    )
    def test_no_execution_setting_is_accepted(self, kwarg, tmp_path):
        """There is one way to run the detector (DESIGN.md Section 7): no
        execution or referee mode, and a custom tokenizer only inside an
        explicit ``extractor``."""
        with pytest.raises(TypeError):
            open_session(exact_config(), **{kwarg: 2})
        path = tmp_path / "s.ckpt"
        open_session(exact_config()).snapshot(path)
        with pytest.raises(TypeError):
            open_session(resume=path, **{kwarg: 2})

    def test_ckg_counters_are_not_a_session_setting(self):
        """The Section 7.4 CKG counters are assembled by the reduction
        bench; neither a session nor a config can ask for them."""
        with pytest.raises(TypeError):
            open_session(DetectorConfig(), track_ckg_stats=True)
        with pytest.raises(ConfigError, match="track_ckg_stats"):
            DetectorConfig.from_dict({"track_ckg_stats": True})
        report = open_session(exact_config()).process_quantum(
            burst(["a1", "b1", "c1"], range(6))
        )
        assert not hasattr(report, "ckg_nodes")


class TestIngestion:
    def test_ingest_reports_at_quantum_boundary(self):
        session = open_session(exact_config(quantum_size=3))
        messages = burst(["a1", "b1", "c1"], range(3))
        reports = [session.ingest(m) for m in messages]
        assert reports[:2] == [None, None]
        assert reports[2] is not None and reports[2].quantum == 0

    def test_ingest_many_keeps_tail_buffered(self):
        session = open_session(exact_config(quantum_size=4))
        reports = list(session.ingest_many(burst(["a1", "b1"], range(6))))
        assert len(reports) == 1
        assert session.batcher.pending == 2

    def test_ingest_many_composes_across_calls(self):
        """Two ingest_many calls equal one concatenated call: the trailing
        partial quantum stays buffered between them."""
        split = open_session(exact_config(quantum_size=4))
        whole = open_session(exact_config(quantum_size=4))
        messages = burst(["a1", "b1", "c1"], range(10))
        r_split = list(split.ingest_many(messages[:5])) + list(
            split.ingest_many(messages[5:])
        )
        r_whole = list(whole.ingest_many(messages))
        key = lambda r: (r.quantum, [e.event_id for e in r.reported])
        assert [key(r) for r in r_split] == [key(r) for r in r_whole]

    def test_flush_processes_partial_quantum(self):
        session = open_session(exact_config(quantum_size=4))
        list(session.ingest_many(burst(["a1", "b1"], range(6))))
        tail = session.flush()
        assert tail is not None and tail.messages_processed == 2
        assert session.flush() is None

    def test_ingest_many_flush_true_matches_process_stream(self):
        """flush=True is ingest_many followed by flush(): the tail is
        processed as one final short quantum."""
        session = open_session(exact_config(quantum_size=4))
        other = open_session(exact_config(quantum_size=4))
        messages = burst(["a1", "b1", "c1"], range(6))
        a = list(session.ingest_many(list(messages), flush=True))
        b = list(other.ingest_many(list(messages))) + [other.flush()]
        key = lambda r: (r.quantum, r.messages_processed,
                         [e.event_id for e in r.reported])
        assert [key(r) for r in a] == [key(r) for r in b]


class TestFacadeDelegation:
    def test_detector_and_session_share_state(self):
        """The session's accessors read its live components' state."""
        session = open_session(exact_config())
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert session.current_quantum == 0
        assert session.registry is session.maintainer.registry
        assert session.graph is session.maintainer.graph
        assert session.total_messages == 6
        assert session.throughput() > 0


class TestSubscription:
    def test_emerging_notification(self):
        session = open_session(exact_config())
        sink = QueueSink()
        session.subscribe(sink)
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        events = sink.drain()
        assert [e.kind for e in events] == [EventKind.EMERGING]
        assert events[0].keywords == {"a1", "b1", "c1"}
        assert events[0].quantum == 0
        assert events[0].previous_rank is None

    def test_growing_and_rank_changed_on_evolution(self):
        """The Figure 1 scenario through the push API: '5.9' joining the
        earthquake cluster emits GROWING (and RANK_CHANGED)."""
        session = open_session(exact_config())
        sink = QueueSink()
        session.subscribe(sink)
        initial, update = figure1_messages()
        session.process_quantum(initial)
        session.process_quantum(update)
        kinds = [e.kind for e in sink.drain()]
        assert kinds[0] == EventKind.EMERGING
        assert EventKind.GROWING in kinds
        # run again with a GROWING-only subscription to inspect the payload
        session2 = open_session(exact_config())
        sink2 = QueueSink()
        session2.subscribe(sink2, kinds={EventKind.GROWING})
        session2.process_quantum(initial)
        session2.process_quantum(update)
        growing = sink2.drain()
        assert len(growing) == 1
        assert "5.9" in growing[0].keywords
        assert growing[0].previous_size is not None
        assert growing[0].size > growing[0].previous_size

    def test_dying_notification(self):
        session = open_session(exact_config(window_quanta=2))
        sink = QueueSink()
        session.subscribe(sink, kinds={EventKind.DYING})
        session.process_quantum(burst(["alpha", "beta", "gamma"], range(6)))
        session.process_quantum(
            [Message(f"n{i}", tokens=(f"w{i}a", f"w{i}b")) for i in range(6)]
        )
        session.process_quantum(
            [Message(f"m{i}", tokens=(f"v{i}a",)) for i in range(6)]
        )
        dying = sink.drain()
        assert len(dying) == 1
        assert dying[0].kind is EventKind.DYING
        assert dying[0].keywords == {"alpha", "beta", "gamma"}

    def test_kind_filtering(self):
        session = open_session(exact_config())
        emerging_only = QueueSink()
        everything = QueueSink()
        session.subscribe(emerging_only, kinds={EventKind.EMERGING})
        session.subscribe(everything)
        initial, update = figure1_messages()
        session.process_quantum(initial)
        session.process_quantum(update)
        assert all(e.kind is EventKind.EMERGING for e in emerging_only)
        assert len(everything) > len(emerging_only)

    def test_plain_callable_is_wrapped(self):
        session = open_session(exact_config())
        seen = []
        session.subscribe(seen.append)
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert len(seen) == 1 and seen[0].kind is EventKind.EMERGING

    def test_unsubscribe_stops_delivery(self):
        session = open_session(exact_config())
        sink = QueueSink()
        subscription = session.subscribe(sink)
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        subscription.unsubscribe()
        subscription.unsubscribe()  # idempotent
        session.process_quantum(burst(["x1", "y1", "z1"], range(6)))
        assert len(sink.drain()) == 1

    def test_top_k_filter(self):
        """A top-1 subscription only hears about the leading event."""
        session = open_session(exact_config())
        sink = QueueSink()
        session.subscribe(sink, kinds={EventKind.EMERGING}, top_k=1)
        # two disjoint clusters with different support -> different ranks
        session.process_quantum(
            burst(["a1", "b1", "c1"], range(6))
            + burst(["x1", "y1", "z1"], range(10, 13))
        )
        events = sink.drain()
        assert len(events) == 1
        assert events[0].keywords == {"a1", "b1", "c1"}

    def test_growing_fires_on_equal_size_turnover(self):
        """GROWING tracks keyword *joins*, not size: a cluster swapping one
        keyword for another at constant size still notifies."""
        session = open_session(
            exact_config(quantum_size=12, window_quanta=1)
        )
        sink = QueueSink()
        session.subscribe(sink, kinds={EventKind.GROWING})
        session.process_quantum(
            burst(["core1", "core2", "old1"], range(6))
        )
        session.process_quantum(
            burst(["core1", "core2", "new1"], range(6))
        )
        growing = sink.drain()
        assert len(growing) == 1
        assert "new1" in growing[0].keywords
        assert growing[0].size == growing[0].previous_size == 3

    def test_top_k_announces_event_climbing_into_view(self):
        """An event that emerges outside the top-k and later climbs into it
        is announced (as EMERGING) when it enters the view — a top-k
        subscriber never tracks an event it was never told about."""
        session = open_session(exact_config(quantum_size=16))
        sink = QueueSink()
        session.subscribe(sink, top_k=1)
        # quantum 0: strong cluster (6 users) tops weak cluster (3 users)
        session.process_quantum(
            burst(["s1", "s2", "s3"], range(6))
            + burst(["w1", "w2", "w3"], range(10, 13))
        )
        first = sink.drain()
        assert [e.event_id for e in first if e.kind is EventKind.EMERGING] \
            and all("s1" in e.keywords for e in first)
        # quantum 1: the weak cluster overtakes (8 users vs 4)
        session.process_quantum(
            burst(["s1", "s2", "s3"], range(4))
            + burst(["w1", "w2", "w3"], range(10, 18))
        )
        second = sink.drain()
        emerged = [e for e in second if e.kind is EventKind.EMERGING]
        assert len(emerged) == 1
        assert emerged[0].keywords == {"w1", "w2", "w3"}

    def test_top_k_announces_passive_entry_when_leader_dies(self):
        """An unchanged event inheriting a vacated top-k slot is announced:
        view membership, not the event's own transitions, drives it."""
        session = open_session(
            exact_config(quantum_size=16, window_quanta=2)
        )
        sink = QueueSink()
        session.subscribe(sink, top_k=1)
        strong = burst(["s1", "s2", "s3"], range(6))
        weak = burst(["w1", "w2", "w3"], range(10, 13))
        session.process_quantum(strong + weak)
        assert all("s1" in e.keywords for e in sink.drain())
        # the leader's keywords go silent while the weak cluster repeats
        # identically (stays clean); when the leader dies, the weak cluster
        # inherits top-1 without any transition of its own
        session.process_quantum(
            list(weak) + [Message(f"n{i}", tokens=(f"q{i}",)) for i in range(13)]
        )
        session.process_quantum(
            list(weak) + [Message(f"m{i}", tokens=(f"p{i}",)) for i in range(13)]
        )
        events = sink.drain()
        emerged = [e for e in events if e.kind is EventKind.EMERGING]
        assert any(e.keywords == {"w1", "w2", "w3"} for e in emerged)
        died = [e for e in events if e.kind is EventKind.DYING]
        assert any(e.keywords == {"s1", "s2", "s3"} for e in died)

    def test_top_k_dying_only_for_announced_events(self):
        session = open_session(
            exact_config(quantum_size=16, window_quanta=1)
        )
        sink = QueueSink()
        session.subscribe(sink, top_k=1)
        session.process_quantum(
            burst(["s1", "s2", "s3"], range(6))
            + burst(["w1", "w2", "w3"], range(10, 13))
        )
        sink.drain()
        # both clusters die; only the announced (top-1) one notifies DYING
        session.process_quantum(
            [Message(f"n{i}", tokens=(f"q{i}a",)) for i in range(16)]
        )
        dying = [e for e in sink.drain() if e.kind is EventKind.DYING]
        assert len(dying) == 1
        assert dying[0].keywords == {"s1", "s2", "s3"}

    def test_suppressed_clusters_do_not_notify(self):
        session = open_session(exact_config(rank_threshold_scale=100.0))
        sink = QueueSink()
        session.subscribe(sink)
        report = session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert report.suppressed and not report.reported
        assert sink.drain() == []

    def test_notifications_identical_with_and_without_sinks(self):
        """The notified state must not depend on who is listening: a sink
        attached late sees the same transitions as one attached early."""
        early = open_session(exact_config())
        late = open_session(exact_config())
        early_sink = QueueSink()
        early.subscribe(early_sink)
        initial, update = figure1_messages()
        early.process_quantum(initial)
        late.process_quantum(list(initial))
        late_sink = QueueSink()
        late.subscribe(late_sink)
        early_sink.drain()  # drop quantum-0 events
        early.process_quantum(update)
        late.process_quantum(list(update))
        key = lambda e: (e.kind, e.event_id, e.rank, e.size, e.previous_rank)
        assert [key(e) for e in early_sink.drain()] == [
            key(e) for e in late_sink.drain()
        ]


class TestClose:
    def test_close_is_idempotent(self):
        session = open_session(exact_config())
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        session.close()
        assert session.closed
        session.close()  # second close is a no-op, not an error
        assert session.closed

    def test_ingest_after_close_raises(self):
        from repro.errors import PipelineError

        session = open_session(exact_config(quantum_size=3))
        session.close()
        with pytest.raises(PipelineError, match="closed"):
            session.process_quantum(burst(["a1", "b1", "c1"], range(3)))

    def test_close_safe_mid_quantum(self):
        # A partial quantum buffered in the batcher must not block close,
        # and the buffered messages stay snapshot-able right up to close.
        session = open_session(exact_config(quantum_size=4))
        list(session.ingest_many(burst(["a1", "b1"], range(6))))
        assert session.batcher.pending == 2
        session.close()
        assert session.closed

    def test_close_with_delta_log_closes_writer(self, tmp_path):
        session = open_session(
            exact_config(quantum_size=3), delta_log=tmp_path / "delta"
        )
        session.process_quantum(burst(["a1", "b1", "c1"], range(3)))
        session.close()
        session.close()  # must not double-close the writer
        assert session.closed

    def test_context_manager_still_closes_once(self):
        with open_session(exact_config()) as session:
            session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert session.closed
        session.close()


class TestSinks:
    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit("x")
        assert seen == ["x"]

    def test_queue_sink_bounded(self):
        sink = QueueSink(maxlen=2)
        for i in range(5):
            sink.emit(i)
        assert sink.drain() == [3, 4]
        assert sink.dropped == 3

    def test_queue_sink_never_exceeds_maxlen_even_transiently(self):
        # emit used to append first and evict after, so a bounded sink
        # momentarily held maxlen + 1 events — observable from a sink
        # subclass (or a concurrent drain).  Instrument the underlying
        # deque to record the high-water mark across every append.
        from collections import deque

        observed = []

        class SpyingDeque(deque):
            def append(self, event):
                super().append(event)
                observed.append(len(self))

        sink = QueueSink(maxlen=3)
        sink._events = SpyingDeque()
        for i in range(10):
            sink.emit(i)
        assert max(observed) == 3
        assert sink.drain() == [7, 8, 9]
        assert sink.dropped == 7

    def test_queue_sink_maxlen_zero_drops_everything(self):
        sink = QueueSink(maxlen=0)
        for i in range(4):
            sink.emit(i)
        assert len(sink) == 0
        assert sink.drain() == []
        assert sink.dropped == 4

    def test_queue_sink_on_drop_sees_evictions(self):
        evicted = []
        sink = QueueSink(maxlen=2, on_drop=evicted.append)
        for i in range(5):
            sink.emit(i)
        assert evicted == [0, 1, 2]
        assert sink.drain() == [3, 4]
        assert sink.dropped == 3

    def test_queue_sink_on_drop_maxlen_zero_gets_the_event_itself(self):
        evicted = []
        sink = QueueSink(maxlen=0, on_drop=evicted.append)
        for i in range(3):
            sink.emit(i)
        assert evicted == [0, 1, 2]

    def test_queue_sink_on_drop_not_called_within_bound(self):
        evicted = []
        sink = QueueSink(maxlen=10, on_drop=evicted.append)
        for i in range(5):
            sink.emit(i)
        assert evicted == []
        assert sink.dropped == 0

    def test_queue_sink_iteration_preserves_buffer(self):
        sink = QueueSink()
        sink.emit(1)
        sink.emit(2)
        assert list(sink) == [1, 2]
        assert len(sink) == 2
        assert sink.drain() == [1, 2]
        assert len(sink) == 0
