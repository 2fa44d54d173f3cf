"""Edit-script event tracking vs the from-scratch full-ranking diff.

``EventTracker.observe_edits`` touches only the ranker's
``last_recomputed``/``last_removed`` ids; the test-side
``ScratchEventTracker.observe_quantum`` visits every live cluster and diffs
by value.  Both must produce *identical* records — checked here over full
engine runs (the edit script comes from the real incremental ranker)
against a shadow tracker fed the full ranking each quantum, across the
three stream regimes.

A second group checks the change-point encoding itself: the dense
``iter_quanta`` expansion and the span properties.
"""

import random

import pytest

from oracles import ScratchEventTracker
from repro.api import open_session
from repro.config import DetectorConfig
from repro.core.events import EventRecord, EventSnapshot, EventTracker
from repro.errors import PipelineError
from repro.stream.messages import Message


def make_config(**overrides):
    base = dict(
        quantum_size=20,
        window_quanta=3,
        high_state_threshold=3,
        ec_threshold=0.2,
        node_grace_quanta=1,
        require_noun=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def bursty_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"k{i}" for i in range(6)]
    return [
        Message(
            f"u{rng.randrange(20)}",
            tokens=tuple(rng.sample(keywords, rng.randint(2, 4))),
        )
        for _ in range(n)
    ]


def uniform_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"w{i}" for i in range(40)]
    return [
        Message(
            f"u{rng.randrange(60)}",
            tokens=tuple(rng.sample(keywords, rng.randint(1, 3))),
        )
        for _ in range(n)
    ]


def reentry_stream(seed, n, config):
    rng = random.Random(seed)
    group_a = [f"a{i}" for i in range(4)]
    group_b = [f"b{i}" for i in range(4)]
    period = config.quantum_size * config.window_quanta
    return [
        Message(
            f"u{rng.randrange(15)}",
            tokens=tuple(
                rng.sample(
                    group_a if (i // period) % 2 == 0 else group_b,
                    rng.randint(2, 3),
                )
            ),
        )
        for i in range(n)
    ]


STREAMS = {
    "bursty": lambda config: bursty_stream(5, 600),
    "uniform": lambda config: uniform_stream(6, 600),
    "reentry": lambda config: reentry_stream(7, 600, config),
}


@pytest.mark.parametrize("regime", sorted(STREAMS))
def test_edit_script_tracking_equals_full_scan(regime):
    """The engine's edit-script tracker must equal a from-scratch shadow
    tracker fed the complete ranking every quantum, record for record."""
    config = make_config()
    session = open_session(config)
    shadow = ScratchEventTracker()
    for message in STREAMS[regime](config):
        report = session.ingest(message)
        if report is None:
            continue
        # Feed the shadow tracker the *full* current ranking; with no dirty
        # ids pending, rank_all() re-emits the maintained result list the
        # report stage just consumed, without perturbing session state.
        ranked = session.ranker.rank_all()
        shadow.observe_quantum(report.quantum, ranked)
    assert session.tracker.to_state() == shadow.to_state(), (
        f"edit-script records diverged from the full-scan oracle ({regime})"
    )


class TestChangePointEncoding:
    def snap(self, quantum, keywords, rank):
        return EventSnapshot(quantum, frozenset(keywords), rank, 1.0, 3)

    def test_touch_dedupes_unchanged_state(self):
        tracker = EventTracker()
        tracker._touch(1, 0, frozenset("ab"), 5.0, 1.0, 3)
        tracker._touch(1, 1, frozenset("ab"), 5.0, 1.0, 3)
        tracker._touch(1, 2, frozenset("ab"), 6.0, 1.0, 3)
        record = tracker._records[1]
        assert [s.quantum for s in record.snapshots] == [0, 2]

    def test_iter_quanta_expands_runs(self):
        record = EventRecord(1, 0)
        record.snapshots = [self.snap(0, "ab", 5.0), self.snap(3, "abc", 6.0)]
        record._observed_until = 5
        expanded = list(record.iter_quanta())
        assert [q for q, _ in expanded] == [0, 1, 2, 3, 4, 5]
        assert [s.rank for _, s in expanded] == [5.0, 5.0, 5.0, 6.0, 6.0, 6.0]

    def test_touch_on_a_dead_record_raises(self):
        """A dead record is final: seeing its id alive again is a broken
        invariant (retired ids never return), not a reopening."""
        tracker = EventTracker()
        tracker._touch(1, 0, frozenset("ab"), 5.0, 1.0, 3)
        tracker._records[1].died_quantum = 2
        with pytest.raises(PipelineError, match="retired cluster id"):
            tracker._touch(1, 4, frozenset("ab"), 5.0, 1.0, 3)
        record = tracker.get(1)
        assert record.died_quantum == 2 and len(record.snapshots) == 1

    def test_spans_for_dead_and_alive_records(self):
        tracker = EventTracker()
        tracker._touch(1, 3, frozenset("ab"), 5.0, 1.0, 3)
        tracker._last_quantum = 9
        alive = tracker.get(1)
        assert alive.last_quantum == 9
        assert alive.lifetime_quanta == 7
        alive.died_quantum = 8
        assert alive.last_quantum == 7
        assert alive.lifetime_quanta == 5

    def test_manual_dense_records_keep_legacy_semantics(self):
        record = EventRecord(1, 0)
        record.snapshots = [self.snap(2, "ab", 4.0), self.snap(5, "ab", 9.0)]
        assert record.first_quantum == 2
        assert record.last_quantum == 5
        assert record.lifetime_quanta == 4

    def test_spurious_gate_counts_the_lifetime(self):
        """is_spurious's min_lifetime guard counts every quantum from the
        first change point to the horizon, as the dense encoding's
        len(snapshots) did."""
        record = EventRecord(1, 0)
        record.snapshots = [self.snap(0, "ab", 5.0), self.snap(2, "ab", 9.0)]
        record._observed_until = 2
        assert record.lifetime_quanta == len(list(record.iter_quanta())) == 3
        # below the guard: spurious iff not evolved, despite the rising rank
        assert record.is_spurious(min_lifetime=4)
        assert not record.is_spurious(min_lifetime=3)  # rank rose -> real


class TestSharedKeywordSets:
    """A change point that keeps its keyword set stores no new set: the
    snapshot reuses the previous one's object, live and after a restore."""

    @staticmethod
    def shared_and_fresh(tracker):
        shared = fresh = 0
        for record in tracker.all_events():
            for prev, snap in zip(record.snapshots, record.snapshots[1:]):
                if prev.keywords == snap.keywords:
                    assert snap.keywords is prev.keywords, record.event_id
                    shared += 1
                else:
                    fresh += 1
        return shared, fresh

    @pytest.mark.parametrize("regime", ["bursty", "reentry"])
    def test_equal_consecutive_keyword_sets_are_one_object(self, regime):
        config = make_config()
        session = open_session(config)
        for _ in session.ingest_many(STREAMS[regime](config)):
            pass
        shared, fresh = self.shared_and_fresh(session.tracker)
        assert shared > 0, "the stream must have rank-only change points"
        restored = EventTracker()
        restored.from_state(session.tracker.to_state())
        assert self.shared_and_fresh(restored) == (shared, fresh)
        assert restored.to_state() == session.tracker.to_state()

    def test_snapshots_have_no_instance_dict(self):
        snap = EventSnapshot(0, frozenset("ab"), 1.0, 1.0, 1)
        assert not hasattr(snap, "__dict__")
