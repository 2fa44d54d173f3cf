"""Event lifecycle tracking and the Section 7.2.2 post-hoc spurious rule."""

import pytest

from oracles import ScratchEventTracker
from repro.core.changelog import ChangeBatch, ClusterMerged
from repro.core.clusters import Cluster
from repro.core.events import EventRecord, EventSnapshot
from repro.errors import PipelineError


def cluster(cid, nodes, edges=None, born=0):
    return Cluster(cid, set(nodes), set(edges or ()), born)


def snap(quantum, keywords, rank, support=10.0, edges=3):
    return EventSnapshot(quantum, frozenset(keywords), rank, support, edges)


class TestEventRecord:
    def test_keyword_evolution_detected(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(0, "ab", 5.0), snap(1, "abc", 6.0)]
        assert record.evolved()
        assert record.all_keywords == frozenset("abc")
        assert record.current_keywords == frozenset("abc")

    def test_no_evolution(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(0, "ab", 5.0), snap(1, "ab", 4.0)]
        assert not record.evolved()

    def test_rank_monotonically_decreasing(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(0, "ab", 9.0), snap(1, "ab", 7.0), snap(2, "ab", 7.0)]
        assert record.rank_monotonically_decreasing()
        record.snapshots.append(snap(3, "ab", 8.0))
        assert not record.rank_monotonically_decreasing()

    def test_spurious_burst_and_die(self):
        """No evolution + monotone decay = spurious (ad / rumour shape)."""
        record = EventRecord(1, 0)
        record.snapshots = [snap(q, "ab", 10.0 - q) for q in range(4)]
        assert record.is_spurious()

    def test_real_event_not_spurious(self):
        """Build-up / wind-down with evolution = real."""
        record = EventRecord(1, 0)
        record.snapshots = [
            snap(0, "ab", 4.0),
            snap(1, "abc", 9.0),
            snap(2, "abc", 12.0),
            snap(3, "ab", 6.0),
        ]
        assert not record.is_spurious()

    def test_non_monotone_rank_without_evolution_not_spurious(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(0, "ab", 4.0), snap(1, "ab", 9.0), snap(2, "ab", 5.0)]
        assert not record.is_spurious()

    def test_one_shot_cluster_spurious(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(0, "ab", 10.0)]
        assert record.is_spurious()

    def test_peak_rank_and_lifetime(self):
        record = EventRecord(1, 0)
        record.snapshots = [snap(2, "ab", 4.0), snap(5, "ab", 9.0)]
        assert record.peak_rank == 9.0
        assert record.lifetime_quanta == 4


class TestEventTracker:
    def test_birth_and_snapshotting(self):
        tracker = ScratchEventTracker()
        tracker.observe_quantum(0, [(cluster(1, "abc"), 5.0, 12.0)])
        assert len(tracker) == 1
        record = tracker.get(1)
        assert record.born_quantum == 0
        assert record.snapshots[0].keywords == frozenset("abc")

    def test_death_detected(self):
        tracker = ScratchEventTracker()
        tracker.observe_quantum(0, [(cluster(1, "abc"), 5.0, 12.0)])
        tracker.observe_quantum(1, [])
        record = tracker.get(1)
        assert not record.alive
        assert record.died_quantum == 1

    def test_absorption_attributed(self):
        tracker = ScratchEventTracker()
        tracker.observe_quantum(
            0,
            [(cluster(1, "abc"), 5.0, 12.0), (cluster(2, "xyz"), 4.0, 9.0)],
        )
        tracker.observe_quantum(
            1,
            [(cluster(1, set("abcxyz")), 8.0, 20.0)],
            changes=[ClusterMerged(survivor=1, absorbed=(2,))],
        )
        dead = tracker.get(2)
        assert dead.absorbed_into == 1

    def test_absorption_attributed_from_change_batch(self):
        """The engine path hands the tracker a drained ChangeBatch."""
        tracker = ScratchEventTracker()
        tracker.observe_quantum(
            0,
            [(cluster(1, "abc"), 5.0, 12.0), (cluster(2, "xyz"), 4.0, 9.0)],
        )
        tracker.observe_quantum(
            1,
            [(cluster(1, set("abcxyz")), 8.0, 20.0)],
            changes=ChangeBatch((ClusterMerged(survivor=1, absorbed=(2,)),)),
        )
        assert tracker.get(2).absorbed_into == 1

    def test_a_dead_record_is_final(self):
        """A retired id that comes back is a broken invariant, not an
        event to reopen: the touch raises and the record stays dead."""
        tracker = ScratchEventTracker()
        tracker.observe_quantum(0, [(cluster(1, "abc"), 5.0, 12.0)])
        tracker.observe_quantum(1, [])
        with pytest.raises(PipelineError, match="event 1 died at quantum 1"):
            tracker.observe_quantum(2, [(cluster(1, "abd"), 6.0, 12.0)])
        record = tracker.get(1)
        assert not record.alive and record.died_quantum == 1
        assert [s.quantum for s in record.snapshots] == [0]

    def test_alive_events(self):
        tracker = ScratchEventTracker()
        tracker.observe_quantum(
            0,
            [
                (cluster(1, "abc"), 5.0, 12.0),
                (cluster(2, "def"), 9.0, 14.0),
                (cluster(3, "ghi"), 2.0, 5.0),
            ],
        )
        assert [r.event_id for r in tracker.alive_events()] == [1, 2, 3]
        tracker.observe_quantum(1, [(cluster(2, "def"), 9.0, 14.0)])
        assert [r.event_id for r in tracker.alive_events()] == [2]

    def test_real_events_filter(self):
        tracker = ScratchEventTracker()
        for q in range(3):
            tracker.observe_quantum(
                q,
                [
                    (cluster(1, "abc" if q < 2 else "abcd"), 5.0 + q, 12.0),
                    (cluster(2, "xyz"), 9.0 - q, 14.0),
                ],
            )
        real = tracker.real_events()
        assert [r.event_id for r in real] == [1]
