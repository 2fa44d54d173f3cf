"""Offline biconnected baseline and snapshot tracking."""

from repro.api import open_session
from repro.baselines.offline_bc import OfflineBcObserver
from repro.baselines.tracking import SnapshotEventTracker
from repro.config import DetectorConfig
from repro.stream.messages import Message


def exact_config(**overrides):
    base = dict(
        quantum_size=6,
        window_quanta=4,
        high_state_threshold=2,
        ec_threshold=0.1,
        use_minhash_filter=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def burst(keywords, users):
    return [Message(f"u{u}", tokens=tuple(keywords)) for u in users]


class TestSnapshotEventTracker:
    def test_identity_by_overlap(self):
        tracker = SnapshotEventTracker()
        tracker.observe_quantum(0, [(frozenset("abc"), 5.0, 10.0, 3)])
        tracker.observe_quantum(1, [(frozenset("abcd"), 6.0, 12.0, 4)])
        events = tracker.all_events()
        assert len(events) == 1
        assert len(events[0].snapshots) == 2

    def test_insufficient_overlap_opens_new_event(self):
        tracker = SnapshotEventTracker(min_overlap=2)
        tracker.observe_quantum(0, [(frozenset("abc"), 5.0, 10.0, 3)])
        tracker.observe_quantum(1, [(frozenset("cxy"), 5.0, 10.0, 3)])
        assert len(tracker) == 2

    def test_death_recorded(self):
        tracker = SnapshotEventTracker()
        tracker.observe_quantum(0, [(frozenset("abc"), 5.0, 10.0, 3)])
        tracker.observe_quantum(1, [])
        assert not tracker.all_events()[0].alive

    def test_greedy_prefers_largest_overlap(self):
        tracker = SnapshotEventTracker()
        tracker.observe_quantum(
            0,
            [
                (frozenset("abcd"), 5.0, 10.0, 4),
                (frozenset("cdxy"), 5.0, 10.0, 4),
            ],
        )
        ids = {
            frozenset(r.snapshots[0].keywords): r.event_id
            for r in tracker.all_events()
        }
        tracker.observe_quantum(1, [(frozenset("abcde"), 6.0, 11.0, 5)])
        survivor = [r for r in tracker.all_events() if r.alive]
        assert len(survivor) == 1
        assert survivor[0].event_id == ids[frozenset("abcd")]

    def test_one_event_per_cluster_per_quantum(self):
        tracker = SnapshotEventTracker()
        tracker.observe_quantum(0, [(frozenset("abc"), 5.0, 10.0, 3)])
        tracker.observe_quantum(
            1,
            [
                (frozenset("abx"), 5.0, 10.0, 3),
                (frozenset("acy"), 5.0, 10.0, 3),
            ],
        )
        # only one of the two split fragments may inherit the identity
        assert len(tracker) == 2


class TestOfflineBcObserver:
    def test_same_graph_same_clusters_simple_case(self):
        """On a single clean triangle, SCP and BC agree exactly."""
        detector = open_session(exact_config())
        observer = OfflineBcObserver(detector)
        detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        snapshot = observer.observe_quantum()
        assert len(snapshot.clusters) == 1
        nodes, edges = snapshot.clusters[0]
        assert nodes == {"a1", "b1", "c1"}
        assert len(edges) == 3

    def test_bridge_reported_as_edge_cluster(self):
        """An edge outside every biconnected cluster becomes a size-2
        cluster in the +Edges variant (Section 7.3)."""
        detector = open_session(exact_config())
        observer = OfflineBcObserver(detector)
        # one triangle plus one isolated correlated pair
        messages = burst(["a1", "b1", "c1"], range(6)) + burst(
            ["p1", "q1"], range(10, 14)
        )
        detector.process_quantum(messages)
        snapshot = observer.observe_quantum()
        assert len(snapshot.clusters) == 1
        assert len(snapshot.edge_clusters) == 1
        assert snapshot.num_with_edges == 2

    def test_pentagon_is_bc_but_not_scp(self):
        """A 5-cycle is one biconnected cluster yet no SCP cluster — SCP is
        sufficient, not necessary, for biconnectivity (Section 4.3)."""
        detector = open_session(exact_config())
        observer = OfflineBcObserver(detector)
        ring = ["r1", "r2", "r3", "r4", "r5"]
        messages = []
        for i, kw in enumerate(ring):
            nxt = ring[(i + 1) % 5]
            messages.extend(
                Message(f"u{i}_{j}", tokens=(kw, nxt)) for j in range(3)
            )
        detector.process_quantum(messages)
        snapshot = observer.observe_quantum()
        assert len(detector.registry) == 0  # SCP finds nothing
        assert any(len(nodes) == 5 for nodes, _ in snapshot.clusters)

    def test_events_tracked_across_quanta(self):
        detector = open_session(exact_config())
        observer = OfflineBcObserver(detector)
        for _ in range(3):
            detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
            observer.observe_quantum()
        events = observer.events()
        assert len(events) == 1
        assert len(events[0].snapshots) == 3

    def test_timing_accumulated(self):
        detector = open_session(exact_config())
        observer = OfflineBcObserver(detector)
        detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        observer.observe_quantum()
        assert observer.total_seconds > 0

