"""Full-CKG counters for the Section 7.4 reduction study."""

import pytest

from repro.akg.ckg_stats import CkgStatsTracker


class TestCkgStats:
    def test_nodes_and_edges_counted(self):
        tracker = CkgStatsTracker(window_quanta=3)
        tracker.add_quantum(0, {1: {"a", "b", "c"}})
        assert tracker.ckg_nodes == 3
        assert tracker.ckg_edges == 3  # triangle of co-occurrence

    def test_edges_require_same_user(self):
        tracker = CkgStatsTracker(window_quanta=3)
        tracker.add_quantum(0, {1: {"a", "b"}, 2: {"c", "d"}})
        assert tracker.ckg_nodes == 4
        assert tracker.ckg_edges == 2  # (a,b) and (c,d) only

    def test_window_expiry(self):
        tracker = CkgStatsTracker(window_quanta=2)
        tracker.add_quantum(0, {1: {"a", "b"}})
        tracker.add_quantum(1, {2: {"c", "d"}})
        tracker.add_quantum(2, {3: {"e", "f"}})
        assert tracker.ckg_nodes == 4  # a, b expired
        assert tracker.ckg_edges == 2

    def test_duplicate_pairs_counted_once(self):
        tracker = CkgStatsTracker(window_quanta=3)
        tracker.add_quantum(0, {1: {"a", "b"}, 2: {"a", "b"}})
        assert tracker.ckg_edges == 1

    def test_pair_cap_limits_flooding(self):
        tracker = CkgStatsTracker(window_quanta=3, max_pairs_per_user=10)
        tracker.add_quantum(0, {1: {f"w{i}" for i in range(30)}})
        assert tracker.ckg_edges <= 10
        assert tracker.truncated_users == 1

    def test_reduction_ratios(self):
        tracker = CkgStatsTracker(window_quanta=3)
        tracker.add_quantum(0, {u: {f"w{u}a", f"w{u}b"} for u in range(50)})
        ratios = tracker.reduction_ratios(akg_nodes=5, akg_edges=1)
        assert ratios["node_ratio"] == pytest.approx(5 / 100)
        assert ratios["edge_ratio"] == pytest.approx(1 / 50)

    def test_empty_ratios(self):
        tracker = CkgStatsTracker(window_quanta=2)
        assert tracker.reduction_ratios(0, 0) == {
            "node_ratio": 0.0,
            "edge_ratio": 0.0,
        }

