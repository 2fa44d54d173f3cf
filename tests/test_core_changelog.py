"""Typed change-log events, the log itself, and batch interpretation."""

import pytest

from repro.core.changelog import (
    ChangeBatch,
    ChangeLog,
    ClusterCreated,
    ClusterDissolved,
    ClusterMerged,
    ClusterSplit,
    ClusterUpdated,
    EdgeWeightChanged,
    NodeWeightChanged,
)
from repro.core.clusters import ClusterRegistry


@pytest.fixture
def registry():
    """Two live clusters: a triangle {a,b,c} and a triangle {c,d,e}."""
    registry = ClusterRegistry()
    registry.new_cluster(
        {"a", "b", "c"}, {("a", "b"), ("b", "c"), ("a", "c")}
    )
    registry.new_cluster(
        {"c", "d", "e"}, {("c", "d"), ("d", "e"), ("c", "e")}
    )
    return registry


class TestChangeLog:
    def test_record_and_drain(self):
        log = ChangeLog()
        log.record(ClusterCreated(1))
        log.record(ClusterUpdated(1))
        assert len(log) == 2
        assert bool(log)
        batch = log.drain()
        assert isinstance(batch, ChangeBatch)
        assert [e.kind for e in batch] == ["created", "updated"]
        assert len(log) == 0
        assert not log
        assert len(log.drain()) == 0

    def test_subscribe_sees_every_event(self):
        log = ChangeLog()
        seen = []
        log.subscribe(seen.append)
        log.record(ClusterCreated(1))
        log.record(NodeWeightChanged("a", 1, 2))
        assert [e.kind for e in seen] == ["created", "node-weight"]

    def test_events_are_hashable_and_comparable(self):
        assert ClusterMerged(1, (2, 3)) == ClusterMerged(1, (2, 3))
        assert len({ClusterCreated(1), ClusterCreated(1)}) == 1


class TestChangeBatch:
    def test_absorbed_into(self):
        batch = ChangeBatch(
            (ClusterMerged(1, (2, 3)), ClusterMerged(5, (4,)))
        )
        assert batch.absorbed_into() == {2: 1, 3: 1, 4: 5}

    def test_retired_ids(self):
        batch = ChangeBatch(
            (ClusterDissolved(7), ClusterMerged(1, (2,)), ClusterUpdated(1))
        )
        assert batch.retired_ids() == {7, 2}

    def test_structural_dirty_resolution(self, registry):
        batch = ChangeBatch(
            (
                ClusterCreated(1),
                ClusterMerged(2, (9,)),
                ClusterSplit(1, (10,)),
            )
        )
        # ids not in the registry (9, 10) are dropped
        assert batch.dirty_clusters(registry) == {1, 2}

    def test_node_delta_resolves_to_containing_clusters(self, registry):
        batch = ChangeBatch((NodeWeightChanged("c", 4, 6),))
        assert batch.dirty_clusters(registry) == {1, 2}  # shared node
        batch = ChangeBatch((NodeWeightChanged("a", 4, 6),))
        assert batch.dirty_clusters(registry) == {1}
        batch = ChangeBatch((NodeWeightChanged("zzz", 0, 6),))
        assert batch.dirty_clusters(registry) == set()

    def test_edge_delta_resolves_to_owner(self, registry):
        batch = ChangeBatch((EdgeWeightChanged(("d", "e"), 0.5, 0.9),))
        assert batch.dirty_clusters(registry) == {2}
        # an edge deleted later in the quantum resolves to nothing
        batch = ChangeBatch((EdgeWeightChanged(("a", "zz"), 0.5, 0.9),))
        assert batch.dirty_clusters(registry) == set()

    def test_dissolved_is_not_dirty(self, registry):
        batch = ChangeBatch((ClusterDissolved(1),))
        assert batch.dirty_clusters(registry) == set()
        assert batch.retired_ids() == {1}
