"""AKG builder: the Section 3 node/edge lifecycle rules."""

import pytest

from helpers import MappingAkgBuilder
from repro.config import DetectorConfig
from repro.core.changelog import NodeWeightChanged
from repro.core.maintenance import ClusterMaintainer


def make_builder(**overrides):
    base = dict(
        quantum_size=8,
        window_quanta=3,
        high_state_threshold=2,
        ec_threshold=0.3,
        use_minhash_filter=False,
        node_grace_quanta=1,
    )
    base.update(overrides)
    maintainer = ClusterMaintainer()
    return MappingAkgBuilder(DetectorConfig(**base), maintainer), maintainer


def quantum(*pairs):
    """Build keyword -> user-set mapping from (keyword, users) pairs."""
    return {kw: set(users) for kw, users in pairs}


class TestNodeLifecycle:
    def test_bursty_keyword_enters_akg(self):
        builder, maintainer = make_builder()
        stats = builder.process_quantum(0, quantum(("hot", [1, 2, 3])))
        assert maintainer.graph.has_node("hot")
        assert stats.nodes_added == 1
        assert stats.bursty_keywords == 1

    def test_sub_threshold_keyword_stays_out(self):
        builder, maintainer = make_builder()
        builder.process_quantum(0, quantum(("cool", [1])))
        assert not maintainer.graph.has_node("cool")

    def test_stale_node_removed(self):
        builder, maintainer = make_builder(window_quanta=2)
        builder.process_quantum(0, quantum(("hot", [1, 2, 3])))
        builder.process_quantum(1, quantum(("x", [9])))
        stats = builder.process_quantum(2, quantum(("y", [9])))
        assert not maintainer.graph.has_node("hot")
        assert stats.nodes_removed_stale >= 1

    def test_lazy_drop_of_unclustered_node(self):
        """A non-clustered keyword that stops bursting is dropped after the
        grace period even while still inside the window."""
        builder, maintainer = make_builder(window_quanta=5, node_grace_quanta=1)
        builder.process_quantum(0, quantum(("hot", [1, 2, 3])))
        builder.process_quantum(1, quantum(("hot", [1])))  # below theta
        stats = builder.process_quantum(2, quantum(("hot", [1])))
        assert not maintainer.graph.has_node("hot")
        assert stats.nodes_removed_lazy >= 1

    def test_clustered_node_survives_without_bursting(self):
        """'A keyword which has moved to AKG remains in AKG as long as it is
        part of an event cluster irrespective of its frequency.'"""
        builder, maintainer = make_builder(window_quanta=6)
        users = [1, 2, 3, 4]
        full = quantum(("a", users), ("b", users), ("c", users))
        builder.process_quantum(0, full)
        assert len(maintainer.registry) == 1
        # keywords keep appearing (no staleness) but below theta
        trickle = quantum(("a", [1]), ("b", [1]), ("c", [1]))
        for q in (1, 2, 3):
            builder.process_quantum(q, trickle)
        assert maintainer.graph.has_node("a")
        assert len(maintainer.registry) == 1


class TestSameQuantumReentry:
    def test_no_duplicate_entry_and_single_weight_delta(self):
        """A keyword whose last window entry expires in the same quantum it
        re-appears must keep exactly one id-set entry and emit exactly one
        NodeWeightChanged — not a stale-then-readd double account."""
        builder, maintainer = make_builder(window_quanta=2, ec_threshold=0.1)
        users = [1, 2, 3]
        builder.process_quantum(
            0, quantum(("hot", users), ("warm", users))
        )  # hot/warm burst -> AKG edge, no cluster (only 2 nodes)
        builder.process_quantum(1, quantum(("hot", [1]), ("warm", [1])))
        maintainer.drain_changes()
        # quantum 2: the quantum-0 entries expire AND both re-appear
        stats = builder.process_quantum(
            2, quantum(("hot", [1, 9]), ("warm", [1, 9]))
        )
        assert builder.idsets.entries("hot") == (
            (1, frozenset({1})),
            (2, frozenset({1, 9})),
        )
        events = [
            e
            for e in maintainer.drain_changes().events
            if isinstance(e, NodeWeightChanged) and e.node == "hot"
        ]
        assert len(events) == 1
        assert (events[0].old, events[0].new) == (3, 2)
        assert stats.nodes_removed_stale == 0
        assert maintainer.graph.has_node("hot")

    def test_reentry_after_full_expiry_rejoins_cleanly(self):
        """Silence for exactly the window length: the keyword's last entry
        expires in the quantum it bursts again, so it must stay in the AKG
        without ever being counted stale."""
        builder, maintainer = make_builder(window_quanta=2)
        builder.process_quantum(0, quantum(("hot", [1, 2, 3])))
        builder.process_quantum(1, quantum(("x", [1, 2])))
        stats = builder.process_quantum(2, quantum(("hot", [4, 5, 6])))
        assert maintainer.graph.has_node("hot")
        assert stats.nodes_removed_stale == 0
        assert builder.idsets.support("hot") == 3
        assert builder.idsets.entries("hot") == ((2, frozenset({4, 5, 6})),)


class TestDeltaDrivenRemoval:
    def test_unclustered_transition_triggers_lazy_drop(self):
        """A clustered keyword that outlives its grace period is dropped in
        the quantum it loses its last cluster — discovered through the
        registry's unclustered listener, not a graph sweep."""
        builder, maintainer = make_builder(
            window_quanta=3, node_grace_quanta=1, ec_threshold=0.4
        )
        users = [1, 2, 3, 4]
        builder.process_quantum(
            0, quantum(("a", users), ("b", users), ("c", users))
        )
        assert len(maintainer.registry) == 1
        # keep the keywords in-window but below theta; grace expires while
        # the triangle still protects them
        for q in (1, 2, 3):
            builder.process_quantum(
                q, quantum(("a", [1]), ("b", [1]), ("c", [1]))
            )
        assert maintainer.graph.has_node("a")
        # disjoint users crash the correlations -> edges drop -> cluster
        # dissolves -> all three become unclustered and past grace
        stats = builder.process_quantum(
            4, quantum(("a", [5]), ("b", [6]), ("c", [7]))
        )
        assert stats.nodes_removed_lazy == 3
        assert not maintainer.graph.has_node("a")
        assert len(maintainer.registry) == 0

    def test_removal_work_tracks_candidates_not_graph(self):
        """The dead-node pass must examine only the delta-sized candidate
        pool: with a large stable clustered vocabulary and one dying
        keyword, candidates stay O(1), not O(nodes)."""
        builder, maintainer = make_builder(
            window_quanta=6, node_grace_quanta=0, ec_threshold=0.1
        )
        users = list(range(4))
        stable = {f"s{i}": set(users) for i in range(30)}
        builder.process_quantum(0, {**stable, "loner": {101, 102, 103}})
        assert maintainer.graph.num_nodes == 31
        # quantum 1: stable keywords burst again (deadlines re-armed, all
        # clustered); the loner's grace deadline fires and it is dropped.
        # The candidate pool is the 31 quantum-0 deadlines, never the
        # vocabulary sweep the oracle does.
        stats = builder.process_quantum(1, stable)
        assert stats.removal_candidates <= 31
        assert not maintainer.graph.has_node("loner")
        # steady state: only the re-armed deadline checks fire
        for q in (2, 3):
            stats = builder.process_quantum(q, stable)
            assert stats.removal_candidates <= 30
        assert maintainer.graph.num_nodes == 30


class TestEdgeLifecycle:
    def test_edge_between_cobursty_keywords(self):
        builder, maintainer = make_builder()
        builder.process_quantum(0, quantum(("a", [1, 2, 3]), ("b", [1, 2, 3])))
        assert maintainer.graph.has_edge("a", "b")
        assert maintainer.graph.edge_weight("a", "b") == pytest.approx(1.0)

    def test_no_edge_below_gamma(self):
        builder, maintainer = make_builder(ec_threshold=0.9)
        builder.process_quantum(0, quantum(("a", [1, 2, 3]), ("b", [3, 4, 5])))
        assert not maintainer.graph.has_edge("a", "b")

    def test_new_edges_only_among_currently_bursty(self):
        """Set (1) of Section 3.2.1: a pair gains a new edge only in a
        quantum where both keywords burst."""
        builder, maintainer = make_builder(window_quanta=5)
        builder.process_quantum(0, quantum(("a", [1, 2, 3])))
        # 'b' bursts later; 'a' stays in window but is not re-bursting:
        # correlation exists in the window but no edge may form
        builder.process_quantum(1, quantum(("b", [1, 2, 3]), ("a", [1])))
        assert not maintainer.graph.has_edge("a", "b")
        # both burst together -> edge forms
        builder.process_quantum(2, quantum(("a", [1, 2, 3]), ("b", [1, 2, 3])))
        assert maintainer.graph.has_edge("a", "b")

    def test_edge_refresh_updates_weight(self):
        """Set (2): edges of keywords seen this quantum are recomputed."""
        builder, maintainer = make_builder(window_quanta=2)
        builder.process_quantum(0, quantum(("a", [1, 2, 3]), ("b", [1, 2, 3])))
        w0 = maintainer.graph.edge_weight("a", "b")
        builder.process_quantum(1, quantum(("a", [1, 2, 3, 4, 5]), ("b", [1])))
        w1 = maintainer.graph.edge_weight("a", "b")
        assert w1 < w0

    def test_edge_dropped_when_correlation_decays(self):
        builder, maintainer = make_builder(window_quanta=2, ec_threshold=0.5)
        builder.process_quantum(0, quantum(("a", [1, 2, 3]), ("b", [1, 2, 3])))
        assert maintainer.graph.has_edge("a", "b")
        builder.process_quantum(
            1, quantum(("a", [4, 5, 6, 7]), ("b", [8, 9, 10, 11]))
        )
        builder.process_quantum(
            2, quantum(("a", [4, 5, 6, 7]), ("b", [8, 9, 10, 11]))
        )
        assert not maintainer.graph.has_edge("a", "b")

    def test_stats_counters(self):
        builder, _ = make_builder()
        stats = builder.process_quantum(
            0, quantum(("a", [1, 2, 3]), ("b", [1, 2, 3]), ("c", [9]))
        )
        assert stats.akg_nodes == 2
        assert stats.akg_edges == 1
        assert stats.edges_added == 1
        assert stats.ec_computations >= 1


class TestMinhashFilterIntegration:
    def test_exact_and_filtered_agree_on_strong_pairs(self):
        """With identical id sets (J = 1) the MinHash filter must not lose
        the pair (collision probability 1)."""
        exact_builder, exact_m = make_builder(use_minhash_filter=False)
        mh_builder, mh_m = make_builder(use_minhash_filter=True)
        data = quantum(("a", [1, 2, 3]), ("b", [1, 2, 3]), ("c", [1, 2, 3]))
        exact_builder.process_quantum(0, data)
        mh_builder.process_quantum(0, data)
        assert exact_m.graph.num_edges == mh_m.graph.num_edges == 3

    def test_filter_reduces_candidate_pairs(self):
        """Disjoint-user keywords are never even EC-checked under MinHash."""
        mh_builder, _ = make_builder(use_minhash_filter=True)
        data = quantum(
            ("a", [1, 2, 3]),
            ("b", [4, 5, 6]),
            ("c", [7, 8, 9]),
            ("d", [10, 11, 12]),
        )
        stats = mh_builder.process_quantum(0, data)
        assert stats.candidate_pairs == 0

    def test_node_weights(self):
        builder, _ = make_builder()
        builder.process_quantum(0, quantum(("a", [1, 2, 3]), ("b", [1, 2])))
        weights = builder.node_weights(["a", "b"])
        assert weights == {"a": 3, "b": 2}
