"""Incremental cluster maintenance: the Section 5 algorithms.

Each operation is checked against the global decomposition oracle
(Theorem 3) and against the concrete walkthroughs of Figures 5 and 6.
"""

import pytest

from repro.core.maintenance import ClusterMaintainer, decompose_graph

from graphs import complete_clique, gnp_random_graph
from helpers import (
    brute_force_decomposition,
    check_decomposition,
    graph_from_edges,
)


@pytest.fixture
def maintainer():
    return ClusterMaintainer()


def build(maintainer, edges, nodes=()):
    """Apply an edge list through the maintainer (nodes auto-added)."""
    for u, v in edges:
        maintainer.graph.ensure_node(u)
        maintainer.graph.ensure_node(v)
        maintainer.add_edge(u, v)
    for n in nodes:
        maintainer.graph.ensure_node(n)
    return maintainer


def cluster_node_sets(maintainer):
    return {frozenset(c.nodes) for c in maintainer.registry}


class TestEdgeAddition:
    def test_triangle_forms_cluster(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c")])
        assert len(maintainer.registry) == 0  # no cycle yet
        cluster = maintainer.add_edge("a", "c")
        assert cluster is not None
        assert cluster.nodes == {"a", "b", "c"}

    def test_four_cycle_forms_cluster(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("c", "d")])
        cluster = maintainer.add_edge("a", "d")
        assert cluster.nodes == {"a", "b", "c", "d"}

    def test_chain_edge_creates_nothing(self, maintainer):
        build(maintainer, [("a", "b")])
        maintainer.graph.ensure_node("c")
        assert maintainer.add_edge("b", "c") is None
        assert len(maintainer.registry) == 0

    def test_lemma6_shared_edge_merges(self, maintainer):
        """Lemma 6: two aMQCs sharing an edge merge into one."""
        build(
            maintainer,
            [("a", "b"), ("b", "c"), ("a", "c")],  # triangle 1
        )
        build(maintainer, [("b", "d")])
        cluster = maintainer.add_edge("c", "d")  # triangle 2 shares edge (b,c)
        assert len(maintainer.registry) == 1
        assert cluster.nodes == {"a", "b", "c", "d"}

    def test_figure5a_edge_addition(self, maintainer):
        """Figure 5(a): edge (1,2) arrives; clusters (1,2,4), (1,2,4,5) and
        (1,2,3,4) form and merge into C3 = {1,2,3,4,5}."""
        build(
            maintainer,
            [(1, 4), (2, 4), (1, 5), (2, 5), (1, 3), (3, 4)],
        )
        cluster = maintainer.add_edge(1, 2)
        assert cluster is not None
        assert cluster.nodes == {1, 2, 3, 4, 5}
        check_decomposition(maintainer)

    def test_example2_merge_via_new_edges(self, maintainer):
        """Section 4.2 Example 2 / Figure 3(b): two clusters merge when new
        edges create a short cycle across them."""
        build(maintainer, [("a1", "a2"), ("a2", "a3"), ("a1", "a3")])
        build(maintainer, [("b1", "b2"), ("b2", "b3"), ("b1", "b3")])
        assert len(maintainer.registry) == 2
        maintainer.add_edge("a1", "b1")
        assert len(maintainer.registry) == 2  # single cross edge: no cycle
        cluster = maintainer.add_edge("a2", "b2")  # still length-5 cycles only?
        # a1-b1 + a2-b2 with a1~a2 and b1~b2 closes 4-cycle a1-b1-b2-a2
        assert len(maintainer.registry) == 1
        merged = next(iter(maintainer.registry))
        assert {"a1", "a2", "a3", "b1", "b2", "b3"} <= merged.nodes
        check_decomposition(maintainer)


class TestNodeAddition:
    def test_figure2a_rule_r1(self, maintainer):
        """R1: incoming n correlates with n1, n2 having common neighbour nc."""
        build(maintainer, [("n1", "nc"), ("n2", "nc")])
        clusters = maintainer.add_node_with_edges(
            "n", {"n1": 1.0, "n2": 1.0}
        )
        assert len(clusters) == 1
        assert clusters[0].nodes == {"n", "n1", "n2", "nc"}

    def test_figure2b_rule_r2(self, maintainer):
        """R2: incoming n correlates with adjacent n1, n2."""
        build(maintainer, [("n1", "n2")])
        clusters = maintainer.add_node_with_edges(
            "n", {"n1": 1.0, "n2": 1.0}
        )
        assert len(clusters) == 1
        assert clusters[0].nodes == {"n", "n1", "n2"}

    def test_zero_or_one_correlation_no_cluster(self, maintainer):
        """'If the incoming node shows correlation with zero or one node, we
        simply add that node (and edge) and do nothing.'"""
        build(maintainer, [("n1", "n2")])
        assert maintainer.add_node_with_edges("x", {"n1": 1.0}) == []
        assert maintainer.add_node_with_edges("y", {}) == []
        assert len(maintainer.registry) == 0

    def test_figure5b_node_addition_merges_clusters(self, maintainer):
        """Figure 5(b): node n with edges to 1 and 2 joins via common
        neighbour 4 and the new cluster merges with C1 and C2."""
        build(
            maintainer,
            [(1, 3), (3, 4), (1, 4), (2, 4), (2, 5), (4, 5)],
        )
        assert len(maintainer.registry) == 2
        clusters = maintainer.add_node_with_edges("n", {1: 1.0, 2: 1.0})
        assert len(maintainer.registry) == 1
        merged = next(iter(maintainer.registry))
        assert merged.nodes == {1, 2, 3, 4, 5, "n"}
        check_decomposition(maintainer)

    def test_example1_eighth_node_joins_mqc(self, maintainer):
        """Section 4.2 Example 1: an MQC of size 7 admits an 8th node through
        SCP without the stringent MQC degree requirement."""
        clique = complete_clique(7)
        for n in clique.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in clique.edges():
            maintainer.add_edge(u, v)
        assert len(maintainer.registry) == 1
        clusters = maintainer.add_node_with_edges(7, {0: 1.0, 1: 1.0})
        assert len(maintainer.registry) == 1
        assert 7 in next(iter(maintainer.registry)).nodes


class TestNodeDeletion:
    def test_figure5c_cluster_dissolves(self, maintainer):
        """Figure 5(c) behaviour (topology adapted — the figure's exact edge
        set is not recoverable from the text): every short cycle of the
        cluster passes through n, so when n departs the cycle check removes
        edge after edge and the whole cluster is discarded."""
        build(
            maintainer,
            [("n", 1), ("n", 3), ("n", 4), (3, 4), (1, 2), (2, 3)],
        )
        assert len(maintainer.registry) == 1
        assert next(iter(maintainer.registry)).nodes == {"n", 1, 2, 3, 4}
        maintainer.remove_node("n")
        assert len(maintainer.registry) == 0
        check_decomposition(maintainer)

    def test_figure6_articulation_split(self, maintainer, figure6_graph):
        """Figure 6: deleting node 9 splits the cluster at articulation
        node 3 into two clusters."""
        for n in figure6_graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in figure6_graph.edges():
            maintainer.add_edge(u, v)
        assert len(maintainer.registry) == 1
        maintainer.remove_node(9)
        check_decomposition(maintainer)
        sets = cluster_node_sets(maintainer)
        assert len(sets) == 2
        assert frozenset({0, 1, 2, 3, 10, 11}) in sets
        assert frozenset({3, 4, 5, 6, 7, 8}) in sets

    def test_lemma7_degree_two_deletion(self, maintainer, figure2a_graph):
        """Lemma 7 setting: n has exactly edges to n1, n2 with common
        neighbour nc; removing n leaves no cluster (the 4-cycle dies)."""
        for n in figure2a_graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in figure2a_graph.edges():
            maintainer.add_edge(u, v)
        assert len(maintainer.registry) == 1
        maintainer.remove_node("n")
        assert len(maintainer.registry) == 0

    def test_unclustered_node_removal(self, maintainer):
        build(maintainer, [("a", "b")])
        maintainer.remove_node("a")
        assert not maintainer.graph.has_node("a")

    def test_batched_node_removal(self, maintainer):
        build(
            maintainer,
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
        )
        maintainer.remove_nodes(["a", "x"])
        assert len(maintainer.registry) == 0
        check_decomposition(maintainer)


class TestEdgeDeletion:
    def test_figure5d_edge_deletion(self, maintainer):
        """Figure 5(d) behaviour (topology adapted): removing edge (n,1)
        breaks the only short cycle containing nodes 1 and 2; the cycle
        check drops them and a smaller cluster with nodes (3,4,n) remains."""
        build(
            maintainer,
            [
                ("n", 1), (1, 2), (2, 3), (3, "n"),  # quad through 1, 2
                (3, 4), (4, "n"),                      # triangle (3,4,n)
            ],
        )
        assert len(maintainer.registry) == 1
        assert next(iter(maintainer.registry)).nodes == {"n", 1, 2, 3, 4}
        maintainer.remove_edge("n", 1)
        check_decomposition(maintainer)
        sets = cluster_node_sets(maintainer)
        assert sets == {frozenset({3, 4, "n"})}

    def test_triangle_edge_removal_dissolves(self, maintainer, triangle):
        for n in triangle.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in triangle.edges():
            maintainer.add_edge(u, v)
        maintainer.remove_edge(0, 1)
        assert len(maintainer.registry) == 0

    def test_clique_tolerates_edge_loss(self, maintainer):
        clique = complete_clique(5)
        for n in clique.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in clique.edges():
            maintainer.add_edge(u, v)
        maintainer.remove_edge(0, 1)
        assert len(maintainer.registry) == 1
        cluster = next(iter(maintainer.registry))
        assert cluster.nodes == {0, 1, 2, 3, 4}
        check_decomposition(maintainer)


class TestGlobalOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_decompose_graph_matches_brute_force(self, seed):
        graph = gnp_random_graph(12, 0.25, seed=seed)
        ours = {
            frozenset(edges) for _, edges in decompose_graph(graph)
        }
        assert ours == brute_force_decomposition(graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_build_matches_oracle(self, seed):
        graph = gnp_random_graph(14, 0.2, seed=seed)
        maintainer = ClusterMaintainer()
        for n in graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in graph.edges():
            maintainer.add_edge(u, v)
        check_decomposition(maintainer)
        maintainer.registry.check_integrity()

    def test_lemma5_order_independence(self):
        """Lemma 5: the final clusters do not depend on edge order."""
        import random

        graph = gnp_random_graph(12, 0.3, seed=42)
        edges = [(u, v) for u, v, _ in graph.edges()]
        reference = None
        for shuffle_seed in range(6):
            order = edges[:]
            random.Random(shuffle_seed).shuffle(order)
            maintainer = ClusterMaintainer()
            for n in graph.nodes():
                maintainer.graph.ensure_node(n)
            for u, v in order:
                maintainer.add_edge(u, v)
            snapshot = maintainer.registry.decomposition()
            if reference is None:
                reference = snapshot
            assert snapshot == reference


class TestChangeLog:
    def test_created_and_merged_entries(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        changes = maintainer.drain_changes().events
        assert ("created" in {c.kind for c in changes})
        assert maintainer.drain_changes().events == ()  # cleared

    def test_split_entry(self, maintainer, figure6_graph):
        for n in figure6_graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in figure6_graph.edges():
            maintainer.add_edge(u, v)
        maintainer.drain_changes().events
        maintainer.remove_node(9)
        kinds = {c.kind for c in maintainer.drain_changes().events}
        assert "split" in kinds

    def test_dissolved_entry(self, maintainer, triangle):
        for n in triangle.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in triangle.edges():
            maintainer.add_edge(u, v)
        maintainer.drain_changes().events
        maintainer.remove_edge(0, 1)
        kinds = {c.kind for c in maintainer.drain_changes().events}
        assert "dissolved" in kinds

    def test_edge_weight_delta_recorded(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        maintainer.drain_changes().events
        maintainer.set_edge_weight("a", "b", 0.75)
        changes = maintainer.drain_changes().events
        assert [c.kind for c in changes] == ["edge-weight"]
        assert changes[0].edge == ("a", "b")
        assert changes[0].new == 0.75

    def test_same_weight_refresh_is_silent(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        maintainer.drain_changes().events
        maintainer.set_edge_weight("a", "b", 1.0)  # unchanged value
        assert maintainer.drain_changes().events == ()

    def test_drain_changes_returns_batch(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        batch = maintainer.drain_changes()
        assert batch.dirty_clusters(maintainer.registry)
        assert len(maintainer.drain_changes()) == 0  # cleared
