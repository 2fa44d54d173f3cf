"""The paper's formal claims as executable checks.

Theorem 1  — every MQC (gamma >= 1/2) satisfies the short-cycle property.
Theorem 2  — clusters discovered through SCP are biconnected.
Theorem 3  — local maintenance yields the unique global decomposition
             (exercised continuously by the state machine in
             test_core_maintenance_properties; spot checks here).
Lemma 6    — aMQCs sharing an edge merge.
Section 4.1's asymmetries:
  * SCP necessary but NOT sufficient for MQC;
  * SCP sufficient but NOT necessary for biconnectivity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import satisfies_scp
from repro.core.maintenance import ClusterMaintainer, decompose_graph
from repro.graph.biconnected import is_biconnected
from repro.graph.dynamic_graph import edge_key

from graphs import (
    complete_clique,
    cycle_graph,
    glued_cycles,
    gnp_random_graph,
    random_mqc,
    two_triangles_bowtie,
)
from helpers import check_decomposition, graph_from_edges
from quasi_clique import is_majority_quasi_clique


def full_edge_set(graph):
    return {edge_key(u, v) for u, v, _ in graph.edges()}


def adjacency_sets(graph):
    return {n: set(graph.neighbors(n)) for n in graph.nodes()}


class TestTheorem1:
    """MQC => SCP for *strict* majority quasi cliques (degree > (N-1)/2).

    The paper's verbal definition — "each node of the cluster is connected
    with a majority of the remaining nodes" — is the strict reading, under
    which the theorem holds.  The numeric boundary gamma == 1/2 exactly
    (degree == (N-1)/2, only possible at odd N) admits counterexamples: the
    5-cycle is the canonical one (tested below).  Even-N boundary MQCs are
    safe because ceil((N-1)/2) > (N-1)/2 there.
    """

    @given(n=st.integers(4, 10), seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_strict_mqcs_satisfy_scp(self, n, seed):
        graph = random_mqc(n, seed=seed, strict=True)
        assert is_majority_quasi_clique(graph)
        assert satisfies_scp(adjacency_sets(graph), full_edge_set(graph))

    @given(n=st.sampled_from([4, 6, 8, 10]), seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_even_n_boundary_mqcs_satisfy_scp(self, n, seed):
        graph = random_mqc(n, seed=seed, strict=False)
        assert is_majority_quasi_clique(graph)
        assert satisfies_scp(adjacency_sets(graph), full_edge_set(graph))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_any_random_graph_that_is_strict_mqc_satisfies_scp(self, seed):
        graph = gnp_random_graph(7, 0.6, seed=seed)
        n = graph.num_nodes
        if not all(graph.degree(v) > (n - 1) / 2 for v in graph.nodes()):
            return
        assert satisfies_scp(adjacency_sets(graph), full_edge_set(graph))

    def test_complete_clique(self):
        graph = complete_clique(5)
        assert satisfies_scp(adjacency_sets(graph), full_edge_set(graph))

    def test_c5_boundary_counterexample(self):
        """The 5-cycle meets gamma >= 1/2 numerically (degree 2 = (N-1)/2)
        but has no cycle shorter than 5 — the literal Theorem 1 statement
        does not cover this tight odd-N boundary.  Recorded as a documented
        deviation; the SCP machinery correctly reports no cluster here."""
        graph = cycle_graph(5)
        assert is_majority_quasi_clique(graph)  # numeric boundary reading
        assert not satisfies_scp(adjacency_sets(graph), full_edge_set(graph))
        assert decompose_graph(graph) == []

    def test_scp_not_sufficient_for_mqc(self):
        """Converse fails: glued squares satisfy SCP without being an MQC."""
        graph, _ = glued_cycles([4, 4, 4], seed=0)
        assert satisfies_scp(adjacency_sets(graph), full_edge_set(graph))
        assert not is_majority_quasi_clique(graph)


class TestTheorem2:
    """Clusters discovered through SCP are biconnected."""

    @given(seed=st.integers(0, 100_000), p=st.floats(0.1, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_every_discovered_cluster_biconnected(self, seed, p):
        graph = gnp_random_graph(12, p, seed=seed)
        for nodes, edges in decompose_graph(graph):
            adjacency = {n: set() for n in nodes}
            for u, v in edges:
                adjacency[u].add(v)
                adjacency[v].add(u)
            assert is_biconnected(adjacency)

    def test_scp_not_necessary_for_biconnectivity(self):
        """A 5-cycle is biconnected but has no SCP cluster."""
        graph = cycle_graph(5)
        assert is_biconnected(graph)
        assert decompose_graph(graph) == []


class TestTheorem3:
    """Spot checks of local == global (the state machine covers depth)."""

    def test_bowtie_two_clusters(self):
        graph = two_triangles_bowtie()
        groups = decompose_graph(graph)
        assert len(groups) == 2
        node_sets = {frozenset(nodes) for nodes, _ in groups}
        assert node_sets == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}

    def test_glued_chain_single_cluster(self):
        graph, cycles = glued_cycles([3, 4, 3, 4], seed=1)
        groups = decompose_graph(graph)
        assert len(groups) == 1
        all_nodes = set().union(*(set(c) for c in cycles))
        assert groups[0][0] == all_nodes

    def test_incremental_equals_global_after_churn(self):
        maintainer = ClusterMaintainer()
        graph = gnp_random_graph(15, 0.25, seed=9)
        for n in graph.nodes():
            maintainer.graph.ensure_node(n)
        edges = [(u, v) for u, v, _ in graph.edges()]
        for u, v in edges:
            maintainer.add_edge(u, v)
        for u, v in edges[::3]:
            maintainer.remove_edge(u, v)
        for node in (1, 5, 9):
            if maintainer.graph.has_node(node):
                maintainer.remove_node(node)
        check_decomposition(maintainer)


class TestLemma6:
    def test_shared_edge_merges(self):
        maintainer = ClusterMaintainer()
        for n in ("a", "b", "c", "d"):
            maintainer.graph.ensure_node(n)
        maintainer.add_edge("a", "b")
        maintainer.add_edge("b", "c")
        maintainer.add_edge("a", "c")  # triangle 1
        maintainer.add_edge("b", "d")
        maintainer.add_edge("c", "d")  # triangle 2 shares edge (b, c)
        assert len(maintainer.registry) == 1

    def test_shared_node_does_not_merge(self):
        graph = two_triangles_bowtie()
        maintainer = ClusterMaintainer()
        for n in graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in graph.edges():
            maintainer.add_edge(u, v)
        assert len(maintainer.registry) == 2


class TestClusterPropertiesP1P2P3:
    """Section 4.3 summary: P1 (SCP), P2 (biconnected), P3 (unique) for
    clusters produced by incremental maintenance on random graphs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_properties(self, seed):
        graph = gnp_random_graph(14, 0.25, seed=seed)
        maintainer = ClusterMaintainer()
        for n in graph.nodes():
            maintainer.graph.ensure_node(n)
        for u, v, _ in graph.edges():
            maintainer.add_edge(u, v)
        for cluster in maintainer.registry:
            adjacency = cluster.adjacency()
            assert satisfies_scp(adjacency, cluster.edges)  # P1
            assert is_biconnected(adjacency)  # P2
        check_decomposition(maintainer)  # P3
