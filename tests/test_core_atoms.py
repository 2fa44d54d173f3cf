"""Short-cycle atom enumeration, cross-checked against brute force."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import (
    atoms_containing_edge,
    atoms_in_subgraph,
    edge_on_short_cycle,
    satisfies_scp,
)
from repro.graph.dynamic_graph import edge_key

from graphs import complete_clique, cycle_graph, gnp_random_graph
from helpers import graph_from_edges


def brute_force_atoms(graph):
    """All 3- and 4-cycles via networkx simple_cycles with a length bound."""
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.nodes())
    nxg.add_edges_from((u, v) for u, v, _ in graph.edges())
    atoms = set()
    for cycle in nx.simple_cycles(nxg, length_bound=4):
        if len(cycle) in (3, 4):
            edges = frozenset(
                edge_key(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            )
            atoms.add(edges)
    return atoms


class TestAtomsContainingEdge:
    def test_triangle(self, triangle):
        atoms = atoms_containing_edge(triangle, 0, 1)
        assert len(atoms) == 1
        assert atoms[0].nodes == frozenset({0, 1, 2})
        assert atoms[0].length == 3

    def test_square(self, square):
        atoms = atoms_containing_edge(square, 0, 1)
        assert len(atoms) == 1
        assert atoms[0].nodes == frozenset({0, 1, 2, 3})
        assert atoms[0].length == 4

    def test_no_cycle(self):
        graph = graph_from_edges([(0, 1), (1, 2)])
        assert atoms_containing_edge(graph, 0, 1) == []

    def test_k4_edge_in_multiple_atoms(self):
        graph = complete_clique(4)
        atoms = atoms_containing_edge(graph, 0, 1)
        # Edge (0,1) lies in 2 triangles ({0,1,2}, {0,1,3}) and in 2 of the
        # 3 distinct 4-cycles of K4 (0-2-3-1 and 0-3-2-1 have different
        # edge sets; 0-2-1-3 does not contain the edge (0,1)).
        triangles = [a for a in atoms if a.length == 3]
        quads = [a for a in atoms if a.length == 4]
        assert len(triangles) == 2
        assert len(quads) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_per_edge(self, seed):
        graph = gnp_random_graph(12, 0.3, seed=seed)
        expected = brute_force_atoms(graph)
        for u, v, _ in graph.edges():
            key = edge_key(u, v)
            ours = {a.edges for a in atoms_containing_edge(graph, u, v)}
            theirs = {a for a in expected if key in a}
            assert ours == theirs


class TestAtomsInSubgraph:
    def test_triangle(self, triangle):
        atoms = atoms_in_subgraph(triangle.adjacency())
        assert len(atoms) == 1

    def test_square_one_quad(self, square):
        atoms = atoms_in_subgraph(square.adjacency())
        assert len(atoms) == 1
        assert atoms[0].length == 4

    def test_square_with_diagonal(self):
        graph = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        atoms = atoms_in_subgraph(graph.adjacency())
        lengths = sorted(a.length for a in atoms)
        assert lengths == [3, 3, 4]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        graph = gnp_random_graph(11, 0.3, seed=seed)
        ours = {a.edges for a in atoms_in_subgraph(graph.adjacency())}
        assert ours == brute_force_atoms(graph)

    def test_atoms_deduplicated(self):
        # C4 enumerated from any anchor must appear exactly once
        graph = cycle_graph(4)
        atoms = atoms_in_subgraph(graph.adjacency())
        assert len(atoms) == 1


class TestEdgeOnShortCycle:
    def adj(self, graph):
        return {n: set(graph.neighbors(n)) for n in graph.nodes()}

    def test_triangle_edge(self, triangle):
        assert edge_on_short_cycle(self.adj(triangle), 0, 1)

    def test_square_edge(self, square):
        assert edge_on_short_cycle(self.adj(square), 0, 1)

    def test_pentagon_edge_not(self):
        graph = cycle_graph(5)
        assert not edge_on_short_cycle(self.adj(graph), 0, 1)

    def test_respects_allowed_edges(self, triangle):
        allowed = {(0, 1), (1, 2)}
        assert not edge_on_short_cycle(
            self.adj(triangle), 0, 1, allowed_edges=allowed
        )

    def test_bridge_edge_not(self):
        graph = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert not edge_on_short_cycle(self.adj(graph), 2, 3)


class TestSatisfiesScp:
    def adj(self, graph):
        return {n: set(graph.neighbors(n)) for n in graph.nodes()}

    def test_triangle(self, triangle):
        edges = {edge_key(u, v) for u, v, _ in triangle.edges()}
        assert satisfies_scp(self.adj(triangle), edges)

    def test_pentagon_fails(self):
        graph = cycle_graph(5)
        edges = {edge_key(u, v) for u, v, _ in graph.edges()}
        assert not satisfies_scp(self.adj(graph), edges)

    def test_figure3b_scp_but_not_mqc(self):
        """Figure 3(b) merged cluster: SCP holds though the graph is not an
        MQC — SCP is necessary but not sufficient for MQC (Section 4.1)."""
        from quasi_clique import is_majority_quasi_clique

        # two squares sharing an edge: every edge on a 4-cycle, min degree 2,
        # N = 6 -> needs >= 2.5 for MQC
        graph = graph_from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)]
        )
        edges = {edge_key(u, v) for u, v, _ in graph.edges()}
        assert satisfies_scp(self.adj(graph), edges)
        assert not is_majority_quasi_clique(graph)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_atom_union_always_satisfies_scp(self, seed):
        """Any union of atoms glued on shared edges satisfies SCP — the
        invariant behind the incremental maintenance."""
        graph = gnp_random_graph(10, 0.35, seed=seed)
        atoms = atoms_in_subgraph(graph.adjacency())
        if not atoms:
            return
        union_edges = set().union(*(a.edges for a in atoms))
        assert satisfies_scp(self.adj(graph), union_edges)
