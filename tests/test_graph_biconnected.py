"""Biconnected components / articulation points, cross-checked vs networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.biconnected import (
    articulation_points,
    biconnected_components,
    bridge_edges,
    component_nodes,
    is_biconnected,
)
from repro.graph.dynamic_graph import edge_key

from graphs import complete_clique, cycle_graph, gnp_random_graph
from helpers import graph_from_edges


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from((u, v) for u, v, _ in graph.edges())
    return g


class TestArticulationPoints:
    def test_path_graph_inner_nodes(self):
        graph = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        assert articulation_points(graph) == {1, 2}

    def test_cycle_has_none(self):
        assert articulation_points(cycle_graph(5)) == set()

    def test_bowtie_centre(self):
        graph = graph_from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        )
        assert articulation_points(graph) == {2}

    def test_isolated_nodes_ignored(self):
        graph = graph_from_edges([(0, 1)], extra_nodes=[7])
        assert articulation_points(graph) == set()

    def test_root_with_two_children(self):
        # star centre is an articulation point (root case of the DFS)
        graph = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        assert articulation_points(graph) == {0}


class TestBiconnectedComponents:
    def test_triangle_single_component(self, triangle):
        comps = biconnected_components(triangle)
        assert len(comps) == 1
        assert comps[0] == {(0, 1), (1, 2), (0, 2)}

    def test_bridge_is_own_component(self):
        graph = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        comps = biconnected_components(graph)
        assert {frozenset(c) for c in comps} == {
            frozenset({(0, 1), (1, 2), (0, 2)}),
            frozenset({(2, 3)}),
        }

    def test_every_edge_in_exactly_one_component(self):
        graph = gnp_random_graph(24, 0.15, seed=5)
        comps = biconnected_components(graph)
        seen = [e for comp in comps for e in comp]
        assert len(seen) == len(set(seen)) == graph.num_edges

    def test_component_nodes(self):
        assert component_nodes({(0, 1), (1, 2), (0, 2)}) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_random(self, seed):
        graph = gnp_random_graph(30, 0.12, seed=seed)
        ours = {
            frozenset(comp) for comp in biconnected_components(graph)
        }
        theirs = {
            frozenset(edge_key(u, v) for u, v in comp)
            for comp in nx.biconnected_component_edges(to_nx(graph))
        }
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(8))
    def test_articulation_matches_networkx(self, seed):
        graph = gnp_random_graph(30, 0.12, seed=seed)
        assert articulation_points(graph) == set(
            nx.articulation_points(to_nx(graph))
        )


class TestBridges:
    def test_tree_all_bridges(self):
        graph = graph_from_edges([(0, 1), (1, 2), (1, 3)])
        assert bridge_edges(graph) == {(0, 1), (1, 2), (1, 3)}

    def test_cycle_no_bridges(self):
        assert bridge_edges(cycle_graph(6)) == set()


class TestIsBiconnected:
    def test_clique_yes(self):
        assert is_biconnected(complete_clique(5))

    def test_cycle_yes(self):
        assert is_biconnected(cycle_graph(4))

    def test_path_no(self):
        assert not is_biconnected(graph_from_edges([(0, 1), (1, 2)]))

    def test_disconnected_no(self):
        graph = graph_from_edges([(0, 1), (2, 3)])
        assert not is_biconnected(graph)

    def test_too_small_no(self):
        assert not is_biconnected(graph_from_edges([(0, 1)]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, seed):
        graph = gnp_random_graph(12, 0.3, seed=seed)
        nxg = to_nx(graph)
        expected = (
            len(nxg) >= 3
            and nx.is_connected(nxg)
            and not set(nx.articulation_points(nxg))
        )
        assert is_biconnected(graph) == expected
