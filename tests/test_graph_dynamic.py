"""Unit tests for the DynamicGraph substrate."""

import pytest

from repro.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)
from repro.graph.dynamic_graph import DynamicGraph, edge_key


@pytest.fixture
def graph():
    g = DynamicGraph()
    for n in "abcd":
        g.add_node(n)
    g.add_edge("a", "b", 0.5)
    g.add_edge("b", "c", 0.7)
    return g


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key("b", "a") == ("a", "b")
        assert edge_key("a", "b") == ("a", "b")

    def test_symmetric(self):
        assert edge_key(1, 2) == edge_key(2, 1)

    def test_mixed_types_fall_back_to_repr(self):
        key1 = edge_key("a", 1)
        key2 = edge_key(1, "a")
        assert key1 == key2


class TestNodes:
    def test_add_and_contains(self, graph):
        assert "a" in graph
        assert graph.has_node("b")
        assert "z" not in graph

    def test_add_duplicate_raises(self, graph):
        with pytest.raises(DuplicateNodeError):
            graph.add_node("a")

    def test_ensure_node_idempotent(self, graph):
        assert graph.ensure_node("z") is True
        assert graph.ensure_node("z") is False
        assert graph.num_nodes == 5

    def test_remove_node_returns_removed_edges(self, graph):
        removed = graph.remove_node("b")
        assert set(removed) == {("a", "b"), ("b", "c")}
        assert "b" not in graph
        assert not graph.has_edge("a", "b")

    def test_remove_missing_node_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            graph.remove_node("zzz")

    def test_len_counts_nodes(self, graph):
        assert len(graph) == 4
        assert graph.num_nodes == 4


class TestEdges:
    def test_add_edge_both_directions(self, graph):
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")

    def test_edge_weight(self, graph):
        assert graph.edge_weight("a", "b") == 0.5
        assert graph.edge_weight("b", "a") == 0.5

    def test_set_edge_weight(self, graph):
        graph.set_edge_weight("a", "b", 0.9)
        assert graph.edge_weight("b", "a") == 0.9

    def test_set_weight_missing_edge_raises(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.set_edge_weight("a", "c", 0.1)

    def test_add_duplicate_edge_raises(self, graph):
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge("b", "a")

    def test_self_loop_rejected(self, graph):
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge("a", "a")

    def test_edge_to_missing_node_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            graph.add_edge("a", "missing")

    def test_remove_edge(self, graph):
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_node("a") and graph.has_node("b")

    def test_remove_missing_edge_raises(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("a", "d")

    def test_edges_iterates_each_once(self, graph):
        edges = list(graph.edges())
        assert len(edges) == 2
        assert {(u, v) for u, v, _ in edges} == {("a", "b"), ("b", "c")}

    def test_num_edges(self, graph):
        assert graph.num_edges == 2


class TestNeighbourhoods:
    def test_neighbors(self, graph):
        assert set(graph.neighbors("b")) == {"a", "c"}

    def test_neighbors_missing_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            list(graph.neighbors("zzz"))

    def test_degree(self, graph):
        assert graph.degree("b") == 2
        assert graph.degree("d") == 0

    def test_neighbor_weights_view(self, graph):
        assert graph.neighbor_weights("a") == {"b": 0.5}


class TestUtilities:
    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.remove_edge("a", "b")
        assert graph.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_repr(self, graph):
        assert "num_nodes=4" in repr(graph)
