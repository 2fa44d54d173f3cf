"""Deterministic graph generators of the test suite (tests/graphs.py)."""

import pytest

from repro.errors import ConfigError

from graphs import (
    complete_clique,
    cycle_graph,
    glued_cycles,
    gnp_random_graph,
    random_mqc,
    two_triangles_bowtie,
)
from quasi_clique import is_majority_quasi_clique


class TestGnp:
    def test_deterministic(self):
        g1 = gnp_random_graph(20, 0.3, seed=5)
        g2 = gnp_random_graph(20, 0.3, seed=5)
        assert set(g1.edge_keys()) == set(g2.edge_keys())

    def test_seed_variation(self):
        g1 = gnp_random_graph(20, 0.3, seed=5)
        g2 = gnp_random_graph(20, 0.3, seed=6)
        assert set(g1.edge_keys()) != set(g2.edge_keys())

    def test_extremes(self):
        assert gnp_random_graph(10, 0.0).num_edges == 0
        assert gnp_random_graph(10, 1.0).num_edges == 45
        assert gnp_random_graph(0, 0.5).num_nodes == 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            gnp_random_graph(-1, 0.5)
        with pytest.raises(ConfigError):
            gnp_random_graph(5, 1.5)


class TestFixedShapes:
    def test_complete_clique(self):
        graph = complete_clique(6)
        assert graph.num_edges == 15
        assert all(graph.degree(n) == 5 for n in graph.nodes())

    def test_cycle(self):
        graph = cycle_graph(7)
        assert graph.num_edges == 7
        assert all(graph.degree(n) == 2 for n in graph.nodes())
        with pytest.raises(ConfigError):
            cycle_graph(2)

    def test_bowtie(self):
        graph = two_triangles_bowtie()
        assert graph.num_nodes == 5
        assert graph.degree(2) == 4


class TestRandomMqc:
    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_strict_majority_degrees(self, n):
        graph = random_mqc(n, seed=3, strict=True)
        for node in graph.nodes():
            assert graph.degree(node) > (n - 1) / 2

    def test_non_strict_still_mqc(self):
        graph = random_mqc(8, seed=3, strict=False)
        assert is_majority_quasi_clique(graph)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            random_mqc(1)


class TestGluedCycles:
    def test_consecutive_cycles_share_an_edge(self):
        graph, cycles = glued_cycles([4, 3, 4], seed=2)
        for first, second in zip(cycles, cycles[1:]):
            shared = set(first) & set(second)
            assert len(shared) == 2  # glued along one edge = two nodes
            a, b = shared
            assert graph.has_edge(a, b)

    def test_each_cycle_closed(self):
        graph, cycles = glued_cycles([3, 4], seed=1)
        for nodes in cycles:
            for i, node in enumerate(nodes):
                assert graph.has_edge(node, nodes[(i + 1) % len(nodes)])

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            glued_cycles([3, 2])
