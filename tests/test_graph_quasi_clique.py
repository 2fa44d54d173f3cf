"""Quasi-clique predicates and the paper's Theorem 1 prerequisites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import (
    complete_clique,
    cycle_graph,
    gnp_random_graph,
    random_mqc,
)
from helpers import graph_from_edges
from quasi_clique import (
    gamma_density,
    graph_diameter,
    is_complete_clique,
    is_majority_quasi_clique,
    is_quasi_clique,
)


class TestGammaDensity:
    def test_clique_has_gamma_one(self):
        assert gamma_density(complete_clique(5)) == 1.0

    def test_cycle_gamma(self):
        # every node has degree 2, N - 1 = 4
        assert gamma_density(cycle_graph(5)) == pytest.approx(0.5)

    def test_biconnected_component_lower_bound(self):
        # paper: a biconnected component has gamma = 2 / (N - 1)
        graph = cycle_graph(9)
        assert gamma_density(graph) == pytest.approx(2 / 8)

    def test_single_node(self):
        assert gamma_density({0: set()}) == 0.0


class TestPredicates:
    def test_clique_is_everything(self):
        clique = complete_clique(6)
        assert is_complete_clique(clique)
        assert is_majority_quasi_clique(clique)
        assert is_quasi_clique(clique, 0.99)

    def test_paper_figure_3a_seven_node_mqc(self):
        """An MQC of size 7 needs min degree ceil(6 / 2) = 3."""
        graph = random_mqc(7, seed=1)
        assert is_majority_quasi_clique(graph)
        assert min(graph.degree(n) for n in graph.nodes()) >= 3

    def test_star_not_mqc(self):
        star = graph_from_edges([(0, i) for i in range(1, 6)])
        assert not is_majority_quasi_clique(star)

    def test_empty_graph_not_quasi_clique(self):
        assert not is_quasi_clique({}, 0.5)


class TestDiameter:
    def test_clique_diameter_one(self):
        """Definition 1: the diameter of a complete clique is 1."""
        assert graph_diameter(complete_clique(4)) == 1

    def test_cycle_diameter(self):
        assert graph_diameter(cycle_graph(6)) == 3

    def test_disconnected_none(self):
        assert graph_diameter(graph_from_edges([(0, 1), (2, 3)])) is None

    def test_empty_none(self):
        assert graph_diameter({}) is None

    @given(st.integers(4, 9), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mqc_diameter_at_most_two(self, n, seed):
        """[15]: gamma >= 1/2 implies diameter <= 2 — the fact Theorem 1's
        proof rests on."""
        graph = random_mqc(n, seed=seed)
        assert graph_diameter(graph) <= 2
