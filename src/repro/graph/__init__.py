"""Dynamic-graph substrate: adjacency structure and classic graph algorithms.

This subpackage is self-contained (no dependency on the streaming layers) and
provides:

* :class:`repro.graph.dynamic_graph.DynamicGraph` — the weighted undirected
  graph that backs the AKG;
* :mod:`repro.graph.biconnected` — articulation points and biconnected
  components (iterative Hopcroft–Tarjan), used by the offline baseline and by
  the correctness tests for property P2;
* :mod:`repro.graph.quasi_clique` — gamma-density, majority-quasi-clique and
  diameter predicates from Section 1.1 / Theorem 1, the definition the
  Theorem-1 test holds SCP clusters to.
"""

from repro.graph.dynamic_graph import DynamicGraph, edge_key
from repro.graph.biconnected import (
    articulation_points,
    biconnected_components,
    bridge_edges,
    is_biconnected,
)
from repro.graph.quasi_clique import (
    gamma_density,
    graph_diameter,
    is_complete_clique,
    is_majority_quasi_clique,
    is_quasi_clique,
)

__all__ = [
    "DynamicGraph",
    "edge_key",
    "articulation_points",
    "biconnected_components",
    "bridge_edges",
    "is_biconnected",
    "gamma_density",
    "graph_diameter",
    "is_complete_clique",
    "is_majority_quasi_clique",
    "is_quasi_clique",
]
