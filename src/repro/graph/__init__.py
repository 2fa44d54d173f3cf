"""Dynamic-graph substrate: adjacency structure and classic graph algorithms.

This subpackage is self-contained (no dependency on the streaming layers) and
provides:

* :class:`repro.graph.dynamic_graph.DynamicGraph` — the weighted undirected
  graph that backs the AKG;
* :mod:`repro.graph.biconnected` — articulation points and biconnected
  components (iterative Hopcroft–Tarjan), used by the offline baseline and by
  the correctness tests for property P2.

The quasi-clique predicates of Section 1.1 / Theorem 1, the definition the
Theorem-1 tests hold SCP clusters to, are test-side (``tests/quasi_clique.py``).
"""

from repro.graph.dynamic_graph import DynamicGraph, edge_key
from repro.graph.biconnected import (
    articulation_points,
    biconnected_components,
    bridge_edges,
    is_biconnected,
)

__all__ = [
    "DynamicGraph",
    "edge_key",
    "articulation_points",
    "biconnected_components",
    "bridge_edges",
    "is_biconnected",
]
