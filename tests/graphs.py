"""Deterministic graph generators for the graph and clustering tests.

All generators take an explicit ``seed`` and return
:class:`~repro.graph.dynamic_graph.DynamicGraph` instances, so property tests
are reproducible without network or dataset access.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.graph.dynamic_graph import DynamicGraph


def gnp_random_graph(n: int, p: float, seed: int = 0) -> DynamicGraph:
    """Erdos–Renyi G(n, p) on integer nodes ``0..n-1``."""
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    graph = DynamicGraph()
    for i in range(n):
        graph.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(i, j)
    return graph


def complete_clique(n: int) -> DynamicGraph:
    """K_n on integer nodes ``0..n-1``."""
    graph = DynamicGraph()
    for i in range(n):
        graph.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j)
    return graph


def cycle_graph(n: int) -> DynamicGraph:
    """C_n on integer nodes ``0..n-1``."""
    if n < 3:
        raise ConfigError(f"cycle needs n >= 3, got {n}")
    graph = DynamicGraph()
    for i in range(n):
        graph.add_node(i)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def random_mqc(
    n: int, seed: int = 0, strict: bool = True, max_tries: int = 500
) -> DynamicGraph:
    """A random majority quasi clique on ``n`` nodes.

    Construction: start from K_n and repeatedly remove random edges while the
    minimum degree stays at or above the majority threshold.

    ``strict=True`` (default) keeps every degree **strictly** above
    (n - 1) / 2 — "connected with a majority of the remaining nodes", the
    paper's verbal MQC definition, for which Theorem 1 (MQC => SCP) holds.
    ``strict=False`` allows degree exactly ceil((n - 1) / 2); at odd ``n``
    this admits boundary graphs such as the 5-cycle which satisfy the
    numeric gamma >= 1/2 condition yet contain no short cycle (see the
    Theorem 1 boundary-case test and DESIGN.md).
    """
    from quasi_clique import is_majority_quasi_clique

    if n < 2:
        raise ConfigError(f"MQC needs n >= 2, got {n}")
    rng = random.Random(seed)
    graph = complete_clique(n)
    if strict:
        need = (n - 1) // 2 + 1  # smallest integer > (n-1)/2
    else:
        need = (n - 1 + 1) // 2  # ceil((n-1)/2)
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng.shuffle(edges)
    for u, v in edges[:max_tries]:
        if graph.degree(u) > need and graph.degree(v) > need:
            graph.remove_edge(u, v)
    assert is_majority_quasi_clique(graph)
    return graph


def glued_cycles(
    cycle_sizes: Sequence[int], seed: int = 0
) -> Tuple[DynamicGraph, List[List[int]]]:
    """A chain of short cycles, consecutive cycles glued along one edge.

    Returns the graph and the node lists of each cycle.  With every
    ``cycle_sizes[i] in (3, 4)`` the whole chain is one SCP cluster, making
    this the canonical positive fixture for the atom-gluing model.
    """
    for size in cycle_sizes:
        if size < 3:
            raise ConfigError(f"cycle sizes must be >= 3, got {size}")
    graph = DynamicGraph()
    cycles: List[List[int]] = []
    next_node = 0
    shared: Tuple[int, int] | None = None
    rng = random.Random(seed)
    for size in cycle_sizes:
        if shared is None:
            nodes = list(range(next_node, next_node + size))
            next_node += size
            for node in nodes:
                graph.add_node(node)
            for i, node in enumerate(nodes):
                graph.add_edge(node, nodes[(i + 1) % size])
        else:
            fresh = list(range(next_node, next_node + size - 2))
            next_node += size - 2
            for node in fresh:
                graph.add_node(node)
            nodes = [shared[0], *fresh, shared[1]]
            for a, b in zip(nodes, nodes[1:]):
                graph.add_edge(a, b)
            # closing edge already exists: it is the shared edge
        cycles.append(nodes)
        # pick the edge shared with the next cycle
        idx = rng.randrange(len(nodes))
        shared = (nodes[idx], nodes[(idx + 1) % len(nodes)])
    return graph, cycles


def two_triangles_bowtie() -> DynamicGraph:
    """Two triangles sharing exactly one node — two separate SCP clusters."""
    graph = DynamicGraph()
    for node in range(5):
        graph.add_node(node)
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
        graph.add_edge(u, v)
    return graph


__all__ = [
    "gnp_random_graph",
    "complete_clique",
    "cycle_graph",
    "random_mqc",
    "glued_cycles",
    "two_triangles_bowtie",
]
