"""Weighted undirected dynamic graph used as the AKG substrate.

The graph is a thin, fast adjacency-dict structure supporting the operations
the cluster-maintenance layer needs: O(1) amortized node/edge insertion and
deletion, O(deg) neighbourhood iteration, and O(min(deg)) common-neighbour
queries.  Nodes are arbitrary hashable objects (keywords are strings).

Edges are undirected; the canonical identity of an edge is
``edge_key(u, v) == tuple(sorted((u, v)))`` so that the same frozen key can be
used in cluster bookkeeping regardless of insertion order.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.errors import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)

Node = Hashable
EdgeKey = Tuple[Node, Node]

WeightListener = Callable[[Node, Node, float, float], None]
"""Callback ``(u, v, old_weight, new_weight)`` fired by
:meth:`DynamicGraph.set_edge_weight` when an edge's weight actually changes.
Structural mutations (add/remove) do not fire it — the cluster maintainer
already observes those directly."""


def edge_key(u: Node, v: Node) -> EdgeKey:
    """Canonical undirected identity of the edge between ``u`` and ``v``.

    The two endpoints are ordered by ``repr`` when they are not directly
    comparable; for homogeneous node types (the common case) plain comparison
    is used.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class DynamicGraph:
    """Undirected graph with weighted edges and dynamic updates.

    The class deliberately exposes a small, explicit API instead of the full
    networkx surface; every method is O(1) or O(degree), which is what makes
    the local cluster maintenance of Section 5 cheap.
    """

    __slots__ = ("_adj", "_num_edges", "_weight_listener")

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        self._weight_listener: Optional[WeightListener] = None

    def set_weight_listener(self, listener: Optional[WeightListener]) -> None:
        """Install (or clear, with None) the optional weight-change hook.

        The hook is how weight deltas reach the change log without the graph
        depending on higher layers; when unset, weight updates cost exactly
        what they did before the hook existed.
        """
        self._weight_listener = listener

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        """Insert ``node``; raises :class:`DuplicateNodeError` if present."""
        if node in self._adj:
            raise DuplicateNodeError(f"node already in graph: {node!r}")
        self._adj[node] = {}

    def ensure_node(self, node: Node) -> bool:
        """Insert ``node`` if absent.  Returns True when it was inserted."""
        if node in self._adj:
            return False
        self._adj[node] = {}
        return True

    def remove_node(self, node: Node) -> list[EdgeKey]:
        """Delete ``node`` and all incident edges.

        Returns the list of removed edge keys (useful for cluster repair).
        """
        neighbours = self._adj.pop(node, None)
        if neighbours is None:
            raise NodeNotFoundError(node)
        removed = []
        for other in neighbours:
            del self._adj[other][node]
            removed.append(edge_key(node, other))
        self._num_edges -= len(removed)
        return removed

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert edge ``(u, v)``; both endpoints must already exist.

        Raises
        ------
        NodeNotFoundError
            If either endpoint is absent.
        DuplicateEdgeError
            If the edge is already present (use :meth:`set_edge_weight`).
        GraphError
            For self-loops, which the AKG never contains.
        """
        if u == v:
            raise DuplicateEdgeError(f"self-loops are not allowed: {u!r}")
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        if v in self._adj[u]:
            raise DuplicateEdgeError(f"edge already in graph: ({u!r}, {v!r})")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._num_edges += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def has_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edge_weight(self, u: Node, v: Node) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        old = self._adj[u][v]
        if old == weight:
            return
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        if self._weight_listener is not None:
            self._weight_listener(u, v, old, weight)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each undirected edge exactly once as ``(u, v, weight)``."""
        seen: set[EdgeKey] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key[0], key[1], w

    def edge_keys(self) -> Iterator[EdgeKey]:
        for u, v, _ in self.edges():
            yield (u, v)

    @property
    def num_edges(self) -> int:
        """Edge count, maintained as an O(1) counter.

        The engine snapshots this every quantum (``AkgQuantumStats``), so a
        recount over the adjacency lists would be a per-quantum O(graph)
        term — exactly what the delta-driven AKG stage forbids.
        """
        return self._num_edges

    # ------------------------------------------------------- neighbourhoods

    def neighbors(self, node: Node) -> Iterator[Node]:
        try:
            return iter(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_weights(self, node: Node) -> Dict[Node, float]:
        """Direct (read-only by convention) view of a node's adjacency map."""
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    # ------------------------------------------------------------- utilities

    def copy(self) -> "DynamicGraph":
        clone = DynamicGraph()
        clone._adj = {n: dict(nbrs) for n, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ---------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpointable snapshot: node list plus weighted edge list.

        Nodes and edges are recorded in sorted order, making the snapshot a
        pure function of the graph *contents*: two graphs holding the same
        nodes/edges/weights serialize identically no matter how their
        adjacency was built (insertion history or a prior restore).  No
        engine semantics depend on adjacency iteration order — every
        consumer sorts before acting (DESIGN.md Section 6) — so restoring
        in sorted order is behaviour-neutral.
        """
        return {
            "nodes": sorted(self._adj, key=repr),
            "edges": sorted(
                ([u, v, w] for u, v, w in self.edges()),
                key=lambda edge: (repr(edge[0]), repr(edge[1])),
            ),
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the graph in place from :meth:`to_state` output.

        The weight listener (if any) is left installed but is *not* fired:
        restoring is not a mutation of the checkpointed world.
        """
        self._adj = {node: {} for node in state["nodes"]}
        self._num_edges = 0
        for u, v, w in state["edges"]:
            self._adj[u][v] = w
            self._adj[v][u] = w
            self._num_edges += 1

    def adjacency(self) -> Dict[Node, Dict[Node, float]]:
        """The raw adjacency mapping (treat as read-only)."""
        return self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )


__all__ = ["DynamicGraph", "Node", "EdgeKey", "edge_key", "WeightListener"]
