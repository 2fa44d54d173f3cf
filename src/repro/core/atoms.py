"""Short-cycle atoms: the building blocks of SCP clusters (Section 4.1).

The short-cycle property (SCP) requires every cluster edge to lie on a cycle
of length at most 4 **within the cluster**.  We call each such minimal cycle
(a triangle or a quadrilateral) an *atom*.  The implementation's global model
— clusters are maximal unions of atoms glued transitively along shared edges
— is what the Section 5 incremental algorithms maintain (see DESIGN.md).

The enumeration helpers here list cycles explicitly, and only the global
oracle and the tests use them: edge addition reads the union of the atoms
through a new edge by set algebra
(:func:`repro.core.maintenance._short_cycle_span`), and deletion re-gluing
derives the same gluing from common-neighbour counts alone
(:func:`repro.core.maintenance._glue_cycles`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Set,
)

from repro.graph.dynamic_graph import DynamicGraph, EdgeKey, edge_key

Node = Hashable
Adjacency = Mapping[Node, Iterable[Node]]


class Atom(NamedTuple):
    """A single short cycle: its node set and its (canonical) edge set."""

    nodes: FrozenSet[Node]
    edges: FrozenSet[EdgeKey]

    @property
    def length(self) -> int:
        return len(self.edges)


def _adjacency_sets(graph: "DynamicGraph | Adjacency") -> Dict[Node, Set[Node]]:
    if isinstance(graph, DynamicGraph):
        return {n: set(nbrs) for n, nbrs in graph.adjacency().items()}
    return {n: set(nbrs) for n, nbrs in graph.items()}


def _triangle(u: Node, v: Node, c: Node) -> Atom:
    return Atom(
        frozenset((u, v, c)),
        frozenset((edge_key(u, v), edge_key(u, c), edge_key(v, c))),
    )


def _quad(u: Node, x: Node, y: Node, v: Node) -> Atom:
    """4-cycle u - x - y - v - u (edges (u,x), (x,y), (y,v), (v,u))."""
    return Atom(
        frozenset((u, x, y, v)),
        frozenset(
            (edge_key(u, x), edge_key(x, y), edge_key(y, v), edge_key(v, u))
        ),
    )


def atoms_containing_edge(graph: DynamicGraph, u: Node, v: Node) -> List[Atom]:
    """All triangles and 4-cycles of ``graph`` that contain edge ``(u, v)``.

    The reference for EdgeAddition (Section 5.2): every *new* short cycle
    created by inserting ``(u, v)`` contains that edge, so these atoms find
    exactly the clusters the new edge creates or merges.  The maintainer
    reads only their union, without listing them
    (:func:`repro.core.maintenance._short_cycle_span`).

    Triangles: one per common neighbour of ``u`` and ``v``.
    4-cycles:  one per pair ``x in N(u)``, ``y in N(v)`` with ``x != y``,
    ``x != v``, ``y != u`` and ``(x, y)`` an edge.
    """
    atoms: List[Atom] = []
    adj_u = graph.neighbor_weights(u)
    adj_v = graph.neighbor_weights(v)
    small, large = (adj_u, adj_v) if len(adj_u) <= len(adj_v) else (adj_v, adj_u)
    for c in small:
        if c in large:
            atoms.append(_triangle(u, v, c))
    seen: Set[FrozenSet[EdgeKey]] = set()
    for x in adj_u:
        if x == v:
            continue
        adj_x = graph.neighbor_weights(x)
        for y in adj_v:
            if y == u or y == x or y not in adj_x:
                continue
            atom = _quad(u, x, y, v)
            if atom.edges not in seen:
                seen.add(atom.edges)
                atoms.append(atom)
    return atoms


def atoms_in_subgraph(
    adjacency: Mapping[Node, Iterable[Node]],
) -> List[Atom]:
    """All triangle and 4-cycle atoms of a (small) subgraph.

    The enumeration behind the global oracle
    (:func:`~repro.core.maintenance.decompose_graph`); deletion re-gluing
    (Section 5.3/5.4) reaches the same gluing without listing atoms.
    """
    adj = _adjacency_sets(adjacency)

    atoms: List[Atom] = []
    order = {n: i for i, n in enumerate(adj)}

    # Triangles: enumerate with an ordering so each is found once.
    for u in adj:
        for v in adj[u]:
            if order[v] <= order[u]:
                continue
            for c in adj[u] & adj[v]:
                if order[c] > order[v]:
                    atoms.append(_triangle(u, v, c))

    # 4-cycles: canonical form picks the minimum-order node as anchor and
    # orients towards the smaller neighbour, so each cycle appears once.
    seen: Set[FrozenSet[EdgeKey]] = set()
    for u in adj:
        for x in adj[u]:
            if order[x] <= order[u]:
                continue
            for y in adj[x]:
                if y == u or order[y] <= order[u]:
                    continue
                for v in adj[y]:
                    if v == x or order[v] <= order[u] or v not in adj[u]:
                        continue
                    atom = _quad(u, x, y, v)
                    if atom.edges not in seen:
                        seen.add(atom.edges)
                        atoms.append(atom)
    return atoms


def edge_on_short_cycle(
    adjacency: Mapping[Node, Set[Node]],
    u: Node,
    v: Node,
    allowed_edges: Set[EdgeKey] | None = None,
) -> bool:
    """True iff edge ``(u, v)`` lies on a cycle of length <= 4.

    Implements the paper's cycle check: besides the direct edge there must be
    another path of length 2 (common neighbour) or 3 between the endpoints,
    optionally restricted to ``allowed_edges`` (the cluster's own edges).
    """

    def has(a: Node, b: Node) -> bool:
        if b not in adjacency.get(a, ()):  # type: ignore[arg-type]
            return False
        return allowed_edges is None or edge_key(a, b) in allowed_edges

    nbrs_u = [n for n in adjacency.get(u, ()) if n != v and has(u, n)]
    nbrs_v = {n for n in adjacency.get(v, ()) if n != u and has(v, n)}
    for x in nbrs_u:
        if x in nbrs_v:  # path u - x - v
            return True
    for x in nbrs_u:
        for y in adjacency.get(x, ()):  # path u - x - y - v
            if y != u and y != v and y in nbrs_v and has(x, y):
                return True
    return False


def satisfies_scp(
    adjacency: Mapping[Node, Set[Node]], edges: Iterable[EdgeKey]
) -> bool:
    """Check the short-cycle property for an edge set (Section 4.1).

    True iff every edge in ``edges`` is on a cycle of length <= 4 composed
    only of edges from the same set.
    """
    edge_set = set(edges)
    return all(
        edge_on_short_cycle(adjacency, u, v, allowed_edges=edge_set)
        for u, v in edge_set
    )


__all__ = [
    "Atom",
    "atoms_containing_edge",
    "atoms_in_subgraph",
    "edge_on_short_cycle",
    "satisfies_scp",
]
