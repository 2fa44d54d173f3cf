"""Incremental SCP cluster maintenance (Section 5) and the global oracle.

:class:`ClusterMaintainer` owns a :class:`~repro.graph.dynamic_graph.DynamicGraph`
and a :class:`~repro.core.clusters.ClusterRegistry` and keeps the registry
equal, after every mutation, to the unique atom-glued decomposition of the
graph (DESIGN.md Section 1).  The paper's four operations map to:

=====================  ====================================================
Paper algorithm        Implementation
=====================  ====================================================
EdgeAddition (5.2)     :meth:`ClusterMaintainer.add_edge` — read the span of
                       the atoms through the new edge by set algebra, merge
                       every touched cluster (Lemma 6) and absorb the span.
NodeAddition (5.1)     :meth:`ClusterMaintainer.add_node_with_edges` —
                       sequential edge additions; every short cycle through
                       the new node uses two of its edges, so rules R1/R2
                       are recovered pairwise (Lemma 5 guarantees order
                       independence, which the tests verify).
NodeDeletion (5.3)     :meth:`ClusterMaintainer.remove_node` — local re-glue
                       of each affected cluster; subsumes the cycle check
                       and the Lemma 7 articulation check.
EdgeDeletion (5.4)     :meth:`ClusterMaintainer.remove_edge` — same re-glue
                       restricted to the single owning cluster.
=====================  ====================================================

All deletion work is local: only the affected clusters' own (small) subgraphs
are touched, never the full graph, and the re-glue is a union-find over the
cluster's surviving edges (:func:`_glue_cycles`) that enumerates no atom.
:func:`decompose_graph` — every atom listed, then glued on shared edges — is
the from-scratch global computation used as the correctness oracle for
Theorem 3.

Every structural mutation is additionally recorded as a typed event in the
maintainer's :class:`~repro.core.changelog.ChangeLog` (see DESIGN.md
Section 2), and the graph's weight-listener hook routes correlation
refreshes into the same log — this is what lets the downstream
:class:`~repro.core.incremental.IncrementalRanker` re-rank only perturbed
clusters.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.atoms import Atom, atoms_in_subgraph
from repro.core.changelog import (
    ChangeBatch,
    ChangeLog,
    ClusterCreated,
    ClusterDissolved,
    ClusterMerged,
    ClusterSplit,
    ClusterUpdated,
    EdgeWeightChanged,
)
from repro.core.clusters import Cluster, ClusterRegistry
from repro.errors import GraphError
from repro.graph.dynamic_graph import DynamicGraph, EdgeKey, edge_key

Node = Hashable


class _DisjointSet:
    """Union-find over integer indexes with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _glue_atoms(atoms: List[Atom]) -> List[Tuple[Set[Node], Set[EdgeKey]]]:
    """Group atoms transitively by shared edges; return (nodes, edges) per
    group.  This is the definition of an SCP cluster."""
    if not atoms:
        return []
    dsu = _DisjointSet(len(atoms))
    owner: Dict[EdgeKey, int] = {}
    for i, atom in enumerate(atoms):
        for e in atom.edges:
            j = owner.setdefault(e, i)
            if j != i:
                dsu.union(i, j)
    groups: Dict[int, Tuple[Set[Node], Set[EdgeKey]]] = {}
    for i, atom in enumerate(atoms):
        nodes, edges = groups.setdefault(dsu.find(i), (set(), set()))
        nodes |= atom.nodes
        edges |= atom.edges
    return list(groups.values())


def _glue_cycles(
    adjacency: Mapping[Node, Iterable[Node]],
) -> List[Tuple[Set[Node], Set[EdgeKey]]]:
    """The groups :func:`_glue_atoms` forms over every short cycle of
    ``adjacency``, computed as a union-find over its *edges* — no cycle is
    ever materialized.

    Take two nodes u, y and their common neighbours C.  Any two members of
    C close a 4-cycle through u and y, and if u and y are adjacent every
    member closes a triangle on edge (u, y); either way all those cycles
    pairwise share an edge, so the legs from u and y to C (plus (u, y)
    itself when present) belong to one cluster.  Every triangle and every
    4-cycle arises this way from some pair — a 4-cycle from its opposite
    corners — so uniting per pair glues exactly what atom gluing does.
    Pairs are found by walking two hops from each node, sum-of-squared-
    degrees work like the enumeration it replaces.  Edges that joined no
    union lie on no short cycle and drop out.
    """
    order = {node: i for i, node in enumerate(adjacency)}
    edges: List[EdgeKey] = []
    index: Dict[EdgeKey, int] = {}
    incident: Dict[Node, Dict[Node, int]] = {}  # node -> neighbour -> edge id
    for u, nbrs in adjacency.items():
        row = incident[u] = {}
        for v in nbrs:
            key = edge_key(u, v)
            eid = index.get(key)
            if eid is None:
                eid = index[key] = len(edges)
                edges.append(key)
            row[v] = eid
    parent = list(range(len(edges)))  # union-find, walked inline
    cyclic: Set[int] = set()
    for u, row in incident.items():
        rank = order[u]
        # y -> the edge ids of both legs of every walk u - x - y
        legs_to: Dict[Node, List[int]] = {}
        for x, first_leg in row.items():
            for y, second_leg in incident[x].items():
                if order[y] > rank:  # each unordered pair once; skips y == u
                    legs_to.setdefault(y, []).extend((first_leg, second_leg))
        for y, legs in legs_to.items():
            direct = row.get(y)
            if direct is not None:
                legs.append(direct)
            elif len(legs) < 4:  # one common neighbour, not adjacent
                continue
            cyclic.update(legs)
            top = legs[0]
            while parent[top] != top:
                top = parent[top]
            for eid in legs:
                root = eid
                while parent[root] != root:
                    root = parent[root]
                parent[root] = parent[eid] = top
    groups: Dict[int, Tuple[Set[Node], Set[EdgeKey]]] = {}
    for eid in cyclic:
        root = eid
        while parent[root] != root:
            root = parent[root]
        nodes, group_edges = groups.setdefault(root, (set(), set()))
        nodes.update(edges[eid])
        group_edges.add(edges[eid])
    return list(groups.values())


def _short_cycle_span(
    graph: DynamicGraph, u: Node, v: Node
) -> Optional[Tuple[Set[Node], Set[EdgeKey]]]:
    """The nodes and edges of every short cycle through edge ``(u, v)``, or
    None when the edge lies on none — the union of
    :func:`~repro.core.atoms.atoms_containing_edge`'s atoms, read by set
    algebra without listing a cycle.

    Triangles close through ``N(u) & N(v)``; 4-cycles ``u - x - y - v``
    through ``N(x) & N(v) - {u}`` for each ``x`` in ``N(u) - {v}``.
    """
    nbrs = graph.neighbor_weights
    adj_u = nbrs(u)
    adj_v = nbrs(v).keys()
    apexes = adj_v & adj_u.keys()
    nodes = set(apexes)
    edges = set(map(edge_key, repeat(u), apexes))
    edges.update(map(edge_key, repeat(v), apexes))
    far: Set[Node] = set()  # the y of every 4-cycle
    for x in adj_u:
        if x == v:
            continue
        ys = nbrs(x).keys() & adj_v
        ys.discard(u)
        if ys:
            nodes.add(x)
            edges.add(edge_key(u, x))
            edges.update(map(edge_key, repeat(x), ys))
            far |= ys
    if not nodes:
        return None
    nodes |= far
    nodes.update((u, v))
    edges.update(map(edge_key, repeat(v), far))
    edges.add(edge_key(u, v))
    return nodes, edges


def decompose_graph(
    graph: "DynamicGraph | Mapping[Node, Iterable[Node]]",
) -> List[Tuple[Set[Node], Set[EdgeKey]]]:
    """From-scratch global SCP decomposition of a graph.

    Enumerates every short-cycle atom and glues them on shared edges.  This
    is the *global processing* the paper's incremental algorithms avoid; it
    exists as a test oracle (Theorem 3: the incremental result must equal
    this decomposition) and for the locality ablation benchmark.
    """
    adjacency = graph.adjacency() if isinstance(graph, DynamicGraph) else graph
    return _glue_atoms(atoms_in_subgraph(adjacency))


class ClusterMaintainer:
    """Maintains the SCP cluster decomposition under dynamic updates."""

    def __init__(
        self,
        graph: DynamicGraph | None = None,
        registry: ClusterRegistry | None = None,
        changelog: ChangeLog | None = None,
    ) -> None:
        self.graph = graph if graph is not None else DynamicGraph()
        self.registry = registry if registry is not None else ClusterRegistry()
        self.changelog = changelog if changelog is not None else ChangeLog()
        self.graph.set_weight_listener(self._on_edge_weight_changed)
        self.current_quantum = 0
        self.clustering_seconds = 0.0
        """Cumulative wall time spent in cluster-structure updates — the
        incremental counterpart of the offline baseline's per-quantum global
        recomputation (used by the Section 7.3 speed comparison)."""

    # ------------------------------------------------------------- changes

    def _on_edge_weight_changed(
        self, u: Node, v: Node, old: float, new: float
    ) -> None:
        """Graph weight-listener hook: correlation refreshes become deltas."""
        self.changelog.record(EdgeWeightChanged(edge_key(u, v), old, new))

    def drain_changes(self) -> ChangeBatch:
        """Drain the change log into an immutable batch (the engine's path)."""
        return self.changelog.drain()

    # ------------------------------------------------------------ addition

    def add_node(self, node: Node) -> None:
        """Insert an isolated node (keyword entering the high state)."""
        self.graph.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> Optional[Cluster]:
        """EdgeAddition (Section 5.2).

        Inserts the edge, reads the nodes and edges of every atom (short
        cycle) containing it (:func:`_short_cycle_span`), and merges them
        together with every existing cluster that owns one of those edges
        (Lemma 6).  Returns the cluster the edge ends
        up in, or None when the edge closes no short cycle.
        """
        self.graph.add_edge(u, v, weight)
        start = time.perf_counter()
        try:
            return self._cluster_new_edge(u, v)
        finally:
            self.clustering_seconds += time.perf_counter() - start

    def _cluster_new_edge(self, u: Node, v: Node) -> Optional[Cluster]:
        span = _short_cycle_span(self.graph, u, v)
        if span is None:
            return None
        nodes, edges = span
        touched = self.registry.owners_of(edges)
        if touched:
            survivor = self.registry.merge(touched)
            self.registry.absorb(survivor.cluster_id, nodes, edges)
            if len(touched) > 1:
                absorbed = tuple(sorted(touched - {survivor.cluster_id}))
                self.changelog.record(
                    ClusterMerged(survivor.cluster_id, absorbed)
                )
            else:
                self.changelog.record(ClusterUpdated(survivor.cluster_id))
            return survivor
        cluster = self.registry.new_cluster(
            nodes, edges, born_quantum=self.current_quantum
        )
        self.changelog.record(ClusterCreated(cluster.cluster_id))
        return cluster

    def add_node_with_edges(
        self, node: Node, weighted_edges: Mapping[Node, float]
    ) -> List[Cluster]:
        """NodeAddition (Section 5.1).

        Adds ``node`` and its correlated edges.  Equivalent to applying
        EdgeAddition per edge: a short cycle through the new node uses
        exactly two of its incident edges, so considering edge pairs (the
        paper's R1/R2 over pairs ni, nj) and sequential insertion discover
        the same atoms.  Returns the distinct clusters the node joined.
        """
        self.graph.ensure_node(node)
        joined: Dict[int, Cluster] = {}
        for other, weight in weighted_edges.items():
            if other == node:
                raise GraphError(f"self-edge in node addition: {node!r}")
            cluster = self.add_edge(node, other, weight)
            if cluster is not None:
                joined[cluster.cluster_id] = cluster
        # Merges may have retired some ids recorded earlier in the loop.
        return [
            c for cid, c in joined.items() if cid in self.registry
        ]

    def set_edge_weight(self, u: Node, v: Node, weight: float) -> None:
        """Refresh an edge's correlation; no structural change."""
        self.graph.set_edge_weight(u, v, weight)

    # ------------------------------------------------------------ deletion

    def remove_edge(self, u: Node, v: Node) -> List[Cluster]:
        """EdgeDeletion (Section 5.4).

        Removes the edge; if it was owned by a cluster, re-glues that
        cluster's surviving edges locally (cycle check within the cluster).
        Returns the surviving fragments (possibly empty).
        """
        return self.remove_edges([(u, v)])

    def remove_edges(self, edges: Iterable[Tuple[Node, Node]]) -> List[Cluster]:
        """Batched EdgeDeletion: one local re-glue per affected cluster.

        Deleting k edges of the same cluster triggers a single cycle check
        instead of k — the per-quantum batching the paper's O(k^2 N C)
        analysis assumes.  Equivalent to sequential deletion (the final
        decomposition depends only on the final graph, Theorem 3).
        """
        affected: Set[int] = set()
        for u, v in edges:
            owner = self.registry.cluster_of_edge(u, v)
            self.graph.remove_edge(u, v)
            if owner is not None:
                self.registry.release_edges(owner, (edge_key(u, v),))
                affected.add(owner)
        return self._reglue_all(affected)

    def remove_node(self, node: Node) -> List[Cluster]:
        """NodeDeletion (Section 5.3).

        Removes the node and its incident edges, then re-glues every cluster
        that contained it.  The re-glue enumerates short cycles only inside
        the affected cluster's own edge set, which performs the paper's
        cycle check and articulation check in one local pass (Lemma 7 is the
        special case of a degree-2 deletion).
        """
        return self.remove_nodes([node])

    def remove_nodes(self, nodes: Iterable[Node]) -> List[Cluster]:
        """Batched NodeDeletion: one local re-glue per affected cluster."""
        affected: Set[int] = set()
        for node in nodes:
            cids = self.registry.clusters_of_node(node)
            removed = self.graph.remove_node(node)
            for cid in cids:
                self.registry.release_node(cid, node)
                self.registry.release_edges(cid, removed)
            affected |= cids
        return self._reglue_all(affected)

    def _reglue_all(self, affected: Set[int]) -> List[Cluster]:
        if not affected:
            return []
        start = time.perf_counter()
        try:
            fragments: List[Cluster] = []
            for cid in affected:
                fragments.extend(self._reglue(cid))
            return fragments
        finally:
            self.clustering_seconds += time.perf_counter() - start

    def _reglue(self, cluster_id: int) -> List[Cluster]:
        """Recompute the gluing of one cluster's surviving edges.

        Local processing: only the cluster's nodes/edges are visited.  Edges
        left on no short cycle drop out of the clustering; the rest re-glue
        into fragments (:func:`_glue_cycles`).  The largest fragment keeps
        the cluster id.
        """
        cluster = self.registry.get(cluster_id)
        surviving = {
            e for e in cluster.edges if self.graph.has_edge(e[0], e[1])
        }
        adjacency: Dict[Node, Set[Node]] = {}
        for a, b in surviving:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        groups = _glue_cycles(adjacency)
        if not groups:
            self.registry.dissolve(cluster_id)
            self.changelog.record(ClusterDissolved(cluster_id))
            return []
        if len(groups) == 1:
            nodes, edges = groups[0]
            if edges == cluster.edges and nodes == cluster.nodes:
                # Re-glue confirmed the post-release state is one cluster —
                # but the cluster still shrank before we got here (every
                # caller released an edge or node from it first), so its
                # rank inputs changed and the delta must be propagated.
                self.changelog.record(ClusterUpdated(cluster_id))
                return [cluster]
        fragments = self.registry.replace(
            cluster_id, groups, quantum=self.current_quantum
        )
        if len(fragments) > 1:
            extra = tuple(
                f.cluster_id for f in fragments if f.cluster_id != cluster_id
            )
            self.changelog.record(ClusterSplit(cluster_id, extra))
        else:
            self.changelog.record(ClusterUpdated(cluster_id))
        return fragments

    # ---------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpointable snapshot of the graph + decomposition.

        Only callable between quanta: the change log must be fully drained,
        because pending events are owned by the quantum that produced them
        and cannot be meaningfully split across a checkpoint.
        """
        if self.changelog:
            raise GraphError(
                "cannot snapshot a maintainer with undrained change events"
            )
        return {
            "graph": self.graph.to_state(),
            "registry": self.registry.to_state(),
            "current_quantum": self.current_quantum,
            "clustering_seconds": self.clustering_seconds,
        }

    def from_state(self, state: dict) -> None:
        """Restore graph and registry in place from :meth:`to_state` output.

        In-place restoration keeps every wiring intact: the graph's weight
        listener still routes into this maintainer's change log, and any
        registry listeners (the builder's unclustered hook) stay subscribed.
        """
        self.graph.from_state(state["graph"])
        self.registry.from_state(state["registry"])
        self.current_quantum = state["current_quantum"]
        self.clustering_seconds = state["clustering_seconds"]


__all__ = ["ClusterMaintainer", "decompose_graph", "ChangeBatch"]
