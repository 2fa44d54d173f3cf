"""Cluster records and the registry that tracks edge ownership.

Clusters discovered under the short-cycle property are **edge-disjoint**: by
Lemma 6, two aMQCs sharing an edge are merged, so every AKG edge belongs to
at most one cluster.  A *node* may belong to several clusters (two clusters
may touch at a node without sharing an edge — Figure 3's bowtie).

The registry maintains three indexes kept consistent by construction:

* ``clusters``: cluster id -> :class:`Cluster`;
* ``edge_to_cluster``: canonical edge key -> owning cluster id;
* ``node_to_clusters``: node -> set of cluster ids containing it.

Identity policy for event continuity: when clusters merge, the id of the
largest (then oldest) participant survives; when a cluster splits, the
largest fragment keeps the id.  This keeps event histories stable through
the evolution the paper describes in Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set

from repro.errors import ClusterError
from repro.graph.dynamic_graph import EdgeKey, edge_key

Node = Hashable

UnclusteredListener = Callable[[Node], None]
"""Callback fired when a node's cluster-membership count drops to zero.

The AKG builder uses this to learn, in O(transitions) instead of an
O(graph) sweep, which nodes may have become eligible for the Section 3.1
lazy drop (DESIGN.md Section 5).  The notification is a *hint*: it may fire
for a node that is immediately re-clustered in the same operation (a split's
dissolve/recreate cycle), so consumers must re-verify membership before
acting on it."""


@dataclass
class Cluster:
    """One SCP cluster: a maximal edge-glued union of short-cycle atoms."""

    cluster_id: int
    nodes: Set[Node] = field(default_factory=set)
    edges: Set[EdgeKey] = field(default_factory=set)
    born_quantum: int = 0

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        """Fraction of possible node pairs that are edges (1.0 = clique)."""
        n = len(self.nodes)
        if n < 2:
            return 0.0
        return 2.0 * len(self.edges) / (n * (n - 1))

    def adjacency(self) -> Dict[Node, Set[Node]]:
        """Adjacency restricted to the cluster's own edges."""
        adj: Dict[Node, Set[Node]] = {n: set() for n in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __repr__(self) -> str:
        return (
            f"Cluster(id={self.cluster_id}, nodes={sorted(map(repr, self.nodes))},"
            f" |E|={len(self.edges)})"
        )


class ClusterRegistry:
    """Consistent store of the current cluster decomposition."""

    def __init__(self) -> None:
        self._clusters: Dict[int, Cluster] = {}
        self._edge_to_cluster: Dict[EdgeKey, int] = {}
        self._node_to_clusters: Dict[Node, Set[int]] = {}
        # Plain integer id allocator (not itertools.count) so the registry
        # can be checkpointed and resumed with the identical id sequence —
        # event identity across a restore depends on it.
        self._next_id = 1
        self._unclustered_listeners: List[UnclusteredListener] = []

    def add_unclustered_listener(self, listener: UnclusteredListener) -> None:
        """Subscribe to clustered -> unclustered node transitions."""
        self._unclustered_listeners.append(listener)

    def _notify_unclustered(self, node: Node) -> None:
        for listener in self._unclustered_listeners:
            listener(node)

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self._clusters.values())

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._clusters

    def get(self, cluster_id: int) -> Cluster:
        try:
            return self._clusters[cluster_id]
        except KeyError:
            raise ClusterError(f"no such cluster: {cluster_id}") from None

    def cluster_ids(self) -> List[int]:
        return list(self._clusters)

    def cluster_of_edge(self, u: Node, v: Node) -> Optional[int]:
        return self._edge_to_cluster.get(edge_key(u, v))

    def owners_of(self, edges: Iterable[EdgeKey]) -> Set[int]:
        """Ids of the clusters owning any of ``edges`` (canonical keys)."""
        owners = set(map(self._edge_to_cluster.get, edges))
        owners.discard(None)
        return owners

    def clusters_of_node(self, node: Node) -> Set[int]:
        return set(self._node_to_clusters.get(node, ()))

    def decomposition(self) -> Set[frozenset]:
        """Order-free snapshot: the set of frozenset edge sets, one per
        cluster.  Used to compare incremental output against the global
        oracle (Theorem 3)."""
        return {frozenset(c.edges) for c in self._clusters.values()}

    # ------------------------------------------------------------ mutation

    def new_cluster(
        self,
        nodes: Iterable[Node],
        edges: Iterable[EdgeKey],
        born_quantum: int = 0,
        cluster_id: int | None = None,
    ) -> Cluster:
        """Register a fresh cluster.  Edges must be unowned."""
        if cluster_id is not None:
            cid = cluster_id
        else:
            cid = self._next_id
            self._next_id += 1
        if cid in self._clusters:
            raise ClusterError(f"cluster id already in use: {cid}")
        cluster = Cluster(cid, set(nodes), set(edges), born_quantum)
        for e in cluster.edges:
            if e in self._edge_to_cluster:
                raise ClusterError(
                    f"edge {e!r} already owned by cluster "
                    f"{self._edge_to_cluster[e]}"
                )
            self._edge_to_cluster[e] = cid
        for n in cluster.nodes:
            self._node_to_clusters.setdefault(n, set()).add(cid)
        self._clusters[cid] = cluster
        return cluster

    def absorb(
        self,
        target_id: int,
        nodes: Iterable[Node],
        edges: Iterable[EdgeKey],
    ) -> Cluster:
        """Add nodes/edges to an existing cluster (edge growth, Lemma 6)."""
        cluster = self.get(target_id)
        for e in edges:
            owner = self._edge_to_cluster.get(e)
            if owner is not None and owner != target_id:
                raise ClusterError(
                    f"edge {e!r} owned by cluster {owner}, cannot absorb "
                    f"into {target_id}"
                )
            self._edge_to_cluster[e] = target_id
            cluster.edges.add(e)
        for n in nodes:
            cluster.nodes.add(n)
            self._node_to_clusters.setdefault(n, set()).add(target_id)
        return cluster

    def merge(self, cluster_ids: Iterable[int]) -> Cluster:
        """Merge the given clusters into one; survivor = largest, then oldest.

        Returns the surviving cluster.  Implements Lemma 6's edge-sharing
        merge; callers add any new atom nodes/edges with :meth:`absorb`.
        """
        ids = sorted(set(cluster_ids))
        if not ids:
            raise ClusterError("merge requires at least one cluster id")
        clusters = [self.get(cid) for cid in ids]
        survivor = max(clusters, key=lambda c: (len(c.nodes), -c.cluster_id))
        for cluster in clusters:
            if cluster is survivor:
                continue
            for e in cluster.edges:
                self._edge_to_cluster[e] = survivor.cluster_id
            survivor.edges |= cluster.edges
            for n in cluster.nodes:
                self._node_to_clusters[n].discard(cluster.cluster_id)
                self._node_to_clusters[n].add(survivor.cluster_id)
                survivor.nodes.add(n)
            survivor.born_quantum = min(
                survivor.born_quantum, cluster.born_quantum
            )
            del self._clusters[cluster.cluster_id]
        return survivor

    def release_edges(
        self, cluster_id: int, edges: Iterable[EdgeKey]
    ) -> None:
        """Drop edges from a cluster (they left the graph), keeping the
        edge-ownership index consistent."""
        cluster = self.get(cluster_id)
        for e in edges:
            if e in cluster.edges:
                cluster.edges.discard(e)
                if self._edge_to_cluster.get(e) == cluster_id:
                    del self._edge_to_cluster[e]

    def release_node(self, cluster_id: int, node: Node) -> None:
        """Drop a node from a cluster (it left the graph), keeping the
        node-membership index consistent."""
        cluster = self.get(cluster_id)
        cluster.nodes.discard(node)
        members = self._node_to_clusters.get(node)
        if members is not None:
            members.discard(cluster_id)
            if not members:
                del self._node_to_clusters[node]
                self._notify_unclustered(node)

    def dissolve(self, cluster_id: int) -> Cluster:
        """Remove a cluster entirely, releasing its edges and nodes."""
        cluster = self.get(cluster_id)
        for e in cluster.edges:
            if self._edge_to_cluster.get(e) == cluster_id:
                del self._edge_to_cluster[e]
        for n in cluster.nodes:
            members = self._node_to_clusters.get(n)
            if members is not None:
                members.discard(cluster_id)
                if not members:
                    del self._node_to_clusters[n]
                    self._notify_unclustered(n)
        del self._clusters[cluster_id]
        return cluster

    def replace(
        self,
        cluster_id: int,
        fragments: List[tuple[Set[Node], Set[EdgeKey]]],
        quantum: int = 0,
    ) -> List[Cluster]:
        """Replace a cluster by zero or more fragments (deletion re-glue).

        The largest fragment inherits the original id and birth quantum so
        event identity survives splits; remaining fragments become new
        clusters born at ``quantum``.
        """
        original = self.dissolve(cluster_id)
        if not fragments:
            return []
        ordered = sorted(
            fragments, key=lambda f: (len(f[0]), sorted(map(repr, f[0]))),
            reverse=True,
        )
        out: List[Cluster] = []
        first_nodes, first_edges = ordered[0]
        out.append(
            self.new_cluster(
                first_nodes,
                first_edges,
                born_quantum=original.born_quantum,
                cluster_id=cluster_id,
            )
        )
        for nodes, edges in ordered[1:]:
            out.append(self.new_cluster(nodes, edges, born_quantum=quantum))
        return out

    # ---------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpointable snapshot: clusters (insertion order) + id cursor.

        The edge/node indexes are derivable from the clusters, so only the
        clusters themselves and the id allocator are recorded; cluster order
        is preserved so a restored registry iterates identically.
        """
        return {
            "next_id": self._next_id,
            "clusters": [
                {
                    "id": c.cluster_id,
                    "nodes": sorted(c.nodes, key=repr),
                    "edges": sorted((list(e) for e in c.edges), key=repr),
                    "born_quantum": c.born_quantum,
                }
                for c in self._clusters.values()
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the registry in place from :meth:`to_state` output.

        Listeners stay subscribed but are not fired — a restore recreates
        the checkpointed decomposition, it does not transition any node.
        """
        self._clusters = {}
        self._edge_to_cluster = {}
        self._node_to_clusters = {}
        self._next_id = state["next_id"]
        for record in state["clusters"]:
            cluster = Cluster(
                record["id"],
                set(record["nodes"]),
                {tuple(e) for e in record["edges"]},
                record["born_quantum"],
            )
            self._clusters[cluster.cluster_id] = cluster
            for e in cluster.edges:
                self._edge_to_cluster[e] = cluster.cluster_id
            for n in cluster.nodes:
                self._node_to_clusters.setdefault(n, set()).add(
                    cluster.cluster_id
                )

    # ----------------------------------------------------------- integrity

    def check_integrity(self) -> None:
        """Raise :class:`ClusterError` if any index is inconsistent.

        Intended for tests; O(total cluster size).
        """
        for cid, cluster in self._clusters.items():
            if cluster.cluster_id != cid:
                raise ClusterError(f"id mismatch for cluster {cid}")
            for e in cluster.edges:
                if self._edge_to_cluster.get(e) != cid:
                    raise ClusterError(f"edge index wrong for {e!r} in {cid}")
                for endpoint in e:
                    if endpoint not in cluster.nodes:
                        raise ClusterError(
                            f"edge {e!r} endpoint missing from cluster {cid}"
                        )
            for n in cluster.nodes:
                if cid not in self._node_to_clusters.get(n, ()):
                    raise ClusterError(f"node index wrong for {n!r} in {cid}")
        for e, cid in self._edge_to_cluster.items():
            if cid not in self._clusters or e not in self._clusters[cid].edges:
                raise ClusterError(f"dangling edge index entry {e!r} -> {cid}")
        for n, cids in self._node_to_clusters.items():
            for cid in cids:
                if cid not in self._clusters or n not in self._clusters[cid].nodes:
                    raise ClusterError(f"dangling node index entry {n!r} -> {cid}")


__all__ = ["Cluster", "ClusterRegistry"]
