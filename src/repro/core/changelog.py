"""Typed change propagation between the maintenance and ranking layers.

The paper's per-quantum cost bound (Section 4.1) holds only if every stage
downstream of graph maintenance touches *changed* state, never the whole
graph.  This module is the contract that makes that possible: every mutation
the maintainer, the AKG builder or the graph performs is recorded as a typed
:class:`ChangeEvent` in a :class:`ChangeLog`; once per quantum the engine
drains the log into an immutable :class:`ChangeBatch` and hands it to the
:class:`~repro.core.incremental.IncrementalRanker`, which re-ranks exactly
the clusters the batch marks dirty (see DESIGN.md Section 2).

Event taxonomy
--------------
Structural (emitted by :class:`~repro.core.maintenance.ClusterMaintainer`):

* :class:`ClusterCreated` — a new cluster appeared (first short cycle);
* :class:`ClusterMerged` — clusters merged, the survivor id carries on;
* :class:`ClusterSplit` — a deletion fragmented a cluster, the original id
  survives on the largest fragment;
* :class:`ClusterDissolved` — a cluster lost its last short cycle;
* :class:`ClusterUpdated` — a cluster's node/edge set changed in place.

Weight deltas (emitted by :class:`~repro.akg.builder.AkgBuilder` and by the
:class:`~repro.graph.dynamic_graph.DynamicGraph` weight-listener hook):

* :class:`NodeWeightChanged` — a keyword's window support changed;
* :class:`EdgeWeightChanged` — an edge's correlation was refreshed to a
  different value (same-value refreshes are filtered at the source).

Both delta kinds are resolved to dirty cluster ids lazily, at drain time,
against the *current* registry: a node whose weight changed mid-quantum and
whose cluster then split still dirties the surviving fragments, and a delta
on an edge that was subsequently deleted resolves to nothing (the deletion's
own structural event already covers the affected cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.graph.dynamic_graph import EdgeKey

Node = Hashable


@dataclass(frozen=True)
class ChangeEvent:
    """Base class of every typed change-log entry."""

    kind: ClassVar[str] = "change"


@dataclass(frozen=True)
class ClusterCreated(ChangeEvent):
    kind: ClassVar[str] = "created"
    cluster_id: int


@dataclass(frozen=True)
class ClusterMerged(ChangeEvent):
    """``absorbed`` ids are retired; ``survivor`` owns their state."""

    kind: ClassVar[str] = "merged"
    survivor: int
    absorbed: Tuple[int, ...]


@dataclass(frozen=True)
class ClusterSplit(ChangeEvent):
    """``original`` keeps the largest fragment; ``fragments`` are new ids."""

    kind: ClassVar[str] = "split"
    original: int
    fragments: Tuple[int, ...]


@dataclass(frozen=True)
class ClusterDissolved(ChangeEvent):
    kind: ClassVar[str] = "dissolved"
    cluster_id: int


@dataclass(frozen=True)
class ClusterUpdated(ChangeEvent):
    kind: ClassVar[str] = "updated"
    cluster_id: int


@dataclass(frozen=True)
class NodeWeightChanged(ChangeEvent):
    """A keyword's window support moved from ``old`` to ``new``."""

    kind: ClassVar[str] = "node-weight"
    node: Node
    old: float
    new: float


@dataclass(frozen=True)
class EdgeWeightChanged(ChangeEvent):
    """An edge's correlation moved from ``old`` to ``new`` (canonical key)."""

    kind: ClassVar[str] = "edge-weight"
    edge: EdgeKey
    old: float
    new: float


ChangeListener = Callable[[ChangeEvent], None]


class ChangeLog:
    """Append-only log of typed change events, drained once per quantum.

    The log is deliberately dumb: recording is an O(1) append (plus optional
    listener fan-out) so it never slows the maintenance hot path, and all
    interpretation — absorption attribution, dirty-cluster resolution — lives
    on the drained :class:`ChangeBatch`.
    """

    __slots__ = ("_events", "_listeners")

    def __init__(self) -> None:
        self._events: List[ChangeEvent] = []
        self._listeners: List[ChangeListener] = []

    def record(self, event: ChangeEvent) -> None:
        self._events.append(event)
        if self._listeners:
            for listener in self._listeners:
                listener(event)

    def subscribe(self, listener: ChangeListener) -> None:
        """Call ``listener`` synchronously on every future :meth:`record`."""
        self._listeners.append(listener)

    def drain(self) -> "ChangeBatch":
        """Return the accumulated events as a batch and clear the log."""
        events, self._events = self._events, []
        return ChangeBatch(tuple(events))

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)


@dataclass(frozen=True)
class ChangeBatch:
    """One quantum's worth of drained change events.

    The batch is the unit of propagation between the maintenance layer and
    the ranker; it is immutable so it can be shared by the ranker, the event
    tracker, and test oracles without defensive copies.
    """

    events: Tuple[ChangeEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -------------------------------------------------------- interpretation

    def absorbed_into(self) -> Dict[int, int]:
        """Retired cluster id -> surviving cluster id, for every merge."""
        out: Dict[int, int] = {}
        for event in self.events:
            if isinstance(event, ClusterMerged):
                for cid in event.absorbed:
                    out[cid] = event.survivor
        return out

    def retired_ids(self) -> Set[int]:
        """Cluster ids that stopped existing: dissolved or absorbed."""
        out: Set[int] = set()
        for event in self.events:
            if isinstance(event, ClusterDissolved):
                out.add(event.cluster_id)
            elif isinstance(event, ClusterMerged):
                out.update(event.absorbed)
        return out

    def dirty_clusters(self, registry) -> Set[int]:
        """Resolve the batch to the set of live cluster ids needing re-rank.

        Structural events name their clusters directly; weight deltas are
        resolved through the registry's node/edge indexes *now*, so the
        answer reflects the end-of-quantum decomposition regardless of the
        order mutations happened in.  Ids no longer live are dropped.
        """
        dirty: Set[int] = set()
        for event in self.events:
            if isinstance(event, ClusterCreated):
                dirty.add(event.cluster_id)
            elif isinstance(event, ClusterUpdated):
                dirty.add(event.cluster_id)
            elif isinstance(event, ClusterMerged):
                dirty.add(event.survivor)
            elif isinstance(event, ClusterSplit):
                dirty.add(event.original)
                dirty.update(event.fragments)
            elif isinstance(event, NodeWeightChanged):
                dirty.update(registry.clusters_of_node(event.node))
            elif isinstance(event, EdgeWeightChanged):
                owner: Optional[int] = registry.cluster_of_edge(*event.edge)
                if owner is not None:
                    dirty.add(owner)
        return {cid for cid in dirty if cid in registry}


__all__ = [
    "ChangeEvent",
    "ClusterCreated",
    "ClusterMerged",
    "ClusterSplit",
    "ClusterDissolved",
    "ClusterUpdated",
    "NodeWeightChanged",
    "EdgeWeightChanged",
    "ChangeLog",
    "ChangeBatch",
]
