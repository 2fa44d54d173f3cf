"""The paper's primary contribution: SCP cluster discovery and maintenance.

Layers (bottom up):

* :mod:`repro.core.atoms` — short-cycle (length 3/4) atom enumeration and the
  short-cycle property predicate (Section 4.1);
* :mod:`repro.core.clusters` — the cluster registry with edge-ownership and
  node-membership indexes (Lemma 6 bookkeeping);
* :mod:`repro.core.maintenance` — the incremental node/edge add/delete
  algorithms of Section 5, plus the from-scratch global oracle used to verify
  Theorem 3;
* :mod:`repro.core.changelog` — typed change events and the per-quantum
  :class:`ChangeLog` / :class:`ChangeBatch` propagation contract;
* :mod:`repro.core.ranking` — the Section 6 ranking function;
* :mod:`repro.core.incremental` — the change-driven
  :class:`IncrementalRanker`;
* :mod:`repro.core.events` — event lifecycle tracking over quanta.

The streaming detector that drives these layers is
:func:`repro.api.open_session`.
"""

from repro.core.atoms import (
    Atom,
    atoms_containing_edge,
    atoms_in_subgraph,
    edge_on_short_cycle,
    satisfies_scp,
)
from repro.core.changelog import (
    ChangeBatch,
    ChangeEvent,
    ChangeLog,
    ClusterCreated,
    ClusterDissolved,
    ClusterMerged,
    ClusterSplit,
    ClusterUpdated,
    EdgeWeightChanged,
    NodeWeightChanged,
)
from repro.core.clusters import Cluster, ClusterRegistry
from repro.core.incremental import IncrementalRanker, RankStats
from repro.core.maintenance import ClusterMaintainer, decompose_graph
from repro.core.ranking import cluster_rank, minimum_rank, rank_and_support
from repro.core.events import EventRecord, EventTracker
from repro.core.postprocess import (
    CorrelatedEventGroup,
    CorrelationPolicy,
    correlate_events,
)

__all__ = [
    "Atom",
    "atoms_containing_edge",
    "atoms_in_subgraph",
    "edge_on_short_cycle",
    "satisfies_scp",
    "ChangeBatch",
    "ChangeEvent",
    "ChangeLog",
    "ClusterCreated",
    "ClusterDissolved",
    "ClusterMerged",
    "ClusterSplit",
    "ClusterUpdated",
    "EdgeWeightChanged",
    "NodeWeightChanged",
    "Cluster",
    "ClusterRegistry",
    "ClusterMaintainer",
    "IncrementalRanker",
    "RankStats",
    "decompose_graph",
    "cluster_rank",
    "rank_and_support",
    "minimum_rank",
    "EventRecord",
    "EventTracker",
    "CorrelatedEventGroup",
    "CorrelationPolicy",
    "correlate_events",
]
