"""Comparison baselines from the paper's evaluation.

* :mod:`repro.baselines.offline_bc` — the offline biconnected-cluster method
  of Bansal et al. [2], recomputed globally on the full AKG after every
  quantum (Section 7.3's comparator), with and without size-2 edge clusters;
* :mod:`repro.baselines.tracking` — snapshot-to-snapshot event identity for
  baselines that lack incremental cluster identity.

Rival methods from the related work (trending topics, DynDens and the
like) are not product code here: they serve, at most, as workload models.
"""

from repro.baselines.offline_bc import OfflineBcObserver, BcQuantumSnapshot
from repro.baselines.tracking import SnapshotEventTracker

__all__ = [
    "OfflineBcObserver",
    "BcQuantumSnapshot",
    "SnapshotEventTracker",
]
