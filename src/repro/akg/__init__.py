"""AKG construction: reducing the CKG to its active subgraph (Section 3).

* :mod:`repro.akg.idsets` — sliding-window per-keyword user-id sets (the "id
  set" of Section 3.2) with O(1) amortized quantum advance;
* :mod:`repro.akg.burstiness` — the two-state low/high keyword automaton with
  high-state threshold theta (Section 3.1);
* :mod:`repro.akg.minhash` — the salted user hash behind the p-minimum
  MinHash sketches used to find edge candidates without all-pairs EC
  computation (Section 3.2.2);
* :mod:`repro.akg.builder` — the per-quantum pipeline that applies node and
  edge deltas to a :class:`~repro.core.maintenance.ClusterMaintainer`; its
  exact edge correlation is the window index's batched Jaccard kernel
  (:meth:`~repro.akg.idsets.IdSetIndex.jaccard_many`); its from-scratch
  referee is a test-side subclass (``tests/oracles.py``);
* :mod:`repro.akg.ckg_stats` — full-CKG counters for the Section 7.4
  reduction study, assembled by ``benchmarks/bench_akg_reduction.py``.
"""

from repro.akg.idsets import IdSetIndex, SlideDelta
from repro.akg.burstiness import BurstinessTracker
from repro.akg.builder import AkgBuilder, AkgQuantumStats
from repro.akg.ckg_stats import CkgStatsTracker

__all__ = [
    "IdSetIndex",
    "SlideDelta",
    "BurstinessTracker",
    "AkgBuilder",
    "AkgQuantumStats",
    "CkgStatsTracker",
]
