"""AKG construction: reducing the CKG to its active subgraph (Section 3).

* :mod:`repro.akg.idsets` — sliding-window per-keyword user-id sets (the "id
  set" of Section 3.2) with O(1) amortized quantum advance;
* :mod:`repro.akg.burstiness` — the two-state low/high keyword automaton with
  high-state threshold theta (Section 3.1);
* :mod:`repro.akg.minhash` — p-minimum MinHash sketches used to find edge
  candidates without all-pairs EC computation (Section 3.2.2);
* :mod:`repro.akg.correlation` — Jaccard edge correlation, exact and
  sketch-estimated;
* :mod:`repro.akg.builder` — the per-quantum pipeline that applies node and
  edge deltas to a :class:`~repro.core.maintenance.ClusterMaintainer`;
* :mod:`repro.akg.oracle` — from-scratch window-state recomputation, the
  differential-verification baseline of the delta-driven fast path;
* :mod:`repro.akg.ckg_stats` — full-CKG counters for the Section 7.4
  reduction study, assembled by ``benchmarks/bench_akg_reduction.py``.
"""

from repro.akg.idsets import IdSetIndex, SlideDelta
from repro.akg.burstiness import BurstinessTracker
from repro.akg.minhash import MinHasher, estimate_jaccard, sketches_share_value
from repro.akg.correlation import exact_jaccard
from repro.akg.builder import AkgBuilder, AkgQuantumStats
from repro.akg.oracle import OracleIdSetIndex, OracleSketchIndex
from repro.akg.ckg_stats import CkgStatsTracker

__all__ = [
    "IdSetIndex",
    "SlideDelta",
    "OracleIdSetIndex",
    "OracleSketchIndex",
    "BurstinessTracker",
    "MinHasher",
    "estimate_jaccard",
    "sketches_share_value",
    "exact_jaccard",
    "AkgBuilder",
    "AkgQuantumStats",
    "CkgStatsTracker",
]
