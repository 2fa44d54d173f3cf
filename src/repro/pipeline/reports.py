"""Pipeline output records: per-quantum reports and stage timings.

These dataclasses are the *products* of one run of the staged quantum
pipeline (:mod:`repro.pipeline.stages`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

if TYPE_CHECKING:  # type-only: keeps this module import-cycle free
    from repro.akg.builder import AkgQuantumStats


@dataclass(frozen=True)
class ReportedEvent:
    """One cluster as reported to the consumer at the end of a quantum."""

    event_id: int
    keywords: frozenset[str]
    rank: float
    support: float
    size: int
    num_edges: int
    born_quantum: int


@dataclass
class StageTimings:
    """Wall-clock seconds per pipeline stage of one (or many) quanta.

    ``extract`` was named ``tokenize`` before the extractor refactor (the
    stage now runs any :class:`~repro.extract.base.EntityExtractor`, not
    just text tokenisation); v2 checkpoints are migrated on load.

    ``slide``, ``sketch``, ``pairing`` and ``correlate`` are *sub-spans* of
    ``akg_update``, measured by :class:`~repro.akg.builder.AkgBuilder`
    (id-set window slide; the bursty keywords' sketches; candidate pairing
    over their buckets; the two edge-correlation kernel calls).  They never
    sum past ``akg_update`` and do not join :attr:`total`, which stays the
    sum of the six exclusive stage slots.
    """

    extract: float = 0.0
    akg_update: float = 0.0
    maintain: float = 0.0
    propagate: float = 0.0
    rank: float = 0.0
    report: float = 0.0
    slide: float = 0.0
    sketch: float = 0.0
    pairing: float = 0.0
    correlate: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.extract
            + self.akg_update
            + self.maintain
            + self.propagate
            + self.rank
            + self.report
        )

    def add(self, other: "StageTimings") -> None:
        """Accumulate another timing record into this one (for totals)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "StageTimings":
        """Inverse of :meth:`as_dict` for stored records of any age: a slot
        this version does not have is dropped, one the record lacks is 0.0
        (timings are wall-clock bookkeeping, never detector state)."""
        return cls(**{f.name: data.get(f.name, 0.0) for f in fields(cls)})


@dataclass
class QuantumReport:
    """Everything the detector learned in one quantum."""

    quantum: int
    reported: List[ReportedEvent] = field(default_factory=list)
    suppressed: List[ReportedEvent] = field(default_factory=list)
    new_event_ids: Set[int] = field(default_factory=set)
    dead_event_ids: Set[int] = field(default_factory=set)
    akg_stats: Optional["AkgQuantumStats"] = None
    messages_processed: int = 0
    elapsed_seconds: float = 0.0
    timings: StageTimings = field(default_factory=StageTimings)
    changes: int = 0
    dirty_clusters: int = 0
    ranked_clusters: int = 0
    rank_cache_hits: int = 0

    def top(self, k: int) -> List[ReportedEvent]:
        return heapq.nlargest(k, self.reported, key=lambda e: e.rank)


__all__ = ["ReportedEvent", "StageTimings", "QuantumReport"]
