"""Event lifecycle tracking across quanta.

An *event* is the temporal identity of an SCP cluster: it is born when the
cluster first appears, evolves as keywords join and leave (Section 4.2's
motivating examples), survives merges (the surviving cluster id carries on)
and dies when its cluster dissolves or is absorbed.  A death is final:
cluster ids come from a monotonic cursor and a retired id never returns, so
a record is touched only while it is alive.

The tracker also implements the paper's post-hoc spurious-event analysis
(Section 7.2.2): real events have a build-up and wind-down phase, so their
clusters evolve and their rank varies non-monotonically; spurious events
burst once and then decay monotonically without evolving.

Churn proportionality: snapshots are *change points*, not per-quantum rows.
:meth:`EventTracker.observe_edits` consumes the incremental ranker's
``last_recomputed`` / ``last_removed`` edit script and appends a snapshot
only when an event's reportable state actually changed (or it was born),
so per-quantum tracking work scales with churn instead of the live-event
count.  Between two snapshots an event's state is constant by construction,
which is what lets :meth:`EventRecord.iter_quanta` expand the
run-length-encoded history back into the dense per-quantum view the eval
layer consumes.  Its from-scratch referee, which diffs a full ranking by
value, is a test-side subclass (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.changelog import ChangeBatch
from repro.errors import PipelineError


@dataclass(slots=True)
class EventSnapshot:
    """State of one event from ``quantum`` until its next change point.

    Consecutive snapshots of one event whose keyword sets are equal share
    one ``keywords`` object (a rank-only change point stores no new set).
    """

    quantum: int
    keywords: FrozenSet[str]
    rank: float
    support: float
    num_edges: int


@dataclass
class EventRecord:
    """Full history of one event (one cluster identity).

    ``snapshots`` holds one entry per *change point*; the event was alive
    in every quantum from its first snapshot to :attr:`last_quantum`.
    ``_observed_until`` is stamped by the tracker's accessors with the last
    quantum the event was known alive — for a live record the snapshots
    alone cannot tell "unchanged since" from "gone since".
    """

    event_id: int
    born_quantum: int
    snapshots: List[EventSnapshot] = field(default_factory=list)
    died_quantum: Optional[int] = None
    absorbed_into: Optional[int] = None
    _observed_until: Optional[int] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.died_quantum is None

    @property
    def current_keywords(self) -> FrozenSet[str]:
        return self.snapshots[-1].keywords if self.snapshots else frozenset()

    @property
    def all_keywords(self) -> FrozenSet[str]:
        """Union of every keyword the event ever contained."""
        out: set = set()
        for snap in self.snapshots:
            out |= snap.keywords
        return frozenset(out)

    @property
    def peak_rank(self) -> float:
        return max((s.rank for s in self.snapshots), default=0.0)

    @property
    def first_quantum(self) -> int:
        """First quantum the event was observed in."""
        return self.snapshots[0].quantum if self.snapshots else self.born_quantum

    @property
    def last_quantum(self) -> int:
        """Last quantum the event was (known to be) alive.

        A dead record ended the quantum before its recorded death; a live
        record extends to the tracker-stamped observation horizon, falling
        back to its last change point for hand-built (dense) records.
        """
        if self.died_quantum is not None:
            return self.died_quantum - 1
        last_change = self.snapshots[-1].quantum if self.snapshots else self.born_quantum
        if self._observed_until is not None:
            return max(self._observed_until, last_change)
        return last_change

    @property
    def lifetime_quanta(self) -> int:
        if not self.snapshots:
            return 0
        return self.last_quantum - self.first_quantum + 1

    def iter_quanta(self) -> Iterator[Tuple[int, EventSnapshot]]:
        """Dense per-quantum expansion: yield ``(quantum, state)`` pairs.

        Expands the change-point encoding over the event's span — exactly
        the rows the old per-quantum tracker materialised eagerly.
        """
        snaps = self.snapshots
        end = self.last_quantum
        for i, snap in enumerate(snaps):
            until = snaps[i + 1].quantum - 1 if i + 1 < len(snaps) else end
            for quantum in range(snap.quantum, until + 1):
                yield quantum, snap

    def evolved(self) -> bool:
        """True iff the keyword set changed at least once during the event."""
        keyword_sets = {s.keywords for s in self.snapshots}
        return len(keyword_sets) > 1

    def rank_monotonically_decreasing(self) -> bool:
        """True iff every rank is <= the previous one (strictly a decay).

        Change-point encoding preserves the verdict: between snapshots the
        rank is constant, and a constant run satisfies ``b <= a`` exactly as
        its collapsed single entry does.
        """
        ranks = [s.rank for s in self.snapshots]
        return all(b <= a for a, b in zip(ranks, ranks[1:]))

    def is_spurious(self, min_lifetime: int = 2) -> bool:
        """Post-hoc spurious classification (Section 7.2.2).

        An event is spurious when it never evolved *and* its rank decayed
        monotonically after its initial burst.  Events observed for fewer
        than ``min_lifetime`` quanta keep the benefit of the doubt only if
        they evolved; single-burst one-shot clusters are spurious.  The
        guard counts the quanta the event was alive, the dense encoding's
        ``len(snapshots)``.
        """
        if self.lifetime_quanta < min_lifetime:
            return not self.evolved()
        return (not self.evolved()) and self.rank_monotonically_decreasing()


class EventTracker:
    """Maintains :class:`EventRecord` objects from per-quantum cluster state."""

    def __init__(self) -> None:
        self._records: Dict[int, EventRecord] = {}
        self._last_quantum: Optional[int] = None

    # ------------------------------------------------------------- updates

    def _touch(
        self,
        event_id: int,
        quantum: int,
        keywords: FrozenSet[str],
        rank: float,
        support: float,
        num_edges: int,
    ) -> None:
        """Observe one live event; append a snapshot only on a change point."""
        record = self._records.get(event_id)
        if record is None:
            record = EventRecord(event_id, quantum)
            self._records[event_id] = record
        elif record.died_quantum is not None:
            raise PipelineError(
                f"event {event_id} died at quantum {record.died_quantum} "
                f"and was observed alive again at quantum {quantum}: a "
                f"retired cluster id came back"
            )
        if record.snapshots:
            last = record.snapshots[-1]
            if last.keywords == keywords:
                keywords = last.keywords
                if (
                    last.rank == rank
                    and last.support == support
                    and last.num_edges == num_edges
                ):
                    return
        record.snapshots.append(
            EventSnapshot(
                quantum=quantum,
                keywords=keywords,
                rank=rank,
                support=support,
                num_edges=num_edges,
            )
        )

    def observe_edits(
        self, quantum: int, ranker, changes: ChangeBatch
    ) -> None:
        """Record one quantum from the ranker's result-list edit script.

        Only ``ranker.last_recomputed`` (ids whose ranked state was rebuilt
        this quantum) and ``ranker.last_removed`` (ids dropped from the
        result list) are touched — never the full live-event population.
        Sound because an event's reportable state cannot change without its
        cluster being recomputed, and an event cannot die without leaving
        the result list (DESIGN.md Section 3).  ``changes`` is the
        quantum's drained batch; it attributes deaths to merges
        (``absorbed_into``).
        """
        absorbed = changes.absorbed_into()
        for event_id in sorted(ranker.last_removed):
            record = self._records.get(event_id)
            if record is not None and record.alive:
                record.died_quantum = quantum
                record.absorbed_into = absorbed.get(event_id)
        for event_id in sorted(ranker.last_recomputed):
            cluster, rank, support = ranker.result(event_id)
            self._touch(
                event_id,
                quantum,
                frozenset(str(n) for n in cluster.nodes),
                rank,
                support,
                cluster.num_edges,
            )
        self._last_quantum = quantum

    def _stamp(self, records: List[EventRecord]) -> List[EventRecord]:
        """Stamp live records with the observation horizon before hand-out."""
        for record in records:
            if record.alive:
                record._observed_until = self._last_quantum
        return records

    # ---------------------------------------------------------- persistence

    @staticmethod
    def _snapshot_state(snapshot: EventSnapshot) -> list:
        return [
            snapshot.quantum,
            sorted(snapshot.keywords),
            snapshot.rank,
            snapshot.support,
            snapshot.num_edges,
        ]

    @classmethod
    def _record_state(cls, record: EventRecord) -> dict:
        return {
            "event_id": record.event_id,
            "born_quantum": record.born_quantum,
            "died_quantum": record.died_quantum,
            "absorbed_into": record.absorbed_into,
            "snapshots": [cls._snapshot_state(s) for s in record.snapshots],
        }

    def to_state(self) -> dict:
        """Checkpointable snapshot of every event history (insertion order).

        ``last_quantum`` (the observation horizon) travels with the records:
        live records' spans extend to it, and the change-point encoding
        cannot reconstruct it from the snapshots alone.
        """
        return {
            "last_quantum": self._last_quantum,
            "records": [
                self._record_state(r) for r in self._records.values()
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the tracker in place from :meth:`to_state` output."""
        self._records = {}
        self._last_quantum = state["last_quantum"]
        for record in state["records"]:
            out = EventRecord(
                event_id=record["event_id"],
                born_quantum=record["born_quantum"],
                died_quantum=record["died_quantum"],
                absorbed_into=record["absorbed_into"],
            )
            listed = shared = None
            for quantum, keywords, rank, support, num_edges in record[
                "snapshots"
            ]:
                if keywords != listed:
                    listed, shared = keywords, frozenset(keywords)
                out.snapshots.append(
                    EventSnapshot(
                        quantum=quantum,
                        keywords=shared,
                        rank=rank,
                        support=support,
                        num_edges=num_edges,
                    )
                )
            self._records[out.event_id] = out

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._records)

    def get(self, event_id: int) -> EventRecord:
        record = self._records[event_id]
        self._stamp([record])
        return record

    def alive_events(self) -> List[EventRecord]:
        return self._stamp([r for r in self._records.values() if r.alive])

    def all_events(self) -> List[EventRecord]:
        return self._stamp(list(self._records.values()))

    def real_events(self, min_lifetime: int = 2) -> List[EventRecord]:
        """Events that survive the post-hoc spurious filter."""
        return [
            r
            for r in self.all_events()
            if not r.is_spurious(min_lifetime=min_lifetime)
        ]


__all__ = ["EventSnapshot", "EventRecord", "EventTracker"]
