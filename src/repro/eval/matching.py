"""Matching detected events to planted ground truth.

A detected event (an :class:`~repro.core.events.EventRecord`) matches a
ground-truth event when (a) their keyword sets overlap enough and (b) their
active intervals overlap in stream time.  Keyword overlap is measured
against everything the detected event ever contained (events evolve); the
temporal tolerance accounts for the sliding window keeping clusters alive up
to ``w`` quanta past the last supporting message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.events import EventRecord
from repro.datasets.events import GroundTruthEvent


@dataclass(frozen=True)
class MatchCriteria:
    """Thresholds for attributing a detected cluster to a planted event."""

    min_overlap: int = 2
    """At least this many shared keywords."""

    min_cluster_fraction: float = 0.34
    """At least this fraction of the detected event's keywords must belong
    to the ground-truth event — guards against giant merged clusters
    claiming every event at once."""


@dataclass
class EventMatch:
    """The outcome of matching one run against ground truth."""

    detected_to_truth: Dict[int, str] = field(default_factory=dict)
    truth_to_detected: Dict[str, List[int]] = field(default_factory=dict)
    first_detection_quantum: Dict[str, int] = field(default_factory=dict)

    def matched_truth_ids(self) -> set:
        return set(self.truth_to_detected)

    def first_detection_message(
        self, event_id: str, quantum_size: int
    ) -> Optional[int]:
        """Stream position by which the event was first reported."""
        quantum = self.first_detection_quantum.get(event_id)
        if quantum is None:
            return None
        return (quantum + 1) * quantum_size


def _keyword_overlap_score(
    record: EventRecord, truth: GroundTruthEvent, criteria: MatchCriteria
) -> int:
    """Shared-keyword count if the pair qualifies, else 0."""
    detected = record.all_keywords
    truth_keywords = set(truth.all_keywords)
    overlap = len(detected & truth_keywords)
    if overlap < criteria.min_overlap:
        return 0
    if detected and overlap / len(detected) < criteria.min_cluster_fraction:
        return 0
    return overlap


def _intervals_overlap(
    record: EventRecord,
    truth: GroundTruthEvent,
    quantum_size: int,
    window_quanta: int,
) -> bool:
    """Did the detected event live while the planted event was in-window?"""
    if not record.snapshots:
        return False
    first = record.first_quantum * quantum_size
    last = (record.last_quantum + 1) * quantum_size
    slack = window_quanta * quantum_size
    return first < truth.end_message + slack and last > truth.start_message


def match_events(
    records: Sequence[EventRecord],
    ground_truth: Sequence[GroundTruthEvent],
    quantum_size: int,
    window_quanta: int,
    criteria: MatchCriteria = MatchCriteria(),
) -> EventMatch:
    """Attribute each detected event to its best ground-truth event.

    Each detected record maps to at most one truth event (the largest
    keyword overlap among temporally compatible candidates); a truth event
    may be found by several records (e.g. after an early split).
    """
    result = EventMatch()
    for record in records:
        best: Optional[GroundTruthEvent] = None
        best_score = 0
        for truth in ground_truth:
            if not _intervals_overlap(record, truth, quantum_size, window_quanta):
                continue
            score = _keyword_overlap_score(record, truth, criteria)
            if score > best_score:
                best, best_score = truth, score
        if best is None:
            continue
        result.detected_to_truth[record.event_id] = best.event_id
        result.truth_to_detected.setdefault(best.event_id, []).append(
            record.event_id
        )
        first_quantum = record.first_quantum
        known = result.first_detection_quantum.get(best.event_id)
        if known is None or first_quantum < known:
            result.first_detection_quantum[best.event_id] = first_quantum
    return result


__all__ = ["MatchCriteria", "EventMatch", "match_events"]
