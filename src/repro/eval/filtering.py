"""Spurious-event filters (Section 7.2.2).

Three filters decide which tracked events count as *reported*:

1. **rank floor** — ignore events whose rank never reached a threshold
   derived from the minimum rank a qualifying cluster can have;
2. **noun check** — ignore events whose keywords contain no noun;
3. **post-hoc decay rule** — events that never evolved and whose rank only
   decayed are classified spurious after the fact (the paper cannot
   suppress them at report time, and neither do we).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import DetectorConfig
from repro.core.events import EventRecord
from repro.core.ranking import minimum_rank
from repro.text.pos import NounTagger


def passes_rank_floor(record: EventRecord, config: DetectorConfig) -> bool:
    """Did the event's rank ever reach the report threshold?"""
    floor = minimum_rank(config.high_state_threshold, config.ec_threshold)
    return any(snapshot.rank >= floor for snapshot in record.snapshots)

def passes_noun_filter(record: EventRecord, tagger: Optional[NounTagger]) -> bool:
    """Does the event contain at least one noun keyword?"""
    if tagger is None:
        return True
    return tagger.has_noun(record.all_keywords)


def reported_records(
    records: Sequence[EventRecord],
    config: DetectorConfig,
    tagger: Optional[NounTagger] = None,
    apply_posthoc: bool = True,
    min_lifetime: int = 2,
) -> List[EventRecord]:
    """Events that survive the Section 7.2.2 filters.

    ``apply_posthoc=False`` gives the report-time view (rank floor + noun
    check only); the default additionally applies the post-hoc
    non-evolving/monotone-decay spurious rule used by the precision
    analysis.
    """
    out: List[EventRecord] = []
    for record in records:
        if not record.snapshots:
            continue
        if not passes_rank_floor(record, config):
            continue
        if config.require_noun and not passes_noun_filter(record, tagger):
            continue
        if apply_posthoc and record.is_spurious(min_lifetime=min_lifetime):
            continue
        out.append(record)
    return out


__all__ = ["passes_rank_floor", "passes_noun_filter", "reported_records"]
