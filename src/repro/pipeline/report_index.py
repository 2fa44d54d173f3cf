"""Incremental threshold / top-k index over the maintained ranking.

The report stage used to scan every ranked cluster each quantum to apply the
Section 7.2.2 filters (rank floor, noun check) — an O(live clusters) term in
an otherwise churn-proportional pipeline (the ROADMAP open item).  This index
closes that gap: it keeps one :class:`~repro.pipeline.reports.ReportedEvent`
entry per live reportable cluster together with its cached filter verdict,
and re-evaluates the filter predicate **only for entries that changed** — the
same dirty set the :class:`~repro.core.incremental.IncrementalRanker` already
maintains.  The filters are pure functions of the entry (DESIGN.md Section 6),
so an untouched verdict cannot go stale for the same reason an untouched rank
cannot.

Materialising the per-quantum output lists remains O(output) — that is the
size of the answer, not a sweep — and the rank-descending order is cached
between quanta so a churn-free quantum reuses the previous ordering.  The
index is also the one record of what was reported: ``before()`` is its
per-quantum delta, which the session's notifications are derived from, and
``top(k)`` is the view a ``top_k``-limited subscription consults.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.pipeline.reports import ReportedEvent

FilterPredicate = Callable[[ReportedEvent], bool]
"""Pure report-time filter: True means the entry is reported, False means it
is suppressed.  Must depend only on the entry's own fields (and static
configuration) so cached verdicts stay exact."""


class ThresholdIndex:
    """Maintains filter verdicts and rank order over the live result list.

    ``update``/``remove`` mirror the ranker's per-quantum delta; ``reported``
    and ``suppressed`` materialise the two output lists in the exact order
    the pre-index report stage produced (rank-descending with cluster-id
    tie-break, and cluster-id order respectively) so the redesign is
    output-identical.  ``filter_evaluations`` counts predicate calls — the
    churn-proportionality regression tests assert it tracks the dirty set,
    not the live set.
    """

    def __init__(self, predicate: FilterPredicate) -> None:
        self.predicate = predicate
        self._entries: Dict[int, ReportedEvent] = {}
        self._passing: Dict[int, bool] = {}
        self._reported_cache: Optional[List[ReportedEvent]] = None
        self._suppressed_cache: Optional[List[ReportedEvent]] = None
        self._before: Dict[int, Optional[ReportedEvent]] = {}
        self.filter_evaluations = 0
        """Total predicate evaluations performed (work counter for tests)."""

    # ------------------------------------------------------------- updates

    def begin(self) -> None:
        """Start a new delta: forget which ids were touched so far."""
        self._before = {}

    def update(self, event: ReportedEvent) -> bool:
        """Insert or refresh one cluster's entry; returns True when it is new.

        The filter predicate is evaluated here — once per *changed* entry —
        and the verdict cached until the cluster is dirtied again.
        """
        cid = event.event_id
        self._before.setdefault(cid, self.reported_entry(cid))
        fresh = cid not in self._entries
        self._entries[cid] = event
        self._passing[cid] = self.predicate(event)
        self.filter_evaluations += 1
        self._invalidate()
        return fresh

    def remove(self, cluster_id: int) -> bool:
        """Drop a cluster's entry; returns True when it was present."""
        self._before.setdefault(cluster_id, self.reported_entry(cluster_id))
        if self._entries.pop(cluster_id, None) is None:
            return False
        del self._passing[cluster_id]
        self._invalidate()
        return True

    def _invalidate(self) -> None:
        self._reported_cache = None
        self._suppressed_cache = None

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._entries

    def entries(self) -> Mapping[int, ReportedEvent]:
        """Read-only view of the maintained entries (tests, sessions)."""
        return self._entries

    def reported_entry(self, cluster_id: int) -> Optional[ReportedEvent]:
        """The id's entry if it is currently reported, else None."""
        passing = self._passing.get(cluster_id)
        return self._entries[cluster_id] if passing else None

    def before(self) -> Mapping[int, Optional[ReportedEvent]]:
        """Every id touched since :meth:`begin`, mapped to the entry it
        reported before its first touch (None if it was not reported)."""
        return self._before

    def reported(self) -> List[ReportedEvent]:
        """Entries passing the filter, rank-descending (stable by id)."""
        if self._reported_cache is None:
            ordered = [
                self._entries[cid]
                for cid in sorted(self._entries)
                if self._passing[cid]
            ]
            ordered.sort(key=lambda e: e.rank, reverse=True)
            self._reported_cache = ordered
        return list(self._reported_cache)

    def suppressed(self) -> List[ReportedEvent]:
        """Entries failing the filter, in cluster-id order."""
        if self._suppressed_cache is None:
            self._suppressed_cache = [
                self._entries[cid]
                for cid in sorted(self._entries)
                if not self._passing[cid]
            ]
        return list(self._suppressed_cache)

    def top(self, k: int) -> List[ReportedEvent]:
        """The k highest-ranked reported entries (the top-k sink filter)."""
        return self.reported()[:k]

    # ------------------------------------------------------------ rebuild

    def rebuild(self, events: List[ReportedEvent]) -> None:
        """Replace the whole index.

        Used by checkpoint restore (re-seeding from the ranker cache).
        """
        self._entries = {}
        self._passing = {}
        for event in events:
            self._entries[event.event_id] = event
            self._passing[event.event_id] = self.predicate(event)
            self.filter_evaluations += 1
        self._invalidate()


__all__ = ["ThresholdIndex", "FilterPredicate"]
