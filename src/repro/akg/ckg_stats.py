"""Full-CKG counters for the Section 7.4 reduction study.

The point of the AKG is that the full correlated keyword graph is never
materialised.  To *measure* the reduction (AKG edges < 2% of CKG edges,
< 5% of nodes bursty), this tracker maintains the CKG's node and edge counts
over the sliding window without building an adjacency structure: it keeps a
multiset of co-occurring keyword pairs per quantum and subtracts expired
quanta.  It is assembled by ``benchmarks/bench_akg_reduction.py``, never by
a detector session, because the pair multiset is exactly the cost the AKG
avoids.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Hashable, Mapping, Set, Tuple

Keyword = str
UserId = Hashable


class CkgStatsTracker:
    """Sliding-window CKG node/edge counts (no adjacency materialised)."""

    def __init__(self, window_quanta: int, max_pairs_per_user: int = 400) -> None:
        self.window_quanta = window_quanta
        self.max_pairs_per_user = max_pairs_per_user
        self._window: Deque[Tuple[int, Counter]] = deque()
        self._pair_counts: Counter = Counter()
        self._node_window: Deque[Tuple[int, Set[Keyword]]] = deque()
        self._node_counts: Counter = Counter()
        self.truncated_users = 0

    def add_quantum(
        self, quantum: int, user_keywords: Mapping[UserId, Set[Keyword]]
    ) -> None:
        """Ingest one quantum's per-user keyword sets.

        A CKG edge exists between two keywords iff some user used both within
        one quantum; the per-user pair expansion is capped (and counted) so a
        pathological flooder cannot blow up memory.
        """
        pairs: Counter = Counter()
        nodes: Set[Keyword] = set()
        for keywords in user_keywords.values():
            ordered = sorted(keywords)
            nodes.update(ordered)
            budget = self.max_pairs_per_user
            emitted = 0
            for i in range(len(ordered)):
                if emitted >= budget:
                    break
                for j in range(i + 1, len(ordered)):
                    pairs[(ordered[i], ordered[j])] += 1
                    emitted += 1
                    if emitted >= budget:
                        self.truncated_users += 1
                        break
        self._window.append((quantum, pairs))
        self._pair_counts.update(pairs)
        self._node_window.append((quantum, nodes))
        self._node_counts.update(nodes)
        while self._window and self._window[0][0] <= quantum - self.window_quanta:
            _, old_pairs = self._window.popleft()
            self._pair_counts.subtract(old_pairs)
            self._pair_counts += Counter()  # drop non-positive entries
            _, old_nodes = self._node_window.popleft()
            self._node_counts.subtract(old_nodes)
            self._node_counts += Counter()

    @property
    def ckg_nodes(self) -> int:
        return len(self._node_counts)

    @property
    def ckg_edges(self) -> int:
        return len(self._pair_counts)

    def reduction_ratios(self, akg_nodes: int, akg_edges: int) -> Dict[str, float]:
        """AKG / CKG size ratios (the Section 7.4 headline numbers)."""
        return {
            "node_ratio": akg_nodes / self.ckg_nodes if self.ckg_nodes else 0.0,
            "edge_ratio": akg_edges / self.ckg_edges if self.ckg_edges else 0.0,
        }


__all__ = ["CkgStatsTracker"]
