"""From-scratch AKG state for differential verification (DESIGN.md Section 5).

The fast AKG path (:mod:`repro.akg.idsets`, :mod:`repro.akg.minhash`, the
delta-driven :class:`repro.akg.builder.AkgBuilder`) earns its
churn-proportional cost through incremental bookkeeping: per-keyword deques,
cached merged sketches, scheduled removal checks.  Each of those shortcuts is
a correctness risk.  This module provides the slow, obviously-correct
counterparts — every quantum they recompute window state from the raw
retained quanta, sweeping the full vocabulary — while implementing *exactly
the same update semantics*.  Running the builder over them
(``AkgBuilder(config, maintainer, oracle=True)``) therefore yields a
reference AKG that the property tests and ``bench_incremental_akg`` compare
against the fast path, graph for graph, EC for EC, change event for change
event.  The referees are built by those tests and benches (and, a whole
pipeline at a time, by ``tests/oracles.py``); no session runs them, so
they keep no checkpointable state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from repro.akg.idsets import SlideDelta
from repro.akg.minhash import MinHasher, Sketch
from repro.errors import StreamError

Keyword = str
UserId = Hashable


class OracleIdSetIndex:
    """Window id sets recomputed from the raw quantum log on every slide.

    Interface-compatible with :class:`repro.akg.idsets.IdSetIndex`; every
    :meth:`add_quantum` rebuilds the per-keyword user sets from scratch over
    the retained quanta and derives the :class:`SlideDelta` by diffing the
    full before/after support maps — O(window x vocabulary) work, which is
    the point: no incremental state exists to go stale.
    """

    def __init__(self, window_quanta: int) -> None:
        if window_quanta < 1:
            raise StreamError(f"window_quanta must be >= 1, got {window_quanta}")
        self.window_quanta = window_quanta
        self._window: List[Tuple[int, Dict[Keyword, FrozenSet[UserId]]]] = []
        self._sets: Dict[Keyword, Set[UserId]] = {}
        self._last_quantum: int | None = None

    def add_quantum(
        self, quantum: int, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> SlideDelta:
        if self._last_quantum is not None and quantum <= self._last_quantum:
            raise StreamError(
                f"quanta must be added in increasing order: got {quantum} "
                f"after {self._last_quantum}"
            )
        self._last_quantum = quantum
        old_support = {kw: len(users) for kw, users in self._sets.items()}
        old_users: Set[UserId] = set()
        for users in self._sets.values():
            old_users |= users
        frozen = {
            kw: frozenset(users) for kw, users in keyword_users.items() if users
        }
        cutoff = quantum - self.window_quanta
        self._window.append((quantum, frozen))
        expired: Set[Keyword] = set()
        live: List[Tuple[int, Dict[Keyword, FrozenSet[UserId]]]] = []
        for q, content in self._window:
            if q <= cutoff:
                expired.update(content)
            else:
                live.append((q, content))
        self._window = live
        sets: Dict[Keyword, Set[UserId]] = {}
        for _, content in self._window:
            for kw, users in content.items():
                sets.setdefault(kw, set()).update(users)
        self._sets = sets
        support_deltas = {
            kw: (old_support.get(kw, 0), len(sets.get(kw, ())))
            for kw in set(old_support) | set(sets)
            if old_support.get(kw, 0) != len(sets.get(kw, ()))
        }
        emptied = frozenset(
            kw for kw, (_, new) in support_deltas.items() if new == 0
        )
        new_users: Set[UserId] = set()
        for users in sets.values():
            new_users |= users
        return SlideDelta(
            quantum=quantum,
            appeared=frozenset(frozen),
            expired=frozenset(expired),
            support_deltas=support_deltas,
            emptied=emptied,
            vanished_users=frozenset(old_users - new_users),
        )

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one window id set (from scratch)."""
        out: Set[UserId] = set()
        for users in self._sets.values():
            out |= users
        return out

    # ------------------------------------------------------------- queries

    def __contains__(self, keyword: Keyword) -> bool:
        return keyword in self._sets

    def keywords(self) -> Iterable[Keyword]:
        return self._sets.keys()

    @property
    def num_keywords(self) -> int:
        return len(self._sets)

    def users(self, keyword: Keyword) -> Set[UserId]:
        return set(self._sets.get(keyword, ()))

    def support(self, keyword: Keyword) -> int:
        return len(self._sets.get(keyword, ()))

    def jaccard(self, kw1: Keyword, kw2: Keyword) -> float:
        s1 = self._sets.get(kw1)
        s2 = self._sets.get(kw2)
        if not s1 or not s2:
            return 0.0
        intersection = len(s1 & s2)
        union = len(s1) + len(s2) - intersection
        return intersection / union if union else 0.0


class OracleSketchIndex:
    """Sketches recomputed from the full window id set on every query.

    The referee of :meth:`repro.akg.idsets.IdSetIndex.sketch_many`, and
    stateless: it reads the id-set index it is given and hashes the
    complete id set per query.  Both compute the paper's definition —
    the bottom-p distinct hash values of the window id set — so the two
    must agree value for value.
    """

    def __init__(self, hasher: MinHasher, idsets: OracleIdSetIndex) -> None:
        self.hasher = hasher
        self._idsets = idsets

    def sketch(self, keyword: Keyword) -> Sketch:
        return self.hasher.sketch(self._idsets.users(keyword))


__all__ = ["OracleIdSetIndex", "OracleSketchIndex"]
