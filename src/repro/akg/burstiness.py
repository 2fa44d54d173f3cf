"""Two-state keyword automaton (Section 3.1), advanced only on bursts.

A keyword is either **low** or **high**.  It moves low -> high when it shows
burstiness — at least ``theta`` (the high-state threshold, HST) distinct
users mention it within a single quantum.  A high keyword stays high while it
is part of an event cluster; otherwise it is lazily dropped after a grace
period, and any keyword absent from the whole window is stale.

The tracker only owns the automaton state; graph/cluster consequences are
handled by :class:`repro.akg.builder.AkgBuilder`.

Delta contract (DESIGN.md Section 5): :meth:`BurstinessTracker.observe_quantum`
is fed only the keywords that *burst* in a quantum — the builder selects
``counts >= theta`` over the quantum's id columns — never the full
vocabulary.  That is sound because the automaton has no spontaneous
transitions and a sub-``theta`` count moves nothing: between two bursts a
keyword's state at any later quantum is a closed-form function of the last
recorded burst — ``quantum - last_bursty`` elapsed quanta in the low-decay
branch.  :meth:`aged_out` and :meth:`is_bursty_at`
evaluate that closed form directly; the stateful test
(``tests/test_akg_burstiness_stateful.py``) proves it equal to an automaton
that is stepped explicitly for every keyword in every quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set

from repro.errors import ConfigError

Keyword = str


@dataclass
class BurstState:
    """Per-keyword automaton state: everything between bursts is derived.

    ``last_bursty`` is the most recent quantum the keyword cleared ``theta``;
    ``bursts`` counts clearings (burst-rate statistics, Section 7.4).  No
    per-quantum counters exist on purpose — any quantity that would need one
    (elapsed low quanta, staleness age) is a closed-form function of
    ``last_bursty`` and the query quantum.
    """

    last_bursty: int
    bursts: int = 1


class BurstinessTracker:
    """Per-keyword burst detection with O(bursty) per-quantum updates."""

    def __init__(self, theta: int) -> None:
        if theta < 1:
            raise ConfigError(f"theta must be >= 1, got {theta}")
        self.theta = theta
        self._states: Dict[Keyword, BurstState] = {}
        self._bursty_now: Set[Keyword] = set()
        self._current_quantum: int | None = None

    def observe_quantum(
        self, quantum: int, quantum_support: Mapping[Keyword, int]
    ) -> Set[Keyword]:
        """Record one quantum's per-keyword distinct-user counts.

        ``quantum_support`` needs to contain only the keywords with at least
        ``theta`` distinct users in the quantum (lower counts are permitted
        and ignored): no other keyword can transition, so its state is
        caught up lazily on its next burst or query.  Returns the set of
        keywords bursty *in this quantum* (>= theta distinct users).  The
        paper's "set (1)" of Section 3.2.1 — keywords eligible for new-edge
        EC computation — is exactly this set.
        """
        bursty = {
            kw for kw, count in quantum_support.items() if count >= self.theta
        }
        for kw in bursty:
            state = self._states.get(kw)
            if state is None:
                self._states[kw] = BurstState(last_bursty=quantum)
            else:
                state.last_bursty = quantum
                state.bursts += 1
        self._bursty_now = bursty
        self._current_quantum = quantum
        return set(bursty)

    # -------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpointable snapshot of the per-keyword automaton states."""
        return {
            "current_quantum": self._current_quantum,
            "bursty_now": sorted(self._bursty_now),
            "states": [
                [kw, state.last_bursty, state.bursts]
                for kw, state in sorted(self._states.items())
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the tracker in place from :meth:`to_state` output."""
        self._current_quantum = state["current_quantum"]
        self._bursty_now = set(state["bursty_now"])
        self._states = {
            kw: BurstState(last_bursty=last_bursty, bursts=bursts)
            for kw, last_bursty, bursts in state["states"]
        }

    # ------------------------------------------------------ closed-form state

    def is_bursty_now(self, keyword: Keyword) -> bool:
        return keyword in self._bursty_now

    def bursty_now(self) -> Set[Keyword]:
        return set(self._bursty_now)

    def is_bursty_at(self, keyword: Keyword, quantum: int) -> bool:
        """Whether the keyword burst exactly in ``quantum`` (closed form)."""
        state = self._states.get(keyword)
        return state is not None and state.last_bursty == quantum

    def last_bursty_quantum(self, keyword: Keyword) -> int | None:
        """The most recent quantum in which the keyword was bursty."""
        state = self._states.get(keyword)
        return None if state is None else state.last_bursty

    def burst_count(self, keyword: Keyword) -> int:
        """How many quanta the keyword has burst in since it was first seen."""
        state = self._states.get(keyword)
        return 0 if state is None else state.bursts

    def quanta_since_bursty(self, keyword: Keyword) -> int | None:
        """Quanta elapsed since the keyword last burst; None if it never did."""
        if self._current_quantum is None:
            return None
        state = self._states.get(keyword)
        return None if state is None else self._current_quantum - state.last_bursty

    def aged_out(self, keyword: Keyword, quantum: int, grace: int) -> bool:
        """Closed-form low-state decay: is the keyword past its grace period?

        True when the keyword never burst, or its last burst is more than
        ``grace`` quanta before ``quantum`` — the lazy-drop eligibility test
        of Section 3.1, evaluated without ever stepping the automaton through
        the intervening untouched quanta.
        """
        state = self._states.get(keyword)
        return state is None or quantum - state.last_bursty > grace

    def first_droppable_quantum(self, keyword: Keyword, grace: int) -> int | None:
        """Earliest quantum at which :meth:`aged_out` can turn True.

        The builder schedules its lazy-removal check for exactly this
        quantum instead of re-testing every keyword every quantum.  None if
        the keyword never burst (it is droppable immediately).
        """
        state = self._states.get(keyword)
        return None if state is None else state.last_bursty + grace + 1

    def forget(self, keywords: Iterable[Keyword]) -> None:
        """Drop automaton state for keywords leaving the AKG."""
        for kw in keywords:
            self._states.pop(kw, None)
            self._bursty_now.discard(kw)


__all__ = ["BurstinessTracker", "BurstState"]
