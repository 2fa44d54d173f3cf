"""The push-side vocabulary of a session: cluster lifecycle notifications.

The paper frames discovery as tracking *emerging, growing and dying*
clusters in real time (Section 4.2); this module is that framing as a typed
API.  Once per quantum the session diffs the report index's per-quantum delta
and emits one :class:`SessionEvent` per transition:

* ``EMERGING`` — an event id entered the reported set;
* ``GROWING`` — a reported event gained at least one keyword since its last
  report (equal-size keyword turnover counts: something new joined);
* ``RANK_CHANGED`` — a reported event's rank moved (any direction);
* ``DYING`` — a previously reported event id left the reported set
  (cluster death, absorption, or falling below the report filters).

Within one quantum, notifications are delivered in the report's
rank-descending order (``GROWING`` before ``RANK_CHANGED`` for the same
event), followed by ``DYING`` notifications in event-id order — a
deterministic sequence, which is what makes the checkpoint/restore
differential test on sink output possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class EventKind(str, Enum):
    """The four cluster lifecycle transitions a session can notify."""

    EMERGING = "emerging"
    GROWING = "growing"
    DYING = "dying"
    RANK_CHANGED = "rank_changed"


@dataclass(frozen=True)
class SessionEvent:
    """One lifecycle notification delivered to subscribed sinks.

    ``previous_rank`` / ``previous_size`` carry the last-notified values for
    ``GROWING`` and ``RANK_CHANGED`` transitions (``None`` for ``EMERGING``);
    a ``DYING`` event carries the event's final reported state.
    """

    kind: EventKind
    quantum: int
    event_id: int
    keywords: frozenset
    rank: float
    size: int
    previous_rank: Optional[float] = None
    previous_size: Optional[int] = None


__all__ = ["EventKind", "SessionEvent"]
