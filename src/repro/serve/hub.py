"""Subscription fan-out: one session's sinks bridged to N WebSocket readers.

Each subscriber gets its own bounded :class:`~repro.api.sinks.QueueSink`
(the eviction discipline is literally the library one — oldest events are
dropped first and counted, observed here through the sink's ``on_drop``
callback) plus an asyncio wake event.  The session delivers notifications
synchronously on the tenant's ingest thread; the sink absorbs them, and the
subscriber's sender task on the event loop drains the sink and writes
WebSocket frames at the consumer's pace.

Slow-consumer policy (DESIGN.md Section 11): a consumer that stops reading
first fills the socket/transport buffer, then its sink starts evicting
(``dropped`` grows — delivery is at-most-once, never blocking the ingest
path), and once a write stalls for longer than :data:`STALL_DEADLINE_S`
seconds the connection is aborted and the subscriber detached.  A
subscriber buffers :data:`SUBSCRIBER_BUFFER` events unless its socket asks
for another size (``?buffer=N``).  Keep-up consumers
lose nothing: events go sink → transport in order, per tenant.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.api.session_events import EventKind, SessionEvent
from repro.api.sinks import QueueSink
from repro.serve import wire

#: How many closed-subscriber summaries a hub retains for `/stats`.
CLOSED_SUBSCRIBER_LOG = 100

#: Events one subscriber buffers when its socket names no ``buffer``.
SUBSCRIBER_BUFFER = 1024

#: Seconds a subscriber's socket write may stall before it is aborted.
STALL_DEADLINE_S = 10.0


def event_record(event: SessionEvent) -> dict:
    """The JSON shape of one lifecycle notification on the wire."""
    return {
        "kind": event.kind.value,
        "quantum": event.quantum,
        "event_id": event.event_id,
        "keywords": sorted(event.keywords),
        "rank": event.rank,
        "size": event.size,
        "previous_rank": event.previous_rank,
        "previous_size": event.previous_size,
    }


class _WakeSink:
    """Sink adapter: buffer into the QueueSink, then wake the sender task.

    ``emit`` runs on the tenant's ingest (executor) thread; the wake-up
    crosses into the event loop via ``call_soon_threadsafe``.
    """

    def __init__(self, inner: QueueSink, loop: asyncio.AbstractEventLoop,
                 wake: asyncio.Event) -> None:
        self.inner = inner
        self._loop = loop
        self._wake = wake

    def emit(self, event: SessionEvent) -> None:
        self.inner.emit(event)
        try:
            self._loop.call_soon_threadsafe(self._wake.set)
        except RuntimeError:
            pass  # loop already closed (server teardown mid-quantum)


class FanoutSubscriber:
    """One attached WebSocket consumer and its delivery state."""

    _ids = itertools.count(1)

    def __init__(self, hub: "FanoutHub", buffer: int) -> None:
        self.id = next(FanoutSubscriber._ids)
        self.hub = hub
        self.wake = asyncio.Event()
        self.sink = QueueSink(maxlen=buffer, on_drop=self._on_drop)
        self.sent = 0
        self.connected_at = time.monotonic()
        self.closing = False
        self.close_reason: Optional[str] = None
        self.subscription = None  # set by attach()

    def _on_drop(self, event: SessionEvent) -> None:
        # Called on the ingest thread, outside the sink lock: the eviction
        # is already counted in sink.dropped; the hub keeps a global tally.
        self.hub.total_dropped += 1

    @property
    def dropped(self) -> int:
        return self.sink.dropped

    def stats(self) -> dict:
        return {
            "id": self.id,
            "sent": self.sent,
            "dropped": self.dropped,
            "buffered": len(self.sink),
            "connected_s": round(time.monotonic() - self.connected_at, 3),
        }


class FanoutHub:
    """All live (and recently closed) subscribers of one tenant."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.subscribers: List[FanoutSubscriber] = []
        self.closed: Deque[dict] = deque(maxlen=CLOSED_SUBSCRIBER_LOG)
        self.total_dropped = 0
        self.total_sent = 0

    # ----------------------------------------------------------- lifecycle

    def attach(
        self,
        session,
        kinds: Optional[frozenset] = None,
        top_k: Optional[int] = None,
        buffer: Optional[int] = None,
    ) -> FanoutSubscriber:
        """Subscribe one consumer to the session; returns its handle."""
        subscriber = FanoutSubscriber(
            self, buffer if buffer is not None else SUBSCRIBER_BUFFER
        )
        sink = _WakeSink(subscriber.sink, self._loop, subscriber.wake)
        subscriber.subscription = session.subscribe(
            sink, kinds=kinds, top_k=top_k
        )
        self.subscribers.append(subscriber)
        return subscriber

    def detach(self, subscriber: FanoutSubscriber, reason: str) -> None:
        """Unsubscribe and move the subscriber to the closed log."""
        if subscriber.close_reason is not None:
            return
        subscriber.close_reason = reason
        if subscriber.subscription is not None:
            subscriber.subscription.unsubscribe()
        try:
            self.subscribers.remove(subscriber)
        except ValueError:
            pass
        summary = subscriber.stats()
        summary["reason"] = reason
        self.closed.append(summary)

    def close_all(self) -> None:
        """Mark every subscriber closing and wake its sender task."""
        for subscriber in list(self.subscribers):
            subscriber.closing = True
            subscriber.wake.set()

    # ------------------------------------------------------------- sending

    async def pump(self, subscriber: FanoutSubscriber,
                   writer: asyncio.StreamWriter) -> str:
        """Drive one subscriber's sender loop until disconnect.

        Returns the close reason.  Ordering is the session's deterministic
        delivery order (per tenant); a write that stalls longer than
        :data:`STALL_DEADLINE_S` aborts the transport — by then the
        consumer has already been eating drop-oldest evictions in its sink.
        """
        try:
            while True:
                await subscriber.wake.wait()
                subscriber.wake.clear()
                events = subscriber.sink.drain()
                for event in events:
                    frame = wire.encode_frame(
                        wire.OP_TEXT,
                        json.dumps(
                            event_record(event), sort_keys=True
                        ).encode("utf-8"),
                    )
                    writer.write(frame)
                    subscriber.sent += 1
                    self.total_sent += 1
                if events:
                    deadline = STALL_DEADLINE_S
                    try:
                        await asyncio.wait_for(writer.drain(), deadline)
                    except asyncio.TimeoutError:
                        self.detach(
                            subscriber,
                            f"stalled past {deadline}s deadline "
                            f"({subscriber.dropped} dropped)",
                        )
                        writer.transport.abort()
                        return subscriber.close_reason
                if subscriber.closing and not len(subscriber.sink):
                    self.detach(subscriber, "closed")
                    try:
                        writer.write(
                            wire.encode_frame(wire.OP_CLOSE, b"\x03\xe8")
                        )
                        await asyncio.wait_for(writer.drain(), 1.0)
                    except (asyncio.TimeoutError, ConnectionError, OSError):
                        pass
                    return subscriber.close_reason
        except (ConnectionError, OSError) as exc:
            self.detach(subscriber, f"connection lost: {exc}")
            return subscriber.close_reason
        except asyncio.CancelledError:
            self.detach(subscriber, "server shutdown")
            raise

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {
            "subscribers": [s.stats() for s in self.subscribers],
            "closed": list(self.closed),
            "total_sent": self.total_sent,
            "total_dropped": self.total_dropped,
        }


def parse_kinds(raw: Optional[str]):
    """``kinds=emerging,dying`` query string → frozenset of EventKind."""
    if not raw:
        return None
    kinds = set()
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            kinds.add(EventKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in EventKind)
            from repro.errors import ServeError

            raise ServeError(
                f"unknown event kind {name!r} (valid: {valid})"
            ) from None
    return frozenset(kinds) if kinds else None


__all__ = [
    "STALL_DEADLINE_S",
    "SUBSCRIBER_BUFFER",
    "FanoutHub",
    "FanoutSubscriber",
    "event_record",
    "parse_kinds",
]
