"""Multi-tenant session management for the serving layer.

A *tenant* is one named :class:`~repro.api.session.DetectorSession` (one
topic, one region, one customer stream) plus the serving state around it: a
bounded ingest queue, a drainer task that runs the session's synchronous
``ingest_many`` on the shared executor so quanta from different tenants
interleave, a :class:`~repro.serve.hub.FanoutHub` of WebSocket subscribers,
and optional per-tenant durability (a delta log, sealed on graceful
close).

Backpressure model (DESIGN.md Section 11):

* the ingest queue holds checked wire frames, not messages: the door
  decodes a frame and checks every record, then queues the frame's bytes
  with its record count, and the executor decodes each queued frame once
  more, as the session consumes it;
* the ingest queue is bounded (:data:`MAX_QUEUE` messages); a producer that
  overruns it gets the overflow **shed** — counted and reported in the
  ingest response and ``/stats``, never an OOM;
* each executor hop takes whole queued frames, as many as fit in
  ``quantum_size × MAX_BATCH_QUANTA`` messages and at least one, so a
  backlog drains in large hops and a tenant that keeps up is fed frame by
  frame.
"""

from __future__ import annotations

import asyncio
import os
import re
import logging
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.api import open_session
from repro.api.deltalog import MANIFEST_NAME
from repro.config import DetectorConfig
from repro.errors import CheckpointError, ConfigError, ServeError
from repro.serve.hub import FanoutHub
from repro.serve.wire import encode_records, ingest_records, parse_ingest_body
from repro.stream.messages import Message

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_log = logging.getLogger(__name__)


def _check_name(what: str, name) -> None:
    """Tenant and checkpoint names become path components under the state
    dir, so the pattern (no separator, no leading dot) is the traversal
    guard."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ServeError(
            f"invalid {what} name {name!r} (want [A-Za-z0-9][A-Za-z0-9_.-]*, "
            f"max 64 chars)"
        )

#: Bound on one tenant's ingest queue, in messages.
MAX_QUEUE = 100_000

#: Cap on one executor hop, in quanta: a deeply backlogged tenant is fed at
#: most this many quanta per hop, so no single hop starves the other
#: tenants of the shared worker budget.
MAX_BATCH_QUANTA = 64


#: One queued ingest frame: its checked bytes and its record count.
Frame = Tuple[bytes, int]


class Tenant:
    """One named detector session and its serving state.

    The ingest queue holds :data:`Frame` entries — checked wire bytes and
    their record count — so a queued message costs its share of the frame's
    bytes, not a :class:`~repro.stream.messages.Message`.  Every counter
    (``queued``, ``queue_hwm``, ``accepted``, ``shed``, ``deferred``,
    ``failed``, ``batch_size``, ``batch_hwm``) is in messages;
    ``queued_bytes`` is the bytes of the frames the queue holds.
    """

    def __init__(
        self,
        name: str,
        session,
        manager: "SessionManager",
    ) -> None:
        self.name = name
        self.session = session
        self.manager = manager
        self.hub = FanoutHub(manager.loop)
        self._queue: Deque[Frame] = deque()
        self._queued = 0
        self._queued_bytes = 0
        # Serializes session access across executor threads: the drainer's
        # ingest batches, on-demand snapshots, and final teardown never
        # interleave on the (thread-unsafe) DetectorSession.
        self._session_lock = threading.Lock()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closing = False
        self.closed = False
        self.created_at = time.monotonic()
        # Counters (all cumulative unless suffixed _hwm / current).
        self.accepted = 0
        self.shed = 0
        self.deferred = 0
        self.failed = 0
        self.reports = 0
        self.errors = 0
        self.last_error: Optional[str] = None
        self.queue_hwm = 0
        self.batch_size = 0
        self.batch_hwm = 0
        self._runner = manager.loop.create_task(self._run())

    # ------------------------------------------------------------- ingest

    def enqueue(self, frame: bytes) -> Dict[str, int]:
        """Check one ingest frame and queue it (event-loop thread only).

        Every record is decoded and checked here, so a bad record is
        refused (``ServeError``) before anything is queued.  Records beyond
        the queue bound are shed — counted, reported, dropped; a frame
        accepted in part is queued as the re-encoded accepted prefix, so
        the queue never holds the bytes of a shed record.  A frame of more
        records than one executor hop takes is queued as re-encoded chunks
        of at most one hop, so every queued frame fits in a hop whole and
        the executor decodes it once.  Returns the per-call accounting.
        """
        if self._closing or self.closed:
            raise ServeError(f"tenant {self.name!r} is closed")
        records = ingest_records(frame)
        accepted = min(len(records), MAX_QUEUE - self._queued)
        shed = len(records) - accepted
        if accepted:
            # A message is deferred when it queues behind another one.
            self.deferred += accepted if self._queue else accepted - 1
            cap = self._batch_cap()
            if shed or accepted > cap:
                chunks = [
                    records[lo:min(lo + cap, accepted)]
                    for lo in range(0, accepted, cap)
                ]
                frames = [(encode_records(c), len(c)) for c in chunks]
            else:
                frames = [(frame, accepted)]
            self._queue.extend(frames)
            self._queued_bytes += sum(len(chunk) for chunk, _ in frames)
            self._queued += accepted
        self.accepted += accepted
        self.shed += shed
        depth = self._queued
        if depth > self.queue_hwm:
            self.queue_hwm = depth
        if accepted:
            self._idle.clear()
            self._wake.set()
        return {
            "accepted": accepted,
            "shed": shed,
            "queued": depth,
        }

    def _take(self) -> Tuple[List[Frame], int]:
        """Dequeue whole frames while the hop stays within its cap (at
        least one frame); returns them and their message count."""
        cap = self._batch_cap()
        batch = [self._queue.popleft()]
        size = batch[0][1]
        while self._queue and size + self._queue[0][1] <= cap:
            batch.append(self._queue.popleft())
            size += batch[-1][1]
        self._queued -= size
        self._queued_bytes -= sum(len(frame) for frame, _ in batch)
        return batch, size

    def _batch_cap(self) -> int:
        """The most messages one executor hop takes."""
        return self.session.config.quantum_size * MAX_BATCH_QUANTA

    @staticmethod
    def _messages(batch: List[Frame]) -> Iterator[Message]:
        """The batch's messages, decoded one frame at a time as the
        session pulls them."""
        for frame, _count in batch:
            yield from parse_ingest_body(frame)

    def _ingest_sync(self, batch: List[Frame]) -> int:
        """Run on the shared executor: feed one batch through the session."""
        produced = 0
        with self._session_lock:
            for _report in self.session.ingest_many(self._messages(batch)):
                produced += 1
        return produced

    async def _run(self) -> None:
        """Drainer: move queued frames into the session, hop by hop."""
        loop = self.manager.loop
        while True:
            if not self._queue:
                self._idle.set()
                if self._closing:
                    return
                self._wake.clear()
                if not self._queue and not self._closing:
                    await self._wake.wait()
                continue
            self._idle.clear()
            batch, size = self._take()
            self.batch_size = size
            if size > self.batch_hwm:
                self.batch_hwm = size
            try:
                self.reports += await loop.run_in_executor(
                    self.manager.executor, self._ingest_sync, batch
                )
            except Exception as exc:
                # A poisoned batch must not kill the tenant: count it,
                # remember why, keep draining.  Any exception — the
                # drainer is the tenant's only consumer, and a dead one
                # leaves every later ``?wait=1`` ingest hanging.
                _log.exception(
                    "tenant %s: a batch of %d messages failed",
                    self.name, size,
                )
                self.errors += 1
                self.failed += size
                self.last_error = f"{type(exc).__name__}: {exc}"

    async def wait_idle(self) -> None:
        """Block until the queue is empty and no batch is in flight."""
        await self._idle.wait()

    async def snapshot(self, filename: str) -> Path:
        """Drain the queue, then write a monolithic checkpoint to
        ``<state_dir>/<tenant>/snapshots/<filename>``; returns the path.

        ``filename`` must be a bare file name (the tenant-name pattern), so
        a client can neither write outside the state dir nor overwrite the
        ``delta/`` a resume reads.
        """
        if self.manager.state_dir is None:
            raise ServeError(
                "checkpoints need a server started with --state-dir"
            )
        _check_name("checkpoint", filename)
        directory = self.manager.state_dir / self.name / "snapshots"
        path = directory / filename
        await self.wait_idle()

        def _snap() -> None:
            directory.mkdir(parents=True, exist_ok=True)
            with self._session_lock:
                self.session.snapshot(path)

        await self.manager.loop.run_in_executor(
            self.manager.executor, _snap
        )
        return path

    # ----------------------------------------------------------- teardown

    async def close(self, *, drain: bool = True) -> Dict[str, object]:
        """Close the tenant: optionally drain, seal, release.

        With ``drain=True`` (default) every queued message is processed
        first; with ``drain=False`` the queue is shed.  A persistent tenant
        then seals its delta log — a buffered partial quantum goes into a
        fresh generation's base, so ``delta/`` is the one image a resume
        reads — before the session is closed (idempotently) and the
        fan-out hub delivers its tails and disconnects.
        """
        if self.closed:
            return {"closed": True, "quantum": self.session.current_quantum}
        self._closing = True
        if not drain:
            self.shed += self._queued
            self._queue.clear()
            self._queued = self._queued_bytes = 0
        self._wake.set()
        await self._idle.wait()
        await self._runner
        writer = self.session.delta_writer

        def _finalize() -> None:
            with self._session_lock:
                try:
                    if writer is not None:
                        writer.seal(self.session)
                except CheckpointError:
                    # e.g. broken by a failed append: the partial quantum
                    # is lost, as in a crash, and the other tenants close
                    _log.exception("tenant %s: cannot seal", self.name)
                finally:
                    self.session.close()

        await self.manager.loop.run_in_executor(
            self.manager.executor, _finalize
        )
        self.closed = True
        self.hub.close_all()
        return {
            "closed": True,
            "quantum": self.session.current_quantum,
            "shed": self.shed,
            "checkpoint": str(writer.path) if writer is not None else None,
        }

    # -------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        session = self.session
        return {
            "tenant": self.name,
            "closed": self.closed,
            "quantum": session.current_quantum,
            "messages": session.total_messages,
            "pending": session.batcher.pending,
            "throughput": round(session.throughput(), 1),
            "queued": self._queued,
            "queued_bytes": self._queued_bytes,
            "queue_hwm": self.queue_hwm,
            "accepted": self.accepted,
            "shed": self.shed,
            "deferred": self.deferred,
            "failed": self.failed,
            "errors": self.errors,
            "last_error": self.last_error,
            "reports": self.reports,
            "batch_size": self.batch_size,
            "batch_hwm": self.batch_hwm,
            "uptime_s": round(time.monotonic() - self.created_at, 3),
            "timings": session.total_timings.as_dict(),
            "fanout": self.hub.stats(),
        }


class SessionManager:
    """Creates, resumes, serves and closes named tenants.

    All public methods must be called from the owning event loop's thread
    (the server's request handlers); the synchronous detector work is
    pushed onto the shared :class:`~concurrent.futures.ThreadPoolExecutor`
    — the "shared worker budget" all tenants' quanta interleave over.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        *,
        state_dir: Optional[os.PathLike] = None,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.loop = loop
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.workers = workers
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self.tenants: Dict[str, Tenant] = {}
        self.started_at = time.monotonic()

    # ---------------------------------------------------------- lifecycle

    def _tenant_dir(self, name: str) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / name

    async def create(
        self,
        name: str,
        *,
        config: Optional[dict] = None,
        resume: bool = False,
        persist: Optional[bool] = None,
    ) -> Tenant:
        """Create (or resume) the named tenant.

        ``config`` is a :meth:`DetectorConfig.to_dict`-shaped mapping for a
        fresh tenant (omit on resume — a resumed tenant runs under its
        checkpoint's configuration).  ``persist`` defaults to whether the
        manager has a ``state_dir``; a persistent tenant delta-logs every
        completed quantum under ``state_dir/<name>/delta`` and seals it on
        graceful close (a partial quantum goes into the base), so that
        directory is exactly what ``resume=True`` picks back up, after a
        graceful stop and after a crash alike.
        """
        _check_name("tenant", name)
        if name in self.tenants and not self.tenants[name].closed:
            raise ServeError(f"tenant {name!r} already exists")
        if config is not None and not isinstance(config, dict):
            raise ServeError("tenant config must be a JSON object")
        if persist is None:
            persist = self.state_dir is not None
        if persist and self.state_dir is None:
            raise ServeError(
                "persist requested but the server has no --state-dir"
            )
        tenant_dir = self._tenant_dir(name) if persist else None
        delta_dir = tenant_dir / "delta" if tenant_dir is not None else None
        has_state = (
            delta_dir is not None and (delta_dir / MANIFEST_NAME).exists()
        )
        if resume:
            if tenant_dir is None:
                raise ServeError(
                    "resume requires a persistent tenant (server --state-dir)"
                )
            if config is not None:
                raise ServeError(
                    "pass either config or resume, not both: a resumed "
                    "tenant runs under its checkpoint's configuration"
                )
            if not has_state:
                raise ServeError(
                    f"tenant {name!r} has no state to resume under "
                    f"{tenant_dir}"
                )
        elif has_state:
            raise ServeError(
                f"tenant {name!r} has existing state under {tenant_dir}; "
                f"pass resume=true to pick it up (or remove the "
                f"directory for a fresh start)"
            )

        def _open():
            if resume:
                return open_session(resume=delta_dir, delta_log=delta_dir)
            parsed = (
                DetectorConfig.from_dict(config)
                if config is not None
                else DetectorConfig()
            )
            if delta_dir is not None:
                delta_dir.parent.mkdir(parents=True, exist_ok=True)
            return open_session(parsed, delta_log=delta_dir)

        try:
            session = await self.loop.run_in_executor(self.executor, _open)
        except (ConfigError, CheckpointError) as exc:
            raise ServeError(str(exc)) from exc
        tenant = Tenant(name, session, self)
        self.tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None or tenant.closed:
            raise ServeError(f"no such tenant: {name!r}")
        return tenant

    async def close_tenant(self, name: str, *, drain: bool = True) -> dict:
        tenant = self.get(name)
        summary = await tenant.close(drain=drain)
        del self.tenants[name]
        return summary

    async def shutdown(self, *, graceful: bool = True) -> None:
        """Close every tenant (sealing persistent ones), then the pool.

        A tenant whose close raises does not stop the others: every tenant
        is closed and the pool shut down before the first error is raised.
        ``graceful=False`` skips the drain/seal path entirely — the
        crash-test twin of ``kill -9``; durability then rests on the delta
        log alone, which is the point.
        """
        errors = []
        if graceful:
            for name in list(self.tenants):
                tenant = self.tenants.get(name)
                if tenant is not None and not tenant.closed:
                    try:
                        await tenant.close(drain=True)
                    except Exception as exc:
                        _log.exception("tenant %s: close failed", name)
                        errors.append(exc)
            self.tenants.clear()
        self.executor.shutdown(wait=graceful, cancel_futures=not graceful)
        if errors:
            raise errors[0]

    # -------------------------------------------------------------- stats

    def metrics(self) -> Dict[str, object]:
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "workers": self.workers,
            "max_queue": MAX_QUEUE,
            "tenants": {
                name: tenant.stats() for name, tenant in self.tenants.items()
            },
        }


__all__ = [
    "MAX_BATCH_QUANTA",
    "MAX_QUEUE",
    "SessionManager",
    "Tenant",
]
