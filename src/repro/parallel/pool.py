"""Worker pools hosting shard states behind pluggable transports.

The pool owns ``W`` workers; worker *w* hosts the shard states of its
contiguous shard run (:func:`repro.parallel.router.worker_assignments`) for
the whole session, so window state never moves between workers.  Each
worker is one :class:`~repro.parallel.transport.ShardTransport`; four
backends share one interface:

``process``
    :class:`~repro.parallel.transport.ProcessShardTransport` — one forked
    single-process executor per worker.  This is the backend that actually
    buys multi-core parallelism on one machine.
``thread``
    :class:`~repro.parallel.transport.ThreadShardTransport` over one shared
    thread pool — the fallback for platforms without ``fork`` (correct,
    but GIL-bound).
``serial``
    :class:`~repro.parallel.transport.SerialShardTransport`, direct
    in-caller execution for ``workers == 1``; the sharded pipeline with
    this backend is the ``W=1`` baseline of ``bench_parallel_akg``.
``remote``
    :class:`~repro.parallel.transport.RemoteShardTransport` — each worker
    is a ``repro shard-worker`` daemon at a ``host:port`` endpoint,
    reached over length-prefixed CRC-framed TCP.  Selected by passing
    ``endpoints``; the worker count *is* the endpoint count.

Every phase scatters by calling ``begin`` on all participating transports
before ``finish`` on any — W sockets (or executors) advance concurrently —
and gathers into a deterministic shard-sorted merge, so the front-end
upstairs never knows which backend ran (bit-identical results, DESIGN.md
Section 7/12).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.parallel.router import worker_assignments
from repro.parallel.shard_state import ShardParams, ShardUpdate
from repro.parallel.transport import (
    ProcessShardTransport,
    RemoteShardTransport,
    SerialShardTransport,
    ShardTransport,
    ThreadShardTransport,
)

Keyword = str
UserId = Hashable

_BACKENDS = ("process", "thread", "serial", "remote")


class WorkerPool:
    """Shard-affine execution of the per-quantum worker phases."""

    def __init__(
        self,
        shard_count: int,
        workers: int,
        params: ShardParams,
        backend: str,
        endpoints: Optional[Sequence[str]] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ConfigError(f"unknown worker backend: {backend!r}")
        if backend == "remote":
            if not endpoints:
                raise ConfigError(
                    "the remote backend needs shard worker endpoints "
                    "(workers='host:port,...')"
                )
            workers = len(endpoints)
        elif endpoints:
            raise ConfigError(
                f"shard worker endpoints given but backend is {backend!r}; "
                f"endpoints imply the remote backend"
            )
        self.shard_count = shard_count
        self.workers = min(workers, shard_count)
        self.params = params
        self.backend = backend
        self.assignments = worker_assignments(shard_count, self.workers)
        self._owner = {
            shard: w
            for w, shards in enumerate(self.assignments)
            for shard in shards
        }
        self._closed = False
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self.transports: List[ShardTransport]
        if backend == "process":
            self.transports = [
                ProcessShardTransport(shards, params)
                for shards in self.assignments
            ]
        elif backend == "thread":
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
            self.transports = [
                ThreadShardTransport(shards, params, self._thread_pool)
                for shards in self.assignments
            ]
        elif backend == "remote":
            self.transports = [
                RemoteShardTransport(endpoints[w], shards, params)
                for w, shards in enumerate(self.assignments)
            ]
            connected = []
            try:
                for transport in self.transports:
                    transport.connect()
                    connected.append(transport)
            except Exception:
                for transport in connected:
                    transport.close()
                raise
        else:
            self.transports = [
                SerialShardTransport(shards, params)
                for shards in self.assignments
            ]

    # ------------------------------------------------------------- dispatch

    def _scatter(self, op: str, arg_lists: List[tuple]) -> List:
        """Begin ``op`` on the first ``len(arg_lists)`` transports, then
        gather; results in worker order."""
        assert len(arg_lists) <= self.workers, (
            f"{len(arg_lists)} work items for {self.workers} workers — "
            f"callers must fan out at most one item per worker"
        )
        active = list(zip(self.transports, arg_lists))
        for transport, args in active:
            transport.begin(op, args)
        return [transport.finish() for transport, _ in active]

    # -------------------------------------------------------------- phases

    def ingest(
        self, quantum: int, shard_slices: List[dict]
    ) -> List[ShardUpdate]:
        """Phase one of a quantum; updates returned in shard order.

        Every shard is advanced every quantum (an empty slice still expires
        window entries), so the request fan-out is exactly ``W`` messages.
        """
        arg_lists = [
            (
                quantum,
                [(shard, shard_slices[shard]) for shard in shards],
            )
            for shards in self.assignments
        ]
        results = self._scatter("ingest", arg_lists)
        updates = [
            update for worker_updates in results for update in worker_updates
        ]
        updates.sort(key=lambda update: update.shard)
        return updates

    def exchange(
        self,
        shard_requests: List[Tuple[int, list, list]],
    ) -> List[Tuple[int, dict, dict]]:
        """Phase two of a quantum: per-shard ``(shard, pairs, want_ids)``
        EC requests in, ``(shard, ecs, id_sets)`` answers out (shard
        order).

        Dispatched to *every* worker each quantum — workers with no
        requests answer an empty list — keeping the request/reply rhythm
        uniform across quanta and backends (one frame per worker per
        phase, whatever the graph did).
        """
        by_worker: List[List[Tuple[int, list, list]]] = [
            [] for _ in self.assignments
        ]
        for request in shard_requests:
            by_worker[self._owner[request[0]]].append(request)
        results = self._scatter(
            "exchange", [(requests,) for requests in by_worker]
        )
        answers = [
            answer for worker_answers in results for answer in worker_answers
        ]
        answers.sort(key=lambda answer: answer[0])
        return answers

    # ---------------------------------------------------------- persistence

    def _gather_shards(self, op: str, *args) -> List[tuple]:
        """Run a per-shard read on every worker; rows in shard order."""
        results = self._scatter(op, [args for _ in self.transports])
        return sorted(
            (row for worker_rows in results for row in worker_rows),
            key=lambda row: row[0],
        )

    def export_states(self) -> List[Tuple[int, dict]]:
        """Every shard's ``(shard, idsets)`` state, shard order."""
        return self._gather_shards("export")

    def export_edits(self, quantum: int) -> List[Tuple[int, tuple]]:
        """Every shard's ``(shard, idsets_edit)`` for the slide to
        ``quantum``, shard order — the delta log's round trip."""
        return self._gather_shards("edit", quantum)

    def load_states(self, states: List[Tuple[int, dict]]) -> None:
        """Install per-shard states (checkpoint restore)."""
        by_worker: List[List[Tuple[int, dict]]] = [
            [] for _ in self.assignments
        ]
        for state in states:
            by_worker[self._owner[state[0]]].append(state)
        self._scatter(
            "load", [(worker_states,) for worker_states in by_worker]
        )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Shut down transports; idempotent."""
        if self._closed:
            return
        self._closed = True
        for transport in self.transports:
            try:
                transport.close()
            except Exception:
                pass  # best-effort: a dead worker must not block the rest
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # backstop; explicit close() is the contract
        try:
            self.close()
        except Exception:
            pass


def default_backend(workers: int) -> str:
    """Auto-selected backend: serial for one worker, processes where the
    platform can fork, threads otherwise."""
    if workers <= 1:
        return "serial"
    if "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


def make_pool(
    shard_count: int,
    workers: int,
    params: ShardParams,
    backend: Optional[str] = None,
    endpoints: Optional[Sequence[str]] = None,
) -> WorkerPool:
    """Build the pool for a sharded session.

    ``endpoints`` selects the remote backend (the worker count is the
    endpoint count); otherwise ``backend=None`` auto-selects a local one.
    """
    if endpoints:
        if backend not in (None, "remote"):
            raise ConfigError(
                f"workers='host:port,...' selects the remote backend, but "
                f"worker_backend={backend!r} was also given"
            )
        backend = "remote"
    elif backend is None:
        backend = default_backend(workers)
    return WorkerPool(shard_count, workers, params, backend, endpoints=endpoints)


__all__ = ["WorkerPool", "default_backend", "make_pool"]
