"""Shard worker transports: the wire seam under :class:`~repro.parallel.pool.WorkerPool`.

The pool's protocol has always been value-shaped — entity slices out,
:class:`~repro.parallel.shard_state.ShardUpdate` back — which is exactly a
wire format.  This module names it: a :class:`ShardTransport` carries the
five worker operations (``ingest`` / ``exchange`` / ``export`` / ``edit`` /
``load``) to wherever the shard states physically live, and four
implementations cover the deployment spectrum:

:class:`SerialShardTransport`
    States live in the caller; ``finish()`` executes in place (the ``W=1``
    baseline).
:class:`ThreadShardTransport`
    States live in the process; operations run on a shared thread pool.
:class:`ProcessShardTransport`
    States live in a forked single-process executor pinned to the worker's
    shard run (the multi-core backend).
:class:`RemoteShardTransport`
    States live in a ``repro shard-worker`` daemon reached over TCP
    (:mod:`repro.parallel.remote`), with connect retry, per-operation
    timeouts, and a readable :class:`~repro.errors.PipelineError` when the
    worker dies mid-quantum.

Every transport exposes the same split API — ``begin(op, args)`` scatters
one request, ``finish()`` gathers its reply — so the pool can write to all
workers before reading from any: that is what makes W sockets (or W
executors) advance in parallel rather than lock-step.

The socket wire format reuses the repo's framing discipline
(``serve/wire.py`` / ``deltalog``): a 4-byte connection magic, then
length-prefixed CRC-framed JSON messages.  Payload values travel through
:func:`repro.api.checkpoint.encode_state` — the canonical tagged codec that
round-trips tuples, (frozen)sets, non-string dict keys and floats exactly —
never pickle, so a daemon only ever evaluates data, not code, and gathered
id sets / sketches / ECs are bit-identical to the fork path's.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import struct
import time
import zlib
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.api.checkpoint import decode_state, encode_state
from repro.errors import PipelineError
from repro.parallel.shard_state import ShardParams, ShardState, ShardUpdate

Keyword = str
UserId = Hashable

#: Connection preamble a client sends before its first frame; the daemon
#: refuses anything else (a browser or stray scanner poking the port fails
#: fast instead of hanging in the frame reader).
PROTOCOL_MAGIC = b"RSW1"

#: Bumped on any incompatible message-schema change; the init handshake
#: refuses a mismatch so a stale daemon fails loudly, not subtly.
PROTOCOL_VERSION = 3

_FRAME_HEADER = struct.Struct(">II")  # (payload length, CRC32) — as deltalog
_MAX_FRAME = 1 << 31


class TransportError(PipelineError):
    """A shard transport failed (connect, frame, or worker death)."""


# --------------------------------------------------------------- frame codec


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one length-prefixed, CRC-framed JSON message."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > _MAX_FRAME:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds the {_MAX_FRAME}-byte "
            f"transport bound"
        )
    sock.sendall(
        _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    )


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; raises ``ConnectionError``/``TransportError``."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    length, crc = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(
            f"frame header announces {length} bytes (> {_MAX_FRAME}); "
            f"stream is corrupt or not a shard-worker peer"
        )
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != crc:
        raise TransportError("frame CRC mismatch; stream is corrupt")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"frame payload is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise TransportError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


# ----------------------------------------------------------- value wire form


def update_to_wire(update: ShardUpdate) -> dict:
    """A ``ShardUpdate`` as a plain field dict (the value the generic
    :func:`~repro.api.checkpoint.encode_state` pass then makes JSON-safe,
    with exact float/set/tuple round trip)."""
    return {
        "shard": update.shard,
        "emptied": update.emptied,
        "support_deltas": update.support_deltas,
        "bursty": update.bursty,
        "sketches": update.sketches,
    }


def update_from_wire(data: dict) -> ShardUpdate:
    return ShardUpdate(**data)


def params_to_wire(params: ShardParams) -> dict:
    return {
        "window_quanta": params.window_quanta,
        "minhash_size": params.minhash_size,
        "seed": params.seed,
        "theta": params.theta,
        "use_minhash": params.use_minhash,
    }


def params_from_wire(wire: dict) -> ShardParams:
    return ShardParams(**wire)


# --------------------------------------------------------------- worker side
#
# One dispatch function shared by every physical host of shard states: the
# forked process entry point, the thread/serial transports, and the remote
# daemon all run the same code over their own ``{shard: ShardState}`` map,
# which is what keeps the backends interchangeable to the bit.


def dispatch_op(
    states: Dict[int, ShardState], op: str, args: tuple
) -> Any:
    """Run one worker operation against a ``{shard: ShardState}`` map."""
    if op == "ingest":
        quantum, requests = args
        return [
            states[shard].ingest(quantum, keyword_users)
            for shard, keyword_users in requests
        ]
    if op == "exchange":
        (requests,) = args
        return [
            states[shard].exchange(pairs, want_ids)
            for shard, pairs, want_ids in requests
        ]
    if op == "export":
        return [states[shard].export_state() for shard in sorted(states)]
    if op == "edit":
        (quantum,) = args
        return [states[shard].export_edit(quantum) for shard in sorted(states)]
    if op == "load":
        (payload,) = args
        for shard, idsets_state in payload:
            states[shard].load_state(idsets_state)
        return None
    raise PipelineError(f"unknown shard worker operation: {op!r}")


# Per-process registry for forked workers: the initializer builds this
# process's shard states once; every task submitted to its single-process
# executor finds them in place.
_WORKER_STATES: Dict[int, ShardState] = {}


def _init_worker(shard_ids: Sequence[int], params: ShardParams) -> None:
    global _WORKER_STATES
    _WORKER_STATES = {s: ShardState(s, params) for s in shard_ids}


def _worker_op(op: str, args: tuple) -> Any:
    return dispatch_op(_WORKER_STATES, op, args)


# ----------------------------------------------------------- the transports


@runtime_checkable
class ShardTransport(Protocol):
    """One worker endpoint hosting a contiguous shard run.

    ``begin(op, args)`` scatters one request; ``finish()`` gathers its
    reply (at most one request may be in flight per transport).  The pool
    begins on every transport before finishing any, so W workers execute
    concurrently whatever the physical backend.
    """

    shards: Tuple[int, ...]

    def begin(self, op: str, args: tuple) -> None: ...

    def finish(self) -> Any: ...

    def close(self) -> None: ...


class SerialShardTransport:
    """In-caller execution: ``finish()`` runs the deferred operation."""

    def __init__(self, shards: Sequence[int], params: ShardParams) -> None:
        self.shards = tuple(shards)
        self.states = {s: ShardState(s, params) for s in self.shards}
        self._pending: Optional[Tuple[str, tuple]] = None

    def begin(self, op: str, args: tuple) -> None:
        assert self._pending is None, "one in-flight request per transport"
        self._pending = (op, args)

    def finish(self) -> Any:
        op, args = self._pending
        self._pending = None
        return dispatch_op(self.states, op, args)

    def close(self) -> None:
        pass


class ThreadShardTransport:
    """In-process states driven from a shared thread pool (no-fork fallback)."""

    def __init__(
        self,
        shards: Sequence[int],
        params: ShardParams,
        executor: ThreadPoolExecutor,
    ) -> None:
        self.shards = tuple(shards)
        self.states = {s: ShardState(s, params) for s in self.shards}
        self._executor = executor
        self._future: Optional[Future] = None

    def begin(self, op: str, args: tuple) -> None:
        assert self._future is None, "one in-flight request per transport"
        self._future = self._executor.submit(
            dispatch_op, self.states, op, args
        )

    def finish(self) -> Any:
        future = self._future
        self._future = None
        return future.result()

    def close(self) -> None:  # the pool owns the shared executor
        pass


class ProcessShardTransport:
    """A forked single-process executor pinned to this worker's shards.

    A dedicated executor (rather than one shared pool) is what pins each
    shard's window state to the process that owns it — a shared pool routes
    tasks to arbitrary idle workers, which would scatter the state.
    """

    def __init__(self, shards: Sequence[int], params: ShardParams) -> None:
        self.shards = tuple(shards)
        context = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=context,
            initializer=_init_worker,
            initargs=(self.shards, params),
        )
        self._future: Optional[Future] = None
        self._op: Optional[str] = None

    def begin(self, op: str, args: tuple) -> None:
        assert self._future is None, "one in-flight request per transport"
        self._op = op
        try:
            self._future = self._executor.submit(_worker_op, op, args)
        except (BrokenProcessPool, RuntimeError) as exc:
            raise TransportError(
                f"shard worker process for shards {list(self.shards)} is "
                f"gone; cannot submit {op!r}: {exc}"
            ) from exc

    def finish(self) -> Any:
        future = self._future
        self._future = None
        try:
            return future.result()
        except (BrokenProcessPool, EOFError, OSError) as exc:
            raise TransportError(
                f"shard worker process for shards {list(self.shards)} died "
                f"during {self._op!r} (between scatter and gather); the "
                f"quantum cannot complete — close the session and resume "
                f"from its last checkpoint"
            ) from exc

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


class RemoteShardTransport:
    """A ``repro shard-worker`` daemon reached over framed TCP."""

    def __init__(
        self,
        endpoint: str,
        shards: Sequence[int],
        params: ShardParams,
        *,
        connect_timeout: float = 10.0,
        op_timeout: float = 60.0,
        retry_interval: float = 0.1,
    ) -> None:
        self.endpoint = endpoint
        self.shards = tuple(shards)
        self.params = params
        self.connect_timeout = connect_timeout
        self.op_timeout = op_timeout
        self.retry_interval = retry_interval
        host, _, port_text = endpoint.rpartition(":")
        try:
            self._address = (host, int(port_text))
            if not host:
                raise ValueError("missing host")
        except ValueError as exc:
            raise PipelineError(
                f"invalid shard worker endpoint {endpoint!r}; expected "
                f"'host:port'"
            ) from exc
        self._sock: Optional[socket.socket] = None
        self._op: Optional[str] = None

    # -- connection lifecycle -------------------------------------------

    def connect(self) -> None:
        """Dial the daemon (retrying until ``connect_timeout``) and init it."""
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                sock = socket.create_connection(
                    self._address, timeout=max(0.1, self.connect_timeout)
                )
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"cannot connect to shard worker {self.endpoint} "
                        f"within {self.connect_timeout:.1f}s: {exc} — is "
                        f"'repro shard-worker' running there?"
                    ) from exc
                time.sleep(self.retry_interval)
        sock.settimeout(self.op_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        reply = self._request(
            {
                "op": "init",
                "protocol": PROTOCOL_VERSION,
                "shards": list(self.shards),
                "params": params_to_wire(self.params),
            }
        )
        if reply.get("protocol") != PROTOCOL_VERSION:
            self.close()
            raise TransportError(
                f"shard worker {self.endpoint} speaks protocol "
                f"{reply.get('protocol')!r}, this client speaks "
                f"{PROTOCOL_VERSION} — upgrade one of them"
            )

    def _die(self, action: str, exc: Exception) -> TransportError:
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._sock = None
        return TransportError(
            f"shard worker at {self.endpoint} died mid-quantum "
            f"(connection lost during {action!r}: {exc}); the quantum "
            f"cannot complete — close the session and resume from its "
            f"last checkpoint"
        )

    def _send(self, message: dict, action: str) -> None:
        if self._sock is None:
            raise TransportError(
                f"shard worker transport to {self.endpoint} is closed"
            )
        try:
            if action == "init":
                self._sock.sendall(PROTOCOL_MAGIC)
            send_frame(self._sock, message)
        except (OSError, ConnectionError) as exc:
            raise self._die(action, exc) from exc

    def _recv(self, action: str) -> dict:
        try:
            reply = recv_frame(self._sock)
        except socket.timeout as exc:
            raise self._die(
                action, Exception(f"no reply within {self.op_timeout:.1f}s")
            ) from exc
        except (OSError, ConnectionError) as exc:
            raise self._die(action, exc) from exc
        if not reply.get("ok"):
            raise TransportError(
                f"shard worker {self.endpoint} failed {action!r}: "
                f"{reply.get('error', 'unknown error')}"
            )
        return reply

    def _request(self, message: dict) -> dict:
        self._send(message, message["op"])
        return self._recv(message["op"])

    # -- the transport protocol -----------------------------------------

    def begin(self, op: str, args: tuple) -> None:
        assert self._op is None, "one in-flight request per transport"
        self._op = op
        self._send({"op": op, "args": encode_state(list(args))}, op)

    def finish(self) -> Any:
        op = self._op
        self._op = None
        reply = self._recv(op)
        result = decode_state(reply.get("result"))
        if op == "ingest":
            return [update_from_wire(data) for data in result]
        return result

    def close(self) -> None:
        sock = self._sock
        self._sock = None
        if sock is None:
            return
        try:
            send_frame(sock, {"op": "bye"})
        except (OSError, ConnectionError, TransportError):
            pass
        try:
            sock.close()
        except OSError:
            pass


__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "ProcessShardTransport",
    "RemoteShardTransport",
    "SerialShardTransport",
    "ShardTransport",
    "ThreadShardTransport",
    "TransportError",
    "dispatch_op",
    "params_from_wire",
    "params_to_wire",
    "recv_frame",
    "send_frame",
    "update_from_wire",
    "update_to_wire",
]
