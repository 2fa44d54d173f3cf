"""The asyncio front door: HTTP + WebSocket routes over a SessionManager.

Routes (all JSON; DESIGN.md Section 11):

=========  ===============================  ===================================
Method     Path                             Meaning
=========  ===============================  ===================================
GET        ``/healthz``                     liveness probe
GET        ``/metrics``                     uptime, worker and queue bounds,
                                            per-tenant stats
GET        ``/v1``                          tenant listing
PUT        ``/v1/{tenant}``                 create/resume a tenant
                                            (body ``{"config": {...}}`` or
                                            ``{"resume": true}``)
DELETE     ``/v1/{tenant}``                 close (``?drain=0`` sheds the queue)
POST       ``/v1/{tenant}/ingest``          batch ingest: JSONL body (or one
                                            JSON array); ``?wait=1`` blocks
                                            until the tenant's queue drains
GET        ``/v1/{tenant}/stats``           live per-tenant counters + timings
POST       ``/v1/{tenant}/checkpoint``      monolithic snapshot (body
                                            ``{"path": <file name>}``) to
                                            ``<state-dir>/{tenant}/snapshots/``
GET        ``/v1/{tenant}/events``          WebSocket: subscription fan-out
                                            (``?kinds=...&top_k=...&buffer=...``)
GET        ``/v1/{tenant}/stream``          WebSocket: frame-per-batch ingest
=========  ===============================  ===================================

The server owns one event loop; detector work runs on the manager's shared
executor so tenants' quanta interleave.  :func:`serve_forever` is the one
server loop: ``python -m repro serve`` runs it until interrupted, and
:class:`ServerThread` runs it on a daemon thread for tests, benches and
examples.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
from typing import Awaitable, Callable, Optional, Tuple

from repro.errors import ServeError
from repro.serve import wire
from repro.serve.hub import parse_kinds
from repro.serve.manager import SessionManager
from repro.serve.wire import parse_ingest_body  # re-exported: see __all__


def _error_status(exc: ServeError) -> int:
    text = str(exc)
    if text.startswith("no such tenant") or "no state to resume" in text:
        return 404
    if "already exists" in text or "existing state" in text:
        return 409
    return 400


class ReproServer:
    """One listening socket multiplexing many tenants."""

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self, *, graceful: bool = True) -> None:
        """Stop listening and shut the manager down.

        Graceful: drain every tenant's queue and seal persistent ones.
        Non-graceful: drop everything on the floor — the crash path tests
        lean on (durability then rests on the per-quantum delta logs).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.shutdown(graceful=graceful)

    # ------------------------------------------------------------- routing

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await wire.read_request(reader, writer)
            except ServeError as exc:
                writer.write(
                    wire.http_response(400, {"error": str(exc)})
                )
                await writer.drain()
                return
            if request is None:
                return
            if request.wants_websocket:
                await self._route_websocket(request, reader, writer)
                return
            try:
                status, payload = await self._route(request)
            except ServeError as exc:
                status, payload = _error_status(exc), {"error": str(exc)}
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
                print(
                    f"repro serve: internal error on {request.method} "
                    f"{request.path}: {exc!r}",
                    file=sys.stderr,
                )
            writer.write(wire.http_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, request: wire.Request) -> Tuple[int, dict]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "tenants": len(self.manager.tenants)}
        if path == "/metrics" and method == "GET":
            return 200, self.manager.metrics()
        if path in ("/v1", "/v1/") and method == "GET":
            return 200, {"tenants": sorted(self.manager.tenants)}
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1":
            name = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                return 404, {"error": f"unknown path: {path}"}
            return await self._route_tenant(request, name, action)
        return 404, {"error": f"unknown path: {path}"}

    async def _route_tenant(
        self, request: wire.Request, name: str, action: Optional[str]
    ) -> Tuple[int, dict]:
        method = request.method
        manager = self.manager
        if action is None:
            if method == "PUT":
                body = request.json() or {}
                if not isinstance(body, dict):
                    raise ServeError("tenant body must be a JSON object")
                resume = body.get("resume", False)
                if not isinstance(resume, bool):
                    raise ServeError(
                        f'"resume" must be a JSON boolean, got {resume!r}'
                    )
                persist = body.get("persist")
                if persist is not None and not isinstance(persist, bool):
                    raise ServeError(
                        f'"persist" must be a JSON boolean or null, got '
                        f"{persist!r}"
                    )
                tenant = await manager.create(
                    name,
                    config=body.get("config"),
                    resume=resume,
                    persist=persist,
                )
                return 200, {
                    "tenant": name,
                    "quantum": tenant.session.current_quantum,
                    "pending": tenant.session.batcher.pending,
                    "resumed": resume,
                }
            if method == "DELETE":
                drain = request.query.get("drain", "1") not in ("0", "false")
                return 200, await manager.close_tenant(name, drain=drain)
            if method == "GET":
                return 200, manager.get(name).stats()
            return 405, {"error": f"{method} not allowed on /v1/{name}"}
        tenant = manager.get(name)
        if action == "ingest" and method == "POST":
            result = tenant.enqueue(request.body)
            if request.query.get("wait") in ("1", "true"):
                await tenant.wait_idle()
                result = dict(result)
                result["queued"] = 0
            result["quantum"] = tenant.session.current_quantum
            return 200, result
        if action == "stats" and method == "GET":
            return 200, tenant.stats()
        if action == "checkpoint" and method == "POST":
            body = request.json() or {}
            if not isinstance(body, dict) or not body.get("path"):
                raise ServeError('checkpoint body needs {"path": <file name>}')
            path = await tenant.snapshot(body["path"])
            return 200, {
                "checkpoint": str(path),
                "quantum": tenant.session.current_quantum,
            }
        return 404, {
            "error": f"unknown action {action!r} for {method} /v1/{name}"
        }

    # ----------------------------------------------------------- websocket

    async def _route_websocket(
        self,
        request: wire.Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        key = request.headers.get("sec-websocket-key")
        if (
            key is None
            or len(parts) != 3
            or parts[0] != "v1"
            or parts[2] not in ("events", "stream")
        ):
            writer.write(
                wire.http_response(
                    400, {"error": f"not a WebSocket endpoint: {request.path}"}
                )
            )
            await writer.drain()
            return
        try:
            tenant = self.manager.get(parts[1])
            if parts[2] == "events":
                kinds = parse_kinds(request.query.get("kinds"))
                top_k = self._int_query(request, "top_k")
                buffer = self._int_query(request, "buffer")
            else:
                kinds = top_k = buffer = None
        except ServeError as exc:
            writer.write(
                wire.http_response(_error_status(exc), {"error": str(exc)})
            )
            await writer.drain()
            return
        writer.write(wire.websocket_upgrade_response(key))
        await writer.drain()
        if parts[2] == "events":
            await self._serve_events(tenant, reader, writer, kinds, top_k, buffer)
        else:
            await self._serve_stream(tenant, reader, writer)

    @staticmethod
    def _int_query(request: wire.Request, name: str) -> Optional[int]:
        raw = request.query.get(name)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ServeError(f"{name} must be an integer, got {raw!r}") from None
        if value < 0:
            raise ServeError(f"{name} must be >= 0, got {value}")
        return value

    async def _serve_events(
        self, tenant, reader, writer, kinds, top_k, buffer
    ) -> None:
        """Fan-out leg: one subscriber riding the tenant's hub."""
        subscriber = tenant.hub.attach(
            tenant.session, kinds=kinds, top_k=top_k, buffer=buffer
        )
        pump = asyncio.create_task(tenant.hub.pump(subscriber, writer))
        control = asyncio.create_task(self._ws_control(reader, writer))
        done, pending = await asyncio.wait(
            {pump, control}, return_when=asyncio.FIRST_COMPLETED
        )
        tenant.hub.detach(subscriber, "client disconnected")
        for task in pending:
            task.cancel()
        await asyncio.gather(pump, control, return_exceptions=True)
        try:
            writer.close()
        except Exception:
            pass

    async def _ws_control(self, reader, writer) -> None:
        """Read client frames on a fan-out socket: pings and close only."""
        try:
            while True:
                opcode, payload = await wire.read_frame(reader)
                if opcode == wire.OP_CLOSE:
                    return
                if opcode == wire.OP_PING:
                    writer.write(wire.encode_frame(wire.OP_PONG, payload))
                    await writer.drain()
        except (
            ServeError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            return

    async def _serve_stream(self, tenant, reader, writer) -> None:
        """Ingest leg: each text frame is one record or an array of them."""
        try:
            while True:
                opcode, payload = await wire.read_frame(reader)
                if opcode == wire.OP_CLOSE:
                    writer.write(wire.encode_frame(wire.OP_CLOSE, b""))
                    await writer.drain()
                    return
                if opcode == wire.OP_PING:
                    writer.write(wire.encode_frame(wire.OP_PONG, payload))
                    await writer.drain()
                    continue
                if opcode != wire.OP_TEXT:
                    continue
                try:
                    result = tenant.enqueue(payload)
                    result["quantum"] = tenant.session.current_quantum
                except ServeError as exc:
                    result = {"error": str(exc)}
                writer.write(
                    wire.encode_frame(
                        wire.OP_TEXT,
                        json.dumps(result, sort_keys=True).encode("utf-8"),
                    )
                )
                await writer.drain()
        except (
            ServeError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            return


async def serve_forever(
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    state_dir: Optional[os.PathLike] = None,
    workers: int = 2,
    ready: Optional[Callable[[ReproServer], None]] = None,
    stop: Optional[Awaitable[bool]] = None,
) -> None:
    """Run a server until ``stop`` yields or the task is cancelled.

    ``ready`` is an optional callable invoked with the listening
    :class:`ReproServer` (its ``host`` and ``port`` are the bound ones).
    ``stop`` is an optional awaitable yielding the ``graceful`` flag of
    :meth:`ReproServer.stop`; a cancellation stops gracefully.  A graceful
    stop drains every queue and seals persistent tenants' delta logs (a
    buffered partial quantum included).
    """
    loop = asyncio.get_running_loop()
    manager = SessionManager(loop, state_dir=state_dir, workers=workers)
    server = ReproServer(manager, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    graceful = True
    try:
        graceful = await (stop if stop is not None else loop.create_future())
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop(graceful=graceful)


class ServerThread:
    """:func:`serve_forever` on a daemon thread — the test/bench/example
    harness.

    ``start()`` returns the bound port.  ``stop(graceful=True)`` drains and
    seals, and raises :class:`ServeError` (the cause chained) if the
    shutdown failed; ``stop(graceful=False)`` tears the loop down without
    closing tenants — the in-process stand-in for ``kill -9`` (per-quantum
    delta-log durability is what makes the subsequent resume correct).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir: Optional[os.PathLike] = None,
        workers: int = 2,
    ) -> None:
        self._options = dict(
            host=host, port=port, state_dir=state_dir, workers=workers
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_future: Optional[asyncio.Future] = None
        self._server: Optional[ReproServer] = None
        self._ready = threading.Event()
        self._done = threading.Event()
        self._error: Optional[Exception] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("server thread did not start within 30s")
        if self._server is None:
            raise ServeError(f"server failed to start: {self._error!r}")
        return self.port

    def _ready_with(self, server: ReproServer) -> None:
        self._server = server
        self.host, self.port = server.host, server.port
        self._ready.set()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop_future = loop.create_future()
        try:
            loop.run_until_complete(
                serve_forever(
                    ready=self._ready_with,
                    stop=self._stop_future,
                    **self._options,
                )
            )
        except Exception as exc:
            self._error = exc
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()
                self._ready.set()
                self._done.set()

    def stop(self, *, graceful: bool = True, timeout: float = 60.0) -> None:
        if self._loop is None or self._done.is_set():
            return

        def _signal() -> None:
            if not self._stop_future.done():
                self._stop_future.set_result(graceful)

        try:
            self._loop.call_soon_threadsafe(_signal)
        except RuntimeError:
            return
        if not self._done.wait(timeout=timeout):
            raise ServeError(f"server thread did not stop within {timeout}s")
        if self._error is not None:
            raise ServeError(
                f"server shutdown failed: {self._error!r}"
            ) from self._error


__all__ = ["ReproServer", "ServerThread", "parse_ingest_body", "serve_forever"]
