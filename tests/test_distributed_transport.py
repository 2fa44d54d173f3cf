"""The socket shard transport: TCP workers bit-identical to local ones.

DESIGN.md Section 12: shard workers hosted by ``repro shard-worker``
daemons over length-prefixed CRC-framed TCP must be indistinguishable —
to the bit — from the fork/thread/serial backends: reports, sink events,
histories, and checkpoints all reuse the golden-fingerprint machinery of
``test_parallel_shard_invariance``.  Fault injection rides along: a
worker that dies between scatter and gather (remote *or* forked) must
surface a readable :class:`~repro.errors.PipelineError`, never a hang,
and the session must stay closeable.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from test_parallel_shard_invariance import (
    bursty_stream,
    make_config,
    run_session,
    uniform_stream,
)

from repro.api import open_session
from repro.errors import ConfigError, PipelineError
from repro.parallel import (
    RemoteShardTransport,
    ShardWorkerServer,
    TransportError,
    make_pool,
)
from repro.parallel.shard_state import ShardParams
from repro.parallel.transport import (
    PROTOCOL_MAGIC,
    recv_frame,
    send_frame,
)

PARAMS = ShardParams(
    window_quanta=3, minhash_size=16, seed=0, theta=3, use_minhash=True
)


@contextmanager
def worker_daemons(count):
    """``count`` in-process shard-worker daemons; yields 'host:port,...'."""
    servers, threads = [], []
    try:
        for _ in range(count):
            server = ShardWorkerServer()
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            servers.append(server)
            threads.append(thread)
        yield ",".join(server.endpoint for server in servers)
    finally:
        for server in servers:
            server.stop()
        for thread in threads:
            thread.join(timeout=5)


def spawn_worker_process():
    """A real ``repro shard-worker`` daemon process; returns (proc, endpoint)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-c",
            "from repro.parallel.remote import serve_shard_worker; "
            "serve_shard_worker("
            "announce=lambda s: print(s.endpoint, flush=True))",
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    endpoint = proc.stdout.readline().strip()
    assert ":" in endpoint, f"daemon failed to announce itself: {endpoint!r}"
    return proc, endpoint


# ------------------------------------------------------- golden parity


@pytest.mark.parametrize(
    "workers,shards", [(2, 4), (3, 5)], ids=["W2-S4", "W3-S5"]
)
def test_remote_workers_bit_identical_to_serial(workers, shards, tmp_path):
    """TCP-hosted shards equal the plain serial session on every surface:
    reports, sink notifications, histories, and the checkpoint tree."""
    stream = bursty_stream(11, 700)
    reference = run_session(stream, tmp_path, "reference")
    with worker_daemons(workers) as endpoints:
        fingerprint = run_session(
            stream, tmp_path, f"remote-{workers}", workers=endpoints,
            shard_count=shards,
        )
    names = ("reports", "notifications", "histories", "checkpoint")
    for part, ref, name in zip(fingerprint, reference, names):
        assert part == ref, (
            f"{name} diverged from serial over TCP (W={workers}, S={shards})"
        )


def test_remote_equals_process_backend(tmp_path):
    """The transport seam itself: remote and fork answers are the same
    bytes for the same shard layout."""
    stream = uniform_stream(9, 400)
    local = run_session(stream, tmp_path, "process", workers=2, shard_count=4)
    with worker_daemons(2) as endpoints:
        remote = run_session(
            stream, tmp_path, "remote", workers=endpoints, shard_count=4
        )
    assert remote == local


def test_remote_session_resumes_from_checkpoint(tmp_path):
    """A snapshot taken under TCP workers restores under any backend."""
    stream = bursty_stream(5, 400)
    split = 200
    reference = open_session(make_config())
    ref_reports = list(reference.ingest_many(stream))
    with worker_daemons(2) as endpoints:
        first = open_session(make_config(), workers=endpoints, shard_count=4)
        reports = [r for m in stream[:split] if (r := first.ingest(m))]
        mid = tmp_path / "mid.ckpt"
        first.snapshot(mid)
        first.close()
    resumed = open_session(resume=mid)  # plain serial resume
    reports += [r for m in stream[split:] if (r := resumed.ingest(m))]
    assert [r.quantum for r in reports] == [r.quantum for r in ref_reports]
    assert [
        sorted(e.event_id for e in r.reported) for r in reports
    ] == [sorted(e.event_id for e in r.reported) for r in ref_reports]
    resumed.close()
    reference.close()


def test_remote_leader_delta_log_replays_to_its_snapshot(tmp_path):
    """The delta log's per-quantum round trip (``edit``) over TCP: shard
    window edits cross the wire codec and merge into records that replay
    to exactly the tree a snapshot writes."""
    from repro.api.checkpoint import load_checkpoint
    from tree_diff import canon

    stream = bursty_stream(7, 400)
    with worker_daemons(2) as endpoints:
        with open_session(
            make_config(),
            workers=endpoints,
            shard_count=4,
            delta_log=tmp_path / "d",
            delta_compact_ratio=1e12,
        ) as leader:
            list(leader.ingest_many(stream))
            assert leader.delta_writer.records_written == 20
            leader.snapshot(tmp_path / "mono.ckpt")
    assert canon(load_checkpoint(tmp_path / "d")) == canon(
        load_checkpoint(tmp_path / "mono.ckpt")
    )


# ------------------------------------------------------- frame codec


def test_frame_codec_round_trip():
    a, b = socket.socketpair()
    try:
        message = {"op": "ingest", "args": [1, "два", 3.5, None]}
        send_frame(a, message)
        assert recv_frame(b) == message
    finally:
        a.close()
        b.close()


def test_frame_crc_mismatch_detected():
    a, b = socket.socketpair()
    try:
        send_frame(a, {"op": "ping"})
        raw = bytearray(b.recv(4096))
        raw[-1] ^= 0xFF  # flip a payload byte; CRC no longer matches
        a.sendall(bytes(raw))
        with pytest.raises(TransportError, match="CRC"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_rejects_non_object_payload():
    a, b = socket.socketpair()
    try:
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        a.sendall(
            struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(TransportError, match="JSON object"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_daemon_drops_bad_magic():
    """A stray client that is not a shard-worker peer is dropped, fast."""
    with worker_daemons(1) as endpoint:
        host, _, port = endpoint.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n"[:4])
            sock.settimeout(5)
            assert sock.recv(1) == b""  # connection closed, no reply


# ------------------------------------------------ connect/retry/refusal


def test_connect_retries_until_daemon_appears():
    """The client retries inside connect_timeout — launch order between a
    session and its shard workers must not matter."""
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()  # free the port; nothing is listening now

    started = threading.Event()

    def late_server():
        time.sleep(0.4)
        server = ShardWorkerServer(port=port)
        started.server = server
        started.set()
        server.serve_forever()

    thread = threading.Thread(target=late_server, daemon=True)
    thread.start()
    transport = RemoteShardTransport(
        f"127.0.0.1:{port}", [0], PARAMS, connect_timeout=10.0
    )
    try:
        transport.connect()  # must survive the 0.4s window with no listener
    finally:
        transport.close()
        started.wait(timeout=5)
        started.server.stop()
        thread.join(timeout=5)


def test_connect_timeout_is_readable():
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    transport = RemoteShardTransport(
        f"127.0.0.1:{port}", [0], PARAMS, connect_timeout=0.3
    )
    with pytest.raises(TransportError, match="repro shard-worker"):
        transport.connect()


def test_protocol_version_mismatch_refused():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def stale_daemon():
        conn, _ = listener.accept()
        with conn:
            assert conn.recv(len(PROTOCOL_MAGIC)) == PROTOCOL_MAGIC
            recv_frame(conn)  # the init message
            send_frame(conn, {"ok": True, "protocol": 999})

    thread = threading.Thread(target=stale_daemon, daemon=True)
    thread.start()
    transport = RemoteShardTransport(f"127.0.0.1:{port}", [0], PARAMS)
    try:
        with pytest.raises(TransportError, match="protocol"):
            transport.connect()
    finally:
        transport.close()
        listener.close()
        thread.join(timeout=5)


def test_invalid_endpoint_rejected():
    for bad in ("nohost", ":123", "host:notaport"):
        with pytest.raises(PipelineError, match="endpoint"):
            RemoteShardTransport(bad, [0], PARAMS)


def test_make_pool_backend_endpoint_conflict():
    with pytest.raises(ConfigError, match="remote backend"):
        make_pool(4, 2, PARAMS, backend="thread", endpoints=["h:1"])
    with pytest.raises(ConfigError, match="endpoints"):
        make_pool(4, 2, PARAMS, backend="remote")


def test_remote_pool_extracts_parent_side():
    with worker_daemons(2) as endpoints:
        pool = make_pool(4, 2, PARAMS, endpoints=endpoints.split(","))
        try:
            assert pool.backend == "remote"
        finally:
            pool.close()
        session = open_session(make_config(), workers=endpoints)
        try:
            from repro.parallel import ShardedExtractStage

            assert isinstance(
                session.pipeline.stage("extract"), ShardedExtractStage
            )
        finally:
            session.close()


# ------------------------------------------------------ fault injection


def test_remote_worker_death_raises_readable_error():
    """kill -9 a real shard-worker daemon mid-session: the next quantum
    fails with a readable PipelineError (no hang), and the session still
    closes cleanly."""
    proc_a, endpoint_a = spawn_worker_process()
    proc_b, endpoint_b = spawn_worker_process()
    session = None
    try:
        session = open_session(
            make_config(), workers=f"{endpoint_a},{endpoint_b}", shard_count=4
        )
        stream = bursty_stream(17, 200)
        for message in stream[:100]:  # a few healthy quanta first
            session.ingest(message)
        proc_b.send_signal(signal.SIGKILL)
        proc_b.wait(timeout=10)
        with pytest.raises(PipelineError, match="shard worker"):
            for message in stream[100:]:
                session.ingest(message)
        session.close()  # must not raise after the failure
        session = None
    finally:
        if session is not None:
            session.close()
        for proc in (proc_a, proc_b):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


def test_forked_worker_death_raises_readable_error():
    """Same contract for the fork backend: a SIGKILLed worker process
    surfaces 'died during ... (between scatter and gather)'."""
    session = open_session(make_config(), workers=2, shard_count=4)
    try:
        stream = bursty_stream(19, 200)
        for message in stream[:100]:
            session.ingest(message)
        pool = session.pipeline.stage("akg_update").frontend.pool
        assert pool.backend == "process"
        for transport in pool.transports:
            for pid in list(transport._executor._processes):
                os.kill(pid, signal.SIGKILL)
        # surfaces at gather ("died during ...") or at the next scatter
        # ("is gone; cannot submit ...") depending on when the pool notices
        with pytest.raises(PipelineError, match="shard worker process"):
            for message in stream[100:]:
                session.ingest(message)
    finally:
        session.close()  # must not raise after the failure
