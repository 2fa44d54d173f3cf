"""The serving layer: wire codec, tenancy, fan-out, shedding, durability.

The anchor property (ISSUE acceptance): a tenant served over HTTP +
WebSocket produces **bit-identical** results to a library-only run of the
same stream — same lifecycle events on the wire (exact floats, via JSON
shortest-roundtrip), same checkpoint fingerprint.  Around it: multi-tenant
isolation, slow-consumer backpressure (drop-oldest then disconnect),
load-shed accounting under a burst, and crash-restart of a tenant from its
delta log through the server.  The ingest queue holds checked wire frames:
its counters stay in messages, a frame cut at the bound keeps only its
accepted prefix, and a queued message costs about its wire bytes.
"""

import asyncio
import gc
import io
import json
import random
import socket
import time
import tracemalloc

import pytest

from golden import (
    bursty_stream,
    fingerprint,
    normalized_checkpoint_state,
    note_record,
    reentry_stream,
)
from repro.api import EventKind, QueueSink, open_session
from repro.api.deltalog import read_manifest
from repro.config import DetectorConfig
from repro.errors import ServeError
from repro.serve import ServeClient, ServerThread, WebSocketClient
from repro.serve import hub as hub_module
from repro.serve import manager as manager_module
from repro.serve import wire
from repro.serve.manager import SessionManager
from repro.serve.server import parse_ingest_body
from repro.stream.messages import Message

CONFIG = {
    "quantum_size": 24,
    "window_quanta": 5,
    "high_state_threshold": 2,
    "ec_threshold": 0.1,
    "use_minhash_filter": False,
}


def materialize(pairs):
    return [Message(u, tokens=t) for u, t in pairs]


def library_run(pairs, ckpt_path, config=CONFIG, **subscribe_kwargs):
    """The ground truth: same stream, straight through the library."""
    session = open_session(DetectorConfig.from_dict(config))
    inbox = QueueSink()
    session.subscribe(inbox, **subscribe_kwargs)
    for _ in session.ingest_many(materialize(pairs)):
        pass
    session.snapshot(ckpt_path)
    notes = [note_record(e) for e in inbox.drain()]
    session.close()
    return notes


def ws_note(record):
    """A wire event record reshaped into golden.note_record form."""
    return [
        record["kind"],
        record["quantum"],
        record["event_id"],
        record["keywords"],
        record["rank"],
        record["size"],
        record["previous_rank"],
        record["previous_size"],
    ]


def collect_events(ws, count, timeout=30.0):
    """Read exactly ``count`` event records from a subscriber socket."""
    ws.sock.settimeout(timeout)
    out = []
    while len(out) < count:
        record = ws.recv_json()
        if record is None:
            break
        out.append(record)
    return out


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(state_dir=tmp_path / "state", workers=2)
    thread.start()
    yield thread
    thread.stop(graceful=True)


class TestWire:
    def test_accept_key_matches_rfc6455_example(self):
        # The worked example from RFC 6455 Section 1.3.
        assert (
            wire.websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536, 70_000])
    def test_frame_round_trip_across_length_encodings(self, size):
        payload = bytes(i % 251 for i in range(size))
        for mask in (False, True):
            frame = wire.encode_frame(wire.OP_TEXT, payload, mask=mask)
            opcode, decoded = wire.read_frame_blocking(io.BytesIO(frame))
            assert opcode == wire.OP_TEXT
            assert decoded == payload

    @pytest.mark.parametrize(
        "size", [*range(10), 125, 126, 65_535, 65_536, 1 << 20]
    )
    def test_mask_equals_the_per_byte_definition(self, size):
        """RFC 6455 Section 5.3: octet i of the payload XOR key[i mod 4]."""
        rng = random.Random(size)
        payload, key = rng.randbytes(size), rng.randbytes(4)
        masked = wire._xor_mask(payload, key)
        assert masked == bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        assert wire._xor_mask(masked, key) == payload

    def test_rfc6455_masked_hello_example(self):
        # Section 5.7: a single-frame masked text message, "Hello".
        frame = bytes.fromhex("818537fa213d7f9f4d5158")
        assert wire._xor_mask(b"Hello", frame[2:6]) == frame[6:]
        assert wire.read_frame_blocking(io.BytesIO(frame)) == (
            wire.OP_TEXT, b"Hello"
        )

    def test_fragmented_frame_rejected(self):
        frame = bytearray(wire.encode_frame(wire.OP_TEXT, b"hi"))
        frame[0] &= 0x7F  # clear FIN
        with pytest.raises(ServeError, match="fragmented"):
            wire.read_frame_blocking(io.BytesIO(frame))

    def test_http_response_shape(self):
        raw = wire.http_response(404, {"error": "nope"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "nope"}


class TestTenantLifecycle:
    def test_health_create_stats_close(self, server):
        client = ServeClient(port=server.port)
        assert client.healthz()["ok"] is True
        created = client.create_tenant("t1", CONFIG)
        assert created["tenant"] == "t1" and created["quantum"] == -1
        assert client.tenants() == ["t1"]
        stats = client.stats("t1")
        assert stats["quantum"] == -1 and stats["accepted"] == 0
        summary = client.close_tenant("t1")
        assert summary["closed"] is True
        assert client.tenants() == []

    def test_unknown_tenant_is_404(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError, match="404"):
            client.stats("ghost")

    def test_duplicate_tenant_is_409(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("dup", CONFIG)
        with pytest.raises(ServeError, match="409"):
            client.create_tenant("dup", CONFIG)

    def test_bad_config_is_400(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError, match="400"):
            client.create_tenant("bad", {"no_such_field": 1})

    def test_execution_fields_in_config_are_400(self, server):
        """A tenant config cannot choose how the server executes: the
        removed ``workers``/``shard_count`` fields, the referee modes
        ``oracle_akg``/``oracle_ranking`` and the CKG counters
        ``track_ckg_stats`` are refused by name, as any unknown field is,
        and nothing is forked or dialled."""
        import multiprocessing

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(0.2)
        endpoint = "127.0.0.1:%d" % listener.getsockname()[1]
        client = ServeClient(port=server.port)
        try:
            for extra, named in (
                ({"workers": 2}, "workers"),
                ({"shard_count": 4}, "shard_count"),
                ({"workers": endpoint, "shard_count": 2},
                 "shard_count, workers"),
                ({"oracle_akg": True}, "oracle_akg"),
                ({"oracle_ranking": True}, "oracle_ranking"),
                ({"track_ckg_stats": True}, "track_ckg_stats"),
            ):
                with pytest.raises(
                    ServeError, match=f"400.*unknown config fields: {named}$"
                ):
                    client.create_tenant("exec", {**CONFIG, **extra})
            assert client.tenants() == []
            assert multiprocessing.active_children() == []
            with pytest.raises(socket.timeout):
                listener.accept()
        finally:
            listener.close()

    def test_bad_tenant_name_rejected(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError, match="400"):
            client.create_tenant("-leading-dash", CONFIG)
        # Path traversal never reaches the filesystem: ".." routes as a
        # (nonexistent) tenant name, not into the state directory.
        with pytest.raises(ServeError, match="404"):
            client.create_tenant("../escape", CONFIG)

    def test_bad_event_kind_refuses_upgrade(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("k", CONFIG)
        with pytest.raises(ServeError, match="unknown event kind"):
            client.subscribe("k", kinds="sideways")

    def test_metrics_exposes_tenants_not_baselines(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("m1", CONFIG)
        metrics = client.metrics()
        assert "m1" in metrics["tenants"]
        assert metrics["workers"] == 2
        # /metrics reports the running server, never committed bench files.
        assert set(metrics) == {"uptime_s", "workers", "max_queue", "tenants"}
        tenant = metrics["tenants"]["m1"]
        assert set(tenant) >= {
            "quantum", "queued", "queued_bytes", "shed", "accepted",
            "timings", "fanout",
        }
        # The sub-spans of akg_update ride along on the stage timings.
        assert set(tenant["timings"]) == {
            "extract", "akg_update", "maintain", "propagate", "rank",
            "report", "slide", "sketch", "pairing", "correlate",
        }


class TestMultiTenantGoldenParity:
    """Two tenants, different streams: each bit-identical to its own
    library run — served results are the library results, and tenants
    never bleed into each other."""

    def test_two_tenants_isolated_and_bit_identical(self, server, tmp_path):
        client = ServeClient(port=server.port)
        streams = {
            "alpha": bursty_stream(11, 480),
            "beta": reentry_stream(23, 480, period=96),
        }
        expected = {
            name: library_run(pairs, tmp_path / f"{name}.lib.ckpt")
            for name, pairs in streams.items()
        }
        subscribers = {}
        for name, pairs in streams.items():
            client.create_tenant(name, CONFIG)
            subscribers[name] = client.subscribe(name)
        # Interleave the ingest so the tenants genuinely share the worker
        # budget while running.
        for lo in range(0, 480, 120):
            for name, pairs in streams.items():
                client.ingest(name, materialize(pairs[lo:lo + 120]))
        for name in streams:
            client.ingest(name, [], wait=True)

        for name in streams:
            got = collect_events(subscribers[name], len(expected[name]))
            assert [ws_note(r) for r in got] == expected[name], name
            subscribers[name].close()
        # Checkpoint parity: the served tenant's graceful-close snapshot
        # fingerprints identically to the library session's.
        for name in streams:
            summary = client.close_tenant(name)
            assert summary["checkpoint"] is not None
            assert fingerprint(
                normalized_checkpoint_state(summary["checkpoint"])
            ) == fingerprint(
                normalized_checkpoint_state(tmp_path / f"{name}.lib.ckpt")
            ), name

    def test_kinds_and_top_k_filters_match_library(self, server, tmp_path):
        client = ServeClient(port=server.port)
        pairs = bursty_stream(31, 360)
        expected = library_run(
            pairs, tmp_path / "lib.ckpt",
            kinds=frozenset({EventKind.EMERGING}), top_k=2,
        )
        client.create_tenant("filt", CONFIG)
        ws = client.subscribe("filt", kinds="emerging", top_k=2)
        client.ingest("filt", materialize(pairs), wait=True)
        got = collect_events(ws, len(expected))
        assert [ws_note(r) for r in got] == expected
        ws.close()

    def test_many_subscribers_zero_loss_for_keep_up_consumers(
        self, server, tmp_path
    ):
        """2 tenants x 30 subscribers, every one sees the full sequence."""
        client = ServeClient(port=server.port)
        pairs = bursty_stream(47, 360)
        expected = library_run(pairs, tmp_path / "lib.ckpt")
        assert expected, "stream must produce events for this test to bite"
        fans = {}
        for name in ("fan-a", "fan-b"):
            client.create_tenant(name, CONFIG)
            fans[name] = [client.subscribe(name) for _ in range(30)]
        for name in fans:
            client.ingest(name, materialize(pairs), wait=True)
        for name, subs in fans.items():
            for ws in subs:
                got = collect_events(ws, len(expected))
                assert [ws_note(r) for r in got] == expected
                ws.close()
            stats = client.stats(name)
            assert stats["fanout"]["total_dropped"] == 0


class TestWebSocketIngest:
    def test_stream_endpoint_acks_and_feeds_the_session(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("wsin", CONFIG)
        pairs = bursty_stream(5, 96)
        with client.stream("wsin") as ws:
            ws.send_messages(materialize(pairs[:48]))
            ack = ws.recv_json()
            assert ack["accepted"] == 48 and ack["shed"] == 0
            ws.send_messages(materialize(pairs[48:]))
            ack = ws.recv_json()
            assert ack["accepted"] == 48
        client.ingest("wsin", [], wait=True)
        stats = client.stats("wsin")
        assert stats["accepted"] == 96
        assert stats["quantum"] == 96 // CONFIG["quantum_size"] - 1


class TestLoadShedding:
    def test_burst_past_queue_bound_is_shed_and_counted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(manager_module, "MAX_QUEUE", 50)
        thread = ServerThread(workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            client.create_tenant("burst", CONFIG)
            pairs = bursty_stream(3, 500)
            result = client.ingest("burst", materialize(pairs))
            # The enqueue is atomic on the event loop: an empty queue takes
            # exactly MAX_QUEUE messages, the rest is shed — never an OOM.
            assert result["accepted"] == 50
            assert result["shed"] == 450
            client.ingest("burst", [], wait=True)
            stats = client.stats("burst")
            assert stats["accepted"] == 50
            assert stats["shed"] == 450
            assert stats["messages"] == 48  # two full quanta of 24
            assert stats["pending"] == 2
            # The accepted prefix is one queued frame, drained in one hop
            # larger than a quantum.
            assert stats["batch_hwm"] == 50
        finally:
            thread.stop(graceful=True)

    def test_closed_tenant_refuses_ingest(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("gone", CONFIG)
        client.close_tenant("gone")
        with pytest.raises(ServeError, match="404"):
            client.ingest("gone", materialize(bursty_stream(1, 10)))


class TestSlowConsumer:
    def _raw_subscriber(self, port, tenant, buffer, rcvbuf):
        """A subscriber socket with a tiny kernel receive buffer, so a
        non-reading consumer exerts real backpressure quickly."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.connect(("127.0.0.1", port))
        import base64, os

        key = base64.b64encode(os.urandom(16)).decode("ascii")
        sock.sendall(
            (
                f"GET /v1/{tenant}/events?buffer={buffer} HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        rfile = sock.makefile("rb")
        status = rfile.readline()
        assert b"101" in status
        while rfile.readline().strip():
            pass
        return sock, rfile

    def test_slow_consumer_drops_oldest_then_disconnects(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(hub_module, "STALL_DEADLINE_S", 0.5)
        real_pump = hub_module.FanoutHub.pump

        async def pump_on_small_buffers(hub, subscriber, writer):
            # Shrink the server side's transport write buffer and kernel
            # send buffer, so the stall surfaces at small event counts
            # instead of hiding behind megabytes of buffering.
            writer.transport.set_write_buffer_limits(high=0)
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 2048
            )
            return await real_pump(hub, subscriber, writer)

        monkeypatch.setattr(
            hub_module.FanoutHub, "pump", pump_on_small_buffers
        )
        thread = ServerThread(workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            client.create_tenant("slow", CONFIG)
            # One consumer that never reads (4-event buffer), one that
            # keeps up.
            stalled_sock, stalled_rfile = self._raw_subscriber(
                thread.port, "slow", buffer=4, rcvbuf=2048
            )
            # A churny stream: every quantum reshuffles cluster ranks, so
            # events keep flowing (~40 KB of frames) until the stalled
            # socket jams — well past the ~9 KB the kernel buffers absorb.
            pairs = bursty_stream(61, 9600)
            expected = library_run(pairs, tmp_path / "lib.ckpt")
            # The keep-up consumer drains concurrently on its own thread —
            # its pace, not the stalled one's, decides what it sees.
            keeper = client.subscribe("slow")
            kept = []

            import threading

            def drain_keeper():
                kept.extend(collect_events(keeper, len(expected)))

            reader = threading.Thread(target=drain_keeper, daemon=True)
            reader.start()
            # Fed five quanta per request: the stalled subscriber's pump
            # then runs between requests and writes every event to its
            # socket until the socket jams.  One big batch lets the
            # detector thread outrun the pump — most events are then
            # evicted from the 4-event buffer before they are ever
            # written, and whether enough bytes reach the socket to jam it
            # is down to thread scheduling.
            messages = materialize(pairs)
            step = 5 * CONFIG["quantum_size"]
            for start in range(0, len(messages), step):
                client.ingest(
                    "slow", messages[start : start + step], wait=True
                )
            deadline = time.monotonic() + 15
            closed = []
            while time.monotonic() < deadline:
                closed = client.stats("slow")["fanout"]["closed"]
                if closed:
                    break
                time.sleep(0.2)
            assert closed, "stalled subscriber was never disconnected"
            (summary,) = closed
            assert summary["reason"].startswith("stalled past")
            assert summary["dropped"] > 0  # oldest events were evicted
            stats = client.stats("slow")
            assert stats["fanout"]["total_dropped"] >= summary["dropped"]
            # The keep-up consumer is unaffected: it sees every event.
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert [ws_note(r) for r in kept] == expected
            live = client.stats("slow")["fanout"]["subscribers"]
            assert [s["dropped"] for s in live] == [0]
            keeper.close()
            stalled_rfile.close()
            stalled_sock.close()
        finally:
            thread.stop(graceful=True)


class TestCrashRestart:
    def test_tenant_resumes_from_delta_log_after_hard_kill(self, tmp_path):
        state = tmp_path / "state"
        pairs = bursty_stream(77, 480)
        half = 240  # a multiple of quantum_size: nothing buffered at kill
        expected_ckpt = tmp_path / "uninterrupted.ckpt"
        library_run(pairs, expected_ckpt)

        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        client = ServeClient(port=thread.port)
        client.create_tenant("crashy", CONFIG)
        client.ingest("crashy", materialize(pairs[:half]), wait=True)
        before = client.stats("crashy")
        assert before["pending"] == 0
        # kill -9 twin: no drain, no checkpoint, no session close — the
        # per-quantum delta log is all that survives.
        thread.stop(graceful=False)

        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            resumed = client.create_tenant("crashy", resume=True)
            assert resumed["quantum"] == before["quantum"]
            # A fresh create against surviving state is refused loudly.
            with pytest.raises(ServeError, match="409"):
                client.create_tenant("crashy", CONFIG)
            client.ingest("crashy", materialize(pairs[half:]), wait=True)
            summary = client.close_tenant("crashy")
            assert fingerprint(
                normalized_checkpoint_state(summary["checkpoint"])
            ) == fingerprint(normalized_checkpoint_state(expected_ckpt))
        finally:
            thread.stop(graceful=True)

    def test_graceful_close_preserves_partial_quantum(self, tmp_path):
        state = tmp_path / "state"
        pairs = bursty_stream(13, 250)  # 250 = 10 quanta of 24 + 10 pending
        expected_ckpt = tmp_path / "lib.ckpt"
        library_run(pairs, expected_ckpt)

        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        client = ServeClient(port=thread.port)
        client.create_tenant("partial", CONFIG)
        client.ingest("partial", materialize(pairs), wait=True)
        assert client.stats("partial")["pending"] == 10
        thread.stop(graceful=True)  # drains + seals the delta log
        tenant_dir = state / "partial"
        assert [p.name for p in tenant_dir.iterdir()] == ["delta"]
        assert not list(tenant_dir.rglob("final.ckpt"))
        sealed = read_manifest(tenant_dir / "delta")
        assert sealed["pending"] == 10 and sealed["base_quantum"] == 9

        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            resumed = client.create_tenant("partial", resume=True)
            assert resumed["pending"] == 10
            # resume attaches to the sealed generation: no roll
            assert read_manifest(tenant_dir / "delta") == sealed
            written = client.checkpoint("partial", "served.ckpt")
            ckpt = tenant_dir / "snapshots" / "served.ckpt"
            assert written["checkpoint"] == str(ckpt)
            assert fingerprint(
                normalized_checkpoint_state(ckpt)
            ) == fingerprint(normalized_checkpoint_state(expected_ckpt))
            closed = client.close_tenant("partial")
            assert closed["checkpoint"] == str(tenant_dir / "delta")
            sealed = read_manifest(tenant_dir / "delta")
            assert sealed["pending"] == 10

            # resumed again, the tenant appends to the sealed generation
            # and continues as the library run over the longer stream
            longer = bursty_stream(13, 300)  # 12 quanta of 24 + 12 pending
            assert longer[:250] == pairs
            library_run(longer, expected_ckpt)
            client.create_tenant("partial", resume=True)
            client.ingest("partial", materialize(longer[250:]), wait=True)
            assert read_manifest(tenant_dir / "delta") == sealed
            client.checkpoint("partial", "continued.ckpt")
            assert fingerprint(
                normalized_checkpoint_state(
                    tenant_dir / "snapshots" / "continued.ckpt"
                )
            ) == fingerprint(normalized_checkpoint_state(expected_ckpt))
        finally:
            thread.stop(graceful=True)
        assert read_manifest(tenant_dir / "delta")["pending"] == 12
        assert sorted(p.name for p in tenant_dir.iterdir()) == [
            "delta", "snapshots"
        ]


    def test_a_tenant_that_cannot_seal_does_not_stop_the_others(
        self, tmp_path
    ):
        """A writer broken by a failed append cannot seal; that tenant
        loses its partial quantum, as after a crash, and the shutdown still
        seals the next tenant."""
        state = tmp_path / "state"
        pairs = bursty_stream(13, 250)  # 10 quanta of 24 + 10 pending
        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        client = ServeClient(port=thread.port)
        for name in ("broken", "sound"):
            client.create_tenant(name, CONFIG)
            client.ingest(name, materialize(pairs), wait=True)
        manager = thread._server.manager
        manager.get("broken").session.delta_writer._broken = True
        thread.stop(graceful=True)
        assert read_manifest(state / "sound" / "delta")["pending"] == 10
        assert read_manifest(state / "broken" / "delta")["pending"] == 0
        resumed = open_session(resume=state / "broken" / "delta")
        assert resumed.current_quantum == 9
        assert resumed.batcher.pending == 0

    def test_a_tenant_whose_close_raises_does_not_stop_the_others(
        self, tmp_path
    ):
        """Any error from a tenant's close — here not a CheckpointError,
        which the seal handles itself — still lets the shutdown close the
        next tenant, and then reaches the caller of ``stop``."""
        state = tmp_path / "state"
        pairs = bursty_stream(13, 250)  # 10 quanta of 24 + 10 pending
        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        client = ServeClient(port=thread.port)
        for name in ("failing", "sound"):
            client.create_tenant(name, CONFIG)
            client.ingest(name, materialize(pairs), wait=True)
        manager = thread._server.manager
        failing, sound = manager.get("failing"), manager.get("sound")

        def close():
            raise RuntimeError("disk went away")

        failing.session.close = close
        with pytest.raises(ServeError, match="disk went away") as caught:
            thread.stop(graceful=True)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert sound.closed and sound.session.closed
        assert read_manifest(state / "sound" / "delta")["pending"] == 10
        assert manager.tenants == {}


class TestCheckpointRoute:
    """A client names a checkpoint file; the server picks the directory."""

    def test_paths_outside_the_snapshot_dir_are_refused(
        self, server, tmp_path, monkeypatch
    ):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)  # where a relative path would resolve
        client = ServeClient(port=server.port)
        client.create_tenant("t", CONFIG)
        for path in (tmp_path / "abs.ckpt", "../x"):
            with pytest.raises(ServeError, match="400"):
                client.checkpoint("t", path)
        assert not (tmp_path / "abs.ckpt").exists()
        assert not (tmp_path / "x").exists()
        assert not (tmp_path / "state" / "t" / "snapshots").exists()

    def test_no_state_dir_means_no_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        thread = ServerThread(workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            client.create_tenant("t", CONFIG)
            with pytest.raises(ServeError, match="400.*--state-dir"):
                client.checkpoint("t", "t.ckpt")
            assert list(tmp_path.iterdir()) == []
        finally:
            thread.stop(graceful=True)


class TestTenantFlags:
    """``resume`` and ``persist`` are JSON booleans: a string such as
    ``"false"`` is refused by name instead of being read as truthy."""

    def test_non_boolean_flags_are_400_naming_the_field(self, tmp_path):
        thread = ServerThread(workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            for field, value in (
                ("resume", "false"), ("resume", 1), ("resume", None),
                ("persist", "false"), ("persist", 0),
            ):
                with pytest.raises(ServeError, match=f'400.*"{field}"'):
                    client._request("PUT", "/v1/t", {field: value})
            assert client.tenants() == []
            client._request("PUT", "/v1/t", {"resume": False, "persist": None})
            client._request("PUT", "/v1/u", {"persist": False})
            assert client.tenants() == ["t", "u"]
        finally:
            thread.stop(graceful=True)

    def test_string_false_does_not_persist(self, server, tmp_path):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError, match='400.*"persist"'):
            client._request("PUT", "/v1/t", {"persist": "false"})
        assert client.tenants() == []
        assert not (tmp_path / "state" / "t").exists()


class TestIngestValidation:
    """A malformed record is refused at the door with a 400 naming its
    field, and nothing a batch raises kills the tenant's drainer."""

    BAD = (
        ({"u": "b", "k": [1, [2]]}, "'k'"),
        ({"u": "b", "k": "abc"}, "'k'"),
        ({"u": "b", "t": 5}, "'t'"),
        ({"u": True, "k": ["a"]}, "'u'"),
        ({"u": [1], "k": ["a"]}, "'u'"),
        ({"u": "b", "f": ["a"]}, "'f'"),
        ({"u": "b", "k": ["a"], "ts": "noon"}, "'ts'"),
    )

    def test_bad_records_are_400_and_the_tenant_keeps_draining(
        self, server
    ):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("v", CONFIG)
        for record, field in self.BAD:
            with pytest.raises(ServeError, match=f"400.*field {field}"):
                client._request(
                    "POST", "/v1/v/ingest?wait=1", [record]
                )
        pairs = bursty_stream(3, 48)
        client.ingest("v", materialize(pairs), wait=True)
        stats = client.stats("v")
        assert stats["accepted"] == 48 and stats["queued"] == 0
        assert stats["quantum"] == 1
        assert stats["errors"] == 0 and stats["last_error"] is None

    def test_bad_stream_frame_is_an_error_ack_naming_the_field(
        self, server
    ):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("w", CONFIG)
        with client.stream("w") as ws:
            ws.send_json([{"u": "b", "k": [1, [2]]}])
            assert "field 'k'" in ws.recv_json()["error"]
            ws.send_messages(materialize(bursty_stream(3, 24)))
            assert ws.recv_json()["accepted"] == 24
        client.ingest("w", [], wait=True)
        assert client.stats("w")["quantum"] == 0

    def test_any_exception_in_a_batch_is_counted_not_fatal(self, server):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("x", CONFIG)
        session = server._server.manager.get("x").session
        real = session.process_quantum
        calls = []

        def flaky(messages):
            calls.append(len(messages))
            if len(calls) == 1:
                raise RuntimeError("injected: not a ReproError")
            return real(messages)

        session.process_quantum = flaky
        client.ingest("x", materialize(bursty_stream(3, 24)), wait=True)
        stats = client.stats("x")
        assert stats["errors"] == 1 and stats["failed"] == 24
        assert stats["last_error"] == (
            "RuntimeError: injected: not a ReproError"
        )
        client.ingest("x", materialize(bursty_stream(4, 24)), wait=True)
        stats = client.stats("x")
        assert stats["queued"] == 0 and stats["quantum"] == 0
        assert stats["errors"] == 1


def frame_of(pairs):
    """One JSONL ingest frame of ``(user, tokens)`` pairs."""
    return "\n".join(
        json.dumps({"u": u, "k": list(t)}) for u, t in pairs
    ).encode("utf-8")


def with_tenant(body, *, config=CONFIG):
    """Run coroutine function ``body(tenant)`` against one in-process
    tenant.  The drainer runs only while ``body`` awaits, so what a test
    enqueues between two awaits is exactly what the queue holds."""
    loop = asyncio.new_event_loop()

    async def main():
        manager = SessionManager(loop, workers=1)
        try:
            return await body(await manager.create("t", config=config))
        finally:
            await manager.shutdown()

    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


class TestFrameQueue:
    """The queue holds checked frames; its counters stay in messages."""

    def test_frame_accepted_in_part_keeps_only_the_prefix(self, monkeypatch):
        monkeypatch.setattr(manager_module, "MAX_QUEUE", 30)
        pairs = bursty_stream(3, 40)
        body = frame_of(pairs)

        async def run(tenant):
            assert tenant.enqueue(frame_of(pairs[:25])) == {
                "accepted": 25, "shed": 0, "queued": 25,
            }
            assert tenant.enqueue(body) == {
                "accepted": 5, "shed": 35, "queued": 30,
            }
            assert tenant.enqueue(body) == {
                "accepted": 0, "shed": 40, "queued": 30,
            }
            kept, count = tenant._queue[-1]
            assert len(tenant._queue) == 2 and count == 5
            assert [(m.user_id, m.tokens) for m in parse_ingest_body(kept)] \
                == pairs[:5]
            assert len(kept) < len(frame_of(pairs[:6]))
            stats = tenant.stats()
            assert stats["queued_bytes"] == len(frame_of(pairs[:25])) + len(
                kept
            )
            await tenant.wait_idle()
            return tenant.stats()

        stats = with_tenant(run)
        assert (stats["accepted"], stats["shed"]) == (30, 75)
        assert stats["queued"] == stats["queued_bytes"] == 0
        assert stats["queue_hwm"] == 30 and stats["messages"] == 24

    def test_whole_frames_per_drainer_hop(self, tmp_path, monkeypatch):
        # A hop is at most two quanta (48 messages), and a hop takes whole
        # frames: two 30-message frames do not fit, so each hop takes one,
        # and the executor decodes each frame once.
        monkeypatch.setattr(manager_module, "MAX_BATCH_QUANTA", 2)
        pairs = bursty_stream(11, 480)
        expected = library_run(pairs, tmp_path / "lib.ckpt")
        assert expected
        decoded = []
        real_parse = manager_module.parse_ingest_body

        def counting_parse(body):
            decoded.append(body)
            return real_parse(body)

        monkeypatch.setattr(
            manager_module, "parse_ingest_body", counting_parse
        )

        async def run(tenant):
            inbox = QueueSink()
            tenant.session.subscribe(inbox)
            frames = [
                frame_of(pairs[lo:lo + 30]) for lo in range(0, len(pairs), 30)
            ]
            for frame in frames:
                tenant.enqueue(frame)
            assert tenant.stats()["queued_bytes"] == sum(map(len, frames))
            await tenant.wait_idle()
            tenant.session.snapshot(tmp_path / "served.ckpt")
            return frames, [note_record(e) for e in inbox.drain()], \
                tenant.stats()

        frames, notes, stats = with_tenant(run)
        assert decoded == frames
        assert notes == expected
        assert stats["batch_hwm"] == stats["batch_size"] == 30
        assert stats["messages"] == 480 and stats["queued_bytes"] == 0
        assert fingerprint(
            normalized_checkpoint_state(tmp_path / "served.ckpt")
        ) == fingerprint(normalized_checkpoint_state(tmp_path / "lib.ckpt"))

    def test_body_of_many_batches_is_decoded_a_bounded_number_of_times(
        self, tmp_path, monkeypatch
    ):
        """A body ten hops long (a hop is at most 48 messages) is queued as
        chunks of one hop: the door decodes the body once, the executor
        decodes each chunk once and builds each message once."""
        monkeypatch.setattr(manager_module, "MAX_BATCH_QUANTA", 2)
        pairs = bursty_stream(11, 480)
        expected = library_run(pairs, tmp_path / "lib.ckpt")
        decoded, built = [], []
        real_decode, real_build = wire._decode_frame, wire.message_from_record

        def counting_decode(body):
            records = real_decode(body)
            decoded.append(len(records))
            return records

        def counting_build(record):
            built.append(record)
            return real_build(record)

        monkeypatch.setattr(wire, "_decode_frame", counting_decode)
        monkeypatch.setattr(wire, "message_from_record", counting_build)

        async def run(tenant):
            inbox = QueueSink()
            tenant.session.subscribe(inbox)
            tenant.enqueue(frame_of(pairs))
            assert [count for _, count in tenant._queue] == [48] * 10
            assert tenant.stats()["queued_bytes"] == sum(
                len(frame) for frame, _ in tenant._queue
            )
            await tenant.wait_idle()
            tenant.session.snapshot(tmp_path / "served.ckpt")
            return [note_record(e) for e in inbox.drain()], tenant.stats()

        notes, stats = with_tenant(run)
        assert notes == expected
        assert decoded == [480] + [48] * 10 and sum(decoded) == 2 * 480
        assert len(built) == 480
        assert stats["batch_hwm"] == 48
        assert fingerprint(
            normalized_checkpoint_state(tmp_path / "served.ckpt")
        ) == fingerprint(normalized_checkpoint_state(tmp_path / "lib.ckpt"))

        async def prefix(tenant):
            assert tenant.enqueue(frame_of(pairs))["accepted"] == 100
            assert [count for _, count in tenant._queue] == [48, 48, 4]
            return [
                (m.user_id, m.tokens)
                for frame, _ in tenant._queue
                for m in parse_ingest_body(frame)
            ]

        monkeypatch.setattr(manager_module, "MAX_QUEUE", 100)
        assert with_tenant(prefix) == pairs[:100]

    def test_close_without_drain_sheds_the_queued_count(self):
        async def run(tenant):
            for seed in (1, 2, 3):
                tenant.enqueue(frame_of(bursty_stream(seed, 17)))
            summary = await tenant.close(drain=False)
            return summary, tenant.stats()

        summary, stats = with_tenant(run)
        assert summary["shed"] == 51
        assert stats["queued"] == stats["queued_bytes"] == 0
        assert stats["messages"] == 0 and stats["pending"] == 0

    def test_deferred_matches_the_per_message_rule(self, monkeypatch):
        """A message is deferred when it queues behind another one — the
        count a queue of single messages kept, replayed over a script of
        frames, empty frames, drains and the bound."""
        script = [5, 0, 3, "drain", 1, "drain", 4, 1, 9, "drain", 0, 12]
        max_queue = 16
        monkeypatch.setattr(manager_module, "MAX_QUEUE", max_queue)

        def reference():
            depth = deferred = shed = 0
            for step in script:
                if step == "drain":
                    depth = 0
                    continue
                for _ in range(step):
                    if depth >= max_queue:
                        shed += 1
                        continue
                    deferred += depth > 0
                    depth += 1
            return deferred, shed

        async def run(tenant):
            stream = iter(bursty_stream(5, 40))
            for step in script:
                if step == "drain":
                    await tenant.wait_idle()
                else:
                    tenant.enqueue(
                        frame_of([next(stream) for _ in range(step)])
                    )
            await tenant.wait_idle()
            return tenant.stats()

        stats = with_tenant(run)
        assert (stats["deferred"], stats["shed"]) == reference()
        assert stats["accepted"] + stats["shed"] == 35

    def test_poisoned_batch_counts_failed_in_messages(self):
        async def run(tenant):
            session = tenant.session
            real, calls = session.process_quantum, []

            def flaky(messages):
                calls.append(len(messages))
                if len(calls) == 1:
                    raise RuntimeError("injected")
                return real(messages)

            session.process_quantum = flaky
            for lo in range(0, 30, 10):
                tenant.enqueue(frame_of(bursty_stream(7, 30)[lo:lo + 10]))
            await tenant.wait_idle()
            return tenant.stats()

        stats = with_tenant(run)
        assert stats["errors"] == 1 and stats["failed"] == 30
        assert stats["queued"] == stats["queued_bytes"] == 0

    def test_queued_messages_cost_their_wire_bytes(self):
        """A queue of N ES-text messages retains at most 1.1x their wire
        bytes plus 1 kB (a queue of ``Message`` objects held ~4.5x)."""
        from repro.datasets.traces import build_es_trace

        trace = build_es_trace(total_messages=3000, seed=3)
        lines = [
            json.dumps({"u": m.user_id, "t": " ".join(m.tokens)})
            for m in trace.messages[:3000]
        ]

        async def run(tenant):
            tracemalloc.start()
            try:
                # A full collection empties the interpreter's free lists,
                # which would otherwise count the door's freed records.
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                payload = 0
                for lo in range(0, len(lines), 200):
                    frame = "\n".join(lines[lo:lo + 200]).encode("utf-8")
                    payload += len(frame)
                    tenant.enqueue(frame)
                    del frame
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert tenant.stats()["queued"] == len(lines)
            assert tenant.stats()["queued_bytes"] == payload
            await tenant.close(drain=False)
            return retained, payload

        retained, payload = with_tenant(run)
        assert retained <= 1.1 * payload + 1024, (retained, payload)


class TestIngestFraming:
    def test_jsonl_keeps_unicode_line_separators_inside_strings(self):
        texts = ["a\u2028b", "c\u0085d", "e\u2029f\x0cg\x1ch"]
        body = "\r\n".join(
            json.dumps({"u": "x", "t": t}, ensure_ascii=False) for t in texts
        ).encode("utf-8")
        assert [m.text for m in parse_ingest_body(body)] == texts
        assert [r["t"] for r in wire.ingest_records(body)] == texts

    def test_jsonl_line_breaks_outside_strings(self, server):
        """Every line break the door took before still ends a line (bare
        ``\r``, ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``; a line blank under
        :meth:`str.strip` is skipped).  U+0085, U+2028 and U+2029 may stand
        raw inside a JSON string, so they no longer end a line: two records
        joined by one are a 400."""
        lines = [
            json.dumps({"u": f"u{i}", "k": ["a", "b"]}) for i in range(8)
        ]
        body = "\r".join(lines[:3]) + "\x0c" + "\n\u2028\n".join(
            lines[3:5]) + "\x1e\x0b" + "\n\x85 \n".join(lines[5:]) + "\r"
        assert [m.user_id for m in parse_ingest_body(body.encode("utf-8"))] \
            == [f"u{i}" for i in range(8)]
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("lb", CONFIG)
        result = client._request(
            "POST", "/v1/lb/ingest?wait=1", body.encode("utf-8")
        )
        assert result["accepted"] == 8 and result["queued"] == 0
        for sep in ("\u2028", "\u2029", "\x85"):
            joined = sep.join(lines[:2]).encode("utf-8")
            with pytest.raises(ServeError, match="400.*not valid JSON"):
                client._request("POST", "/v1/lb/ingest", joined)
        assert client.stats("lb")["accepted"] == 8

    def test_raw_line_separator_in_jsonl_body_is_accepted(self, server):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("ls", CONFIG)
        body = "\n".join(
            json.dumps({"u": f"u{i}", "t": f"quake\u2028alert {i}"},
                       ensure_ascii=False)
            for i in range(30)
        ).encode("utf-8")
        result = client._request("POST", "/v1/ls/ingest?wait=1", body)
        assert result["accepted"] == 30 and result["queued"] == 0
        stats = client.stats("ls")
        assert stats["messages"] == 24 and stats["pending"] == 6
        assert stats["queued_bytes"] == 0 and stats["errors"] == 0

    def test_payload_less_record_is_400_naming_the_rule(self, server):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("np", CONFIG)
        for record in ({"u": "a"}, {"u": "a", "k": None}):
            with pytest.raises(ServeError, match="400.*no payload"):
                client._request("POST", "/v1/np/ingest?wait=1", [record])
        with client.stream("np") as ws:
            ws.send_json([{"u": "a", "k": ["x"]}, {"u": "b", "t": None}])
            assert "no payload" in ws.recv_json()["error"]
        client.ingest("np", materialize(bursty_stream(3, 48)), wait=True)
        stats = client.stats("np")
        assert stats["accepted"] == 48 and stats["quantum"] == 1
        assert stats["errors"] == 0 and stats["failed"] == 0

    def test_hostile_nesting_is_400_over_http(self, server):
        """A body nested deeper than the JSON decoder recurses is a 400
        naming the JSON, on ingest and on tenant creation alike."""
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("deep", CONFIG)
        for body in (b"[" * 100_000, b"{\"a\":" * 100_000):
            with pytest.raises(ServeError, match="400.*JSON"):
                client._request("POST", "/v1/deep/ingest?wait=1", body)
            with pytest.raises(ServeError, match="400.*JSON"):
                client._request("PUT", "/v1/deeper", body)
        assert client.tenants() == ["deep"]
        stats = client.stats("deep")
        assert stats["accepted"] == 0 and stats["errors"] == 0

    def test_hostile_nesting_on_the_stream_is_an_error_frame(self, server):
        """The same bytes as a stream text frame get an ``{"error": ...}``
        frame, and the stream keeps accepting records after it."""
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("deepws", CONFIG)
        with client.stream("deepws") as ws:
            ws.send_text("[" * 100_000)
            assert "JSON" in ws.recv_json()["error"]
            ws.send_json([{"u": "a", "k": ["x", "y"]}])
            assert ws.recv_json()["accepted"] == 1
        assert client.stats("deepws")["accepted"] == 1


def raw_exchange(port, request, timeout=10.0):
    """Send ``request`` bytes on a fresh socket; return the status line and
    the JSON payload of the reply."""
    address = ("127.0.0.1", port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        rfile = sock.makefile("rb")
        head, _, body = rfile.read().partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(body)


class TestHttpBodies:
    """The door reads a body by ``Content-Length`` alone: a chunked body is
    a 400 naming the header, never taken as empty, as are differing
    repeated lengths, and ``Expect: 100-continue`` is answered before the
    body is read."""

    def test_chunked_body_is_400_naming_the_header(self, server):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("te", CONFIG)
        records = frame_of(bursty_stream(3, 3000))
        config = json.dumps({"config": {**CONFIG, "quantum_size": 4}})
        for method, path, body in (
            ("POST", "/v1/te/ingest", records),
            ("PUT", "/v1/te2", config.encode("utf-8")),
        ):
            request = (
                f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                f"Transfer-Encoding: chunked\r\n\r\n"
            ).encode("latin-1") + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            status, reply = raw_exchange(server.port, request)
            assert status.startswith(b"HTTP/1.1 400"), (status, reply)
            assert "Transfer-Encoding 'chunked'" in reply["error"]
        assert client.tenants() == ["te"]
        assert client.stats("te")["accepted"] == 0

    def test_conflicting_content_lengths_are_400_naming_the_header(
        self, server
    ):
        """Two differing ``Content-Length`` values leave the body's end a
        guess: the request is refused, whichever value comes last."""
        client = ServeClient(port=server.port, timeout=10)
        body = json.dumps({"config": CONFIG}).encode("utf-8")
        for first, last in ((2, len(body)), (len(body), 2)):
            status, reply = raw_exchange(
                server.port,
                f"PUT /v1/dup HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {first}\r\nContent-Length: {last}\r\n\r\n"
                .encode("latin-1") + body,
            )
            assert status.startswith(b"HTTP/1.1 400"), (status, reply)
            assert "Content-Length" in reply["error"]
        assert client.tenants() == []
        # A repeated but equal value frames the body the one way it can.
        status, reply = raw_exchange(
            server.port,
            f"PUT /v1/dup HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nContent-Length: {len(body)}"
            f"\r\n\r\n".encode("latin-1") + body,
        )
        assert status.startswith(b"HTTP/1.1 200"), (status, reply)
        assert client.tenants() == ["dup"]

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        client = ServeClient(port=server.port, timeout=10)
        client.create_tenant("ex", CONFIG)
        body = frame_of(bursty_stream(3, 48))
        head = (
            f"POST /v1/ex/ingest?wait=1 HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode("latin-1")
        address = ("127.0.0.1", server.port)
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(head)
            rfile = sock.makefile("rb")
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(body)
            status, _, payload = rfile.read().partition(b"\r\n\r\n")
        assert status.startswith(b"HTTP/1.1 200")
        assert json.loads(payload)["accepted"] == 48
        assert client.stats("ex")["quantum"] == 1
        # A length the door refuses gets its 400 without a 100 first.
        status, reply = raw_exchange(
            server.port,
            b"POST /v1/ex/ingest HTTP/1.1\r\nContent-Length: 1000000000000"
            b"\r\nExpect: 100-continue\r\n\r\n",
        )
        assert status.startswith(b"HTTP/1.1 400")
        assert "Content-Length" in reply["error"]


class TestRefusedDeltaFormat:
    def test_v6_delta_directory_resume_is_400_naming_both_versions(
        self, tmp_path
    ):
        import shutil
        from pathlib import Path

        state = tmp_path / "state"
        shutil.copytree(
            Path(__file__).parent / "data" / "delta_v6",
            state / "old" / "delta",
        )
        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            with pytest.raises(
                ServeError,
                match="400.*delta-checkpoint version 6; this build reads "
                "version 9",
            ):
                client.create_tenant("old", resume=True)
            assert client.tenants() == []
        finally:
            thread.stop(graceful=True)
