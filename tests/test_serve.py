"""The serving layer: wire codec, tenancy, fan-out, shedding, durability.

The anchor property (ISSUE acceptance): a tenant served over HTTP +
WebSocket produces **bit-identical** results to a library-only run of the
same stream — same lifecycle events on the wire (exact floats, via JSON
shortest-roundtrip), same checkpoint fingerprint.  Around it: multi-tenant
isolation, slow-consumer backpressure (drop-oldest then disconnect),
load-shed accounting under a burst, and crash-restart of a tenant from its
delta log through the server.
"""

import io
import json
import random
import socket
import time

import pytest

from golden import (
    bursty_stream,
    fingerprint,
    normalized_checkpoint_state,
    note_record,
    reentry_stream,
)
from repro.api import EventKind, QueueSink, open_session
from repro.config import DetectorConfig
from repro.errors import ServeError
from repro.serve import ServeClient, ServerThread, WebSocketClient
from repro.serve import wire
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

    def test_metrics_exposes_tenants_and_baselines(self, server):
        client = ServeClient(port=server.port)
        client.create_tenant("m1", CONFIG)
        metrics = client.metrics()
        assert "m1" in metrics["tenants"]
        assert metrics["workers"] == 2
        # The committed bench baselines ride along on /metrics.
        assert isinstance(metrics["baselines"], dict)
        tenant = metrics["tenants"]["m1"]
        assert set(tenant) >= {
            "quantum", "queued", "shed", "accepted", "timings", "fanout",
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
        """2 tenants x 30 subscribers, every one sees the full sequence.

        (The 2 x 100 scale point is benchmarks/bench_serve_fanout.py,
        which asserts the same invariant at fan-out 100.)
        """
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
    def test_burst_past_queue_bound_is_shed_and_counted(self, tmp_path):
        thread = ServerThread(workers=1, max_queue=50)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            client.create_tenant("burst", CONFIG)
            pairs = bursty_stream(3, 500)
            result = client.ingest("burst", materialize(pairs))
            # The enqueue is atomic on the event loop: an empty queue takes
            # exactly max_queue messages, the rest is shed — never an OOM.
            assert result["accepted"] == 50
            assert result["shed"] == 450
            client.ingest("burst", [], wait=True)
            stats = client.stats("burst")
            assert stats["accepted"] == 50
            assert stats["shed"] == 450
            assert stats["messages"] == 48  # two full quanta of 24
            assert stats["pending"] == 2
            # Adaptive quantum sizing: the backlog was drained in batches
            # larger than one quantum.
            assert stats["batch_hwm"] > CONFIG["quantum_size"]
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

    def test_slow_consumer_drops_oldest_then_disconnects(self, tmp_path):
        thread = ServerThread(
            workers=1,
            stall_deadline=0.5,
            ws_write_limit=0,
            ws_sndbuf=2048,
        )
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
        thread.stop(graceful=True)  # drains + snapshots final.ckpt

        thread = ServerThread(state_dir=state, workers=1)
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            resumed = client.create_tenant("partial", resume=True)
            assert resumed["pending"] == 10
            ckpt = tmp_path / "served.ckpt"
            client.checkpoint("partial", ckpt)
            assert fingerprint(
                normalized_checkpoint_state(ckpt)
            ) == fingerprint(normalized_checkpoint_state(expected_ckpt))
        finally:
            thread.stop(graceful=True)
