"""CI serve-smoke: drive a real `repro serve` process end to end.

Start the server as a subprocess, create a tenant, ingest a canned trace
through the stdlib client, assert subscriber events and /metrics sanity,
check the queue's byte count, a JSONL body holding a raw U+2028 and the
refusal of a chunked body sent over a raw socket, kill -9 the process,
restart it, and resume the tenant from its delta checkpoint; stop it
gracefully with half a quantum buffered, restart it again, and resume the
tenant with that buffer.  Exits non-zero on any
failed assertion.
"""
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
sys.path.insert(0, SRC)

from repro.serve import ServeClient
from repro.stream.sources import read_jsonl_trace

PORT = 8931
CONFIG = {"quantum_size": 80, "high_state_threshold": 3}
ENV = dict(os.environ, PYTHONPATH=SRC)


def start_server():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--state-dir", "serve-state"],
        env=ENV,
    )
    client = ServeClient(port=PORT)
    for _ in range(100):
        try:
            client.healthz()
            return proc, client
        except OSError:
            assert proc.poll() is None, "server process died during startup"
            time.sleep(0.1)
    raise AssertionError("server never became healthy")


messages = list(read_jsonl_trace("serve-trace.jsonl"))
half = len(messages) // 2
assert half % CONFIG["quantum_size"] == 0, "split must be a quantum boundary"

# Leg 1: create, subscribe, ingest the first half, then SIGKILL.
proc, client = start_server()
created = client.create_tenant("smoke", CONFIG)
assert created["tenant"] == "smoke" and not created["resumed"], created

ws = client.subscribe("smoke")
client.ingest("smoke", messages[:half], wait=True)

stats = client.stats("smoke")
assert stats["messages"] == half, stats["messages"]
assert stats["reports"] > 0, "canned trace produced no cluster reports"
quantum_before = stats["quantum"]
assert quantum_before == half // CONFIG["quantum_size"] - 1, quantum_before

events = []
ws.sock.settimeout(5.0)
try:
    while True:
        record = ws.recv_json()
        if record is None:
            break
        events.append(record)
except OSError:
    pass  # drained: no frame for 5s
assert events, "subscriber received no events"
assert all(e["quantum"] <= quantum_before for e in events), events[-1]
sent = client.stats("smoke")["fanout"]["subscribers"][0]
assert sent["sent"] == len(events) and sent["dropped"] == 0, sent

metrics = client.metrics()
assert metrics["tenants"]["smoke"]["messages"] == half, metrics
assert set(metrics) == {"uptime_s", "workers", "max_queue", "tenants"}, metrics
assert metrics["tenants"]["smoke"]["queued_bytes"] == 0, metrics

# A JSONL body may carry a raw U+2028 inside a string: JSON allows it, and
# U+2028 does not end a line of a body.
client.create_tenant("lsep", CONFIG, persist=False)
body = "\n".join(
    json.dumps({"u": f"u{i}", "t": f"quake\u2028alert {i}"}, ensure_ascii=False)
    for i in range(100)
).encode("utf-8")
assert "\u2028".encode("utf-8") in body
ack = client._request("POST", "/v1/lsep/ingest?wait=1", body)
assert ack["accepted"] == 100 and ack["shed"] == 0, ack
stats = client.stats("lsep")
assert stats["messages"] + stats["pending"] == 100, stats
assert stats["queued"] == 0 and stats["queued_bytes"] == 0, stats
client.close_tenant("lsep")

# The door reads bodies by Content-Length only: a chunked ingest is a 400
# naming the header, and nothing of it is accepted.
client.create_tenant("chunked", CONFIG, persist=False)
body = "\n".join(
    json.dumps({"u": f"u{i}", "k": ["a", "b"]}) for i in range(100)
)
with socket.create_connection(("127.0.0.1", PORT), timeout=10) as sock:
    sock.sendall(
        b"POST /v1/chunked/ingest HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body.encode("utf-8"))
    )
    reply = sock.makefile("rb").read()
head, _, payload = reply.partition(b"\r\n\r\n")
assert head.startswith(b"HTTP/1.1 400"), reply
assert "Transfer-Encoding" in json.loads(payload)["error"], payload
stats = client.stats("chunked")
assert stats["accepted"] == 0 and stats["messages"] == 0, stats
client.close_tenant("chunked")

proc.send_signal(signal.SIGKILL)
proc.wait(timeout=30)
print(f"-- leg 1 OK: {half} msgs, {len(events)} events delivered, SIGKILLed")

# Leg 2: restart, resume from the delta log, ingest all but half a quantum,
# then stop gracefully: the close seals the buffered partial quantum into
# the delta log.
tail = CONFIG["quantum_size"] // 2
sent = len(messages) - tail
proc, client = start_server()
resumed = client.create_tenant("smoke", resume=True)
assert resumed["resumed"] and resumed["quantum"] == quantum_before, resumed

client.ingest("smoke", messages[half:sent], wait=True)
stats = client.stats("smoke")
assert stats["messages"] + stats["pending"] == sent, stats
quantum_sealed = sent // CONFIG["quantum_size"] - 1
assert stats["quantum"] == quantum_sealed, stats

proc.send_signal(signal.SIGINT)
assert proc.wait(timeout=60) == 0, "graceful shutdown exited non-zero"
print(f"-- leg 2 OK: resumed at quantum {quantum_before}, ingested up to "
      f"message {sent}, graceful stop")

# Leg 3: restart and resume again: the tenant comes back with its partial
# quantum, from the one durable image a tenant keeps, and finishes the trace.
assert sorted(os.listdir("serve-state/smoke")) == ["delta"], \
    os.listdir("serve-state/smoke")
generation_file = re.compile(
    r"MANIFEST\.json|(base|deltas|window)-\d+\.(ckpt|log)"
)
stray = [
    name for name in os.listdir("serve-state/smoke/delta")
    if not generation_file.fullmatch(name)
]
assert not stray, f"a graceful stop left files beside the delta log: {stray}"
proc, client = start_server()
resumed = client.create_tenant("smoke", resume=True)
assert resumed["resumed"] and resumed["quantum"] == quantum_sealed, resumed
assert resumed["pending"] == sent % CONFIG["quantum_size"] == tail, resumed

client.ingest("smoke", messages[sent:], wait=True)
stats = client.stats("smoke")
assert stats["pending"] == len(messages) % CONFIG["quantum_size"], stats
assert stats["quantum"] == len(messages) // CONFIG["quantum_size"] - 1, stats

proc.send_signal(signal.SIGINT)
assert proc.wait(timeout=60) == 0, "graceful shutdown exited non-zero"
print(f"-- leg 3 OK: resumed at quantum {quantum_sealed} with {tail} "
      f"buffered messages, finished {len(messages)} msgs")
