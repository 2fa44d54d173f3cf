"""Serving-layer quickstart: two tenants, live fan-out, resume.

``repro.serve`` turns the library into a long-running service: one process
multiplexes many named detector sessions ("tenants") over a shared worker
pool, fans lifecycle events out to WebSocket subscribers, and seals every
tenant's delta log on shutdown.  This example runs the whole loop in-process
via ``ServerThread``, which runs on a daemon thread the same server loop
(``serve_forever``) that `python -m repro serve` runs:

1. start a server, create two tenants with different configs,
2. subscribe to one tenant's ``EMERGING`` events over a real WebSocket,
3. ingest two interleaved feeds and watch the events arrive,
4. stop gracefully (every tenant seals its delta log), restart, resume a
   tenant.

Run:  python examples/serve_quickstart.py
"""

import random
import tempfile
from pathlib import Path

from repro.serve import ServeClient, ServerThread
from repro.stream.messages import Message

NEWS_CONFIG = {"quantum_size": 80, "high_state_threshold": 3}
FIREHOSE_CONFIG = {"quantum_size": 160, "high_state_threshold": 3}
FEED_MESSAGES = 8_000


def synthetic_feed(seed: int, n: int = FEED_MESSAGES) -> list:
    """Bursty chatter over a compact topic vocabulary: every few hundred
    messages the crowd pivots to a different topic pair, so clusters keep
    emerging, growing and dying for the subscriber to see."""
    rng = random.Random(seed)
    topics = [
        ("quake", "epicenter", "aftershock"),
        ("fixture", "keeper", "stoppage"),
        ("ballot", "precinct", "turnout"),
        ("outage", "grid", "restore"),
    ]
    feed = []
    for i in range(n):
        if i % 400 == 0:
            hot = rng.sample(topics, 2)
        topic = hot[i % 2]
        tokens = rng.sample(topic, rng.randint(2, 3))
        feed.append(Message(f"u{rng.randrange(50)}", tokens=tuple(tokens)))
    return feed


def event_line(record: dict) -> str:
    keywords = ", ".join(record["keywords"][:5])
    return (
        f"q{record['quantum']:<4} {record['kind'].upper():<12} "
        f"event #{record['event_id']} rank={record['rank']:7.1f}  [{keywords}]"
    )


def main() -> None:
    print("generating workloads ...")
    news = synthetic_feed(seed=3)
    firehose = synthetic_feed(seed=8)

    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "serve-state"

        # --- a server, two tenants, one subscriber ------------------------
        server = ServerThread(state_dir=state_dir, workers=2)
        port = server.start()
        client = ServeClient(port=port)
        print(f"server up on 127.0.0.1:{port}")

        client.create_tenant("newsroom", NEWS_CONFIG)
        client.create_tenant("firehose", FIREHOSE_CONFIG)
        print(f"tenants: {', '.join(sorted(client.tenants()))}")

        with client.subscribe("newsroom", kinds="emerging") as ws:
            # Interleave the two feeds: tenants share the worker pool but
            # never share state — each keeps its own config and quantum clock.
            for lo in range(0, FEED_MESSAGES, 2_000):
                client.ingest("newsroom", news[lo:lo + 2_000])
                client.ingest("firehose", firehose[lo:lo + 2_000])
            client.ingest("newsroom", [], wait=True)
            client.ingest("firehose", [], wait=True)

            stats = {name: client.stats(name) for name in ("newsroom", "firehose")}
            for name, s in sorted(stats.items()):
                print(
                    f"  {name:<9} quantum {s['quantum']:>3}  "
                    f"{s['messages']} msgs  {s['reports']} reports  "
                    f"{s['throughput']:,.0f} msg/s in-detector"
                )

            expected = stats["newsroom"]["fanout"]["subscribers"][0]["sent"]
            events = [ws.recv_json() for _ in range(expected)]
        print("\nfirst EMERGING events pushed to the newsroom subscriber:")
        for record in events[:5]:
            print("  " + event_line(record))

        quantum_before = stats["newsroom"]["quantum"]
        server.stop(graceful=True)  # drains queues, seals every delta log
        print(f"\nserver stopped; {state_dir.name}/newsroom holds its log")

        # --- a fresh process resumes the tenant ---------------------------
        server = ServerThread(state_dir=state_dir, workers=2)
        client = ServeClient(port=server.start())
        resumed = client.create_tenant("newsroom", resume=True)
        print(
            f"resumed 'newsroom' at quantum {resumed['quantum']} "
            f"(= {quantum_before} before the stop)"
        )
        assert resumed["quantum"] == quantum_before, "resume diverged!"
        server.stop(graceful=True)
        print("done: the service picked up exactly where it left off")


if __name__ == "__main__":
    main()
