"""Worker-count invariance of the keyword-range-sharded front-end.

The headline contract of :mod:`repro.parallel` (DESIGN.md Section 7): for
any ``workers`` / ``shard_count`` / backend, a sharded session emits
**bit-identical** ``QuantumReport``\\ s (including the AKG work counters),
sink notifications, event histories and checkpoints — identical to each
other *and* to the plain serial session, across the three stream regimes of
the AKG property tests.  Resume is execution-agnostic too: a mid-stream
snapshot taken under one worker count continues bit-identically under any
other.
"""

import random

import pytest

from repro.api import QueueSink, open_session
from repro.api.checkpoint import load_checkpoint
from repro.config import DetectorConfig
from repro.errors import ConfigError
from repro.stream.messages import Message

# ----------------------------------------------------------- stream regimes


def make_config(**overrides):
    base = dict(
        quantum_size=20,
        window_quanta=3,
        high_state_threshold=3,
        ec_threshold=0.2,
        node_grace_quanta=1,
        require_noun=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def bursty_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"k{i}" for i in range(6)]
    return [
        Message(
            f"u{rng.randrange(20)}",
            tokens=tuple(rng.sample(keywords, rng.randint(2, 4))),
        )
        for _ in range(n)
    ]


def uniform_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"w{i}" for i in range(40)]
    return [
        Message(
            f"u{rng.randrange(60)}",
            tokens=tuple(rng.sample(keywords, rng.randint(1, 3))),
        )
        for _ in range(n)
    ]


def reentry_stream(seed, n, config):
    rng = random.Random(seed)
    group_a = [f"a{i}" for i in range(4)]
    group_b = [f"b{i}" for i in range(4)]
    period = config.quantum_size * config.window_quanta
    return [
        Message(
            f"u{rng.randrange(15)}",
            tokens=tuple(
                rng.sample(
                    group_a if (i // period) % 2 == 0 else group_b,
                    rng.randint(2, 3),
                )
            ),
        )
        for i in range(n)
    ]


REGIMES = ["bursty", "uniform", "reentry"]


def regime_stream(regime, seed, n, config):
    if regime == "bursty":
        return bursty_stream(seed, n)
    if regime == "uniform":
        return uniform_stream(seed, n)
    return reentry_stream(seed, n, config)


# ------------------------------------------------------------- comparators


def report_key(report):
    stats = report.akg_stats
    return (
        report.quantum,
        report.messages_processed,
        sorted(
            (e.event_id, e.keywords, e.rank, e.support, e.size,
             e.num_edges, e.born_quantum)
            for e in report.reported
        ),
        sorted(
            (e.event_id, e.keywords, e.rank, e.support)
            for e in report.suppressed
        ),
        report.new_event_ids,
        report.dead_event_ids,
        report.changes,
        report.dirty_clusters,
        report.ranked_clusters,
        # the AKG work counters must not depend on the execution mode
        (stats.bursty_keywords, stats.nodes_added, stats.nodes_removed_stale,
         stats.nodes_removed_lazy, stats.edges_added, stats.edges_removed,
         stats.edges_refreshed, stats.node_weight_deltas,
         stats.candidate_pairs, stats.ec_computations,
         stats.removal_candidates, stats.akg_nodes, stats.akg_edges),
    )


def notification_key(event):
    return (
        event.kind,
        event.quantum,
        event.event_id,
        event.keywords,
        event.rank,
        event.size,
        event.previous_rank,
        event.previous_size,
    )


def history_key(record):
    return (
        record.event_id,
        record.born_quantum,
        record.died_quantum,
        record.absorbed_into,
        tuple(record.gaps),
        [
            (s.quantum, s.keywords, s.rank, s.support, s.num_edges)
            for s in record.snapshots
        ],
    )


def normalized_checkpoint(path):
    """Checkpoint state with the (wall-clock) timing floats zeroed."""
    state = load_checkpoint(path)
    state["total_seconds"] = 0.0
    state["timings"] = {key: 0.0 for key in state["timings"]}
    state["maintainer"]["clustering_seconds"] = 0.0
    return state


def run_session(stream, tmp_path, tag, **session_kwargs):
    session = open_session(make_config(), **session_kwargs)
    inbox = QueueSink()
    session.subscribe(inbox)
    reports = list(session.ingest_many(stream))
    path = tmp_path / f"{tag}.ckpt"
    session.snapshot(path)
    fingerprint = (
        [report_key(r) for r in reports],
        [notification_key(e) for e in inbox.drain()],
        sorted(history_key(r) for r in session.events()),
        normalized_checkpoint(path),
    )
    session.close()
    return fingerprint


# ------------------------------------------------------------------- tests


MODES = [
    ("serial-W1", dict(workers=1, shard_count=2)),
    ("thread-W2", dict(workers=2, worker_backend="thread")),
    ("process-W4", dict(workers=4)),
]


@pytest.mark.parametrize("regime", REGIMES)
def test_workers_1_2_4_bit_identical_to_serial(regime, tmp_path):
    """W in {1, 2, 4} (serial/thread/process backends) must all equal the
    plain unsharded session: reports, sink events, histories, checkpoints."""
    config = make_config()
    stream = regime_stream(regime, 11, 700, config)
    reference = run_session(stream, tmp_path, "reference")
    for tag, kwargs in MODES:
        fingerprint = run_session(stream, tmp_path, tag, **kwargs)
        for part, name in zip(
            fingerprint,
            ("reports", "notifications", "histories", "checkpoint"),
        ):
            assert part == reference[
                ("reports", "notifications", "histories", "checkpoint").index(
                    name
                )
            ], f"{name} diverged from serial under {tag} ({regime})"


def test_shard_count_invariance(tmp_path):
    """Results are independent of the partition granularity too."""
    stream = bursty_stream(3, 500)
    reference = run_session(stream, tmp_path, "s1", shard_count=1)
    for shards in (3, 5, 8):
        fingerprint = run_session(
            stream, tmp_path, f"s{shards}", shard_count=shards
        )
        assert fingerprint == reference, f"diverged at shard_count={shards}"


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("resume_workers", [1, 2])
def test_resume_under_changed_worker_count(regime, resume_workers, tmp_path):
    """Snapshot mid-stream (mid-quantum!) under W=4, resume under another W:
    the stitched run must equal an uninterrupted serial session."""
    config = make_config()
    stream = regime_stream(regime, 23, 700, config)
    split = 333  # not a quantum boundary: the buffer crosses the checkpoint

    reference = open_session(make_config())
    ref_inbox = QueueSink()
    reference.subscribe(ref_inbox)
    ref_reports = list(reference.ingest_many(stream))
    ref_path = tmp_path / "uninterrupted.ckpt"
    reference.snapshot(ref_path)

    first = open_session(make_config(), workers=4, worker_backend="thread")
    inbox_a = QueueSink()
    first.subscribe(inbox_a)
    reports = [r for m in stream[:split] if (r := first.ingest(m))]
    mid_path = tmp_path / "mid.ckpt"
    first.snapshot(mid_path)
    first.close()

    resumed = open_session(
        resume=mid_path,
        workers=resume_workers,
        worker_backend="thread" if resume_workers > 1 else None,
    )
    inbox_b = QueueSink()
    resumed.subscribe(inbox_b)
    reports += [r for m in stream[split:] if (r := resumed.ingest(m))]
    final_path = tmp_path / "final.ckpt"
    resumed.snapshot(final_path)

    assert [report_key(r) for r in reports] == [
        report_key(r) for r in ref_reports
    ]
    # Sink events across the stitch (minus the re-subscribe boundary noise):
    # notifications after the resume must match the reference tail.
    ref_notes = [notification_key(e) for e in ref_inbox.drain()]
    notes = [notification_key(e) for e in inbox_a.drain()] + [
        notification_key(e) for e in inbox_b.drain()
    ]
    assert notes == ref_notes
    assert sorted(history_key(r) for r in resumed.events()) == sorted(
        history_key(r) for r in reference.events()
    )
    assert normalized_checkpoint(final_path) == normalized_checkpoint(ref_path)
    resumed.close()


def test_checkpoint_bytes_identical_across_workers(tmp_path):
    """The strongest form: raw checkpoint files differ at most in timing
    floats — and not at all once a fixed stream prefix is snapshotted
    before any wall time accumulates... so compare the normalized states
    byte-for-byte via their JSON-decoded trees."""
    stream = uniform_stream(9, 400)
    states = []
    for tag, kwargs in [("a", {}), ("b", dict(workers=2, worker_backend="thread")),
                        ("c", dict(workers=4, shard_count=6))]:
        session = open_session(make_config(), **kwargs)
        list(session.ingest_many(stream))
        path = tmp_path / f"{tag}.ckpt"
        session.snapshot(path)
        states.append(normalized_checkpoint(path))
        session.close()
    assert states[0] == states[1] == states[2]


def test_oracle_akg_refuses_sharding():
    with pytest.raises(ConfigError):
        open_session(make_config(), workers=2, oracle_akg=True)
    with pytest.raises(ConfigError):
        make_config(oracle_akg=True, workers=2)


def test_custom_tokenizer_rides_the_sharded_extract_stage():
    """Extraction stays in the parent, so a custom tokenizer (a
    non-reconstructible extractor) never has to reach a worker: it runs
    the same sharded stages as a registered one."""
    def tokenizer(text):
        return text.split()

    session = open_session(
        make_config(),
        workers=2,
        worker_backend="thread",
        tokenizer=tokenizer,
    )
    try:
        assert session.pipeline.names()[:2] == ["extract", "akg_update"]
        from repro.parallel import ShardedAkgUpdateStage, ShardedExtractStage

        assert isinstance(
            session.pipeline.stage("extract"), ShardedExtractStage
        )
        assert isinstance(
            session.pipeline.stage("akg_update"), ShardedAkgUpdateStage
        )
        report = None
        for message in (
            Message("u1", text="alpha beta gamma"),
            *[
                Message(f"u{i}", text="alpha beta gamma")
                for i in range(2, 21)
            ],
        ):
            report = session.ingest(message) or report
        assert report is not None
    finally:
        session.close()
