"""The four workloads of the end-to-end benchmark.

Each ``run_*`` function generates its inputs from the seed, hands the
program only the generated messages, measures with tracing off, checks the
outputs against an in-process library run over the same messages, and —
when asked — replays the same inputs in-process under the timing proxies of
:mod:`e2e_tracing` for the per-layer numbers.

The benchmark passes the program the paper's semantic parameters and never
an execution setting, so it measures what a default deployment runs.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import math
import random
import shutil
import statistics
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import e2e_harness as harness
from e2e_harness import BenchError, Receiver, Server, guarded
from e2e_stats import (
    highest_supported_percentile,
    midmean,
    notify_latencies,
    percentile,
    percentile_supported,
    undisturbed_total,
)
from e2e_tracing import Tracer, instrument_session, waterfall

from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.traces import build_es_trace, build_tw_trace
from repro.eval import evaluate_run
from repro.serve import ServeClient
from repro.stream.messages import Message

#: Table 2 of the paper: what a default deployment is configured with.
TABLE2 = {
    "quantum_size": 160,
    "window_quanta": 30,
    "high_state_threshold": 4,
    "ec_threshold": 0.2,
    "node_grace_quanta": 1,
}
#: The large-quantum configuration every hot-path number in the repo uses.
HOTPATH = {
    "quantum_size": 3200,
    "window_quanta": 6,
    "high_state_threshold": 80,
    "ec_threshold": 0.2,
    "node_grace_quanta": 2,
}
#: The committed TW / ES presets (benchmarks/conftest.py): generator seed
#: and planted events per 1000 messages.
TW_PRESET = (build_tw_trace, 7, 0.5)
ES_PRESET = (build_es_trace, 11, 1.5)

#: The run length (``run_seconds`` of BENCHMARK.json) the workload sizes
#: below are given for; another ``--seconds`` scales them in proportion.
NOMINAL_SECONDS = 36.0
HOTPATH_QUANTA = 60

TENANT = "t"
PACED_FRAME = 16
FLOOD_FRAME = 1600
#: The flooder pauses above this queue depth; the server sheds at 100 000.
HIGH_WATER = 50_000
#: Events the subscriber lets the hub hold for it (``?buffer=``): more than
#: a run emits.  A flood batch of 64 quanta emits most of the default 1024
#: before the hub's sender task next runs, and on a loud host the oldest were
#: evicted about once in 60 runs; an evicted event never arrives.
SUBSCRIBER_BUFFER = 1 << 16
STAGES = ("extract", "akg_update", "maintain", "propagate", "rank", "report")

#: End-to-end metrics with a regression bound: name -> (unit, better).
#: Every run reports every one of them, so each is defined on every
#: workload (README, "End-to-end metrics").
END_TO_END = {
    "setup_s": ("s", "lower"),
    "msgs_per_s": ("msg/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}

#: Per-layer metrics: name -> (unit, better).  Layer = module name.
PER_LAYER = {
    **{f"pipeline.{s}.ms_per_quantum": ("ms", "lower") for s in STAGES},
    "akg.bursty_keywords_per_quantum": ("count", "lower"),
    "akg.candidate_pairs_per_quantum": ("count", "lower"),
    "akg.ec_computations_per_quantum": ("count", "lower"),
    "akg.ec_useful_ratio": ("ratio", "higher"),
    "akg.nodes_mean": ("count", "lower"),
    "akg.edges_mean": ("count", "lower"),
    "core.changes_per_quantum": ("count", "lower"),
    "core.dirty_clusters_per_quantum": ("count", "lower"),
    "core.rank_cache_hit_ratio": ("ratio", "higher"),
    "api.session.overhead_ms_per_quantum": ("ms", "lower"),
    "api.session.quantum_ms_p95": ("ms", "lower"),
    "api.sinks.events_per_quantum": ("count", "lower"),
    "api.deltalog.append_ms_p50": ("ms", "lower"),
    "api.deltalog.append_ms_max": ("ms", "lower"),
    "api.deltalog.bytes_per_quantum": ("bytes", "lower"),
    "api.deltalog.delta_ratio": ("ratio", "lower"),
    "api.deltalog.compactions": ("count", "lower"),
    "api.deltalog.append_share": ("ratio", "lower"),
    "api.deltalog.replay_ms": ("ms", "lower"),
    "api.deltalog.log_bytes": ("bytes", "lower"),
    "api.deltalog.records_replayed": ("count", "lower"),
    "api.session.restore_ms": ("ms", "lower"),
    "api.checkpoint.snapshot_ms": ("ms", "lower"),
    "api.checkpoint.snapshot_bytes": ("bytes", "lower"),
    "proc.startup_ms": ("ms", "lower"),
    "serve.wire.decode_us_per_msg": ("us", "lower"),
    "serve.wire.encode_us_per_event": ("us", "lower"),
    "serve.wire.ingest_bytes_per_msg": ("bytes", "lower"),
    "serve.wire.event_bytes_per_event": ("bytes", "lower"),
    "serve.manager.queue_hwm": ("count", "lower"),
    "serve.manager.batch_hwm": ("count", "lower"),
    "serve.manager.deferred_share": ("ratio", "lower"),
    "serve.manager.shed": ("count", "lower"),
    "serve.hub.dropped": ("count", "lower"),
    "serve.hub.events_delivered": ("count", "higher"),
    "serve.efficiency": ("ratio", "higher"),
    "serve.residual_us_per_msg": ("us", "lower"),
    "serve.residual_share": ("ratio", "lower"),
    "gen.late_ms_p99": ("ms", "lower"),
    "gen.late_ms_max": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    # Measured with tracing off like the end-to-end metrics, but not
    # definable, not non-zero or not steady enough on this host to carry a
    # regression bound (README, "Metrics without a bound").
    "e2e.notify_ms_mid": ("ms", "lower"),
    "e2e.notify_ms_p50": ("ms", "lower"),
    "e2e.notify_ms_p90": ("ms", "lower"),
    "e2e.notify_samples": ("count", "higher"),
    "e2e.recovery_s": ("s", "lower"),
    "e2e.late_quanta_share": ("ratio", "lower"),
    "e2e.failed_share": ("ratio", "lower"),
    "e2e.event_recall": ("ratio", "higher"),
}


# ------------------------------------------------------------------ shared


def resolve(module: str, name: str):
    """A probe target by public name, or None when it moved."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def note(item) -> list:
    """One comparable shape for a library event and a wire record."""
    if isinstance(item, dict):
        return [item["kind"], item["quantum"], item["event_id"],
                item["keywords"], item["rank"], item["size"]]
    return [item.kind.value, item.quantum, item.event_id,
            sorted(item.keywords), item.rank, item.size]


def mismatches(got: Sequence, want: Sequence) -> int:
    """Positions at which two sequences differ, missing tail included."""
    differing = sum(1 for a, b in zip(got, want) if a != b)
    return differing + abs(len(got) - len(want))


def ms(seconds: float) -> float:
    return seconds * 1000.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stream_length(body_quanta: int, quantum: int) -> tuple:
    """(warm-up quanta, total messages) for a stream whose measured part is
    ``body_quanta`` long.  The trace generators plant no event in the first
    5% of a trace; that lead-in is fed during set-up so the measured part
    starts where notifications do."""
    warm = math.ceil(body_quanta * 0.05 / 0.95)
    return warm, (warm + body_quanta) * quantum


def planted_trace(preset: tuple, total: int, seed: int):
    """A committed-preset trace, relabelled by ``seed``.

    The event script (which events, how strong, when) comes from the seed
    the repository's own benches use for this preset, so every ``--seed``
    measures the same amount of detector work; ``seed`` then renames every
    user and every keyword through a permutation of the trace's own names,
    so no message, frame or hash value repeats across seeds.  Ground truth
    and lexicon are renamed with it.  (README, "What the seed changes".)
    """
    builder, builder_seed, density = preset
    trace = builder(
        total_messages=total,
        n_events=max(3, round(total * density / 1000.0)),
        seed=builder_seed,
    )
    if len(trace.messages) < total:
        raise BenchError(
            f"trace generator returned {len(trace.messages)} messages, "
            f"{total} were asked for"
        )
    messages = trace.messages[:total]
    rng = random.Random(seed)

    def permutation(names) -> dict:
        ordered = sorted(names)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        return dict(zip(ordered, shuffled))

    users = permutation({m.user_id for m in messages})
    words = permutation(
        set(trace.lexicon) | {t for m in messages for t in m.tokens}
    )
    return dataclasses.replace(
        trace,
        messages=[
            Message(users[m.user_id], tokens=tuple(words[t] for t in m.tokens))
            for m in messages
        ],
        ground_truth=[
            dataclasses.replace(
                event,
                keywords=tuple(words.get(k, k) for k in event.keywords),
                late_keywords=tuple(words.get(k, k) for k in event.late_keywords),
            )
            for event in trace.ground_truth
        ],
        lexicon={words[w]: tag for w, tag in trace.lexicon.items()},
    )


class LibraryRun:
    """An in-process run over the same messages: the output oracle."""

    def __init__(self, params: dict, messages: Sequence[Message]) -> None:
        self.params = params
        session = open_session(DetectorConfig(**params))
        events: list = []
        session.subscribe(events.append)
        self.reports = []
        started = time.perf_counter()
        for report in session.ingest_many(messages):
            self.reports.append(report)
        self.wall = time.perf_counter() - started
        self.quanta = len(self.reports)
        self.records = session.events()
        session.close()
        self.notes = [note(e) for e in events]
        self.by_quantum: Dict[int, list] = {}
        for item in self.notes:
            self.by_quantum.setdefault(item[1], []).append(item)

    def recall(self, trace, missing: List[str]) -> Optional[float]:
        return event_recall(
            trace, self.params, self.records, self.wall, self.quanta, missing
        )

    def notes_through(self, quantum: int) -> int:
        """How many notes quanta ``0..quantum`` produce."""
        return sum(len(v) for q, v in self.by_quantum.items() if q <= quantum)


def event_recall(trace, params: dict, records, wall: float, quanta: int,
                 missing: List[str]) -> Optional[float]:
    """Planted-event recall of a library run, via ``repro.eval``."""
    run_result = resolve("repro.eval", "RunResult")
    tagger = resolve("repro.text.pos", "NounTagger")
    if run_result is None or tagger is None:
        missing.append("e2e.event_recall")
        return None
    result = run_result(
        trace_name=trace.name,
        config=DetectorConfig(**params),
        records=records,
        tagger=tagger(trace.lexicon),
        messages_processed=len(trace.messages),
        elapsed_seconds=wall,
        detector_seconds=wall,
        clustering_seconds=0.0,
        quanta=quanta,
    )
    return evaluate_run(result, trace).pr.recall


def summarize_latency(latencies_s: Sequence[float]) -> dict:
    """p50 / p90 in ms with the sample count and what it supports, and the
    mean of the middle half (see ``e2e_stats.midmean``)."""
    n = len(latencies_s)
    values = [ms(v) for v in latencies_s]
    return {
        "samples": n,
        "mid": midmean(values) if n else None,
        "p50": percentile(values, 50) if n else None,
        "p90": percentile(values, 90) if n else None,
        "p90_supported": percentile_supported(n, 90),
        "highest_supported": highest_supported_percentile(n),
    }


# ---------------------------------------------------------- layer metrics


def report_counts(reports: Sequence) -> Dict[str, Optional[float]]:
    """Exact per-quantum counts from public ``QuantumReport`` fields."""
    def per_quantum(path: str) -> Optional[float]:
        values = []
        for report in reports:
            value = report
            for attribute in path.split("."):
                value = getattr(value, attribute, None)
                if value is None:
                    return None
            values.append(value)
        return mean(values)

    out = {
        "akg.bursty_keywords_per_quantum": per_quantum("akg_stats.bursty_keywords"),
        "akg.candidate_pairs_per_quantum": per_quantum("akg_stats.candidate_pairs"),
        "akg.ec_computations_per_quantum": per_quantum("akg_stats.ec_computations"),
        "akg.nodes_mean": per_quantum("akg_stats.akg_nodes"),
        "akg.edges_mean": per_quantum("akg_stats.akg_edges"),
        "core.changes_per_quantum": per_quantum("changes"),
        "core.dirty_clusters_per_quantum": per_quantum("dirty_clusters"),
    }
    added = per_quantum("akg_stats.edges_added")
    computed = out["akg.ec_computations_per_quantum"]
    out["akg.ec_useful_ratio"] = (
        None if added is None or computed is None
        else (added / computed if computed else 0.0)
    )
    ranked = per_quantum("ranked_clusters")
    hits = per_quantum("rank_cache_hits")
    out["core.rank_cache_hit_ratio"] = (
        None if ranked is None or hits is None
        else (hits / ranked if ranked else 0.0)
    )
    return out


def span_metrics(
    tracer: Tracer, segment: str, reports: Sequence, events: int
) -> Dict[str, Optional[float]]:
    """Per-layer times of one traced segment."""
    quanta = len(reports)
    per_q = (lambda seconds: ms(seconds) / quanta) if quanta else (lambda s: 0.0)
    out: Dict[str, Optional[float]] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}.ms_per_quantum"] = per_q(
            sum(tracer.durations(segment, f"pipeline.{stage}"))
        )
    process = tracer.durations(segment, "api.session.process_quantum")
    ingest = tracer.durations(segment, "api.session.ingest_many")
    append = tracer.durations(segment, "api.deltalog.append")
    stage_sum = sum(
        sum(tracer.durations(segment, f"pipeline.{s}")) for s in STAGES
    )
    out["api.session.overhead_ms_per_quantum"] = per_q(
        sum(ingest) - stage_sum - sum(append)
    )
    out["api.session.quantum_ms_p95"] = (
        ms(percentile(process, 95)) if process else 0.0
    )
    out["api.sinks.events_per_quantum"] = events / quanta if quanta else 0.0
    out["api.deltalog.append_ms_p50"] = (
        ms(statistics.median(append)) if append else 0.0
    )
    out["api.deltalog.append_ms_max"] = ms(max(append)) if append else 0.0
    out["api.deltalog.bytes_per_quantum"] = mean(
        tracer.counted(segment, "api.deltalog.append_bytes")
    )
    return out


def recovery_probe(delta_dir: Path, tracer: Tracer, missing: List[str]):
    """Time log replay and session restore on a delta-checkpoint directory.

    Returns ``(metrics, session, replay seconds)``; the session is resumed
    the way the server resumes a tenant (same directory as the new log).
    The stand-alone replay is a probe of its own: a resume replays the log
    once, inside ``open_session``.
    """
    out: Dict[str, Optional[float]] = {}
    replay = resolve("repro.api.deltalog", "read_delta_checkpoint")
    transport = resolve("repro.api.deltalog", "FileTailTransport")
    segment, tracer.segment = tracer.segment, "probe"
    replay_s = 0.0
    if replay is None:
        missing.append("api.deltalog.replay")
        out["api.deltalog.replay_ms"] = None
    else:
        with tracer.span("api.deltalog.replay") as row:
            replay(delta_dir)
        replay_s = row[2] - row[1]
        out["api.deltalog.replay_ms"] = ms(replay_s)
    tracer.segment = segment
    if transport is None:
        missing.append("api.deltalog.log")
        out["api.deltalog.log_bytes"] = None
        out["api.deltalog.records_replayed"] = None
    else:
        tail = transport(delta_dir)
        manifest = tail.manifest()
        records, _ = tail.read_records(manifest, 0)
        out["api.deltalog.records_replayed"] = len(records)
        out["api.deltalog.log_bytes"] = (delta_dir / manifest["log"]).stat().st_size
    with tracer.span("api.session.restore") as row:
        session = open_session(resume=delta_dir, delta_log=delta_dir)
    # open_session(resume=) replays the log itself; what is left after
    # taking the replay out is from_state, the rank-cache rebuild and the
    # fresh base snapshot of the new log generation.
    out["api.session.restore_ms"] = ms(max(0.0, row[2] - row[1] - replay_s))
    return out, session, replay_s


def snapshot_probe(session, directory: Path, tracer: Tracer) -> Dict[str, float]:
    path = directory / "probe.ckpt"
    with tracer.span("api.checkpoint.snapshot") as row:
        session.snapshot(path)
    return {
        "api.checkpoint.snapshot_ms": ms(row[2] - row[1]),
        "api.checkpoint.snapshot_bytes": path.stat().st_size,
    }


class Replay:
    """The traced in-process pass: the server's order, layer by layer."""

    def __init__(self, session, tracer: Tracer, missing: List[str],
                 wire: bool = True) -> None:
        """``wire=False`` leaves the serving layer's codec out: the
        workload hands the library ready messages and reads its sink."""
        self.session = session
        self.tracer = tracer
        missing += instrument_session(session, tracer)
        self.parse = self.event_record = self.encode_frame = None
        if wire:
            self.parse = resolve("repro.serve.server", "parse_ingest_body")
            self.event_record = resolve("repro.serve.hub", "event_record")
            self.encode_frame = resolve("repro.serve.wire", "encode_frame")
            if self.parse is None:
                missing.append("serve.wire.decode")
            if self.event_record is None or self.encode_frame is None:
                missing.append("serve.wire.encode")
        self.pending: list = []
        session.subscribe(self.pending.append)
        self.segments: Dict[str, dict] = {}

    def feed(self, segment: str, payloads: Sequence[bytes] = (),
             messages: Optional[Sequence[Message]] = None) -> dict:
        """Replay one segment from wire payloads (or ready messages)."""
        tracer = self.tracer
        tracer.segment = segment
        info = {"reports": [], "events": 0, "event_bytes": 0,
                "ingest_bytes": 0, "messages": 0}
        batches = [messages] if messages is not None else payloads
        for batch in batches:
            if messages is None:
                info["ingest_bytes"] += len(batch)
                if self.parse is not None:
                    with tracer.span("serve.wire.decode"):
                        batch = self.parse(batch)
                else:  # the decoder moved: feed the same messages anyway
                    batch = [
                        Message(r["u"], text=r["t"]) for r in json.loads(batch)
                    ]
            info["messages"] += len(batch)
            with tracer.span("api.session.ingest_many"):
                for report in self.session.ingest_many(batch):
                    info["reports"].append(report)
            if self.pending:
                info["events"] += len(self.pending)
                if self.event_record is not None and self.encode_frame is not None:
                    with tracer.span("serve.wire.encode"):
                        for event in self.pending:
                            frame = self.encode_frame(0x1, json.dumps(
                                self.event_record(event), sort_keys=True
                            ).encode("utf-8"))
                            info["event_bytes"] += len(frame)
                self.pending.clear()
        self.segments[segment] = info
        return info

    def wire_metrics(self, segment: str) -> Dict[str, Optional[float]]:
        info = self.segments[segment]
        decode = sum(self.tracer.durations(segment, "serve.wire.decode"))
        encode = sum(self.tracer.durations(segment, "serve.wire.encode"))
        n, events = info["messages"], info["events"]
        return {
            "serve.wire.decode_us_per_msg": decode * 1e6 / n if n else 0.0,
            "serve.wire.encode_us_per_event": (
                encode * 1e6 / events if events else 0.0
            ),
            "serve.wire.ingest_bytes_per_msg": info["ingest_bytes"] / n if n else 0.0,
            "serve.wire.event_bytes_per_event": (
                info["event_bytes"] / events if events else 0.0
            ),
        }


def stage_overhead(tracer: Tracer, segments: Sequence[str],
                   untraced_reports: Sequence) -> float:
    """traced / untraced - 1 over the work both runs share: the proxies'
    stage spans against the same quanta's stage seconds as the untraced
    library run reports them (``QuantumReport.timings``)."""
    traced = sum(
        sum(tracer.durations(segment, f"pipeline.{stage}"))
        for segment in segments for stage in STAGES
    )
    untraced = sum(report.timings.total for report in untraced_reports)
    return traced / untraced - 1.0 if untraced > 0 else 0.0


def close_waterfall(layers: dict, rows: Dict[str, float], wall: float,
                    messages: int) -> None:
    """The per-layer metrics that are shares of the untraced wall."""
    layers["api.deltalog.append_share"] = (
        rows.get("api.deltalog.append", 0.0) / wall
    )
    snapshot_bytes = layers["api.checkpoint.snapshot_bytes"]
    layers["api.deltalog.delta_ratio"] = (
        layers["api.deltalog.bytes_per_quantum"] / snapshot_bytes
        if snapshot_bytes else 0.0
    )
    layers["serve.residual_us_per_msg"] = rows["serve.residual"] * 1e6 / messages
    layers["serve.residual_share"] = rows["serve.residual"] / wall


def settle_heap() -> None:
    """Keep the collector from walking the benchmark's own corpus (trace,
    frames, oracle reports) while the program's code is on the clock: the
    server under test carries no such heap, and a full collection over it
    would be charged to whichever layer happened to allocate.
    :func:`run_workload` thaws it again."""
    gc.collect()
    gc.freeze()


def zero_layers() -> Dict[str, Optional[float]]:
    """Every per-layer metric at 0: a layer a workload never enters did no
    work, and says so."""
    return {name: 0.0 for name in PER_LAYER}


def finish(
    workload: str, args, e2e: dict, extra: dict, attempted: int, failed: int,
    problems: List[str], layers: Optional[dict], missing: List[str],
    rows: Optional[dict] = None, row_wall: Optional[float] = None,
    tracer: Optional[Tracer] = None, samples: Optional[dict] = None,
) -> dict:
    """Assemble one run's result (shared tail of every workload)."""
    e2e["ok_share"] = 1.0 - (failed / attempted if attempted else 1.0)
    extra["e2e.failed_share"] = failed / attempted if attempted else 1.0
    if layers is not None:
        layers.update(extra)
        for name in missing_metrics(missing):
            layers[name] = None
    span_file = None
    if tracer is not None:
        span_file = harness.OUT / f"spans-{workload}.json"
        tracer.write(span_file, {
            "workload": workload, "seed": args.seed, "smoke": args.smoke,
        })
    return {
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "secondary": extra,
        "samples": samples or {},
        "per_layer": layers,
        "probes_missing": sorted(set(missing)),
        "waterfall": rows,
        "waterfall_wall": row_wall,
        "span_file": str(span_file) if span_file else None,
    }


#: Which metrics a missing probe nulls.
PROBE_METRICS = {
    "pipeline.stages": [f"pipeline.{s}.ms_per_quantum" for s in STAGES]
    + ["api.session.overhead_ms_per_quantum"],
    "api.session.process_quantum": ["api.session.quantum_ms_p95"],
    "api.deltalog.append": [
        "api.deltalog.append_ms_p50", "api.deltalog.append_ms_max",
        "api.deltalog.bytes_per_quantum", "api.deltalog.delta_ratio",
        "api.deltalog.append_share",
    ],
    "api.deltalog.replay": ["api.deltalog.replay_ms"],
    "api.deltalog.log": ["api.deltalog.log_bytes", "api.deltalog.records_replayed"],
    "serve.wire.decode": ["serve.wire.decode_us_per_msg"],
    "serve.wire.encode": ["serve.wire.encode_us_per_event"],
    "e2e.event_recall": ["e2e.event_recall"],
}


def missing_metrics(missing: Sequence[str]) -> List[str]:
    names: List[str] = []
    for probe in missing:
        names += PROBE_METRICS.get(probe, [])
    return names


# -------------------------------------------------------------- lib-hotpath


def run_lib_hotpath(args) -> dict:
    """Closed loop, in-process: fresh-session passes over one TW trace."""
    where = "lib-hotpath"
    quantum = HOTPATH["quantum_size"]
    if args.smoke:
        quanta, passes = 4, 2
    else:
        quanta = max(8, round(HOTPATH_QUANTA * args.seconds / NOMINAL_SECONDS))
        passes = 6
    problems: List[str] = []
    missing: List[str] = []

    setup_started = time.perf_counter()
    trace = planted_trace(TW_PRESET, quanta * quantum, args.seed)
    messages = trace.messages
    settle_heap()
    setup_s = time.perf_counter() - setup_started

    config = DetectorConfig(**HOTPATH)
    walls, steps, latencies = [], [], []
    reference = None
    failed = 0
    for _ in range(passes):
        untraced_reports = []
        events: list = []
        last_emit: Dict[int, float] = {}

        def sink(event, events=events, last_emit=last_emit):
            events.append(event)
            last_emit[event.quantum] = time.perf_counter()

        opened = time.perf_counter()
        session = open_session(config)
        session.subscribe(sink)
        handed = time.perf_counter()
        # One step per quantum, plus opening and running off the end: the
        # steps of a pass add up to its wall.
        step = [handed - opened]
        stream = session.ingest_many(messages)
        done = 0
        for report in stream:
            got = last_emit.get(report.quantum)
            if got is not None:
                latencies.append(got - handed)
            untraced_reports.append(report)
            done += 1
            now = time.perf_counter()
            step.append(now - handed)
            handed = now
        now = time.perf_counter()
        step.append(now - handed)
        walls.append(now - opened)
        steps.append(step)
        if done != quanta or session.total_messages != len(messages):
            problems.append(
                f"{where}: a pass processed {done} quanta / "
                f"{session.total_messages} messages, expected {quanta} / "
                f"{len(messages)}"
            )
        records = session.events()
        session.close()
        notes = [note(e) for e in events]
        if reference is None:
            reference = notes
            reference_records = records
        else:
            failed += mismatches(notes, reference)
    if not reference:
        problems.append(f"{where}: the trace produced no notification")

    latency = summarize_latency(latencies)
    e2e = {
        "setup_s": setup_s,
        "msgs_per_s": len(messages) / undisturbed_total(steps),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    extra = {
        "e2e.notify_ms_mid": latency["mid"],
        "e2e.notify_ms_p50": latency["p50"],
        "e2e.notify_ms_p90": latency["p90"],
        "e2e.notify_samples": latency["samples"],
        "e2e.recovery_s": 0.0,
        "e2e.late_quanta_share": 0.0,
        "e2e.event_recall": event_recall(
            trace, HOTPATH, reference_records, walls[0], quanta, missing
        ),
    }
    attempted = passes * len(messages) + passes * len(reference or [])

    layers = rows = tracer = None
    untraced = statistics.median(walls)
    if args.trace:
        tracer = Tracer()
        layers = zero_layers()
        with ExitStack() as stack:
            scratch = harness.scratch_dir(where)
            stack.callback(harness.remove_tree, scratch)
            # Passes on this host differ by a few percent; of three traced
            # ones the waterfall takes the median-wall pass.
            traced = []
            for index in range(1 if args.smoke else 3):
                replay = Replay(open_session(config), tracer, missing, wire=False)
                stack.callback(replay.session.close)
                started = time.perf_counter()
                info = replay.feed(f"pass-{index}", messages=messages)
                traced.append((time.perf_counter() - started, index, replay, info))
            _, index, replay, info = sorted(traced)[len(traced) // 2]
            segment = f"pass-{index}"
            layers.update(report_counts(info["reports"]))
            layers.update(span_metrics(
                tracer, segment, info["reports"], info["events"]
            ))
            layers["trace.overhead_share"] = stage_overhead(
                tracer, (segment,), untraced_reports
            )
            tracer.segment = "probe"
            layers.update(snapshot_probe(replay.session, scratch, tracer))
        rows = waterfall(tracer, segment, untraced)
        close_waterfall(layers, rows, untraced, len(messages))
    return finish(
        where, args, e2e, extra, attempted, failed, problems, layers, missing,
        rows, untraced, tracer,
        samples={"passes": passes, "messages": len(messages),
                 "pass_wall_s": walls, "step_s": steps, "notify": latency},
    )


# ------------------------------------------------------------ serve-*


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    name: str
    durable: bool
    rate: float            # paced phase, messages per second
    paced_seconds: float   # at NOMINAL_SECONDS
    flood_messages: int    # at NOMINAL_SECONDS
    smoke_paced_quanta: int
    smoke_flood_quanta: int


SERVE_VOLATILE = ServeSpec("serve-volatile", False, 2000.0, 12.0, 120_000, 16, 30)
SERVE_DURABLE = ServeSpec("serve-durable", True, 500.0, 34.0, 8_000, 5, 5)


def stage_seconds(stats: dict) -> float:
    timings = stats.get("timings", {})
    return sum(timings.get(stage, 0.0) for stage in STAGES)


def run_serve(spec: ServeSpec, args) -> dict:
    """A real server over sockets: paced open loop, then a flood."""
    name = spec.name
    quantum = TABLE2["quantum_size"]
    if args.smoke:
        paced_quanta, flood_quanta = spec.smoke_paced_quanta, spec.smoke_flood_quanta
    else:
        scale = args.seconds / NOMINAL_SECONDS
        paced_quanta = max(4, round(spec.rate * spec.paced_seconds * scale / quantum))
        flood_quanta = max(4, round(spec.flood_messages * scale / quantum))
    warm_quanta, total = stream_length(paced_quanta + flood_quanta, quantum)
    paced_from = warm_quanta * quantum
    flood_from = (warm_quanta + paced_quanta) * quantum
    problems: List[str] = []
    missing: List[str] = []

    with ExitStack() as stack:
        # ---- set-up: inputs, oracle, the server under test
        setup_started = time.perf_counter()
        where = f"{name}/set-up"
        trace = planted_trace(ES_PRESET, total, args.seed)
        records = harness.text_records(trace.messages)
        messages = [Message(r["u"], text=r["t"]) for r in records]
        trace = dataclasses.replace(trace, messages=messages)
        rng = random.Random(args.seed)
        payloads = {
            "warm": harness.frame_payloads(records[:paced_from], FLOOD_FRAME),
            "paced": harness.frame_payloads(records[paced_from:flood_from], PACED_FRAME),
            "flood": harness.frame_payloads(records[flood_from:], FLOOD_FRAME),
        }
        frames = {
            phase: [harness.mask_frame(p, rng) for p in chunk]
            for phase, chunk in payloads.items()
        }
        probe = harness.mask_frame(b"[]", rng)
        oracle = LibraryRun(TABLE2, messages)
        state_dir = None
        if spec.durable:
            state_dir = harness.scratch_dir(name)
            stack.callback(harness.remove_tree, state_dir)
        server = Server(where, state_dir)
        stack.callback(server.kill)
        server.start()
        client = ServeClient(port=server.port, timeout=harness.DEADLINE)
        guarded(where, client.healthz)
        startup = time.perf_counter() - server.spawned_at
        guarded(where, client.create_tenant, TENANT, TABLE2)
        events_ws = guarded(
            where, client.subscribe, TENANT, buffer=SUBSCRIBER_BUFFER
        )
        stack.callback(events_ws.close)
        stream_ws = guarded(where, client.stream, TENANT)
        stack.callback(stream_ws.close)
        receiver = Receiver(events_ws, stream_ws)
        receiver.start()
        stack.callback(receiver.halt)

        def idle(phase: str) -> None:
            guarded(f"{name}/{phase}", client.ingest, TENANT, [], wait=True)

        harness.send_flood(where, stream_ws.sock, receiver, frames["warm"],
                           probe, HIGH_WATER)
        idle("set-up")
        stats_warm = guarded(where, client.stats, TENANT)
        settle_heap()  # a collection pause in the generator is lateness
        setup_s = time.perf_counter() - setup_started

        # ---- phase A: open loop at a fixed rate
        where = f"{name}/paced"
        paced = harness.send_paced(
            where, stream_ws.sock, frames["paced"], PACED_FRAME, spec.rate
        )
        idle("paced")
        paced_notes = oracle.notes_through(warm_quanta + paced_quanta - 1)
        receiver.wait_for(
            where, lambda: len(receiver.records) >= paced_notes
        )
        stats_paced = guarded(where, client.stats, TENANT)

        # ---- phase B: closed-loop flood on the same warm tenant
        where = f"{name}/flood"
        flood_first = harness.send_flood(
            where, stream_ws.sock, receiver, frames["flood"], probe, HIGH_WATER
        )
        idle("flood")
        flood_wall = time.perf_counter() - flood_first
        receiver.wait_for(
            where, lambda: len(receiver.records) >= len(oracle.notes)
        )
        stats_flood = guarded(where, client.stats, TENANT)
        server.kill()
        receiver.halt()

    # ---- verify against the oracle
    flood_messages = total - flood_from
    got = [note(r) for r in receiver.records]
    wrong_notes = mismatches(got, oracle.notes)
    if wrong_notes:
        problems.append(
            f"{name}: {wrong_notes} of {len(oracle.notes)} event records "
            f"differ from the library run over the same messages"
        )
    if stats_flood["messages"] != total:
        problems.append(
            f"{name}: server processed {stats_flood['messages']} of {total} messages"
        )
    for error in receiver.ack_errors[:3]:
        problems.append(f"{name}: ingest frame refused: {error}")
    dropped = stats_flood["fanout"]["total_dropped"]
    failed = (
        stats_flood["shed"] + stats_flood["failed"] + dropped
        + len(receiver.ack_errors) + wrong_notes
    )
    attempted = total + len(oracle.notes)

    expected = [
        q - warm_quanta
        for q in range(warm_quanta, warm_quanta + paced_quanta)
        if oracle.by_quantum.get(q)
    ]
    received_at = {
        q - warm_quanta: t for q, t in receiver.last_event_at.items()
    }
    latencies, late = notify_latencies(
        paced["start"], spec.rate, quantum, expected, received_at
    )
    if not latencies:
        problems.append(f"{name}: the paced phase produced no notification")
    latency = summarize_latency(latencies)
    lateness = [ms(v) for v in paced["late"]]
    late_p99, late_max = percentile(lateness, 99), max(lateness)

    e2e = {
        "setup_s": setup_s,
        "msgs_per_s": flood_messages / flood_wall,
        "peak_rss_mb": server.peak_rss,
    }
    extra = {
        "e2e.notify_ms_mid": latency["mid"],
        "e2e.notify_ms_p50": latency["p50"],
        "e2e.notify_ms_p90": latency["p90"],
        "e2e.notify_samples": latency["samples"],
        "e2e.recovery_s": 0.0,
        "e2e.late_quanta_share": late / len(expected) if expected else 0.0,
        "e2e.event_recall": oracle.recall(trace, missing),
    }
    samples = {
        "notify": latency,
        "paced": {"rate": spec.rate, "quanta": paced_quanta,
                  "seconds": paced["end"] - paced["start"],
                  "interval_ms": ms(quantum / spec.rate)},
        "flood": {"messages": flood_messages, "wall_s": flood_wall},
        "warm_quanta": warm_quanta,
    }

    layers = rows = tracer = None
    if args.trace:
        tracer = Tracer()
        layers = zero_layers()
        settle_heap()
        with ExitStack() as stack:
            scratch = harness.scratch_dir(name + "-traced")
            stack.callback(harness.remove_tree, scratch)
            session = open_session(
                DetectorConfig(**TABLE2),
                delta_log=scratch / "delta" if spec.durable else None,
            )
            stack.callback(session.close)
            replay = Replay(session, tracer, missing)
            for phase in ("warm", "paced", "flood"):
                info = replay.feed(phase, payloads[phase])
            # ``info`` is the flood's: the phase throughput is taken from.
            layers.update(report_counts(info["reports"]))
            layers.update(span_metrics(
                tracer, "flood", info["reports"], info["events"]
            ))
            layers.update(replay.wire_metrics("flood"))
            layers["trace.overhead_share"] = stage_overhead(
                tracer, ("warm", "paced", "flood"), oracle.reports
            )
            tracer.segment = "probe"
            layers.update(snapshot_probe(session, scratch, tracer))
            writer = session.delta_writer
            if writer is not None:
                layers["api.deltalog.compactions"] = getattr(
                    writer, "compactions", None
                )
                session.close()
                probe_metrics, resumed, _ = recovery_probe(
                    scratch / "delta", tracer, missing
                )
                resumed.close()
                layers.update(probe_metrics)
        rows = waterfall(tracer, "flood", flood_wall)
        close_waterfall(layers, rows, flood_wall, flood_messages)
        accepted = stats_paced["accepted"] - stats_warm["accepted"]
        layers.update({
            "proc.startup_ms": ms(startup),
            "serve.manager.queue_hwm": stats_flood["queue_hwm"],
            "serve.manager.batch_hwm": stats_flood["batch_hwm"],
            "serve.manager.deferred_share": (
                (stats_paced["deferred"] - stats_warm["deferred"]) / accepted
                if accepted else 0.0
            ),
            "serve.manager.shed": stats_flood["shed"],
            "serve.hub.dropped": dropped,
            "serve.hub.events_delivered": stats_flood["fanout"]["total_sent"],
            "serve.efficiency": (
                (stage_seconds(stats_flood) - stage_seconds(stats_paced))
                / flood_wall
            ),
            "gen.late_ms_p99": late_p99,
            "gen.late_ms_max": late_max,
        })
    samples["gen_late_ms"] = {
        "p99": late_p99, "max": late_max, "frames": len(lateness),
    }
    return finish(
        name, args, e2e, extra, attempted, failed, problems, layers, missing,
        rows, flood_wall, tracer, samples,
    )


# ------------------------------------------------------------------ recover


def recover_cycle(where: str, state_dir: Path, image: Path,
                  extra_quantum: Sequence[Message], want: Sequence) -> dict:
    """One measured recovery: respawn on the crashed state, resume, ingest
    one full quantum; then kill -9 again."""
    harness.remove_tree(state_dir)
    shutil.copytree(image, state_dir)
    with ExitStack() as stack:
        server = Server(where, state_dir)
        stack.callback(server.kill)
        server.start()
        client = ServeClient(port=server.port, timeout=harness.DEADLINE)
        guarded(where, client.healthz)
        healthy = time.perf_counter()
        answer = guarded(where, client.create_tenant, TENANT, resume=True)
        events_ws = guarded(where, client.subscribe, TENANT)
        stack.callback(events_ws.close)
        receiver = Receiver(events_ws)
        receiver.start()
        stack.callback(receiver.halt)
        sent = time.perf_counter()
        guarded(where, client.ingest, TENANT, extra_quantum, wait=True)
        done = time.perf_counter()
        receiver.wait_for(where, lambda: len(receiver.records) >= len(want))
        after = guarded(where, client.stats, TENANT)
        server.kill()
    notified = list(receiver.last_event_at.values())
    return {
        "startup": healthy - server.spawned_at,
        "recovery": done - server.spawned_at,
        "quantum": done - sent,
        "notify": max(notified) - sent if notified else None,
        "resumed_at": answer.get("quantum"),
        "after": after,
        "notes": [note(r) for r in receiver.records],
        "peak_rss": server.peak_rss,
    }


def run_recover(args) -> dict:
    """kill -9, respawn on the same state dir, resume, one more quantum."""
    name = "recover"
    quantum = TABLE2["quantum_size"]
    built_quanta, cycles = (6, 2) if args.smoke else (60, 8)
    total = (built_quanta + 1) * quantum
    problems: List[str] = []
    missing: List[str] = []
    failed = 0

    with ExitStack() as stack:
        # ---- set-up: build the log a crashed server leaves behind
        setup_started = time.perf_counter()
        where = f"{name}/set-up"
        trace = planted_trace(ES_PRESET, total, args.seed)
        records = harness.text_records(trace.messages)
        messages = [Message(r["u"], text=r["t"]) for r in records]
        trace = dataclasses.replace(trace, messages=messages)
        built, extra_quantum = messages[:-quantum], messages[-quantum:]
        oracle = LibraryRun(TABLE2, messages)
        want = oracle.by_quantum.get(built_quanta, [])

        state_dir = harness.scratch_dir(name)
        stack.callback(harness.remove_tree, state_dir)
        image = harness.scratch_dir(name + "-image")
        stack.callback(harness.remove_tree, image)
        server = Server(where, state_dir)
        stack.callback(server.kill)
        server.start()
        client = ServeClient(port=server.port, timeout=harness.DEADLINE)
        guarded(where, client.healthz)
        guarded(where, client.create_tenant, TENANT, TABLE2)
        guarded(where, client.ingest, TENANT, built, wait=True)
        before = guarded(where, client.stats, TENANT)
        if before["messages"] != len(built) or before["quantum"] != built_quanta - 1:
            problems.append(
                f"{where}: log build ended at quantum {before['quantum']} / "
                f"{before['messages']} messages"
            )
        server.kill()
        # Every cycle recovers from the same bytes the first kill -9 left,
        # so the cycles repeat one measurement instead of drifting with a
        # log that each resume compacts.
        shutil.copytree(state_dir, image, dirs_exist_ok=True)
        setup_s = time.perf_counter() - setup_started

        # ---- measured cycles
        runs = []
        for cycle in range(cycles):
            where = f"{name}/cycle-{cycle}"
            run = recover_cycle(where, state_dir, image, extra_quantum, want)
            runs.append(run)
            after = run["after"]
            bad = 0
            if run["resumed_at"] != before["quantum"]:
                bad += 1
                problems.append(
                    f"{where}: resumed at quantum {run['resumed_at']}, the "
                    f"killed server was at {before['quantum']}"
                )
            if (after["messages"] != before["messages"] + quantum
                    or after["quantum"] != before["quantum"] + 1):
                bad += 1
                problems.append(
                    f"{where}: after the resumed quantum /stats reads "
                    f"{after['messages']} messages at quantum "
                    f"{after['quantum']}"
                )
            wrong = mismatches(run["notes"], want)
            if wrong:
                problems.append(
                    f"{where}: {wrong} of {len(want)} post-resume event "
                    f"records differ from the library run"
                )
            failed += bad + wrong + after["shed"] + after["failed"]

        # A silent quantum has no notification to time; the time to process
        # it bounds the latency from above and stands in.
        notify = [
            r["notify"] if r["notify"] is not None else r["quantum"]
            for r in runs
        ]
        latency = summarize_latency(notify)
        recovery = [r["recovery"] for r in runs]
        startup = statistics.median(r["startup"] for r in runs)
        attempted = cycles * (quantum + len(want) + 2)
        e2e = {
            "setup_s": setup_s,
            # Stream state restored per second of recovery: the bounded
            # form of ``e2e.recovery_s``, over the cycles' three steps
            # (start-up, resume, the post-resume quantum).  (The rate of
            # the post-resume quantum alone, 8 samples of ~0.1 s in a cold
            # process, spread 18% between runs on this host.)
            "msgs_per_s": len(built) / undisturbed_total([
                [r["startup"],
                 r["recovery"] - r["startup"] - r["quantum"],
                 r["quantum"]]
                for r in runs
            ]),
            "peak_rss_mb": max(r["peak_rss"] for r in runs),
        }
        extra = {
            "e2e.notify_ms_mid": latency["mid"],
            "e2e.notify_ms_p50": latency["p50"],
            "e2e.notify_ms_p90": latency["p90"],
            "e2e.notify_samples": latency["samples"],
            "e2e.recovery_s": statistics.median(recovery),
            "e2e.late_quanta_share": 0.0,
            "e2e.event_recall": oracle.recall(trace, missing),
        }
        samples = {"cycles": cycles, "recovery_s": recovery, "notify": latency,
                   "built_quanta": built_quanta,
                   "resumed_quantum_s": [r["quantum"] for r in runs]}

        layers = rows = tracer = None
        untraced = statistics.median(recovery)
        if args.trace:
            # The server's own crashed image, recovered in-process.
            tracer = Tracer()
            layers = zero_layers()
            settle_heap()
            shutil.copytree(image, state_dir, dirs_exist_ok=True)
            tracer.segment = "recover"
            metrics, session, replay_s = recovery_probe(
                state_dir / TENANT / "delta", tracer, missing
            )
            stack.callback(session.close)
            layers.update(metrics)
            replay = Replay(session, tracer, missing)
            info = replay.feed("recover", harness.frame_payloads(
                records[-quantum:], quantum
            ))
            layers.update(report_counts(info["reports"]))
            layers.update(span_metrics(
                tracer, "recover", info["reports"], info["events"]
            ))
            layers.update(replay.wire_metrics("recover"))
            layers["trace.overhead_share"] = stage_overhead(
                tracer, ("recover",), oracle.reports[built_quanta:]
            )
            tracer.segment = "probe"
            layers.update(snapshot_probe(session, state_dir, tracer))
            layers["api.deltalog.compactions"] = getattr(
                session.delta_writer, "compactions", None
            )
            rows = waterfall(tracer, "recover", None)
            # The restore span holds the one replay a resume performs.
            rows["api.session.restore"] -= replay_s
            rows["api.deltalog.replay"] = replay_s
            rows["proc.startup"] = startup
            rows["serve.residual"] = untraced - sum(rows.values())
            layers["proc.startup_ms"] = ms(startup)
            close_waterfall(layers, rows, untraced, quantum)
    return finish(
        name, args, e2e, extra, attempted, failed, problems, layers, missing,
        rows, untraced, tracer, samples,
    )


WORKLOADS = {
    "lib-hotpath": (
        run_lib_hotpath,
        "in-process library passes at q=3200: the pure detector, every "
        "serve and durability layer idle",
    ),
    "serve-volatile": (
        lambda args: run_serve(SERVE_VOLATILE, args),
        "real server over sockets, no state dir: wire, queue, thread hops "
        "and fan-out share the work with the detector; the delta log is idle",
    ),
    "serve-durable": (
        lambda args: run_serve(SERVE_DURABLE, args),
        "same server with a per-quantum fsynced delta log: with "
        "serve-volatile it isolates the cost of durability",
    ),
    "recover": (
        run_recover,
        "kill -9, respawn, resume from the delta log: the log read back, "
        "process start-up and state restore on the clock",
    ),
}


def run_workload(name: str, args) -> dict:
    """Run one workload by name; the heap it froze is thawed on every exit
    path (the smoke test calls this in-process)."""
    runner, _why = WORKLOADS[name]
    try:
        return runner(args)
    finally:
        gc.unfreeze()
