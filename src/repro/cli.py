"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``       run the Figure 1 quickstart scenario
``generate``   build a synthetic trace (tw / es / ground-truth) as JSONL
``detect``     run the detector over a JSONL trace and print events
``follow``     tail a delta log as a warm standby
``sweep``      print a small precision/recall parameter grid for a preset
``serve``      run the multi-tenant serving layer (HTTP + WebSocket)

``detect`` rides the session API: ``--checkpoint PATH`` snapshots the
full detector state after the trace (including a buffered partial quantum),
and ``--resume-from PATH`` continues a checkpointed session over more data —
the resumed stream is bit-identical to one that never stopped (DESIGN.md
Section 6).  ``--delta-log DIR`` switches durability to the incremental
checkpoint format (base snapshot + each completed quantum's input,
DESIGN.md Section 10).  ``follow DIR`` keeps a warm standby that replays
the log through its own pipeline; the failover move is ``detect TRACE
--resume-from DIR`` (or from the standby's ``--checkpoint``), which takes
over bit-identically mid-stream.

The engine is entity-agnostic: ``detect --extractor edges`` runs a raw
actor–entity interaction stream (``generate edge``), ``--extractor fields``
a structured-log stream (``generate fields``), and ``--extractor keyword``
(default) the paper's tokenized-text workload — same pipeline, same
checkpoints, different ingestion front (DESIGN.md Section 8).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.entity_streams import (
    build_edge_stream_trace,
    build_structured_trace,
)
from repro.datasets.figure1 import figure1_messages
from repro.datasets.traces import (
    build_es_trace,
    build_ground_truth_trace,
    build_tw_trace,
)
from repro.errors import CheckpointError, ConfigError, ReproError
from repro.extract import extractor_names
from repro.eval.reporting import render_grid, render_table
from repro.eval.runner import evaluate_run, run_detector
from repro.stream.sources import (
    TraceReadStats,
    read_jsonl_trace,
    write_jsonl_trace,
)

_TRACE_BUILDERS = {
    "tw": build_tw_trace,
    "es": build_es_trace,
    "ground-truth": build_ground_truth_trace,
}

# Non-text workloads (generate-only: sweep's keyword evaluation grid does
# not apply to them).  ``edge`` pairs with ``detect --extractor edges``,
# ``fields`` with ``detect --extractor fields``.
_ENTITY_TRACE_BUILDERS = {
    "edge": build_edge_stream_trace,
    "fields": build_structured_trace,
}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quantum-size", type=int, default=160,
                        help="messages per quantum (Table 2 nominal: 160)")
    parser.add_argument("--window-quanta", type=int, default=30,
                        help="quanta per sliding window (nominal: 30)")
    parser.add_argument("--theta", type=int, default=4,
                        help="high-state threshold, users/quantum (nominal: 4)")
    parser.add_argument("--gamma", type=float, default=0.20,
                        help="edge-correlation threshold (nominal: 0.20)")
    parser.add_argument("--exact-ec", action="store_true",
                        help="disable the MinHash candidate filter")
    parser.add_argument("--extractor", choices=extractor_names(),
                        default="keyword", metavar="NAME",
                        help="entity extractor for the ingestion stage "
                             f"({', '.join(extractor_names())}; default "
                             "keyword — tokenized message text)")
    parser.add_argument("--extractor-options", metavar="JSON", default=None,
                        help="JSON object of options for --extractor "
                             '(e.g. \'{"fields": ["tags"]}\')')
    parser.add_argument("--timing", action="store_true",
                        help="print a per-stage timing breakdown "
                             "(extract/akg/maintain/propagate/rank/report)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="write a session checkpoint to PATH after the "
                             "trace is consumed (a trailing partial quantum "
                             "is saved in the checkpoint, not flushed)")
    parser.add_argument("--resume-from", metavar="PATH",
                        help="resume a session from a checkpoint before "
                             "ingesting the trace; the checkpoint's config "
                             "overrides the config flags (PATH may be a "
                             "monolithic .ckpt file or a delta-checkpoint "
                             "directory)")
    parser.add_argument("--delta-log", metavar="DIR",
                        help="write an incremental checkpoint to DIR while "
                             "detecting: base snapshot now, then one "
                             "durable record of each completed quantum's "
                             "input (tail it with 'repro follow DIR'); "
                             "with --resume-from DIR the log is appended "
                             "to")


def _config_from(args: argparse.Namespace) -> DetectorConfig:
    options = {}
    if args.extractor_options:
        try:
            options = json.loads(args.extractor_options)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"--extractor-options is not valid JSON: {exc}"
            ) from exc
        if not isinstance(options, dict):
            raise ConfigError(
                "--extractor-options must be a JSON object, got "
                f"{type(options).__name__}"
            )
    return DetectorConfig(
        quantum_size=args.quantum_size,
        window_quanta=args.window_quanta,
        high_state_threshold=args.theta,
        ec_threshold=args.gamma,
        use_minhash_filter=not args.exact_ec,
        extractor=args.extractor,
        extractor_options=options,
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    session = open_session(
        DetectorConfig(
            quantum_size=6,
            window_quanta=5,
            high_state_threshold=2,
            ec_threshold=0.1,
            use_minhash_filter=False,
        )
    )
    for label, batch in zip(("initial tweets", "window slides"), figure1_messages()):
        report = session.process_quantum(batch)
        print(f"[{label}]")
        for event in report.reported:
            print(f"  event #{event.event_id}: {sorted(event.keywords)} "
                  f"rank={event.rank:.1f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    builder = {**_TRACE_BUILDERS, **_ENTITY_TRACE_BUILDERS}[args.preset]
    trace = builder(total_messages=args.messages, seed=args.seed)
    count = write_jsonl_trace(args.output, trace.messages)
    truth_path = args.output + ".truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {
                    "event_id": e.event_id,
                    "keywords": list(e.keywords),
                    "start": e.start_message,
                    "end": e.end_message,
                    "spurious": e.spurious,
                    "headlined": e.headlined,
                }
                for e in trace.ground_truth
            ],
            fh,
            indent=1,
        )
    print(f"wrote {count} messages to {args.output}")
    print(f"wrote ground truth to {truth_path}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    if args.resume_from:
        session = open_session(
            resume=args.resume_from, delta_log=args.delta_log
        )
        print(
            f"-- resumed from {args.resume_from} at quantum "
            f"{session.current_quantum} "
            f"({session.batcher.pending} messages buffered); "
            f"config comes from the checkpoint"
        )
    else:
        session = open_session(_config_from(args), delta_log=args.delta_log)
    if args.delta_log:
        writer = session.delta_writer
        print(
            f"-- delta log enabled at {args.delta_log} "
            f"(generation {writer.generation}, "
            f"at quantum {session.current_quantum})"
        )
    printed = 0
    quanta = 0
    cache_hits = 0
    recomputed = 0
    # The context manager closes the delta log and sinks even when the
    # trace raises mid-stream.
    with session:
        # With --checkpoint the trailing partial quantum stays buffered (it
        # is saved in the checkpoint and completed by the resumed run);
        # without it the legacy batch behaviour of flushing the tail is
        # kept.
        read_stats = TraceReadStats()
        stream = session.ingest_many(
            read_jsonl_trace(args.trace, stats=read_stats),
            flush=not args.checkpoint,
        )
        for report in stream:
            quanta += 1
            cache_hits += report.rank_cache_hits
            recomputed += report.ranked_clusters - report.rank_cache_hits
            for event in report.reported:
                if event.event_id in report.new_event_ids:
                    printed += 1
                    print(
                        f"q{report.quantum:<5} NEW event #{event.event_id}: "
                        f"{', '.join(sorted(event.keywords))} "
                        f"(rank {event.rank:.1f})"
                    )
        print(
            f"-- {printed} events, {session.total_messages} messages, "
            f"{session.throughput():.0f} msg/s"
        )
        if read_stats.malformed:
            print(
                f"-- WARNING: skipped {read_stats.malformed} malformed "
                f"trace line(s) (first: {read_stats.errors[0]})",
                file=sys.stderr,
            )
        if args.timing:
            print(_render_timing(session, quanta, cache_hits, recomputed))
        if args.checkpoint:
            session.snapshot(args.checkpoint)
            print(
                f"-- checkpoint written to {args.checkpoint} "
                f"(quantum {session.current_quantum}, "
                f"{session.batcher.pending} messages buffered)"
            )
        if args.delta_log:
            writer = session.delta_writer
            print(
                f"-- delta log: {writer.records_written} record(s), "
                f"{writer.compactions} compaction(s), final generation "
                f"{writer.generation}"
            )
    return 0


def _cmd_follow(args: argparse.Namespace) -> int:
    """Warm-standby follower over a delta-checkpoint directory."""
    import time

    from repro.api.deltalog import catch_up, read_manifest

    session = open_session(resume=args.delta_log)
    print(
        f"-- following {args.delta_log}: generation "
        f"{read_manifest(args.delta_log)['generation']}, "
        f"quantum {session.current_quantum}"
    )
    if args.until_quantum is not None:
        deadline = time.monotonic() + args.timeout
        while session.current_quantum < args.until_quantum:
            if time.monotonic() >= deadline:
                raise CheckpointError(
                    f"timed out after {args.timeout:g}s waiting for "
                    f"quantum {args.until_quantum}; still at quantum "
                    f"{session.current_quantum}"
                )
            time.sleep(args.poll)
            session = catch_up(session)
        print(f"-- caught up to quantum {session.current_quantum}")
    elif args.watch is not None:
        deadline = time.monotonic() + args.watch
        while time.monotonic() < deadline:
            before = session.current_quantum
            session = catch_up(session)
            if session.current_quantum != before:
                print(f"-- now at quantum {session.current_quantum}")
            time.sleep(args.poll)
    if args.checkpoint:
        session.snapshot(args.checkpoint)
        print(
            f"-- follower checkpoint written to {args.checkpoint} "
            f"(quantum {session.current_quantum})"
        )
    return 0


def _render_timing(
    session, quanta: int, cache_hits: int, recomputed: int
) -> str:
    """Per-stage breakdown of the staged pipeline's accumulated wall time."""
    totals = session.total_timings
    overall = totals.total or 1e-12
    lines = [f"-- per-stage timing over {quanta} quanta:"]
    for stage, seconds in totals.as_dict().items():
        lines.append(
            f"   {stage:<10} {seconds * 1000:9.1f} ms  "
            f"({100.0 * seconds / overall:5.1f}%)"
        )
    lines.append(f"   {'total':<10} {overall * 1000:9.1f} ms")
    ranked = cache_hits + recomputed
    if ranked:
        lines.append(
            f"   rank cache: {cache_hits}/{ranked} cluster ranks served "
            f"from cache ({100.0 * cache_hits / ranked:.1f}%)"
        )
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant serving layer until interrupted."""
    import asyncio

    from repro.serve.server import serve_forever

    def _announce(server) -> None:
        print(f"-- serving on http://{server.host}:{server.port} "
              f"({args.workers} worker(s), state_dir={args.state_dir})")
        print(f"   PUT  /v1/<tenant>          create or resume a tenant")
        print(f"   POST /v1/<tenant>/ingest   batch ingest (JSONL body)")
        print(f"   GET  /v1/<tenant>/events   WebSocket event fan-out")
        print(f"   GET  /metrics              live server and tenant stats")

    # On Ctrl-C asyncio.run cancels the task; serve_forever's shutdown
    # path drains every tenant and checkpoints the persistent ones, and
    # returns normally.
    asyncio.run(
        serve_forever(
            host=args.host,
            port=args.port,
            ready=_announce,
            state_dir=args.state_dir,
            workers=args.workers,
        )
    )
    print("-- interrupted; tenants drained"
          + (" and checkpointed" if args.state_dir else ""))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    builder = _TRACE_BUILDERS[args.preset]
    trace = builder(total_messages=args.messages, seed=args.seed)
    quanta = [80, 160, 240]
    gammas = [0.10, 0.20, 0.25]
    recall, precision = [], []
    for gamma in gammas:
        r_row, p_row = [], []
        for quantum in quanta:
            config = DetectorConfig(quantum_size=quantum, ec_threshold=gamma)
            summary = evaluate_run(
                run_detector(trace, config), trace,
                reference_quantum_size=max(quanta),
            )
            r_row.append(summary.pr.recall)
            p_row.append(summary.pr.precision)
        recall.append(r_row)
        precision.append(p_row)
    print(render_grid("gamma", gammas, "quantum", quanta, recall,
                      title=f"Recall, {trace.name} trace"))
    print()
    print(render_grid("gamma", gammas, "quantum", quanta, precision,
                      title=f"Precision, {trace.name} trace"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Real-time dense-cluster event detection (VLDB 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the Figure 1 quickstart scenario")
    demo.set_defaults(func=_cmd_demo)

    generate = sub.add_parser("generate", help="generate a synthetic JSONL trace")
    generate.add_argument(
        "preset",
        choices=sorted({**_TRACE_BUILDERS, **_ENTITY_TRACE_BUILDERS}),
        help="tw/es/ground-truth: keyword microblog workloads; "
             "edge: actor-entity interaction stream (detect --extractor "
             "edges); fields: structured-log stream (detect --extractor "
             "fields)",
    )
    generate.add_argument("output", help="output JSONL path")
    generate.add_argument("--messages", type=int, default=20_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(func=_cmd_generate)

    detect = sub.add_parser("detect", help="run the detector over a JSONL trace")
    detect.add_argument("trace", help="input JSONL path")
    _add_config_arguments(detect)
    detect.set_defaults(func=_cmd_detect)

    follow = sub.add_parser(
        "follow",
        help="tail a delta log as a warm standby (take over with "
             "'detect TRACE --resume-from DIR')",
    )
    follow.add_argument(
        "delta_log", metavar="DIR",
        help="delta-checkpoint directory a leader writes with "
             "'detect --delta-log DIR'",
    )
    follow.add_argument("--watch", type=float, default=None, metavar="SECS",
                        help="keep tailing for SECS seconds, printing "
                             "progress as records arrive")
    follow.add_argument("--until-quantum", type=int, default=None,
                        metavar="N",
                        help="block until the log reaches quantum N "
                             "(readable timeout error after --timeout)")
    follow.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECS",
                        help="give up on --until-quantum after SECS "
                             "(default 30)")
    follow.add_argument("--poll", type=float, default=0.2, metavar="SECS",
                        help="poll interval while waiting or watching "
                             "(default 0.2)")
    follow.add_argument("--checkpoint", metavar="PATH",
                        help="write the follower's state as a monolithic "
                             "checkpoint (off-leader snapshotting; "
                             "'detect --resume-from PATH' takes over)")
    follow.set_defaults(func=_cmd_follow)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant serving layer (HTTP + WebSocket)",
        description="Run the multi-tenant serving layer until interrupted "
                    "(Ctrl-C drains every tenant and seals its delta "
                    "log).  The bounds are fixed: a tenant's ingest queue "
                    "holds 100000 messages and sheds the overflow (counted "
                    "in /stats; /metrics reports the bound), a subscriber "
                    "buffers 1024 events unless its socket asks for "
                    "?buffer=N and loses the oldest first, and a "
                    "subscriber whose socket write stalls 10 s is "
                    "disconnected.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765; 0 = ephemeral)")
    serve.add_argument("--state-dir", metavar="DIR", default=None,
                       help="per-tenant durability root: a delta log, "
                            "sealed on graceful close; omit for "
                            "in-memory tenants")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="shared executor threads all tenants' quanta "
                            "interleave over (default 2)")
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser("sweep", help="print a small parameter-sweep grid")
    sweep.add_argument("preset", choices=sorted(_TRACE_BUILDERS))
    sweep.add_argument("--messages", type=int, default=12_000)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
