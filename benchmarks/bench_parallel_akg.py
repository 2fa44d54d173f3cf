"""Multi-core tokenize+AKG front-end: sharded workers vs the serial stage.

Replays one long-tailed *raw-text* stream (tokenisation is a first-class
cost here, exactly as in production microblog feeds) through four sessions:

* ``serial``  — the plain unsharded pipeline (the column engine);
* ``W=1``     — the sharded front-end with one in-process worker (measures
  what the partition/merge machinery costs over the serial stage);
* ``W=2``/``W=4`` — forked process workers over keyword-range shards.

Measured: the wall time of exactly the stages the front-end parallelises —
``tokenize + akg_update`` (post-accounting, i.e. excluding the inline
cluster-maintenance share, which is serial in every mode).  Every run's
reports are asserted bit-identical to the serial session's, so the speedup
is measured against a provably identical result (the shard-invariance
contract of DESIGN.md Section 7).

Gate: >= 2x tokenize+AKG speedup at 4 workers vs 1 — asserted when the
machine actually has >= 4 usable cores (a 1-core container cannot
demonstrate parallel speedup; the CI perf-smoke job runs this on a
multi-core runner, and the JSON result records the core count either way).

``w1_overhead`` (sharded W=1 wall over the serial wall) is recorded, not
gated: the serial stage feeds interned columns straight to the window
indexes, while the sharded front-end builds the merged mapping, partitions
it and re-interns each slice shard-side, so W=1 pays for the machinery
with nothing to amortise it over.  It is the number ROADMAP item 3's
sharding trial starts from.

Run standalone:  PYTHONPATH=src python benchmarks/bench_parallel_akg.py
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from _results import smoke_scale, write_json_result  # noqa: E402

from repro.api import open_session  # noqa: E402
from repro.config import DetectorConfig  # noqa: E402
from repro.eval.reporting import render_table  # noqa: E402
from repro.stream.messages import Message  # noqa: E402

QUANTUM = 1500
WINDOW = 10
N_GROUPS = 24
GROUP_SIZE = 4
USERS_PER_GROUP = 16
FILLER_VOCAB = 4000
USER_POOL = 20_000
WORKER_COUNTS = [1, 2, 4]

CONFIG = DetectorConfig(
    quantum_size=QUANTUM,
    window_quanta=WINDOW,
    high_state_threshold=8,
    ec_threshold=0.25,
    node_grace_quanta=1,
    require_noun=False,
)

# A large sub-threshold tail vocabulary: realistic mid-frequency words that
# never burst (the Section 7.4 CKG-vs-AKG gap), so the AKG stays event-sized
# while tokenize/hash volume stays high.
FILLER = [f"word{i:04d}" for i in range(FILLER_VOCAB)]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        return os.cpu_count() or 1


def build_stream(n_quanta: int, seed: int = 13) -> List[Message]:
    """Long-tailed raw-text stream: rotating event-group bursts riding a
    dominant sub-threshold filler vocabulary, authored by a recurring user
    population (plus fresh drive-by users), as in a real microblog feed."""
    rng = random.Random(seed)
    messages: List[Message] = []
    for quantum in range(n_quanta):
        batch: List[Message] = []
        # ~1/3 of the groups burst per quantum, rotating user cohorts
        for slot in range(N_GROUPS // 3):
            group = (quantum + slot * 3) % N_GROUPS
            words = " ".join(f"g{group}kw{k}" for k in range(GROUP_SIZE))
            base = group * 100 + (quantum % 3) * USERS_PER_GROUP
            for user in range(USERS_PER_GROUP):
                filler = " ".join(rng.sample(FILLER, 6))
                batch.append(
                    Message(
                        f"fan{base + user}",
                        text=f"{filler} {words} {rng.choice(FILLER)}",
                    )
                )
        # the tail: recurring users posting filler chatter, occasionally a
        # one-shot keyword from a drive-by author
        noise_id = 0
        while len(batch) < QUANTUM:
            filler = " ".join(rng.sample(FILLER, 8))
            if noise_id % 4 == 0:
                author = f"drive{quantum}_{noise_id}"
                text = f"{filler} zz{quantum}x{noise_id}"
            else:
                author = f"user{rng.randrange(USER_POOL)}"
                text = filler
            batch.append(Message(author, text=text))
            noise_id += 1
        rng.shuffle(batch)
        messages.extend(batch[:QUANTUM])
    return messages


def report_fingerprint(reports) -> list:
    return [
        (
            r.quantum,
            sorted(
                (e.event_id, tuple(sorted(e.keywords)), e.rank, e.support)
                for e in r.reported
            ),
            sorted(r.new_event_ids),
            sorted(r.dead_event_ids),
        )
        for r in reports
    ]


def run_mode(stream, **session_kwargs) -> Tuple[float, float, list, Dict]:
    """Returns (extract+akg seconds, total seconds, fingerprint, timings)."""
    session = open_session(CONFIG, **session_kwargs)
    reports = list(session.ingest_many(stream))
    timings = session.total_timings.as_dict()
    front = timings["extract"] + timings["akg_update"]
    total = session.total_seconds
    fingerprint = report_fingerprint(reports)
    session.close()
    return front, total, fingerprint, timings


def run_bench(n_quanta: int) -> Tuple[str, Dict[str, float], int, Dict]:
    stream = build_stream(n_quanta)
    cores = usable_cores()
    walls: Dict[str, float] = {}
    stage_timings: Dict[str, Dict[str, float]] = {}
    rows: List[List[object]] = []

    # Warm caches (imports, code objects, allocator) before any timing.
    run_mode(stream[: 2 * QUANTUM])

    # ``w1_overhead`` is a ratio of two walls of the same order, so the two
    # modes are measured *alternately* three times and take their minima —
    # single runs on shared runners are ~10% noisy.
    serial_fp = None
    serial_front = serial_total = float("inf")
    w1_front = w1_total = float("inf")
    for _ in range(3):
        front, total, fingerprint, timings = run_mode(stream)
        if serial_fp is None:
            serial_fp = fingerprint
        assert fingerprint == serial_fp
        if front < serial_front:
            stage_timings["serial"] = timings
        serial_front = min(serial_front, front)
        serial_total = min(serial_total, total)
        # workers=1 must still exercise the sharded machinery (that is
        # what the overhead figure measures), so force a shard count.
        front, total, fingerprint, timings = run_mode(
            stream, workers=1, shard_count=1
        )
        assert fingerprint == serial_fp, (
            "sharded W=1 reports diverged from the serial session"
        )
        if front < w1_front:
            stage_timings["w1"] = timings
        w1_front = min(w1_front, front)
        w1_total = min(w1_total, total)
    walls["serial"] = serial_front
    walls["w1"] = w1_front
    rows.append(
        ["serial", f"{serial_front:.2f}", f"{serial_total:.2f}", "-"]
    )
    rows.append(["sharded W=1", f"{w1_front:.2f}", f"{w1_total:.2f}", "1.00x"])
    for workers in WORKER_COUNTS:
        if workers == 1:
            continue
        front, total, fingerprint, timings = run_mode(
            stream, workers=workers
        )
        assert fingerprint == serial_fp, (
            f"sharded W={workers} reports diverged from the serial session"
        )
        walls[f"w{workers}"] = front
        stage_timings[f"w{workers}"] = timings
        rows.append(
            [
                f"sharded W={workers}",
                f"{front:.2f}",
                f"{total:.2f}",
                f"{walls['w1'] / front:.2f}x",
            ]
        )
    table = render_table(
        ["mode", "tokenize+akg s", "total s", "speedup vs W=1"],
        rows,
        title=(
            f"tokenize+AKG front-end, {n_quanta} quanta x {QUANTUM} raw-text "
            f"messages ({cores} usable cores) — all reports bit-identical"
        ),
    )
    return table, walls, cores, stage_timings


SPEEDUP_CORES_REQUIRED = 4


def bench_parallel_akg():
    """Acceptance gate: >= 2x at W=4 on >= 4 cores (W=1 overhead is
    recorded ungated)."""
    n_quanta = smoke_scale(default=24, smoke=8)
    table, walls, cores, stage_timings = run_bench(n_quanta)
    try:
        from conftest import emit
    except ImportError:  # standalone run
        print(table)
    else:
        emit("parallel_akg", table)

    overhead = walls["w1"] / walls["serial"]
    # A host below the core requirement cannot demonstrate parallel
    # speedup; record None (a documented skip) rather than shipping a
    # sub-1x "speedup" that a regression check would treat as the
    # machine's capability.
    measured = walls["w1"] / walls["w4"]
    speedup = measured if cores >= SPEEDUP_CORES_REQUIRED else None
    write_json_result(
        "parallel_akg",
        config={
            "quanta": n_quanta,
            "quantum_size": QUANTUM,
            "window_quanta": WINDOW,
            "cores": cores,
            "wall_serial_s": round(walls["serial"], 4),
            "wall_w1_s": round(walls["w1"], 4),
            "wall_w2_s": round(walls["w2"], 4),
            "wall_w4_s": round(walls["w4"], 4),
            "w1_overhead": round(overhead, 4),
            "speedup_cores_required": SPEEDUP_CORES_REQUIRED,
            "stage_timings_s": {
                mode: {k: round(v, 4) for k, v in timings.items()}
                for mode, timings in sorted(stage_timings.items())
            },
        },
        wall_s=walls["w4"],
        speedup=speedup,
        quanta=n_quanta,
    )
    print(f"-- sharded W=1 vs serial: {overhead:.2f}x (recorded, not gated)")
    if speedup is not None:
        assert speedup >= 2.0, (
            f"expected >= 2x tokenize+AKG speedup at 4 workers, got "
            f"{speedup:.2f}x on {cores} cores"
        )
    else:
        print(
            f"-- speedup gate skipped: {cores} usable core(s) < "
            f"{SPEEDUP_CORES_REQUIRED} (measured {measured:.2f}x; "
            f"enforced on multi-core CI)"
        )


if __name__ == "__main__":
    bench_parallel_akg()
