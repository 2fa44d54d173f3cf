"""Delta checkpoints: bytes/quantum and latency vs full snapshots.

A TW-style trace runs through a session with the incremental checkpoint
enabled (compaction disabled so every quantum's record is measured), and
the same session is snapshotted monolithically at the end.  Measured per
steady-state quantum (a full window behind it):

* ``delta bytes/quantum``  — the framed edit-op record size;
* ``snapshot bytes``       — the full checkpoint at end of stream;
* ``append latency``       — compose + frame + fsync per quantum
  (``DeltaCheckpointWriter.append_seconds``), against the wall cost of a
  monolithic ``snapshot()`` at the same position.

Gates (asserted here, ratio re-gated by ``check_regression.py``):

* mean steady-state delta <= ``GATE_RATIO`` (10%) of the full snapshot at
  the 20k-message window of the paper's Table 2 scale — the headline
  ``speedup`` is ``snapshot_bytes / mean_delta_bytes``, so the gate floor
  is ``1 / GATE_RATIO`` = 10x;
* median steady-state append <= ``APPEND_GATE_MS`` (25 ms) per quantum at
  that scale (ROADMAP item 3: durability must fit inside the quantum's own
  processing time, not multiply it);
* replaying base+deltas reproduces the monolithic snapshot's state tree
  byte-for-byte (the directory reader's parity contract, DESIGN.md
  Section 10).

Run standalone:  PYTHONPATH=src python benchmarks/bench_delta_checkpoint.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _results import smoke_scale, write_json_result  # noqa: E402

from repro.api import open_session  # noqa: E402
from repro.api.checkpoint import encode_state, load_checkpoint  # noqa: E402
from repro.config import DetectorConfig  # noqa: E402
from repro.datasets.traces import build_tw_trace  # noqa: E402

# Table-2 scale: 20k-message windows (the ISSUE's gate point).  The smoke
# run shrinks the quantum, keeping the window at 40 quanta so the
# steady-state structure is the same shape.
QUANTUM = smoke_scale(500, 200)
WINDOW_QUANTA = 40
N_QUANTA = smoke_scale(60, 48)
SEED = 7
GATE_RATIO = 0.10
APPEND_GATE_MS = 25.0


def main() -> int:
    config = DetectorConfig(
        quantum_size=QUANTUM,
        window_quanta=WINDOW_QUANTA,
        high_state_threshold=max(2, QUANTUM // 40),
        ec_threshold=0.2,
    )
    total = QUANTUM * N_QUANTA
    trace = build_tw_trace(total_messages=total, seed=SEED)
    tmp = Path("benchmarks") / "_delta_bench_scratch"
    delta_dir = tmp / "delta"
    mono_path = tmp / "mono.ckpt"
    tmp.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    # compaction disabled: every quantum's record stays on disk so the
    # steady-state byte sizes can be read back frame by frame
    session = open_session(
        config, delta_log=delta_dir, delta_compact_ratio=1e12
    )
    sizes = []
    append_ms_each = []
    writer = session.delta_writer
    logged_before = writer.log_bytes
    appended_before = writer.append_seconds
    for report in session.ingest_many(trace.messages):
        sizes.append(writer.log_bytes - logged_before)
        logged_before = writer.log_bytes
        append_ms_each.append(
            1000.0 * (writer.append_seconds - appended_before)
        )
        appended_before = writer.append_seconds
    snap_started = time.perf_counter()
    session.snapshot(mono_path)
    snapshot_seconds = time.perf_counter() - snap_started
    session.close()
    wall_s = time.perf_counter() - started

    snapshot_bytes = mono_path.stat().st_size
    steady = sizes[WINDOW_QUANTA:]
    assert steady, "stream too short: no steady-state quanta measured"
    mean_delta = sum(steady) / len(steady)
    ratio = mean_delta / snapshot_bytes
    speedup = snapshot_bytes / mean_delta
    append_ms = 1000.0 * writer.append_seconds / max(writer.records_written, 1)
    steady_append_ms = statistics.median(append_ms_each[WINDOW_QUANTA:])

    print(f"delta checkpoint bench  (quantum={QUANTUM}, "
          f"window={WINDOW_QUANTA} quanta = {QUANTUM * WINDOW_QUANTA} msgs)")
    print(f"  full snapshot          {snapshot_bytes:>12,} bytes, "
          f"{snapshot_seconds * 1000:.1f} ms")
    print(f"  steady-state delta     {mean_delta:>12,.0f} bytes/quantum "
          f"(max {max(steady):,}, min {min(steady):,})")
    print(f"  size ratio             {100.0 * ratio:.2f}% of a full "
          f"snapshot (gate <= {100.0 * GATE_RATIO:.0f}%)")
    print(f"  append latency         {steady_append_ms:.2f} ms/quantum "
          f"steady-state median, {append_ms:.2f} mean over the run "
          f"(compose + frame + fsync; gate <= {APPEND_GATE_MS:.0f} ms)")
    print(f"  snapshot-vs-delta      {snapshot_seconds * 1000 / max(append_ms, 1e-9):.1f}x "
          f"slower to snapshot monolithically")

    # parity: replaying base+deltas equals the monolithic snapshot exactly
    canon = lambda t: json.dumps(
        encode_state(t), sort_keys=True, separators=(",", ":")
    )
    assert canon(load_checkpoint(delta_dir)) == canon(
        load_checkpoint(mono_path)
    ), "replayed delta checkpoint diverged from the monolithic snapshot"
    print("  replay parity          OK (base+deltas == monolithic, bytes)")

    assert ratio <= GATE_RATIO, (
        f"steady-state delta is {100.0 * ratio:.2f}% of a full snapshot, "
        f"above the {100.0 * GATE_RATIO:.0f}% gate"
    )

    assert steady_append_ms <= APPEND_GATE_MS, (
        f"steady-state append takes {steady_append_ms:.1f} ms per quantum, "
        f"above the {APPEND_GATE_MS:.0f} ms gate"
    )

    write_json_result(
        "delta_checkpoint",
        config={
            "quantum_size": QUANTUM,
            "window_quanta": WINDOW_QUANTA,
            "window_messages": QUANTUM * WINDOW_QUANTA,
            "n_quanta": N_QUANTA,
            "seed": SEED,
            "snapshot_bytes": snapshot_bytes,
            "mean_delta_bytes": round(mean_delta, 1),
            "max_delta_bytes": max(steady),
            "delta_ratio": round(ratio, 5),
            "append_ms_per_quantum": round(append_ms, 3),
            "steady_append_ms_median": round(steady_append_ms, 3),
            "snapshot_ms": round(snapshot_seconds * 1000, 2),
            "records_written": writer.records_written,
            "smoke": bool(os.environ.get("PERF_SMOKE")),
        },
        wall_s=wall_s,
        speedup=speedup,
        quanta=N_QUANTA,
    )

    # scratch cleanup: the results JSON is the artifact, not the log
    for p in sorted(tmp.rglob("*"), reverse=True):
        p.unlink() if p.is_file() else p.rmdir()
    tmp.rmdir() if tmp.exists() else None
    return 0


if __name__ == "__main__":
    sys.exit(main())
