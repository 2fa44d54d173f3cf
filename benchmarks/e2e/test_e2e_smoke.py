"""Smoke test of the end-to-end benchmark (collected by tier-1).

Checks the benchmark's own arithmetic on hand-made numbers, then runs every
workload once at ``--smoke`` scale — a real ``repro serve`` subprocess, a
kill -9, the traced replay — and holds the output to ``BENCHMARK.json``.
Nothing here asserts a speed: smoke-scale numbers are never compared.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import e2e_harness  # noqa: E402
import e2e_stats as stats  # noqa: E402
import e2e_workloads as workloads  # noqa: E402
import run as e2e_run  # noqa: E402
from e2e_tracing import Tracer, waterfall  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------- arithmetic


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile_supported(100, 90)
    assert not stats.percentile_supported(99, 90)
    assert not stats.percentile_supported(8, 90)
    assert stats.highest_supported_percentile(100) == 90
    assert stats.highest_supported_percentile(1000) == 99
    assert stats.highest_supported_percentile(20) == 50
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(0) is None


def test_quantum_to_last_message_and_due_time():
    assert stats.last_message_of_quantum(0, 160) == 159
    assert stats.last_message_of_quantum(2, 160) == 479
    # Message k of a 2000 msg/s stream is due (k + 1) / 2000 s in: the
    # quantum's last message is due exactly one arrival interval after the
    # previous quantum's.
    assert stats.due_time(10.0, 159, 2000.0) == pytest.approx(10.08)
    assert stats.due_time(10.0, 319, 2000.0) == pytest.approx(10.16)


def test_latency_runs_from_the_due_time_and_missing_counts_as_late():
    start, rate, quantum = 100.0, 2000.0, 160  # one quantum per 80 ms
    received = {
        0: 100.08 + 0.005,   # 5 ms after its last message was due
        1: 100.16 + 0.090,   # 90 ms: the next quantum had fully arrived
        # quantum 2 must notify and never does
    }
    latencies, late = stats.notify_latencies(
        start, rate, quantum, [0, 1, 2], received
    )
    assert latencies == pytest.approx([0.005, 0.090])
    assert late == 2
    # A generator that sent late does not shorten the latency: only the
    # schedule and the receipt time enter.
    assert stats.notify_latencies(start, rate, quantum, [], received) == ([], 0)


def test_spread_and_worsening():
    values = [10.0, 10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


def test_undisturbed_total_takes_each_step_where_it_went_fastest():
    passes = [
        [1.0, 5.0, 2.0],   # a neighbour was busy during the second step
        [1.1, 3.0, 2.5],
        [4.0, 3.2, 2.1],   # ... and here during the first
    ]
    # The expensive middle step stays in the total; only the extra goes.
    assert stats.undisturbed_total(passes) == pytest.approx(1.0 + 3.0 + 2.0)
    assert stats.undisturbed_total(passes[:1]) == pytest.approx(8.0)


def test_self_time_is_the_span_minus_its_children():
    spans = [
        ("api.session.process_quantum", 0.0, 10.0, None, 0),
        ("pipeline.extract", 1.0, 3.0, 0, 0),
        ("pipeline.akg_update", 3.0, 8.0, 0, 0),
        ("api.deltalog.append", 8.5, 9.5, 0, 0),
        ("api.session.process_quantum", 10.0, 14.0, None, 1),
        ("pipeline.extract", 10.0, 11.0, 4, 1),
    ]
    own = stats.self_times(spans)
    assert own["api.session.process_quantum"] == pytest.approx(2.0 + 3.0)
    assert own["pipeline.extract"] == pytest.approx(3.0)
    assert own["pipeline.akg_update"] == pytest.approx(5.0)
    assert sum(own.values()) == pytest.approx(14.0)


def test_tracer_nests_spans_and_the_residual_closes_the_waterfall():
    tracer = Tracer()
    tracer.segment = "flood"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.segment = "other"
    with tracer.span("elsewhere"):
        pass
    rows = tracer.segment_spans("flood")
    assert [r[0] for r in rows] == ["outer", "inner"]
    assert rows[0][3] is None and rows[1][3] == 0
    fall = waterfall(tracer, "flood", untraced_wall=1.0)
    assert set(fall) == {"outer", "inner", "serve.residual"}
    assert sum(fall.values()) == pytest.approx(1.0)
    assert "serve.residual" not in waterfall(tracer, "flood", None)


def test_prepared_frames_are_what_the_server_reads():
    from repro.serve import wire

    rng = random.Random(5)
    for size in (0, 5, 125, 126, 70_000):
        payload = bytes(rng.randrange(256) for _ in range(size))
        frame = e2e_harness.mask_frame(payload, rng)
        opcode, decoded = wire.read_frame_blocking(io.BytesIO(frame))
        assert (opcode, decoded) == (wire.OP_TEXT, payload)
    reader = e2e_harness._FrameBuffer()
    served = wire.encode_frame(wire.OP_TEXT, b"x" * 300) + wire.encode_frame(
        wire.OP_TEXT, b"{}"
    )
    assert reader.feed(served[:100]) == []
    assert reader.feed(served[100:]) == [(1, b"x" * 300), (1, b"{}")]


# ------------------------------------------------------------ the contract


def test_benchmark_json_names_what_the_benchmark_prints():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT[key]}
        assert declared == table
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_no_execution_setting_is_passed_to_the_program():
    banned = ("backend", "workers", "shard_count", "overlap", "oracle_",
              "--max-queue", "--subscriber-buffer", "--stall-deadline",
              "--host")
    for source in HERE.glob("e2e_*.py"):
        text = source.read_text(encoding="utf-8")
        for word in banned:
            assert word not in text, f"{source.name} mentions {word!r}"
    allowed = {"quantum_size", "window_quanta", "high_state_threshold",
               "ec_threshold", "node_grace_quanta"}
    assert set(workloads.TABLE2) == allowed == set(workloads.HOTPATH)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_at_smoke_scale(name, capsys):
    args = argparse.Namespace(
        workload=name, seed=3, seconds=float(CONTRACT["run_seconds"]),
        trace=1, smoke=True,
    )
    assert workloads.WORKLOADS[name][1] == next(
        w["why"] for w in CONTRACT["workloads"] if w["name"] == name
    )
    result = workloads.run_workload(name, args)
    assert result["smoke"] and result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["probes_missing"] == []
    assert set(result["end_to_end"]) == set(workloads.END_TO_END)
    assert set(result["per_layer"]) == set(workloads.PER_LAYER)
    for metric, value in result["end_to_end"].items():
        assert value is not None and value > 0, metric
    for metric, value in result["per_layer"].items():
        assert value is not None, metric
    assert sum(result["waterfall"].values()) > 0
    assert Path(result["span_file"]).is_file()
    tables = (workloads.END_TO_END, workloads.PER_LAYER)
    e2e_run.print_result(result, tables)
    printed = capsys.readouterr().out
    assert "SMOKE SCALE - not comparable" in printed
    for metric in list(workloads.END_TO_END) + list(workloads.PER_LAYER):
        assert metric in printed
    line = json.loads(e2e_run.result_line(result, tables))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(workloads.PER_LAYER)
    result["per_layer"] = None
    line = json.loads(e2e_run.result_line(result, tables))
    assert set(line["metrics"]) == set(workloads.END_TO_END)
    # Scratch state is removed on every exit path; only span files stay.
    left = [p.name for p in e2e_harness.OUT.iterdir() if p.name.startswith("tmp-")]
    assert left == []
