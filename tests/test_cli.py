"""Command-line interface behaviour."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_prints_cluster(self, capsys):
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == (
            "[initial tweets]\n"
            "  event #1: ['earthquake', 'eastern', 'struck', 'turkey'] "
            "rank=10.7\n"
            "[window slides]\n"
            "  event #1: ['5.9', 'earthquake', 'eastern', 'struck', "
            "'turkey'] rank=16.7\n"
        )


class TestGenerateAndDetect:
    def test_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main([
            "generate", "tw", trace_path, "--messages", "4000", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 4000 messages" in out

        truth = json.loads((tmp_path / "trace.jsonl.truth.json").read_text())
        assert any(not e["spurious"] for e in truth)

        assert main(["detect", trace_path, "--gamma", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "msg/s" in out

    def test_generate_all_presets(self, tmp_path, capsys):
        for preset in ("tw", "es", "ground-truth"):
            path = str(tmp_path / f"{preset}.jsonl")
            assert main(
                ["generate", preset, path, "--messages", "3000"]
            ) == 0

    def test_detect_custom_parameters(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        main(["generate", "tw", trace_path, "--messages", "3000"])
        capsys.readouterr()
        assert main([
            "detect", trace_path,
            "--quantum-size", "80",
            "--theta", "3",
            "--exact-ec",
        ]) == 0

    def test_detect_timing_breakdown(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        main(["generate", "tw", trace_path, "--messages", "3000"])
        capsys.readouterr()
        assert main(["detect", trace_path, "--timing"]) == 0
        out = capsys.readouterr().out
        assert "per-stage timing" in out
        for stage in ("extract", "akg_update", "maintain",
                      "propagate", "rank", "report"):
            assert stage in out
        assert "rank cache" in out



class TestExtractorFlags:
    def test_edge_stream_detect_and_resume_cycle(self, tmp_path, capsys):
        """generate edge -> detect --extractor edges --checkpoint -> resume:
        the CLI face of the non-text workload matrix."""
        trace_path = str(tmp_path / "edges.jsonl")
        ckpt_path = str(tmp_path / "edges.ckpt")
        assert main(
            ["generate", "edge", trace_path, "--messages", "4000"]
        ) == 0
        capsys.readouterr()
        assert main([
            "detect", trace_path, "--extractor", "edges",
            "--quantum-size", "80", "--theta", "3",
            "--checkpoint", ckpt_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "bundle" in out  # planted co-purchase bundles reported
        assert main([
            "detect", trace_path, "--resume-from", ckpt_path,
        ]) == 0
        assert "resumed from" in capsys.readouterr().out

    def test_fields_extractor_with_options(self, tmp_path, capsys):
        trace_path = str(tmp_path / "fields.jsonl")
        assert main(
            ["generate", "fields", trace_path, "--messages", "4000"]
        ) == 0
        capsys.readouterr()
        assert main([
            "detect", trace_path, "--extractor", "fields",
            "--extractor-options", '{"fields": ["tags"]}',
            "--quantum-size", "80", "--theta", "3",
        ]) == 0
        assert "tags:" in capsys.readouterr().out

    def test_malformed_extractor_options_rejected(self, tmp_path, capsys):
        trace_path_obj = tmp_path / "t.jsonl"
        trace_path_obj.write_text('{"u": "u1", "k": ["a"]}\n')
        trace_path = str(trace_path_obj)
        assert main([
            "detect", trace_path,
            "--extractor-options", "{not json",
        ]) == 2
        assert "JSON" in capsys.readouterr().err
        assert main([
            "detect", trace_path,
            "--extractor-options", '["a", "list"]',
        ]) == 2
        assert "object" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        ckpt_path = str(tmp_path / "session.ckpt")
        main(["generate", "tw", trace_path, "--messages", "3000"])
        capsys.readouterr()
        assert main([
            "detect", trace_path, "--gamma", "0.15",
            "--checkpoint", ckpt_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written to" in out
        assert (tmp_path / "session.ckpt").exists()
        assert main([
            "detect", trace_path, "--resume-from", ckpt_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "msg/s" in out

    def test_resumed_half_equals_uninterrupted_run(self, tmp_path, capsys):
        """Splitting a trace across a checkpoint reports the same events as
        one continuous detect run (the CLI face of the parity gate)."""
        trace_path = tmp_path / "trace.jsonl"
        ckpt_path = str(tmp_path / "half.ckpt")
        main(["generate", "tw", str(trace_path), "--messages", "3000"])
        capsys.readouterr()

        assert main(["detect", str(trace_path), "--gamma", "0.15"]) == 0
        whole_out = capsys.readouterr().out
        whole_events = [
            l for l in whole_out.splitlines() if "NEW event" in l
        ]

        lines = trace_path.read_text().splitlines(keepends=True)
        half_a = tmp_path / "a.jsonl"
        half_b = tmp_path / "b.jsonl"
        half_a.write_text("".join(lines[:1500]))
        half_b.write_text("".join(lines[1500:]))
        assert main([
            "detect", str(half_a), "--gamma", "0.15",
            "--checkpoint", ckpt_path,
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "detect", str(half_b), "--resume-from", ckpt_path,
        ]) == 0
        second = capsys.readouterr().out
        split_events = [
            l for l in (first + second).splitlines() if "NEW event" in l
        ]
        assert split_events == whole_events


class TestDeltaLogAndFollow:
    def test_detect_writes_delta_log_and_resume_reads_it(
        self, tmp_path, capsys
    ):
        trace_path = str(tmp_path / "trace.jsonl")
        dlog = str(tmp_path / "dlog")
        main(["generate", "tw", trace_path, "--messages", "3000"])
        capsys.readouterr()
        assert main([
            "detect", trace_path, "--gamma", "0.15",
            "--quantum-size", "100", "--delta-log", dlog,
        ]) == 0
        out = capsys.readouterr().out
        assert "delta log enabled at" in out
        assert "record(s)" in out
        assert (tmp_path / "dlog" / "MANIFEST.json").exists()
        # --resume-from accepts the delta directory just like a .ckpt file
        assert main([
            "detect", trace_path, "--resume-from", dlog,
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out

    def test_follow_promote_equals_uninterrupted_run(
        self, tmp_path, capsys
    ):
        """The CLI face of the failover gate: leader killed mid-stream, a
        follower tails its log, and taking over — ``detect --resume-from``
        the log over the rest of the stream — prints the same detection
        lines the uninterrupted run prints past the takeover point."""
        trace_path = tmp_path / "trace.jsonl"
        dlog = str(tmp_path / "dlog")
        main(["generate", "tw", str(trace_path), "--messages", "3000"])
        capsys.readouterr()

        assert main([
            "detect", str(trace_path), "--gamma", "0.15",
            "--quantum-size", "100",
        ]) == 0
        whole_out = capsys.readouterr().out
        whole_events = [
            l for l in whole_out.splitlines() if "NEW event" in l
        ]

        # Split at an exact quantum boundary: the takeover continues from
        # the last *logged* quantum, and a clean split means the leader's
        # pending buffer (the data-loss window) is empty.
        lines = trace_path.read_text().splitlines(keepends=True)
        half_a = tmp_path / "a.jsonl"
        half_b = tmp_path / "b.jsonl"
        half_a.write_text("".join(lines[:1500]))
        half_b.write_text("".join(lines[1500:]))
        assert main([
            "detect", str(half_a), "--gamma", "0.15",
            "--quantum-size", "100", "--delta-log", dlog,
            "--checkpoint", str(tmp_path / "lead.ckpt"),
        ]) == 0
        first = capsys.readouterr().out
        assert main(["follow", dlog, "--until-quantum", "14"]) == 0
        assert "caught up to quantum 14" in capsys.readouterr().out
        assert main(["detect", str(half_b), "--resume-from", dlog]) == 0
        second = capsys.readouterr().out
        assert "resumed from" in second
        split_events = [
            l for l in (first + second).splitlines() if "NEW event" in l
        ]
        assert split_events == whole_events

    def test_follow_snapshot_without_promote(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        dlog = str(tmp_path / "dlog")
        follower_ckpt = tmp_path / "follower.ckpt"
        main(["generate", "tw", trace_path, "--messages", "2000"])
        capsys.readouterr()
        assert main([
            "detect", trace_path, "--gamma", "0.15",
            "--quantum-size", "100", "--delta-log", dlog,
        ]) == 0
        capsys.readouterr()
        assert main([
            "follow", dlog, "--checkpoint", str(follower_ckpt),
        ]) == 0
        out = capsys.readouterr().out
        assert "follower checkpoint written to" in out
        assert follower_ckpt.exists()
        # The off-leader snapshot resumes like any monolithic checkpoint.
        assert main([
            "detect", trace_path, "--resume-from", str(follower_ckpt),
        ]) == 0
        assert "resumed from" in capsys.readouterr().out


class TestErrorsAreOneLine:
    """A failure the user caused is one ``error:`` line and exit status 2,
    never a traceback."""

    def test_detect_missing_trace(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.jsonl")
        assert main(["detect", missing]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and missing in lines[0]
        assert "Traceback" not in captured.out + captured.err

    def test_follow_until_quantum_times_out(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        dlog = str(tmp_path / "dlog")
        main(["generate", "tw", trace_path, "--messages", "1000"])
        assert main([
            "detect", trace_path, "--quantum-size", "100",
            "--delta-log", dlog,
        ]) == 0
        capsys.readouterr()
        assert main([
            "follow", dlog, "--until-quantum", "1000", "--timeout", "0.05",
        ]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "timed out" in lines[0]
        assert "Traceback" not in captured.out + captured.err

    def test_follow_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent-dir")
        assert main(["follow", missing]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and missing in lines[0]
        assert "Traceback" not in captured.out + captured.err


class TestSweep:
    def test_sweep_prints_grids(self, capsys):
        assert main(["sweep", "tw", "--messages", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Recall, TW trace" in out
        assert "Precision, TW trace" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "t.jsonl", "--workers", "2"],
            ["detect", "t.jsonl", "--shard-count", "2"],
            ["detect", "t.jsonl", "--overlap"],
            ["detect", "t.jsonl", "--oracle-akg"],
            ["detect", "t.jsonl", "--oracle-ranking"],
            ["detect", "t.jsonl", "--profile"],
            ["detect", "t.jsonl", "--delta-compact-ratio", "2"],
            ["follow", "d", "--workers", "2"],
            ["shard-worker"],
            ["follow", "d", "--promote"],
            ["follow", "d", "--trace", "t.jsonl"],
            ["follow", "d", "--promote-checkpoint", "p.ckpt"],
            ["serve", "--max-queue", "5"],
            ["serve", "--subscriber-buffer", "5"],
            ["serve", "--stall-deadline", "5"],
        ],
    )
    def test_removed_execution_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_lists_serve_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "multi-tenant serving layer" in out

    def test_serve_help_lists_only_deployment_flags(self, capsys):
        from repro.serve import hub, manager

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        flags = set(re.findall(r"--[a-z][a-z-]*", out))
        assert flags == {"--help", "--host", "--port", "--state-dir",
                         "--workers"}
        # The fixed bounds the help names are the ones the server uses.
        text = " ".join(out.split())
        assert f"holds {manager.MAX_QUEUE} messages" in text
        assert f"buffers {hub.SUBSCRIBER_BUFFER} events" in text
        assert f"stalls {hub.STALL_DEADLINE_S:g} s" in text


class TestServeInterrupt:
    @pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
    def test_sigint_drains_and_says_so(self, tmp_path, durable):
        """Ctrl-C is the way to stop ``repro serve``: the graceful shutdown
        runs, the process says what it did and exits 0."""
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if durable:
            argv += ["--state-dir", str(tmp_path / "state")]
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONUNBUFFERED="1",
        )
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                assert proc.stdout.readline().startswith(
                    "-- serving on http://"
                )
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=30)
                out, err = proc.stdout.read(), proc.stderr.read()
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert proc.returncode == 0, err
        last = out.splitlines()[-1]
        assert last == "-- interrupted; tenants drained" + (
            " and checkpointed" if durable else ""
        )
        assert "Traceback" not in err
