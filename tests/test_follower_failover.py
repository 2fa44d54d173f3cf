"""Hot-standby failover: a follower that takes over equals the
uninterrupted run.

The contract under test (DESIGN.md Section 10): a follower — a session
resumed from a leader's delta-log directory and kept current by
``deltalog.catch_up`` — taking over mid-stream and fed the stream from the
last logged quantum boundary, produces reports, sink notifications, event
histories, and a final checkpoint bit-identical to a session that never
stopped.  A crashed leader (SIGKILL mid-append in a subprocess) must leave
a log the follower loads to a consistent quantum boundary.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import golden
from repro.api import QueueSink, deltalog, open_session
from repro.api.deltalog import _LOG_MAGIC, decode_frames, read_manifest
from repro.errors import CheckpointError

from test_api_checkpoint import (
    bursty_stream,
    history_key,
    make_config,
    notification_key,
    report_key,
)


def uninterrupted_run(config, messages):
    session = open_session(config)
    sink = QueueSink()
    session.subscribe(sink)
    reports = [report_key(r) for r in session.ingest_many(messages)]
    notes = [notification_key(e) for e in sink.drain()]
    return reports, notes, session


class TestPromoteParity:
    def test_promoted_follower_equals_uninterrupted(self, tmp_path):
        config = make_config()
        messages = bursty_stream(21, 900)
        expected_reports, expected_notes, whole = uninterrupted_run(
            config, messages
        )
        whole.snapshot(tmp_path / "whole.ckpt")

        # leader runs the first 600 messages (30 quanta), then "dies"
        with open_session(config, delta_log=tmp_path / "d") as leader:
            lead_sink = QueueSink()
            leader.subscribe(lead_sink)
            reports = [
                report_key(r) for r in leader.ingest_many(messages[:600])
            ]
            notes = [notification_key(e) for e in lead_sink.drain()]

        session = open_session(resume=tmp_path / "d")
        takeover = session.current_quantum
        assert takeover == 29  # all 30 leader quanta were logged
        sink = QueueSink()
        session.subscribe(sink)
        reports += [
            report_key(r)
            for r in session.ingest_many(
                messages[(takeover + 1) * config.quantum_size :]
            )
        ]
        notes += [notification_key(e) for e in sink.drain()]

        assert reports == expected_reports
        assert notes == expected_notes
        assert [history_key(r) for r in session.events()] == [
            history_key(r) for r in whole.events()
        ]
        session.snapshot(tmp_path / "prom.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "prom.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "whole.ckpt")
        )
        session.close()

    def test_live_tail_while_leader_runs(self, tmp_path, monkeypatch):
        """catch_up mid-stream tracks the leader quantum by quantum,
        across compactions (generation flips)."""
        config = make_config()
        messages = bursty_stream(23, 800)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
            follower = open_session(resume=tmp_path / "d")
            first_generation = follower._log_tail.generation
            assert follower.current_quantum == leader.current_quantum
            for lo in range(200, 800, 100):
                list(leader.ingest_many(messages[lo : lo + 100]))
                follower = deltalog.catch_up(follower)
                assert follower.current_quantum == leader.current_quantum
            assert leader.delta_writer.compactions > 0
            assert follower._log_tail.generation > first_generation

    def test_a_roll_keeps_a_follower_less_than_a_window_behind(
        self, tmp_path, monkeypatch
    ):
        """The new generation's window file holds the quanta the follower
        missed, so catch_up feeds it those instead of restoring the new
        base, and it equals the leader after."""
        config = make_config()  # a 3-quantum window
        messages = bursty_stream(27, 600)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
            follower = open_session(resume=tmp_path / "d")
            assert follower.current_quantum == 9
            list(leader.ingest_many(messages[200:240]))
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
            list(leader.ingest_many(messages[240:260]))
            manifest = read_manifest(tmp_path / "d")
            assert manifest["generation"] == 1
            assert (manifest["window_from"], manifest["base_quantum"]) == (
                10, 12
            )
            assert deltalog.catch_up(follower) is follower
            assert follower.current_quantum == 12
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
            list(leader.ingest_many(messages[260:300]))
            assert deltalog.catch_up(follower) is follower
            assert follower.current_quantum == leader.current_quantum == 14
            leader.snapshot(tmp_path / "leader.ckpt")
        follower.snapshot(tmp_path / "follower.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "follower.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "leader.ckpt")
        )

    def test_a_follower_more_than_a_window_behind_restores(
        self, tmp_path, monkeypatch
    ):
        config = make_config()
        messages = bursty_stream(29, 600)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
            follower = open_session(resume=tmp_path / "d")
            list(leader.ingest_many(messages[200:280]))
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
            list(leader.ingest_many(messages[280:300]))
            caught_up = deltalog.catch_up(follower)
            assert caught_up is not follower
            assert caught_up.current_quantum == leader.current_quantum == 14

    def test_chained_failover(self, tmp_path):
        """The follower that took over can itself lead: enable a delta
        log, die, and a second follower takes over — still equal to the
        straight run."""
        config = make_config()
        messages = bursty_stream(27, 900)
        expected_reports, _, whole = uninterrupted_run(config, messages)
        whole.snapshot(tmp_path / "whole.ckpt")

        with open_session(config, delta_log=tmp_path / "d1") as first:
            reports = [
                report_key(r) for r in first.ingest_many(messages[:300])
            ]
        second = open_session(resume=tmp_path / "d1")
        q1 = second.current_quantum
        second.enable_delta_log(tmp_path / "d2")
        reports += [
            report_key(r)
            for r in second.ingest_many(
                messages[(q1 + 1) * config.quantum_size : 600]
            )
        ]
        second.close()
        third = open_session(resume=tmp_path / "d2")
        q2 = third.current_quantum
        reports += [
            report_key(r)
            for r in third.ingest_many(
                messages[(q2 + 1) * config.quantum_size :]
            )
        ]
        assert reports == expected_reports
        third.snapshot(tmp_path / "final.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "final.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "whole.ckpt")
        )
        third.close()

    def test_mid_quantum_death_loses_only_the_pending_buffer(
        self, tmp_path
    ):
        """A leader dying mid-quantum loses exactly its partial pending
        buffer: the follower stands at the last completed quantum, and
        re-feeding from that boundary reproduces the uninterrupted run."""
        config = make_config()
        messages = bursty_stream(29, 900)
        expected_reports, _, _ = uninterrupted_run(config, messages)

        split = 617  # mid-quantum: 617 = 30 * 20 + 17
        with open_session(config, delta_log=tmp_path / "d") as leader:
            reports = [
                report_key(r) for r in leader.ingest_many(messages[:split])
            ]
            assert leader.batcher.pending == 17
        session = open_session(resume=tmp_path / "d")
        assert session.current_quantum == 29  # quantum 30 never completed
        reports += [
            report_key(r)
            for r in session.ingest_many(
                messages[(session.current_quantum + 1) * 20 :]
            )
        ]
        assert reports == expected_reports
        session.close()


class TestPartialQuantumGeneration:
    """A generation whose base buffers a partial quantum — what a graceful
    close seals, and what ``open_session(resume=<file with a partial
    quantum>, delta_log=dir)`` writes — holds that buffer in no logged
    record.  A caught-up follower crossing into it must take the buffer
    from the base, or it drops those messages once promoted."""

    SPLIT = 617  # 30 quanta of 20, and 17 buffered messages

    def lead(self, tmp_path, config, messages):
        """A leader over the first SPLIT messages logging to ``d``, with a
        follower kept caught up: (leader, follower, the leader's reports
        and notifications)."""
        leader = open_session(config, delta_log=tmp_path / "d")
        sink = QueueSink()
        leader.subscribe(sink)
        reports = []
        follower = None
        for lo in range(0, self.SPLIT, 100):
            chunk = messages[lo : min(lo + 100, self.SPLIT)]
            reports += [report_key(r) for r in leader.ingest_many(chunk)]
            if follower is None:
                follower = open_session(resume=tmp_path / "d")
            else:
                follower = deltalog.catch_up(follower)
            assert follower.current_quantum == leader.current_quantum
        assert leader.batcher.pending == 17
        notes = [notification_key(e) for e in sink.drain()]
        return leader, follower, reports, notes

    def promote(self, tmp_path, config, messages, follower, reports, notes):
        """Feed the follower the stream from where the directory ends: its
        reports, notifications and final checkpoint, after the leader's,
        equal the uninterrupted run's."""
        expected_reports, expected_notes, whole = uninterrupted_run(
            config, messages
        )
        whole.snapshot(tmp_path / "whole.ckpt")
        sink = QueueSink()
        follower.subscribe(sink)
        start = (
            (follower.current_quantum + 1) * config.quantum_size
            + follower.batcher.pending
        )
        assert start == self.SPLIT
        reports += [
            report_key(r) for r in follower.ingest_many(messages[start:])
        ]
        notes += [notification_key(e) for e in sink.drain()]
        assert reports == expected_reports
        assert notes == expected_notes
        follower.snapshot(tmp_path / "promoted.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "promoted.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "whole.ckpt")
        )

    def test_follower_crosses_a_sealed_generation(self, tmp_path):
        config = make_config()
        messages = bursty_stream(31, 900)
        leader, follower, reports, notes = self.lead(
            tmp_path, config, messages
        )
        leader.delta_writer.seal(leader)
        leader.close()
        assert read_manifest(tmp_path / "d")["pending"] == 17
        follower = deltalog.catch_up(follower)
        assert follower.current_quantum == 29
        assert follower.batcher.pending == 17
        self.promote(tmp_path, config, messages, follower, reports, notes)

    def test_follower_crosses_a_generation_resumed_from_a_file(
        self, tmp_path
    ):
        """The library path: a leader resumed from a snapshot holding a
        partial quantum starts a generation whose base buffers it."""
        config = make_config()
        messages = bursty_stream(31, 900)
        leader, follower, reports, notes = self.lead(
            tmp_path, config, messages
        )
        leader.snapshot(tmp_path / "partial.ckpt")
        leader.close()
        successor = open_session(
            resume=tmp_path / "partial.ckpt", delta_log=tmp_path / "d"
        )
        follower = deltalog.catch_up(follower)
        successor.close()
        assert follower.current_quantum == 29
        assert follower.batcher.pending == 17
        self.promote(tmp_path, config, messages, follower, reports, notes)

    def test_follower_holding_a_buffer_crosses_an_empty_one(self, tmp_path):
        """A follower resumed at a base that buffers a partial quantum
        holds that buffer; a writer at the same quantum with no buffer
        starts a generation there, and the follower must end with its
        empty buffer, not its own."""
        config = make_config()
        messages = bursty_stream(31, 900)
        _, _, whole = uninterrupted_run(config, messages)
        whole.snapshot(tmp_path / "whole.ckpt")
        d = tmp_path / "d"
        with open_session(config) as leader:
            list(leader.ingest_many(messages[:600]))
            leader.snapshot(tmp_path / "boundary.ckpt")
            list(leader.ingest_many(messages[600 : self.SPLIT]))
            leader.snapshot(tmp_path / "partial.ckpt")
        open_session(resume=tmp_path / "partial.ckpt", delta_log=d).close()
        follower = open_session(resume=d)
        assert follower.batcher.pending == 17
        open_session(resume=tmp_path / "boundary.ckpt", delta_log=d).close()
        follower = deltalog.catch_up(follower)
        assert follower.current_quantum == 29
        assert follower.batcher.pending == 0
        list(follower.ingest_many(messages[600:]))
        follower.snapshot(tmp_path / "promoted.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "promoted.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "whole.ckpt")
        )


class TestFollowerLifecycle:
    def test_catch_up_refuses_a_session_that_leads(self, tmp_path):
        """A follower that ingested past its tail leads now: catch_up
        has nothing to follow and says so."""
        config = make_config()
        messages = bursty_stream(1, 200)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:100]))
        session = open_session(resume=tmp_path / "d")
        assert deltalog.catch_up(session) is session
        list(session.ingest_many(messages[100:]))
        with pytest.raises(CheckpointError, match="leads now"):
            deltalog.catch_up(session)

    def test_follower_snapshot_resumes_like_any_checkpoint(self, tmp_path):
        config = make_config()
        messages = bursty_stream(31, 600)
        expected_reports, _, _ = uninterrupted_run(config, messages)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            reports = [
                report_key(r) for r in leader.ingest_many(messages[:400])
            ]
        follower = open_session(resume=tmp_path / "d")
        follower.snapshot(tmp_path / "standby.ckpt")
        resumed = open_session(resume=tmp_path / "standby.ckpt")
        reports += [
            report_key(r) for r in resumed.ingest_many(messages[400:])
        ]
        assert reports == expected_reports

    def test_missing_directory_is_a_readable_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing"):
            open_session(resume=tmp_path / "nothing")
        (tmp_path / "empty").mkdir()
        with pytest.raises(CheckpointError, match="MANIFEST"):
            open_session(resume=tmp_path / "empty")

    def test_needs_a_path(self, tmp_path):
        """A follower tails the delta-checkpoint directory it was resumed
        from; a fresh session, or one resumed from a monolithic snapshot,
        has none."""
        with pytest.raises(CheckpointError, match="resume"):
            deltalog.catch_up(open_session(make_config()))
        with open_session(make_config()) as session:
            list(session.ingest_many(bursty_stream(1, 100)))
            session.snapshot(tmp_path / "mono.ckpt")
        with pytest.raises(CheckpointError, match="resume"):
            deltalog.catch_up(open_session(resume=tmp_path / "mono.ckpt"))

    def test_followed_session_appends_to_the_followed_generation(
        self, tmp_path, monkeypatch
    ):
        """A follower that enables a delta log on the directory it follows,
        standing at the log's end, keeps appending to that generation, and
        the directory then resumes equal to the uninterrupted run."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        config = make_config()
        messages = bursty_stream(33, 900)
        expected_reports, _, whole = uninterrupted_run(config, messages)
        whole.snapshot(tmp_path / "whole.ckpt")
        with open_session(config, delta_log=tmp_path / "d") as leader:
            reports = [
                report_key(r) for r in leader.ingest_many(messages[:200])
            ]
            follower = open_session(resume=tmp_path / "d")
            reports += [
                report_key(r) for r in leader.ingest_many(messages[200:400])
            ]
        follower = deltalog.catch_up(follower)
        assert follower.current_quantum == 19
        base = (tmp_path / "d" / "base-0.ckpt").read_bytes()
        follower.enable_delta_log(tmp_path / "d")
        assert follower.delta_writer.generation == 0
        reports += [
            report_key(r) for r in follower.ingest_many(messages[400:600])
        ]
        follower.close()
        assert (tmp_path / "d" / "base-0.ckpt").read_bytes() == base
        resumed = open_session(resume=tmp_path / "d")
        assert resumed.current_quantum == 29
        reports += [
            report_key(r) for r in resumed.ingest_many(messages[600:])
        ]
        assert reports == expected_reports
        resumed.snapshot(tmp_path / "resumed.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "resumed.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "whole.ckpt")
        )


class TestCrashedLeader:
    @staticmethod
    def loadable_quantum(log_dir) -> int:
        """The quantum a reader of ``log_dir`` would land on right now: the
        current base's plus one per complete, checksummed record after it
        (-1 while there is nothing to read, or mid generation flip)."""
        try:
            manifest = read_manifest(log_dir)
            data = (log_dir / manifest["log"]).read_bytes()
        except (CheckpointError, OSError):
            return -1
        records, _ = decode_frames(data, offset=len(_LOG_MAGIC))
        return manifest["base_quantum"] + len(records)

    def test_sigkilled_leader_leaves_a_loadable_log(self, tmp_path):
        """SIGKILL a real leader process mid-stream; the follower must load
        a consistent quantum boundary and continue to the exact same final
        state as an uninterrupted run over the same seeded stream."""
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, {src!r})
            sys.path.insert(0, {tests!r})
            from repro.api import open_session
            from test_api_checkpoint import bursty_stream, make_config

            session = open_session(
                make_config(), delta_log={dlog!r}
            )
            messages = bursty_stream(37, 100000)
            print("ready", flush=True)
            for message in messages:
                session.ingest(message)
            """
        ).format(
            src=str(Path("src").resolve()),
            tests=str(Path("tests").resolve()),
            dlog=str(tmp_path / "d"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            # Let it log two *complete* records (or compact past them),
            # then kill it without ceremony.  Polling on decodable records,
            # not log bytes: one partially written record crosses any byte
            # threshold, and the torn-tail rule then rightly loads q=0.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if self.loadable_quantum(tmp_path / "d") >= 1:
                    break
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        promoted = open_session(resume=tmp_path / "d")
        q = promoted.current_quantum
        assert q >= 1  # it logged something before dying

        # reference: uninterrupted run over the same prefix of the stream
        config = make_config()
        messages = bursty_stream(37, (q + 1) * config.quantum_size)
        reference = open_session(config)
        list(reference.ingest_many(messages))
        reference.snapshot(tmp_path / "ref.ckpt")
        promoted.snapshot(tmp_path / "prom.ckpt")
        assert golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "prom.ckpt")
        ) == golden.fingerprint(
            golden.normalized_checkpoint_state(tmp_path / "ref.ckpt")
        )
        promoted.close()
