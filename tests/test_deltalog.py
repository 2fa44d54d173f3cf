"""Delta checkpoints: framing, writer, directory reader and replay.

A record is the completed quantum's input, and recovery replays it through
the pipeline, so the contract is *lossless replay*: a session resumed from
a delta directory and fed the rest of the stream equals the uninterrupted
run — reports, and the final checkpoint under
``golden.normalized_checkpoint_state`` (wall clocks are not deterministic,
so they are zeroed) — whatever the records carry: integer user ids,
structured ``fields`` payloads, timestamps, and a base that holds a partial
pending quantum (which is how a graceful stop seals a directory).  A seeded
fuzzer checks the same per record: replaying
record *q* onto the state taken while *q* was filling gives the state after
*q*, in canonical codec bytes.  Framing is tested the way crashes tear
it: truncation at every byte offset of a real log must yield a consistent
prefix, never an exception and never a wrong record.
"""

import json
import os
import random
import signal
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import golden
from repro.api import deltalog, open_session
from repro.api.checkpoint import decode_state, encode_state, load_checkpoint
from repro.api.deltalog import (
    _LOG_MAGIC,
    DeltaCheckpointWriter,
    FileTailTransport,
    decode_frames,
    encode_frame,
    read_manifest,
    replay,
)
from repro.api.session import DetectorSession
from repro.config import DetectorConfig
from repro.datasets.entity_streams import build_structured_trace
from repro.errors import CheckpointError
from repro.extract import KeywordExtractor
from repro.stream.messages import Message
from repro.stream.sources import message_from_record

from test_api_checkpoint import bursty_stream, make_config, report_key


def same_state(a, b) -> bool:
    """Two checkpoints (files or delta directories) hold the same session
    state, wall clocks aside."""
    return golden.fingerprint(
        golden.normalized_checkpoint_state(a)
    ) == golden.fingerprint(golden.normalized_checkpoint_state(b))


# ------------------------------------------------------------------ framing


class TestFraming:
    def records(self):
        return [
            {"q": 1, "in": [{"u": "a", "k": ["x", "y"]}]},
            {"q": 2, "in": []},
            {"q": 3, "in": [{"u": 7, "t": "text", "ts": 1.5}]},
        ]

    def test_round_trip(self):
        data = b"".join(encode_frame(r) for r in self.records())
        out, end = decode_frames(data)
        assert out == self.records()
        assert end == len(data)

    def test_truncation_at_every_byte_yields_consistent_prefix(self):
        frames = [encode_frame(r) for r in self.records()]
        data = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(data) + 1):
            out, end = decode_frames(data[:cut])
            complete = max(i for i, b in enumerate(boundaries) if b <= cut)
            assert out == self.records()[:complete]
            assert end == boundaries[complete]

    def test_corrupt_payload_byte_stops_at_crc(self):
        data = b"".join(encode_frame(r) for r in self.records())
        header = struct.Struct(">II").size
        corrupt = bytearray(data)
        corrupt[header + 2] ^= 0xFF  # inside the first payload
        out, end = decode_frames(bytes(corrupt))
        assert out == []
        assert end == 0

    def test_crc_valid_garbage_json_raises(self):
        import zlib

        payload = b"not json {"
        frame = struct.Struct(">II").pack(
            len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(CheckpointError, match="not valid JSON"):
            decode_frames(frame)

    def test_absurd_length_is_a_torn_tail(self):
        frame = struct.Struct(">II").pack(1 << 31, 0) + b"x"
        out, end = decode_frames(frame)
        assert out == [] and end == 0


# ------------------------------------------------ writer + directory reader


def logged_record_sizes(tmp_path, config, messages):
    """Frame size of every record a real session logs over ``messages``;
    leaves a monolithic snapshot of the final state at ``full.ckpt``."""
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)  # one generation
        with open_session(config, delta_log=tmp_path / "d") as session:
            writer = session.delta_writer
            logged = writer.log_bytes
            for _ in session.ingest_many(messages):
                sizes.append(writer.log_bytes - logged)
                logged = writer.log_bytes
            session.snapshot(tmp_path / "full.ckpt")
    return sizes


def lead(tmp_path, n_messages, seed=3, config=None):
    """A leader that logged ``n_messages`` of a bursty stream to
    ``tmp_path/d`` and snapshotted the same position to ``mono.ckpt``."""
    config = config or make_config()
    with open_session(config, delta_log=tmp_path / "d") as session:
        list(session.ingest_many(bursty_stream(seed, n_messages)))
        session.snapshot(tmp_path / "mono.ckpt")
        return session.delta_writer


class TestWriterAndReader:
    def test_replay_equals_monolithic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e9)
        writer = lead(tmp_path, 8 * 20)
        assert writer.records_written == 8 and writer.compactions == 0
        assert same_state(tmp_path / "d", tmp_path / "mono.ckpt")

    def test_compaction_rolls_generation_and_truncates(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        writer = lead(tmp_path, 8 * 20)
        assert writer.compactions == 8
        manifest = read_manifest(tmp_path / "d")
        assert manifest["generation"] == writer.generation > 0
        assert manifest["base_quantum"] == 7
        # old-generation files are gone, current ones exist
        names = {p.name for p in (tmp_path / "d").iterdir()}
        assert manifest["base"] in names and manifest["log"] in names
        assert not any(
            n.startswith(("base-0", "deltas-0")) for n in names
        )
        assert same_state(tmp_path / "d", tmp_path / "mono.ckpt")

    def test_compaction_follows_the_replay_cost(self, tmp_path, monkeypatch):
        """A generation rolls once the logged quanta's processing seconds
        pass the budget, and the log then restarts from zero cost."""
        seconds = []
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e9)
        with open_session(make_config(), delta_log=tmp_path / "d") as s:
            for report in s.ingest_many(bursty_stream(3, 6 * 20)):
                seconds.append(report.elapsed_seconds)
            writer = s.delta_writer
            assert writer.replay_seconds == pytest.approx(sum(seconds))
            monkeypatch.setattr(
                deltalog, "REPLAY_BUDGET_S", writer.replay_seconds
            )
            list(s.ingest_many(bursty_stream(4, 20)))
            assert writer.compactions == 1
            assert writer.replay_seconds == 0.0
            assert read_manifest(tmp_path / "d")["base_quantum"] == 6

    def test_attach_starts_a_fresh_generation(self, tmp_path):
        """A session that was not replayed from the directory (here: a
        fresh one) attaches with a new generation and its own base."""
        first = lead(tmp_path, 2 * 20)
        config = make_config()
        with open_session(config, delta_log=tmp_path / "d") as second:
            assert second.delta_writer.generation == first.generation + 1
            list(second.ingest_many(bursty_stream(5, 20)))
            second.snapshot(tmp_path / "second.ckpt")
        assert same_state(tmp_path / "d", tmp_path / "second.ckpt")

    def test_append_before_start_raises(self, tmp_path):
        writer = DeltaCheckpointWriter(tmp_path / "d")
        with pytest.raises(CheckpointError, match="not started"):
            writer.append(open_session(make_config()))

    def test_delta_records_are_small(self, tmp_path):
        # A quantum that touches a small fraction of a wide window — the
        # regime delta checkpoints exist for.  Each quantum uses one of 20
        # rotating keyword groups over a 12-quantum window.  A record is
        # the quantum's input, so its size is the input's whatever the
        # window holds; at full scale the e2e benchmark's
        # api.deltalog.delta_ratio tracks the same size.
        rng = random.Random(5)
        config = make_config(quantum_size=40, window_quanta=12)
        n_quanta = 30
        groups = [
            [f"g{g}k{i}" for i in range(8)] for g in range(20)
        ]
        messages = []
        for q in range(n_quanta):
            group = groups[q % 20]
            for _ in range(config.quantum_size):
                messages.append(
                    Message(
                        f"u{rng.randrange(200)}",
                        tokens=tuple(rng.sample(group, 2)),
                    )
                )
        sizes = logged_record_sizes(tmp_path, config, messages)
        # compare steady-state records to a full snapshot at the same
        # stream position (the gen-0 base predates the full window)
        full = (tmp_path / "full.ckpt").stat().st_size
        assert max(sizes[12:]) < full / 2

    def test_delta_record_never_larger_than_a_snapshot(self, tmp_path):
        # worst case — a tiny window that churns completely every few
        # quanta: a record is the quantum's messages, never more than the
        # state it moves
        config = make_config()
        sizes = logged_record_sizes(
            tmp_path, config, bursty_stream(3, 6 * config.quantum_size)
        )
        assert max(sizes) < (tmp_path / "full.ckpt").stat().st_size

    def test_discontinuous_record_raises(self):
        session = open_session(make_config())
        with pytest.raises(CheckpointError, match="discontinuous"):
            replay(session, [{"q": 7, "in": []}])
        with pytest.raises(CheckpointError, match="malformed"):
            replay(session, [{"q": 0}])
        with pytest.raises(CheckpointError, match="field 'u'"):
            replay(session, [{"q": 0, "in": [{"u": [1], "k": ["a"]}]}])
        assert session.current_quantum == -1

    def test_transport_rejects_bad_magic(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "deltas-0.log").write_bytes(b"XXXX")
        transport = FileTailTransport(d)
        with pytest.raises(CheckpointError, match="bad magic"):
            transport.read_records(
                {"log": "deltas-0.log", "base": "x", "generation": 0},
                0,
            )
        assert (d / "deltas-0.log").read_bytes()[:4] != _LOG_MAGIC[:3] + b"?"


class TestSessionIntegration:
    def test_session_delta_log_equals_session_snapshot(self, tmp_path):
        config = make_config()
        messages = bursty_stream(11, 600)
        with open_session(config, delta_log=tmp_path / "d") as session:
            list(session.ingest_many(messages))
            session.snapshot(tmp_path / "mono.ckpt")
        assert same_state(tmp_path / "d", tmp_path / "mono.ckpt")

    def test_resume_from_delta_directory_is_bit_identical(self, tmp_path):
        config = make_config()
        messages = bursty_stream(13, 900)
        whole = open_session(config)
        expected = [report_key(r) for r in whole.ingest_many(messages)]

        with open_session(config, delta_log=tmp_path / "d") as leader:
            got = [report_key(r) for r in leader.ingest_many(messages[:600])]
        resumed = open_session(resume=tmp_path / "d")
        got += [report_key(r) for r in resumed.ingest_many(messages[600:])]
        assert got == expected

    def test_custom_extractor_directory_reads_with_the_extractor(
        self, tmp_path
    ):
        extractor = KeywordExtractor(tokenizer=str.split)
        messages = [
            Message(m.user_id, text=" ".join(m.tokens))
            for m in bursty_stream(5, 300)
        ]
        with open_session(
            make_config(), extractor=extractor, delta_log=tmp_path / "d"
        ) as session:
            list(session.ingest_many(messages))
            expected = state_bytes(session)
        with pytest.raises(CheckpointError, match="custom extractor"):
            load_checkpoint(tmp_path / "d")
        tree = deltalog.read_delta_checkpoint(
            tmp_path / "d", extractor=extractor
        )
        assert tree_bytes(tree) == expected

    def test_catch_up_restores_a_flip_with_the_custom_extractor(
        self, tmp_path, monkeypatch
    ):
        """A follower behind a compaction gets the new base restored, and
        the fresh session keeps the follower's own custom extractor."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        extractor = KeywordExtractor(tokenizer=str.split)
        messages = [
            Message(m.user_id, text=" ".join(m.tokens))
            for m in bursty_stream(7, 300)
        ]
        with open_session(
            make_config(), extractor=extractor, delta_log=tmp_path / "d"
        ) as leader:
            list(leader.ingest_many(messages[:200]))
            follower = open_session(
                resume=tmp_path / "d", extractor=extractor
            )
            list(leader.ingest_many(messages[200:]))
            caught_up = deltalog.catch_up(follower)
            assert caught_up is not follower
            assert caught_up.extractor is extractor
            assert caught_up.current_quantum == leader.current_quantum
            assert state_bytes(caught_up) == state_bytes(leader)

    def test_enable_delta_log_twice_raises(self, tmp_path):
        with open_session(make_config(), delta_log=tmp_path / "d") as s:
            with pytest.raises(CheckpointError):
                s.enable_delta_log(tmp_path / "d2")


# ------------------------------------------------------- resume appends


class TestResumeAppends:
    def test_resume_appends_to_the_replayed_generation(self, tmp_path):
        """No fresh base on resume: the log keeps growing in place, and a
        second resume replays the records of both runs."""
        config = make_config()
        messages = bursty_stream(17, 900)
        whole = open_session(config)
        list(whole.ingest_many(messages))
        whole.snapshot(tmp_path / "whole.ckpt")
        lead_writer = None
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:300]))
            lead_writer = leader.delta_writer
        base = (tmp_path / "d" / "base-0.ckpt").read_bytes()
        with open_session(resume=tmp_path / "d", delta_log=tmp_path / "d") as s:
            writer = s.delta_writer
            assert writer.generation == lead_writer.generation == 0
            assert writer.log_bytes == lead_writer.log_bytes
            list(s.ingest_many(messages[300:600]))
        assert (tmp_path / "d" / "base-0.ckpt").read_bytes() == base
        records, _ = FileTailTransport(tmp_path / "d").read_records(
            read_manifest(tmp_path / "d"), 0
        )
        assert [r["q"] for r in records] == list(range(30))
        resumed = open_session(resume=tmp_path / "d")
        list(resumed.ingest_many(messages[600:]))
        resumed.snapshot(tmp_path / "resumed.ckpt")
        assert same_state(tmp_path / "resumed.ckpt", tmp_path / "whole.ckpt")

    def test_resume_cuts_a_torn_tail_before_appending(self, tmp_path):
        config = make_config()
        messages = bursty_stream(19, 400)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
        log = tmp_path / "d" / read_manifest(tmp_path / "d")["log"]
        intact = log.read_bytes()
        log.write_bytes(intact + encode_frame({"q": 10, "in": []})[:-3])
        with open_session(resume=tmp_path / "d", delta_log=tmp_path / "d") as s:
            assert s.current_quantum == 9
            assert log.read_bytes() == intact
            list(s.ingest_many(messages[200:]))
        assert open_session(resume=tmp_path / "d").current_quantum == 19

    def test_attach_never_cuts_complete_records(
        self, tmp_path, monkeypatch
    ):
        """A resumed session whose directory grew after its replay (another
        writer logged on) must not truncate those fsynced records when it
        enables the log there: the attach is refused, the directory kept."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        config = make_config()
        messages = bursty_stream(43, 400)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
            s = open_session(resume=tmp_path / "d")
            assert s.current_quantum == 9
            list(leader.ingest_many(messages[200:]))
        log = tmp_path / "d" / read_manifest(tmp_path / "d")["log"]
        logged = log.read_bytes()
        assert open_session(resume=tmp_path / "d").current_quantum == 19
        with pytest.raises(CheckpointError, match="10 complete record"):
            s.enable_delta_log(tmp_path / "d")
        assert s.delta_writer is None
        assert log.read_bytes() == logged
        assert open_session(resume=tmp_path / "d").current_quantum == 19

    def test_stale_session_cannot_rewind_a_rolled_directory(
        self, tmp_path, monkeypatch
    ):
        """A session resumed before the leader rolled stands behind the new
        base: logging it there would start a generation from its older
        state and silently drop every quantum since.  It is refused."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        config = make_config()
        messages = bursty_stream(59, 600)
        d = tmp_path / "d"
        with open_session(config, delta_log=d) as leader:
            list(leader.ingest_many(messages[:200]))
            stale = open_session(resume=d)
            assert stale.current_quantum == 9
            list(leader.ingest_many(messages[200:380]))
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
            list(leader.ingest_many(messages[380:400]))
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
            list(leader.ingest_many(messages[400:]))
        manifest = read_manifest(d)
        assert manifest["base_quantum"] == 19
        with pytest.raises(CheckpointError, match="rewind"):
            stale.enable_delta_log(d)
        assert stale.delta_writer is None
        assert read_manifest(d) == manifest
        assert open_session(resume=d).current_quantum == 29

    def test_moved_session_does_not_append_to_the_old_log(self, tmp_path):
        """A resumed session that processed quanta before enabling the log
        no longer stands at the log's end: it starts a new generation."""
        config = make_config()
        messages = bursty_stream(23, 400)
        with open_session(config, delta_log=tmp_path / "d") as leader:
            list(leader.ingest_many(messages[:200]))
        resumed = open_session(resume=tmp_path / "d")
        list(resumed.ingest_many(messages[200:300]))
        resumed.enable_delta_log(tmp_path / "d")
        assert resumed.delta_writer.generation == 1
        resumed.snapshot(tmp_path / "mono.ckpt")
        resumed.close()
        assert same_state(tmp_path / "d", tmp_path / "mono.ckpt")


def directory_bytes(path):
    """Every file of a directory, by name."""
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


class TestSeal:
    """A graceful stop seals the directory: a partial quantum goes into a
    fresh generation's base, which a resume attaches to as it stands."""

    def test_seal_with_a_partial_quantum_resumes_it(self, tmp_path):
        config = make_config()
        messages = bursty_stream(31, 900)
        whole = open_session(config)
        expected = [report_key(r) for r in whole.ingest_many(messages)]
        whole.snapshot(tmp_path / "whole.ckpt")
        d = tmp_path / "d"
        with open_session(config, delta_log=d) as leader:
            got = [report_key(r) for r in leader.ingest_many(messages[:317])]
            leader.delta_writer.seal(leader)
        manifest = read_manifest(d)
        assert manifest["generation"] == 1
        assert manifest["base_quantum"] == 14 and manifest["pending"] == 17
        assert manifest["window_from"] == 12
        sealed = directory_bytes(d)
        with open_session(resume=d, delta_log=d) as resumed:
            assert resumed.batcher.pending == 17
            assert resumed.delta_writer.generation == 1
            assert directory_bytes(d) == sealed  # attached, no roll
            got += [
                report_key(r) for r in resumed.ingest_many(messages[317:600])
            ]
        assert got == expected[:30]
        again = open_session(resume=d)
        assert again.current_quantum == 29 and again.batcher.pending == 0
        got += [report_key(r) for r in again.ingest_many(messages[600:])]
        assert got == expected
        again.snapshot(tmp_path / "again.ckpt")
        assert same_state(tmp_path / "again.ckpt", tmp_path / "whole.ckpt")

    def test_seal_without_a_partial_quantum_writes_nothing(self, tmp_path):
        d = tmp_path / "d"
        with open_session(make_config(), delta_log=d) as leader:
            list(leader.ingest_many(bursty_stream(31, 300)))
            before = directory_bytes(d)
            leader.delta_writer.seal(leader)
        assert directory_bytes(d) == before

    def test_each_seal_carries_the_buffer_as_it_stands(self, tmp_path):
        """A seal after a seal, with the buffer grown in between, rolls a
        base holding the grown buffer; a resume picks that up."""
        messages = bursty_stream(31, 400)
        d = tmp_path / "d"
        with open_session(make_config(), delta_log=d) as leader:
            list(leader.ingest_many(messages[:205]))
            leader.delta_writer.seal(leader)
            list(leader.ingest_many(messages[205:210]))
            leader.delta_writer.seal(leader)
            leader.snapshot(tmp_path / "leader.ckpt")
        manifest = read_manifest(d)
        assert manifest["generation"] == 2 and manifest["pending"] == 10
        assert manifest["window_from"] == 7  # the frames carried over
        resumed = open_session(resume=d)
        assert resumed.batcher.pending == 10
        assert same_state(d, tmp_path / "leader.ckpt")

    def test_session_close_does_not_seal(self, tmp_path):
        """``close()`` also runs from ``__exit__`` while an exception
        unwinds, so it leaves the partial quantum out of the log."""
        d = tmp_path / "d"
        with pytest.raises(RuntimeError):
            with open_session(make_config(), delta_log=d) as leader:
                list(leader.ingest_many(bursty_stream(31, 317)))
                before = directory_bytes(d)
                raise RuntimeError("unwinding mid-quantum")
        assert directory_bytes(d) == before
        assert read_manifest(d)["pending"] == 0

    def test_broken_writer_refuses_to_seal(self, tmp_path):
        d = tmp_path / "d"
        session = open_session(make_config(), delta_log=d)
        list(session.ingest_many(bursty_stream(31, 317)))
        session.delta_writer._broken = True
        with pytest.raises(CheckpointError, match="broken"):
            session.delta_writer.seal(session)
        assert read_manifest(d)["generation"] == 0
        session.close()
        with pytest.raises(CheckpointError, match="not started"):
            session.delta_writer.seal(session)


# ------------------------------------------------------ lossless replay


def crash_and_resume(tmp_path, config, messages, split):
    """The uninterrupted run, and a leader that logs ``messages[:split]``
    and stops, resumed from its log over the rest: (expected reports, got
    reports, whole.ckpt, resumed.ckpt)."""
    whole = open_session(config)
    expected = [report_key(r) for r in whole.ingest_many(messages)]
    whole.snapshot(tmp_path / "whole.ckpt")
    with open_session(config, delta_log=tmp_path / "d") as leader:
        got = [report_key(r) for r in leader.ingest_many(messages[:split])]
    resumed = open_session(resume=tmp_path / "d")
    got += [report_key(r) for r in resumed.ingest_many(messages[split:])]
    resumed.snapshot(tmp_path / "resumed.ckpt")
    return expected, got, resumed


def logged_messages(path):
    """Every message the log holds, decoded."""
    records, _ = FileTailTransport(path).read_records(read_manifest(path), 0)
    return [message_from_record(m) for r in records for m in r["in"]]


class TestLosslessReplay:
    def test_integer_user_ids_come_back_as_ints(self, tmp_path):
        config = make_config()
        messages = [
            Message(int(m.user_id[1:]), tokens=m.tokens)
            for m in bursty_stream(41, 600)
        ]
        expected, got, resumed = crash_and_resume(
            tmp_path, config, messages, 400
        )
        assert got == expected
        assert logged_messages(tmp_path / "d") == messages[:400]
        users = {
            user
            for _, block in resumed.builder.idsets.to_state()["window"]
            for _, block_users in block
            for user in block_users
        }
        assert users and all(type(u) is int for u in users)
        assert same_state(tmp_path / "resumed.ckpt", tmp_path / "whole.ckpt")

    def test_fields_payloads_through_the_structured_extractor(
        self, tmp_path
    ):
        trace = build_structured_trace(
            total_messages=1200, n_events=3, seed=5
        )
        config = DetectorConfig(
            quantum_size=80,
            window_quanta=5,
            high_state_threshold=3,
            extractor="fields",
            extractor_options={"fields": ["tags"]},
            require_noun=False,
        )
        messages = trace.messages[:1200]
        expected, got, _ = crash_and_resume(tmp_path, config, messages, 800)
        assert got == expected
        assert any(r[2] for r in expected)  # events were reported
        assert logged_messages(tmp_path / "d") == messages[:800]
        assert same_state(tmp_path / "resumed.ckpt", tmp_path / "whole.ckpt")

    def test_timestamps_survive_the_log(self, tmp_path):
        config = make_config()
        messages = [
            Message(m.user_id, tokens=m.tokens, timestamp=1e9 + i * 0.25)
            for i, m in enumerate(bursty_stream(43, 600))
        ]
        messages[5] = Message("u5", tokens=("k1", "k2"), timestamp=7)
        expected, got, _ = crash_and_resume(tmp_path, config, messages, 400)
        assert got == expected
        logged = logged_messages(tmp_path / "d")
        assert logged == messages[:400]
        assert type(logged[5].timestamp) is int
        assert same_state(tmp_path / "resumed.ckpt", tmp_path / "whole.ckpt")

    def test_unrecordable_message_is_refused_before_the_state_moves(
        self, tmp_path
    ):
        """Integer tokens pass the edge extractor in process but a record's
        ``k`` holds strings: a durable session refuses the quantum up
        front, so its log still replays to exactly its state."""
        config = make_config(extractor="edges")
        messages = bursty_stream(49, 300)
        with open_session(config, delta_log=tmp_path / "d") as session:
            list(session.ingest_many(messages[:200]))
            before = session.current_quantum
            bad = [Message("u1", tokens=(1001, "x"))] * config.quantum_size
            with pytest.raises(CheckpointError, match="field 'k'"):
                session.process_quantum(bad)
            assert session.current_quantum == before
            list(session.ingest_many(messages[200:]))
            session.snapshot(tmp_path / "leader.ckpt")
        assert logged_messages(tmp_path / "d") == messages
        assert same_state(tmp_path / "d", tmp_path / "leader.ckpt")

    def test_unrecordable_pending_message_fails_the_snapshot(self, tmp_path):
        session = open_session(make_config(extractor="edges"))
        session.ingest(Message("u1", tokens=(1001,)))
        with pytest.raises(CheckpointError, match="pending buffer.*'k'"):
            session.snapshot(tmp_path / "s.ckpt")
        assert not (tmp_path / "s.ckpt").exists()

    def test_base_with_a_partial_pending_quantum(self, tmp_path):
        """Resume from a snapshot holding a partial quantum, log, kill -9,
        resume from the log.  The first record's input begins with the
        base's pending messages; replay must not count them twice."""
        config = make_config()
        messages = bursty_stream(47, 900)
        whole = open_session(config)
        expected = [report_key(r) for r in whole.ingest_many(messages)]
        whole.snapshot(tmp_path / "whole.ckpt")

        first = open_session(config)
        got = [report_key(r) for r in first.ingest_many(messages[:317])]
        assert first.batcher.pending == 17
        first.snapshot(tmp_path / "final.ckpt")
        first.close()

        script = textwrap.dedent(
            """
            import sys, time
            sys.path.insert(0, {src!r})
            sys.path.insert(0, {tests!r})
            from repro.api import open_session
            from test_api_checkpoint import bursty_stream

            session = open_session(resume={final!r}, delta_log={dlog!r})
            for message in bursty_stream(47, 900)[317:617]:
                session.ingest(message)
            print("ready", flush=True)
            time.sleep(60)
            """
        ).format(
            src=str(Path("src").resolve()),
            tests=str(Path("tests").resolve()),
            final=str(tmp_path / "final.ckpt"),
            dlog=str(tmp_path / "d"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        manifest = read_manifest(tmp_path / "d")
        assert manifest["base_quantum"] == 14
        records, _ = FileTailTransport(tmp_path / "d").read_records(
            manifest, 0
        )
        assert records[0]["q"] == 15
        assert [message_from_record(m) for m in records[0]["in"]] == (
            messages[300:320]
        )
        resumed = open_session(resume=tmp_path / "d")
        assert resumed.current_quantum == 29
        assert resumed.batcher.pending == 0
        # quanta 15-29 were reported by the killed process
        got += [report_key(r) for r in resumed.ingest_many(messages[600:])]
        assert got == expected[:15] + expected[30:]
        resumed.snapshot(tmp_path / "resumed.ckpt")
        assert same_state(tmp_path / "resumed.ckpt", tmp_path / "whole.ckpt")


# ------------------------------------------------ record/replay fuzz


def random_stream(rng, quanta=(3, 8), edges=False):
    """A random small config and a stream over it: user ids all ints or
    all strings, a drifting hot vocabulary, and by the roll timestamps and
    ``fields`` payloads through the structured extractor — or, with
    ``edges``, entity lists through the edge-stream adapter."""
    structured = rng.random() < 0.3
    edge = edges and not structured and rng.random() < 0.4
    overrides = dict(
        quantum_size=rng.randint(8, 30),
        window_quanta=rng.randint(2, 5),
        high_state_threshold=rng.randint(2, 4),
    )
    if structured:
        overrides.update(
            extractor="fields", extractor_options={"fields": ["tags"]}
        )
    if edge:
        overrides.update(extractor="edges")
    config = make_config(**overrides)
    int_ids = rng.random() < 0.5
    stamped = rng.random() < 0.5
    vocabulary = [f"k{i}" for i in range(rng.randint(4, 20))]
    n_users = rng.randint(5, 40)
    messages = []
    for q in range(rng.randint(*quanta)):
        hot = rng.sample(vocabulary, rng.randint(2, min(6, len(vocabulary))))
        for i in range(config.quantum_size):
            pool = hot if rng.random() < 0.7 else vocabulary
            tokens = tuple(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            user = rng.randrange(n_users)
            if edge:
                payload = {"entities": list(tokens)}
            else:
                payload = {"tags": list(tokens)} if structured else None
            messages.append(
                Message(
                    user if int_ids else f"u{user}",
                    tokens=None if structured or edge else tokens,
                    fields=payload,
                    timestamp=q * 60.0 + i if stamped else None,
                )
            )
    return config, messages


def encoded(tree) -> str:
    return json.dumps(encode_state(tree), sort_keys=True)


def state_bytes(session) -> str:
    return tree_bytes(session._state_tree())


def tree_bytes(tree) -> str:
    """A state tree in canonical codec form, wall clocks zeroed (they are
    the one thing replay does not reproduce)."""
    tree["total_seconds"] = 0.0
    tree["timings"] = None
    tree["maintainer"] = dict(tree["maintainer"], clustering_seconds=0.0)
    return encoded(tree)


class TestDiffPatchFuzz:
    """A record is the diff between the session states on either side of
    a quantum, and replay is the patch: replaying record *q* onto the state
    the leader held while quantum *q* was still filling must give the state
    it held once *q* completed — exactly, in canonical codec bytes, on
    random configs and streams."""

    @pytest.mark.parametrize("seed", range(30))
    def test_patch_of_diff_is_exact_on_random_trees(
        self, seed, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        rng = random.Random(seed)
        config, messages = random_stream(rng)
        size = config.quantum_size
        # how many of quantum q's messages are buffered when "before" is
        # taken: 0 is a quantum boundary, more is a partial pending quantum
        cuts = [rng.randrange(size) for _ in range(len(messages) // size)]
        before, after = [], []
        with open_session(config, delta_log=tmp_path / "d") as leader:
            for i, message in enumerate(messages):
                if i % size == cuts[i // size]:
                    before.append(encoded(leader._state_tree()))
                if leader.ingest(message) is not None:
                    after.append(state_bytes(leader))
        records, _ = FileTailTransport(tmp_path / "d").read_records(
            read_manifest(tmp_path / "d"), 0
        )
        assert [r["q"] for r in records] == list(range(len(after)))
        for tree, record, expected in zip(before, records, after):
            patched = DetectorSession._from_state_tree(
                decode_state(json.loads(tree))
            )
            replay(patched, [record])
            assert patched.batcher.pending == 0
            assert state_bytes(patched) == expected

    def test_chained_patches_track_a_drifting_tree(
        self, tmp_path, monkeypatch
    ):
        """A follower that catches up every other quantum stays equal to
        the leader across one long generation and then a compaction on
        every quantum (each one a fast-forward or a fresh base)."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        rng = random.Random(99)
        config = make_config()
        messages = bursty_stream(99, 24 * config.quantum_size)
        checked = 0
        with open_session(config, delta_log=tmp_path / "d") as leader:
            follower = open_session(resume=tmp_path / "d")
            first_generation = follower._log_tail.generation
            for message in messages:
                report = leader.ingest(message)
                if report is None:
                    continue
                if report.quantum == 12:
                    monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
                if rng.random() < 0.5:
                    follower = deltalog.catch_up(follower)
                    assert follower.current_quantum == report.quantum
                    assert state_bytes(follower) == state_bytes(leader)
                    checked += 1
            assert leader.delta_writer.compactions >= 10
        assert checked >= 8
        assert follower._log_tail.generation > first_generation


class TestRollFuzz:
    """Every roll writes the window as input frames and the base without
    their blocks; the directory must replay to the leader's exact state
    after each quantum, whatever the roll left in the base — some blocks
    (a roll before the writer appended a full window) or none."""

    @pytest.mark.parametrize("seed", range(20))
    def test_directory_equals_the_leader_across_every_roll(
        self, seed, tmp_path, monkeypatch
    ):
        """The log is enabled a few quanta in, so the first base and the
        rolls before a full window carry blocks; the last quantum always
        rolls, with a full window of frames."""
        rng = random.Random(1000 + seed)
        config, messages = random_stream(rng, quanta=(12, 18), edges=True)
        size, w = config.quantum_size, config.window_quanta
        head = rng.randint(1, w) * size
        d = tmp_path / "d"
        carried = full = 0

        def check(leader):
            nonlocal carried, full
            tree = deltalog.read_delta_checkpoint(d)
            assert tree_bytes(tree) == state_bytes(leader)
            manifest = read_manifest(d)
            base = FileTailTransport(d).load_base(manifest)
            window = base["builder"]["idsets"]["window"]
            if manifest["base_quantum"] - manifest["window_from"] + 1 < w:
                carried += bool(window)
            else:
                assert window == []
                full += 1

        with open_session(config) as leader:
            list(leader.ingest_many(messages[:head]))
            leader.enable_delta_log(d)
            check(leader)
            for i, message in enumerate(messages[head:], head):
                roll = rng.random() < 0.5 or i >= len(messages) - size
                monkeypatch.setattr(
                    deltalog, "REPLAY_BUDGET_S", 0.0 if roll else 1e12
                )
                if leader.ingest(message) is not None:
                    check(leader)
            assert leader.delta_writer.compactions > 0
        assert carried > 0 and full > 0
        resumed = open_session(resume=d)
        assert state_bytes(resumed) == state_bytes(leader)


class TestWindowFile:
    def roll_after(self, tmp_path, monkeypatch, n_quanta):
        """A leader that logs ``n_quanta`` quanta in one generation, then
        rolls on the next; returns it and the old log's bytes, read
        through a descriptor held across the roll's unlink."""
        config = make_config()
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        messages = bursty_stream(51, (n_quanta + 1) * config.quantum_size)
        leader = open_session(config, delta_log=tmp_path / "d")
        list(leader.ingest_many(messages[: n_quanta * config.quantum_size]))
        old = open(tmp_path / "d" / read_manifest(tmp_path / "d")["log"], "rb")
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        list(leader.ingest_many(messages[n_quanta * config.quantum_size :]))
        with old:
            return leader, old.read()

    def test_a_full_window_leaves_the_base_and_is_copied_verbatim(
        self, tmp_path, monkeypatch
    ):
        leader, old_log = self.roll_after(tmp_path, monkeypatch, 5)
        d = tmp_path / "d"
        manifest = read_manifest(d)
        assert manifest["generation"] == 1
        assert manifest["base_quantum"] == 5
        assert manifest["window_from"] == 3
        base = FileTailTransport(d).load_base(manifest)
        assert base["builder"]["idsets"]["window"] == []
        frames, _ = deltalog._split_frames(old_log, offset=len(_LOG_MAGIC))
        assert len(frames) == 6
        assert (d / manifest["window"]).read_bytes() == _LOG_MAGIC + b"".join(
            frames[-3:]
        )
        assert (d / manifest["log"]).read_bytes() == _LOG_MAGIC
        resumed = open_session(resume=d)
        assert resumed.builder.idsets.to_state() == (
            leader.builder.idsets.to_state()
        )
        assert state_bytes(resumed) == state_bytes(leader)
        leader.close()

    def test_an_early_roll_keeps_the_blocks_the_frames_miss(
        self, tmp_path, monkeypatch
    ):
        """One append into a fresh writer, then a roll: the window file
        holds that quantum and the base every block before it."""
        config = make_config()
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        messages = bursty_stream(53, 5 * config.quantum_size)
        session = open_session(config)
        list(session.ingest_many(messages[: 4 * config.quantum_size]))
        session.enable_delta_log(tmp_path / "d")
        d = tmp_path / "d"
        manifest = read_manifest(d)
        assert (manifest["window_from"], manifest["base_quantum"]) == (4, 3)
        assert (d / manifest["window"]).read_bytes() == _LOG_MAGIC
        base = FileTailTransport(d).load_base(manifest)
        assert [q for q, _ in base["builder"]["idsets"]["window"]] == [
            1, 2, 3
        ]
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        list(session.ingest_many(messages[4 * config.quantum_size :]))
        manifest = read_manifest(d)
        assert (manifest["window_from"], manifest["base_quantum"]) == (4, 4)
        base = FileTailTransport(d).load_base(manifest)
        assert [q for q, _ in base["builder"]["idsets"]["window"]] == [2, 3]
        assert same_state(d, _snapshot(session, tmp_path / "mono.ckpt"))
        session.close()

    def test_attach_seeds_the_frames_from_window_file_and_log(
        self, tmp_path, monkeypatch
    ):
        """A resumed writer's first roll copies the same last frames the
        leader would have: one it found in the window file, one in the
        log, and the one it appended."""
        leader, _ = self.roll_after(tmp_path, monkeypatch, 5)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e12)
        config = leader.config
        rest = bursty_stream(57, 2 * config.quantum_size)
        list(leader.ingest_many(rest[: config.quantum_size]))
        leader.close()
        d = tmp_path / "d"
        before = (d / read_manifest(d)["log"]).read_bytes()
        with open_session(resume=d, delta_log=d) as successor:
            assert successor.current_quantum == 6
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
            list(successor.ingest_many(rest[config.quantum_size :]))
            assert successor.delta_writer.generation == 2
            manifest = read_manifest(d)
            window = (d / manifest["window"]).read_bytes()
            records, _ = decode_frames(window, offset=len(_LOG_MAGIC))
            assert [r["q"] for r in records] == [5, 6, 7]
            assert before[len(_LOG_MAGIC) :] in window
            assert same_state(d, _snapshot(successor, tmp_path / "s.ckpt"))


def _snapshot(session, path):
    session.snapshot(path)
    return path
