"""Crash-injection: checkpoint writes fail loudly and leave no wreckage.

Fault-injects the OS layer (``os.replace``, ``os.fsync``, partial writes)
under monolithic snapshots and tears delta logs at arbitrary byte offsets.
The invariants: a failed write raises :class:`CheckpointError` and leaves
the previous checkpoint bytes intact with no scratch-file litter; a torn
delta log loads to its last consistent quantum boundary; anything the
reader cannot prove consistent raises readably — silently wrong state is
never an outcome.
"""

import json
import os
import struct
import threading
import zlib
from pathlib import Path

import pytest

from repro.api import deltalog, open_session
from repro.api.checkpoint import (
    encode_state,
    fsync_dir,
    load_checkpoint,
    save_checkpoint,
)
from repro.api.deltalog import (
    _LOG_MAGIC,
    DELTA_FORMAT,
    DELTA_VERSION,
    decode_frames,
    encode_frame,
    read_manifest,
    write_manifest,
)
from repro.errors import CheckpointError

from test_api_checkpoint import bursty_stream, make_config

STATE = {"quantum": 3, "payload": [1, 2.5, ("a", "b"), {"x": {1, 2}}]}
NEXT = {"quantum": 4, "payload": [2, 2.5, ("a", "c"), {"x": {1, 2, 3}}]}


def write_good_checkpoint(path):
    save_checkpoint(path, STATE)
    return Path(path).read_bytes()


# ---------------------------------------------------------- monolithic file


class TestSnapshotFaults:
    def test_failed_replace_keeps_previous_bytes_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.ckpt"
        before = write_good_checkpoint(target)

        def exploding_replace(src, dst):
            raise OSError("injected: rename failed")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(CheckpointError, match="injected"):
            save_checkpoint(target, NEXT)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_checkpoint(target) == STATE

    def test_failed_fsync_keeps_previous_bytes_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.ckpt"
        before = write_good_checkpoint(target)

        def exploding_fsync(fd):
            raise OSError("injected: fsync failed")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(CheckpointError, match="injected"):
            save_checkpoint(target, NEXT)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_partial_write_cleans_scratch(self, tmp_path, monkeypatch):
        """A write that dies mid-payload (ENOSPC-style) must not leave a
        half-written scratch file behind."""
        target = tmp_path / "state.ckpt"
        before = write_good_checkpoint(target)
        real_fdopen = os.fdopen

        class ChokingFile:
            def __init__(self, fh):
                self._fh = fh
                self._written = 0

            def write(self, data):
                if self._written + len(data) > 40:
                    raise OSError(28, "injected: no space left on device")
                self._written += len(data)
                return self._fh.write(data)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

        monkeypatch.setattr(
            os, "fdopen", lambda fd, *a, **k: ChokingFile(
                real_fdopen(fd, *a, **k)
            )
        )
        with pytest.raises(CheckpointError, match="injected"):
            save_checkpoint(target, NEXT)
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_non_oserror_failure_also_cleans_scratch(self, tmp_path):
        """Cleanup must run on *all* failure paths, not just OSError —
        an unserializable object raises CheckpointError from the codec."""
        target = tmp_path / "state.ckpt"
        before = write_good_checkpoint(target)
        with pytest.raises(CheckpointError):
            save_checkpoint(target, {"bad": object()})
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        """The rename itself must be made durable: save_checkpoint has to
        fsync a descriptor opened on the parent directory."""
        synced = []
        real_fsync = os.fsync
        real_fstat = os.fstat

        def spying_fsync(fd):
            mode = real_fstat(fd).st_mode
            import stat

            if stat.S_ISDIR(mode):
                synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        save_checkpoint(tmp_path / "state.ckpt", STATE)
        assert synced, "no directory fsync observed after the rename"

    def test_preexisting_sentinel_tmp_is_untouched(self, tmp_path):
        """The scratch name is unique per write (mkstemp), so a fixed
        ``<name>.tmp`` belonging to someone else survives a snapshot."""
        target = tmp_path / "state.ckpt"
        sentinel = tmp_path / "state.ckpt.tmp"
        sentinel.write_text("not yours")
        save_checkpoint(target, STATE)
        assert sentinel.read_text() == "not yours"
        assert load_checkpoint(target) == STATE

    def test_concurrent_snapshots_to_same_target(self, tmp_path):
        """Racing writers must never corrupt the target: the final file is
        one writer's complete, valid checkpoint."""
        target = tmp_path / "state.ckpt"
        states = [
            {"quantum": i, "payload": list(range(i * 50))} for i in range(8)
        ]
        errors = []

        def writer(state):
            try:
                for _ in range(5):
                    save_checkpoint(target, state)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in states
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert load_checkpoint(target) in states
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_checkpoint_file_raises_readably(self, tmp_path):
        target = tmp_path / "state.ckpt"
        write_good_checkpoint(target)
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(target)

    def test_fsync_dir_on_unreadable_path_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="fsync"):
            fsync_dir(tmp_path / "does-not-exist")


# ------------------------------------------------------------- delta log


def clocks_zeroed(state: dict) -> str:
    """A session state tree, wall clocks zeroed, as canonical JSON: what
    replaying a log must reproduce (processing times are not)."""
    state = dict(state, total_seconds=0.0, timings=None)
    state["maintainer"] = dict(state["maintainer"], clustering_seconds=0.0)
    return json.dumps(encode_state(state), sort_keys=True)


def build_delta_dir(tmp_path, n_appends=3):
    """A real leader's log of ``n_appends`` four-message quanta, and the
    leader's state at each quantum boundary from the base on."""
    d = tmp_path / "d"
    messages = bursty_stream(3, 4 * n_appends)
    with open_session(make_config(quantum_size=4), delta_log=d) as session:
        states = [clocks_zeroed(session._state_tree())]
        for q in range(n_appends):
            session.process_quantum(messages[4 * q : 4 * q + 4])
            states.append(clocks_zeroed(session._state_tree()))
    return d, states


class TestDeltaLogFaults:
    @pytest.fixture(autouse=True)
    def one_generation(self, monkeypatch):
        """No compaction: the faults are injected into generation 0."""
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e9)

    def test_truncation_at_every_byte_loads_a_quantum_boundary(
        self, tmp_path
    ):
        d, states = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        log = d / manifest["log"]
        data = log.read_bytes()
        for cut in range(len(_LOG_MAGIC), len(data)):
            log.write_bytes(data[:cut])
            state = load_checkpoint(d)
            # whatever the tear, the result is one of the exact states
            # the leader logged — never a blend
            assert clocks_zeroed(state) in states
        log.write_bytes(data)
        assert clocks_zeroed(load_checkpoint(d)) == states[-1]

    def test_corrupted_mid_log_record_loads_prefix(self, tmp_path):
        d, states = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        log = d / manifest["log"]
        data = bytearray(log.read_bytes())
        # flip a byte inside the second frame's payload
        header = struct.Struct(">II")
        first_len = header.unpack_from(data, len(_LOG_MAGIC))[0]
        second_payload = len(_LOG_MAGIC) + header.size + first_len + header.size
        data[second_payload + 1] ^= 0xFF
        log.write_bytes(bytes(data))
        assert clocks_zeroed(load_checkpoint(d)) == states[1]

    def test_discontinuous_log_raises(self, tmp_path):
        d, states = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        log = d / manifest["log"]
        with open(log, "ab") as fh:
            fh.write(encode_frame({"q": 99, "in": []}))
        with pytest.raises(CheckpointError, match="discontinuous"):
            load_checkpoint(d)

    def test_checksummed_garbage_record_raises(self, tmp_path):
        d, _ = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        log = d / manifest["log"]
        payload = b"}{ not json"
        with open(log, "ab") as fh:
            fh.write(
                struct.Struct(">II").pack(
                    len(payload), zlib.crc32(payload)
                )
                + payload
            )
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(d)

    def test_garbage_manifest_raises_readably(self, tmp_path):
        d, _ = build_delta_dir(tmp_path)
        intact = json.loads((d / "MANIFEST.json").read_text())
        (d / "MANIFEST.json").write_text("}{")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(d)
        (d / "MANIFEST.json").write_text(json.dumps({"format": "nope"}))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(d)
        (d / "MANIFEST.json").write_text(
            json.dumps({"format": DELTA_FORMAT, "version": 99})
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(d)
        # the previous build's directories (records that splice a sketch
        # window this build's trees do not have) are refused by number
        manifest = {**intact, "version": DELTA_VERSION - 1}
        (d / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError,
            match=f"version {DELTA_VERSION - 1}; this build reads version "
            f"{DELTA_VERSION}",
        ):
            load_checkpoint(d)
        (d / "MANIFEST.json").write_text(
            json.dumps({"format": DELTA_FORMAT, "version": DELTA_VERSION})
        )
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(d)

    def test_missing_base_raises_readably(self, tmp_path):
        d, _ = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        (d / manifest["base"]).unlink()
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(d)

    def test_base_quantum_mismatch_raises(self, tmp_path):
        d, states = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        manifest["base_quantum"] = 42
        write_manifest(d, manifest)
        with pytest.raises(CheckpointError, match="manifest says"):
            load_checkpoint(d)

    def test_failed_append_breaks_the_writer(self, tmp_path, monkeypatch):
        d = tmp_path / "d"
        messages = bursty_stream(5, 12)
        leader = open_session(make_config(quantum_size=4), delta_log=d)

        def exploding_fsync(fd):
            raise OSError("injected: fsync failed")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(CheckpointError, match="injected"):
            leader.process_quantum(messages[:4])
        monkeypatch.undo()
        # the tail may be torn now: the writer must refuse to continue
        with pytest.raises(CheckpointError, match="broken"):
            leader.process_quantum(messages[4:8])
        leader.close()
        # the directory still loads (torn tail = consistent prefix) and a
        # new leader resumed from it appends to the generation it replayed
        state = load_checkpoint(d)
        assert state["quantum"] in (-1, 0)
        with open_session(resume=d, delta_log=d) as successor:
            assert successor.delta_writer.generation == 0
            successor.process_quantum(messages[8:])
        assert load_checkpoint(d)["quantum"] == state["quantum"] + 1

    def test_append_fsyncs_log_and_directory(self, tmp_path, monkeypatch):
        import stat

        session = open_session(
            make_config(quantum_size=4), delta_log=tmp_path / "d"
        )
        synced = {"file": 0, "dir": 0}
        real_fsync = os.fsync
        real_fstat = os.fstat

        def spying_fsync(fd):
            kind = (
                "dir"
                if stat.S_ISDIR(real_fstat(fd).st_mode)
                else "file"
            )
            synced[kind] += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        session.process_quantum(bursty_stream(7, 4))
        assert synced["file"] >= 1 and synced["dir"] >= 1
        session.close()


class TestWindowFileFaults:
    """The window file is written whole and fsynced before the manifest
    flip names it: anything short of the frames the manifest promises is
    corruption, never a crash tail, and raises."""

    @pytest.fixture()
    def rolled(self, tmp_path, monkeypatch):
        """A directory whose last roll copied a full window (3 frames)."""
        d = tmp_path / "d"
        config = make_config(quantum_size=4)
        messages = bursty_stream(3, 4 * 6)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e9)
        with open_session(config, delta_log=d) as session:
            list(session.ingest_many(messages[:20]))
            monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
            list(session.ingest_many(messages[20:]))
        manifest = read_manifest(d)
        assert manifest["base_quantum"] == 5
        assert manifest["window_from"] == 3
        return d, d / manifest["window"]

    def test_intact_window_loads(self, rolled):
        d, _ = rolled
        assert load_checkpoint(d)["quantum"] == 5

    def test_torn_window_file_raises(self, rolled):
        d, window = rolled
        data = window.read_bytes()
        for cut in (len(data) - 1, len(data) - 20, len(_LOG_MAGIC)):
            window.write_bytes(data[:cut])
            with pytest.raises(CheckpointError, match="damaged"):
                load_checkpoint(d)

    def test_crc_bad_window_file_raises(self, rolled):
        d, window = rolled
        data = bytearray(window.read_bytes())
        data[len(_LOG_MAGIC) + 8 + 2] ^= 0xFF  # inside the first payload
        window.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="damaged"):
            load_checkpoint(d)

    def test_window_not_ending_at_the_base_raises(self, rolled):
        d, window = rolled
        records, _ = decode_frames(window.read_bytes(), offset=len(_LOG_MAGIC))
        shifted = [dict(r, q=r["q"] - 1) for r in records]
        window.write_bytes(
            _LOG_MAGIC + b"".join(encode_frame(r) for r in shifted)
        )
        with pytest.raises(CheckpointError, match="discontinuous"):
            load_checkpoint(d)

    def test_stand_alone_base_is_refused(self, rolled):
        d, _ = rolled
        base = d / read_manifest(d)["base"]
        for load in (load_checkpoint, lambda p: open_session(resume=p)):
            with pytest.raises(CheckpointError, match="resume the directory"):
                load(base)

    def test_failed_window_fsync_leaves_the_previous_generation(
        self, tmp_path, monkeypatch
    ):
        d = tmp_path / "d"
        messages = bursty_stream(5, 4 * 6)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 1e9)
        leader = open_session(make_config(quantum_size=4), delta_log=d)
        list(leader.ingest_many(messages[:16]))
        manifest = read_manifest(d)
        names = sorted(p.name for p in d.iterdir())
        real_fsync = os.fsync

        def window_fsync_fails(fd):
            if os.path.basename(os.readlink(f"/proc/self/fd/{fd}")).startswith(
                "window-1"
            ):
                raise OSError("injected: fsync failed")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", window_fsync_fails)
        monkeypatch.setattr(deltalog, "REPLAY_BUDGET_S", 0.0)
        with pytest.raises(CheckpointError, match="injected"):
            leader.process_quantum(messages[16:20])
        assert read_manifest(d) == manifest
        assert sorted(p.name for p in d.iterdir()) == names
        leader.snapshot(tmp_path / "leader.ckpt")
        assert clocks_zeroed(load_checkpoint(d)) == clocks_zeroed(
            load_checkpoint(tmp_path / "leader.ckpt")
        )
        # the writer still appends to the current generation, and rolls
        # once the disk is healthy again
        monkeypatch.setattr(os, "fsync", real_fsync)
        leader.process_quantum(messages[20:24])
        assert read_manifest(d)["generation"] == 1
        leader.snapshot(tmp_path / "leader.ckpt")
        leader.close()
        assert clocks_zeroed(load_checkpoint(d)) == clocks_zeroed(
            load_checkpoint(tmp_path / "leader.ckpt")
        )
