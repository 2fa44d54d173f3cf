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

from repro.api.checkpoint import (
    fsync_dir,
    load_checkpoint,
    save_checkpoint,
)
from repro.api import deltalog
from repro.api.deltalog import (
    _LOG_MAGIC,
    DELTA_FORMAT,
    DELTA_VERSION,
    DeltaCheckpointWriter,
    encode_frame,
    read_manifest,
    write_manifest,
)
from repro.errors import CheckpointError

from tree_diff import TreeSource

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


def build_delta_dir(tmp_path, n_appends=3):
    d = tmp_path / "d"
    writer = DeltaCheckpointWriter(d)
    state = {"quantum": 0, "payload": {"keys": set(), "log": []}}
    source = TreeSource(state)
    writer.start(source)
    states = [state]
    for q in range(1, n_appends + 1):
        state = {
            "quantum": q,
            "payload": {
                "keys": set(range(q * 3)),
                "log": [[f"k{i}", i * 1.5] for i in range(q * 4)],
            },
        }
        writer.append(source.advance(state))
        states.append(state)
    writer.close()
    return d, states


class TestDeltaLogFaults:
    @pytest.fixture(autouse=True)
    def one_generation(self, monkeypatch):
        """No compaction: the faults are injected into generation 0."""
        monkeypatch.setattr(deltalog, "COMPACT_RATIO", 1e9)

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
            assert state in states
        log.write_bytes(data)
        assert load_checkpoint(d) == states[-1]

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
        assert load_checkpoint(d) == states[1]

    def test_discontinuous_log_raises(self, tmp_path):
        d, states = build_delta_dir(tmp_path)
        manifest = read_manifest(d)
        log = d / manifest["log"]
        with open(log, "ab") as fh:
            fh.write(encode_frame({"q": 99, "op": None}))
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
        writer = DeltaCheckpointWriter(d)
        source = TreeSource({"quantum": 0, "x": 1})
        writer.start(source)

        def exploding_fsync(fd):
            raise OSError("injected: fsync failed")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(CheckpointError, match="injected"):
            writer.append(source.advance({"quantum": 1, "x": 2}))
        monkeypatch.undo()
        # the tail may be torn now: the writer must refuse to continue
        with pytest.raises(CheckpointError, match="broken"):
            writer.append(source.advance({"quantum": 2, "x": 3}))
        writer.close()
        # the directory still loads (torn tail = consistent prefix) and a
        # fresh leader attaches with a new generation
        state = load_checkpoint(d)
        assert state["quantum"] in (0, 1)
        successor = DeltaCheckpointWriter(d)
        source = TreeSource(state)
        successor.start(source)
        assert successor.generation == 1
        successor.append(
            source.advance({**state, "quantum": state["quantum"] + 1})
        )
        successor.close()
        assert load_checkpoint(d)["quantum"] == state["quantum"] + 1

    def test_append_fsyncs_log_and_directory(self, tmp_path, monkeypatch):
        import stat

        d, _ = build_delta_dir(tmp_path, n_appends=0)
        writer = DeltaCheckpointWriter(tmp_path / "d2")
        source = TreeSource({"quantum": 0, "x": 0})
        writer.start(source)
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
        writer.append(source.advance({"quantum": 1, "x": 1}))
        assert synced["file"] >= 1 and synced["dir"] >= 1
        writer.close()
