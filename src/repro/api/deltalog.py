"""Incremental (delta) checkpoints: base snapshot + per-quantum input log.

A *delta checkpoint* is a directory::

    <path>/
        MANIFEST.json      {"format": ..., "version": 9, "generation": g,
                            "base": "base-<g>.ckpt", "log": "deltas-<g>.log",
                            "window": "window-<g>.log", "base_quantum": q,
                            "window_from": f, "pending": p}
        window-<g>.log     the input records of quanta f..q (the window's
                           last quanta, at most ``window_quanta`` of them)
        base-<g>.ckpt      monolithic checkpoint (current layout) whose
                           id-set window holds only the blocks before f,
                           and which buffers p messages of quantum q + 1
        deltas-<g>.log     the input records of the quanta after q

The leader writes the base once, then appends one record per completed
quantum: the quantum's *input*, ``{"q": q, "in": [message records]}`` in
the compact JSONL form of :func:`~repro.stream.sources.message_to_record`.
The detector is deterministic — a restored session fed the same messages
continues bit-identically (DESIGN.md Section 6) — so the input is a
complete record of the step: recovery loads the base into a live session
and feeds every record through ``process_quantum`` (:func:`replay`).  A
record costs what came in, never what the window holds.  A record's input
subsumes the batcher's pending buffer (a quantum completes *from* it), so
replay drops the buffer before each record.

The id-set window is a pure function of the last ``window_quanta`` quanta's
input (the extractor purity contract, DESIGN.md Section 8), so a base does
not carry it: the writer keeps the frames of the last ``window_quanta``
quanta it appended, and a roll copies them verbatim into the new
generation's window file.  The base keeps only the blocks of quanta those
frames do not cover — none once the writer has appended a full window, all
of them for the first base of a fresh writer — and records where the
window file starts (``window_from``).  Recovery restores the base and runs
the window file's records through the session's own extract stage into the
same id-set window before anything is derived from it.  A base is therefore
not a complete state on its own: loading one outside its directory raises.

Log framing is crash-oriented: each record is ``>II`` (payload length,
CRC32) followed by the JSON payload, the file opens with a 4-byte magic,
and every append fsyncs the file and its directory.  A torn tail (short
header, short payload, or CRC mismatch on the final frame) is *expected*
after a crash and the reader silently loads the last consistent prefix; a
quantum-discontinuous record — which a sequential appender cannot produce
by crashing — raises :class:`~repro.errors.CheckpointError` instead of
returning silently wrong state.  The window file is written whole and
fsynced before the manifest names it, so a torn one is corruption and
raises too.

Compaction bounds recovery time: the writer sums the processing seconds of
the quanta it logged — what replaying them costs — and once that passes
:data:`REPLAY_BUDGET_S` it writes the window file and a fresh base from the
current state, starts an empty log, and atomically flips ``MANIFEST.json``
to the new generation (old-generation files are then unlinked; a follower
holding an open descriptor on POSIX keeps reading safely and switches
generations at its next manifest poll).  A session resumed from a
directory appends to the generation it replayed, after cutting a torn tail
back to the consistent prefix; complete records past that prefix (another
writer's) are never cut — the append is refused instead — and a session
behind the directory's base never starts a generation there.

A graceful stop *seals* the directory (:meth:`DeltaCheckpointWriter.seal`):
a partial quantum, which no record holds, goes into a fresh generation's
base, and the manifest's ``pending`` counts it.

There is one replay, and one cursor (the session's :class:`LogTail`).  A
warm standby is a session resumed from the directory that :func:`catch_up`
keeps at the log's end; taking over is keeping that session.  Across a
generation flip it keeps the session whenever the window file and the new
log hold every quantum after it and the new base buffers nothing.  Reads
go through :class:`FileTailTransport`.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Iterable, List, Tuple

from repro.api.checkpoint import (
    atomic_write,
    fsync_dir,
    read_checkpoint_file,
    save_checkpoint,
)
from repro.errors import CheckpointError, StreamError
from repro.stream.messages import Message
from repro.stream.sources import message_from_record

DELTA_FORMAT = "repro-session-delta-checkpoint"
DELTA_VERSION = 9
"""Directory-format version, counted apart from the monolithic snapshot
versions of :mod:`repro.api.checkpoint`.  4 — base-plus-delta-log over v3
bases, records diffed from whole trees; 5 — bases are v4 snapshots (windows
as queues of quanta) and records are layer-emitted ops over that layout;
6 — bases are v5 snapshots and records carry no sketch-window splice;
7 — records are the quanta's input, replayed through the pipeline;
8 — each generation opens with a window file holding the input of the
window's last quanta, and its base leaves their id-set blocks out; 9 —
the manifest counts the base's buffered messages (``pending``).  An older
directory is refused by number: up to 6 its records are state edits no
reader applies any more, a 7 base carries a window an 8 reader would
rebuild twice (its base still loads as a checkpoint), and an 8 manifest
lacks the count :func:`catch_up` reads."""

MANIFEST_NAME = "MANIFEST.json"
_LOG_MAGIC = b"RDLG"
_FRAME_HEADER = struct.Struct(">II")
_MAX_FRAME = 1 << 31

REPLAY_BUDGET_S = 0.15
"""The writer rolls a fresh generation once replaying its log — the summed
processing seconds of the logged quanta — would take longer than this."""


# =====================================================================
# Frame codec
# =====================================================================


def encode_frame(record: dict) -> bytes:
    """One framed log record: length + CRC32 header, JSON payload."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _split_frames(data: bytes, *, offset: int = 0) -> Tuple[List[bytes], int]:
    """The complete, checksummed frames of ``data[offset:]``, header
    included, and the byte position after the last of them — the
    consistent prefix.  A short header, a payload extending past EOF, an
    absurd length, or a CRC mismatch all mark the torn tail a crash can
    leave, and end the scan."""
    frames: List[bytes] = []
    position = offset
    size = len(data)
    while position + _FRAME_HEADER.size <= size:
        length, crc = _FRAME_HEADER.unpack_from(data, position)
        end = position + _FRAME_HEADER.size + length
        if length > _MAX_FRAME or end > size:
            break
        frame = data[position:end]
        if zlib.crc32(frame[_FRAME_HEADER.size :]) != crc:
            break
        frames.append(frame)
        position = end
    return frames, position


def decode_frames(data: bytes, *, offset: int = 0) -> Tuple[List[dict], int]:
    """Parse frames from ``data[offset:]``; stops at the first torn frame.

    Returns ``(records, end_offset)`` where ``end_offset`` is the byte
    position after the last *complete, checksummed* frame — the
    consistent prefix; a checksummed frame that is not valid JSON means
    the writer itself was broken and raises :class:`CheckpointError`.
    """
    frames, end = _split_frames(data, offset=offset)
    records: List[dict] = []
    position = offset
    for frame in frames:
        try:
            records.append(
                json.loads(frame[_FRAME_HEADER.size :].decode("utf-8"))
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"delta log record at byte {position} passed its checksum "
                f"but is not valid JSON: {exc}"
            ) from exc
        position += len(frame)
    return records, end


# =====================================================================
# Manifest
# =====================================================================


def _base_name(generation: int) -> str:
    return f"base-{generation}.ckpt"


def _log_name(generation: int) -> str:
    return f"deltas-{generation}.log"


def _window_name(generation: int) -> str:
    return f"window-{generation}.log"


def write_manifest(directory: Path, manifest: dict) -> None:
    """Atomically replace ``MANIFEST.json`` (temp file + rename + dir fsync)."""
    data = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    atomic_write(
        Path(directory) / MANIFEST_NAME, data, "delta-checkpoint manifest"
    )


def read_manifest(directory: Path) -> dict:
    """Read and validate ``MANIFEST.json``; raises readable errors."""
    path = Path(directory) / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CheckpointError(
            f"{directory} is not a delta checkpoint: cannot read "
            f"{MANIFEST_NAME}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != DELTA_FORMAT:
        raise CheckpointError(
            f"{path} is not a repro delta-checkpoint manifest"
        )
    if manifest.get("version") != DELTA_VERSION:
        raise CheckpointError(
            f"{path} has delta-checkpoint version "
            f"{manifest.get('version')!r}; this build reads version "
            f"{DELTA_VERSION}"
        )
    for field in (
        "generation", "base", "log", "window", "base_quantum", "window_from",
        "pending",
    ):
        if field not in manifest:
            raise CheckpointError(
                f"{path} is missing the {field!r} manifest field"
            )
    return manifest


# =====================================================================
# Tailing a delta checkpoint
# =====================================================================


def _record_input(record, expected: int) -> List[Message]:
    """The messages of ``record``, which must be quantum ``expected``'s
    log record; a malformed or out-of-place record raises."""
    if not isinstance(record, dict) or not isinstance(record.get("in"), list):
        raise CheckpointError(f"malformed delta log record: {record!r}")
    if record.get("q") != expected:
        raise CheckpointError(
            f"delta log is discontinuous: expected the record for "
            f"quantum {expected}, found quantum {record.get('q')!r}"
        )
    try:
        return [message_from_record(raw) for raw in record["in"]]
    except StreamError as exc:
        raise CheckpointError(
            f"bad message in the delta log record for quantum "
            f"{expected}: {exc}"
        ) from exc


class FileTailTransport:
    """Tail a delta-checkpoint directory on a (shared) filesystem."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def manifest(self) -> dict:
        """Current manifest (generation pointer)."""
        return read_manifest(self.path)

    def load_base(self, manifest: dict) -> dict:
        """Decoded state tree of the manifest's base snapshot: the state at
        ``base_quantum`` less the window quanta of :meth:`read_window`."""
        path = self.path / manifest["base"]
        state = read_checkpoint_file(path)
        for key, field in (
            ("quantum", "base_quantum"), ("window_from", "window_from")
        ):
            if state.get(key) != manifest[field]:
                raise CheckpointError(
                    f"{path}: base snapshot has {key} {state.get(key)!r} "
                    f"but the manifest says {field} {manifest[field]!r}"
                )
        return state

    def window_frames(self, manifest: dict) -> List[bytes]:
        """The window file's frames as written, one per quantum
        ``window_from``..``base_quantum``.  The file is complete before
        the manifest names it, so a torn, corrupt or short one raises."""
        path = self.path / manifest["window"]
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read window file {path}: {exc}"
            ) from exc
        if data[: len(_LOG_MAGIC)] != _LOG_MAGIC:
            raise CheckpointError(
                f"{path} is not a repro delta log (bad magic)"
            )
        frames, end = _split_frames(data, offset=len(_LOG_MAGIC))
        count = manifest["base_quantum"] - manifest["window_from"] + 1
        if end != len(data) or len(frames) != count:
            raise CheckpointError(
                f"{path} is damaged: it should hold the input of quanta "
                f"{manifest['window_from']}..{manifest['base_quantum']} "
                f"({count} record(s)) and holds {len(frames)} complete "
                f"record(s) and {len(data) - end} byte(s) after them"
            )
        return frames

    def read_window(self, manifest: dict) -> List[Tuple[int, List[Message]]]:
        """The window file's input, ``(quantum, messages)`` for quanta
        ``window_from``..``base_quantum`` in order; a misnumbered or
        malformed record raises."""
        records, _ = decode_frames(b"".join(self.window_frames(manifest)))
        try:
            return [
                (q, _record_input(record, q))
                for q, record in enumerate(records, manifest["window_from"])
            ]
        except CheckpointError as exc:
            raise CheckpointError(
                f"{self.path / manifest['window']}: {exc}"
            ) from exc

    def read_records(
        self, manifest: dict, offset: int
    ) -> Tuple[List[dict], int]:
        """Records appended past ``offset``; returns (records, new offset)."""
        path = self.path / manifest["log"]
        try:
            with open(path, "rb") as fh:
                if offset == 0:
                    if fh.read(len(_LOG_MAGIC)) != _LOG_MAGIC:
                        raise CheckpointError(
                            f"{path} is not a repro delta log (bad magic)"
                        )
                    offset = len(_LOG_MAGIC)
                else:
                    fh.seek(offset)
                tail = fh.read()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read delta log {path}: {exc}"
            ) from exc
        records, end = decode_frames(tail)
        return records, offset + end


# =====================================================================
# Replay: base session + logged input
# =====================================================================


def _advance(session, messages: List[Message]) -> float:
    """Process one logged quantum's input; returns its processing seconds.
    The input subsumes the pending buffer, which is dropped first."""
    session.batcher.flush()
    return session.process_quantum(messages).elapsed_seconds


def replay(session, records: List[dict]) -> float:
    """Feed logged quanta through ``session`` in order; returns their summed
    processing seconds.  Each record must be the quantum right after the
    session's; a malformed or discontinuous one raises."""
    seconds = 0.0
    for record in records:
        messages = _record_input(record, session.current_quantum + 1)
        seconds += _advance(session, messages)
    return seconds


@dataclass(frozen=True)
class LogTail:
    """Where a replay of a directory ended: :func:`catch_up` reads on from
    it, and a writer appends to its generation."""

    path: Path
    generation: int
    offset: int
    quantum: int
    replay_seconds: float


def _replay_log(
    session, transport, manifest, offset=0, seconds=0.0, window=()
):
    """Replay the manifest's log past ``offset`` onto ``session`` — after
    the quanta of ``window`` (:meth:`FileTailTransport.read_window`) past
    the session's — and leave its :class:`LogTail` at the end; ``seconds``
    is what the records before ``offset`` cost to replay.  Everything is
    read before the session moves, so a failed read leaves it where it
    was."""
    records, offset = transport.read_records(manifest, offset)
    position = session.current_quantum
    for q, messages in window:
        if q > position:
            _advance(session, messages)
    seconds += replay(session, records)
    session._log_tail = LogTail(
        transport.path.resolve(),
        manifest["generation"],
        offset,
        session.current_quantum,
        seconds,
    )
    return session


def open_replayed(path, **overrides):
    """The session a delta checkpoint holds: its base restored (with the
    ``noun_tagger`` / ``extractor`` overrides a restore takes) with the
    window file's input extracted into its id-set window, and the log's
    consistent prefix replayed, standing at its :class:`LogTail`."""
    from repro.api.session import DetectorSession

    transport = FileTailTransport(path)
    manifest = transport.manifest()
    base = transport.load_base(manifest)
    window = transport.read_window(manifest)
    session = DetectorSession._from_state_tree(
        base, window=window, **overrides
    )
    return _replay_log(session, transport, manifest)


def catch_up(session):
    """Replay what the leader logged since ``session`` (from
    ``open_session(resume=dir)`` or an earlier ``catch_up``) last read its
    directory; returns the session standing at the log's end.

    That is the same object unless the new generation's window file and
    log miss quanta after the session (it is more than a window behind) or
    its base buffers a partial quantum no record holds (a seal), when the
    new base is restored instead.  Raises
    :class:`CheckpointError` for a session not resumed from a directory,
    or one that processed quanta past its tail (it leads now).
    """
    tail = session._log_tail
    if tail is None:
        raise CheckpointError(
            "catch_up needs a session opened with open_session(resume=DIR)"
        )
    if session.current_quantum != tail.quantum:
        raise CheckpointError(
            f"this session processed quanta past its log tail (quantum "
            f"{tail.quantum}): it leads now, and has nothing to follow"
        )
    transport = FileTailTransport(tail.path)
    manifest = transport.manifest()
    if manifest["generation"] == tail.generation:
        try:
            return _replay_log(
                session, transport, manifest, tail.offset, tail.replay_seconds
            )
        except CheckpointError:
            # The leader may have compacted between our manifest poll and
            # the log read, unlinking the log we were tailing.  Retry once
            # against the fresh manifest; a genuine error recurs.
            manifest = transport.manifest()
            if manifest["generation"] == tail.generation:
                raise
    position = session.current_quantum
    base = manifest["base_quantum"]
    if (
        manifest["window_from"] - 1 <= position <= base
        and manifest["pending"] == 0
        and (position < base or not session.batcher.pending)
    ):
        # The window file holds every quantum between us and the new base,
        # whose buffer is empty as ours will be: keep the warm session.
        window = transport.read_window(manifest)
        return _replay_log(session, transport, manifest, window=window)
    return open_replayed(
        tail.path,
        noun_tagger=(
            session.noun_tagger if session._custom_noun_tagger else None
        ),
        extractor=session.extractor if session._custom_extractor else None,
    )


def read_delta_checkpoint(path, *, noun_tagger=None, extractor=None) -> dict:
    """Replay a delta-checkpoint directory into one decoded state tree.

    The tree of the replayed session: equal to a monolithic snapshot taken
    by the leader at the same stream position, wall clocks aside — the
    reader the monolithic :func:`~repro.api.checkpoint.load_checkpoint`
    dispatches to for directories.  Replay runs the pipeline, so a base
    taken with a custom ``noun_tagger`` or ``extractor`` needs the same
    objects passed here, as to ``open_session(resume=path)``.
    """
    return open_replayed(
        path, noun_tagger=noun_tagger, extractor=extractor
    )._state_tree()


# =====================================================================
# Writer (leader side)
# =====================================================================


def _create_log(path: Path, frames: Iterable[bytes]):
    """Write a log file — the magic, then ``frames`` — and fsync it;
    returns the handle, open for appending."""
    try:
        fh = open(path, "wb")
        try:
            fh.write(_LOG_MAGIC)
            fh.writelines(frames)
            fh.flush()
            os.fsync(fh.fileno())
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise CheckpointError(f"cannot write delta log {path}: {exc}") from exc
    return fh


class DeltaCheckpointWriter:
    """Leader-side delta checkpoint: base snapshot + append-only input log.

    The writer only frames, writes and fsyncs; a record's content comes
    from the ``source`` it is handed — the session, or anything with its
    ``config.window_quanta``, ``current_quantum``, ``batcher.pending``
    (the partial quantum's size), ``_quantum_record()`` (the record of the
    quantum just finished and its processing seconds) and
    ``_state_tree(window_from)`` (the tree less the window blocks from
    ``window_from`` on, asked for only when a generation is rolled).
    ``start(source)`` opens (or creates) the directory: it appends to the
    generation ``source`` was replayed from when it still stands at that
    log's end (refusing if complete records now lie past it), refuses a
    ``source`` behind the directory's base, and writes a fresh generation
    otherwise.  ``append(source)`` logs one record, keeps its frame among
    the last ``window_quanta`` (the next window file), and compacts —
    window file, base, empty log, manifest flip — once the logged quanta
    would take longer than :data:`REPLAY_BUDGET_S` to replay; ``seal``
    rolls one for a graceful stop.  Every append
    fsyncs the log file *and* its directory; the window file is fsynced and
    base and manifest writes are atomic-rename durable before the flip, so
    a failed roll leaves the previous generation current.  A writer whose
    append failed mid-frame refuses further appends (the tail is torn; the
    next leader resumes from the directory, which cuts the tail back).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.generation = -1
        self.log_bytes = 0
        self.replay_seconds = 0.0
        self.records_written = 0
        self.compactions = 0
        self.append_seconds = 0.0
        self._fh = None
        self._broken = False
        self._frames: Deque[bytes] = deque()

    # ------------------------------------------------------------ lifecycle

    def start(self, source) -> None:
        """Attach to the replayed generation, or write a new one."""
        try:
            self.path.mkdir(exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create delta checkpoint directory "
                f"{self.path}: {exc}"
            ) from exc
        self._frames = deque(maxlen=source.config.window_quanta)
        generation = 0
        if (self.path / MANIFEST_NAME).exists():
            manifest = read_manifest(self.path)
            generation = manifest["generation"]
            tail = getattr(source, "_log_tail", None)
            if (
                tail is not None
                and tail.path == self.path.resolve()
                and tail.generation == generation
                and tail.quantum == source.current_quantum
            ):
                self._attach(tail, manifest)
                return
            if manifest["base_quantum"] > source.current_quantum:
                raise CheckpointError(
                    f"{self.path} holds a base at quantum "
                    f"{manifest['base_quantum']}, past this session's "
                    f"quantum {source.current_quantum}: a new generation "
                    f"from this session would rewind the directory; resume "
                    f"from it again instead"
                )
            generation += 1
        self._roll(source, generation)

    def append(self, source) -> int:
        """Log the quantum ``source`` just finished; returns the frame size
        in bytes."""
        self._check_writable()
        started = time.perf_counter()
        try:
            record, seconds = source._quantum_record()
            frame = encode_frame(record)
            self._fh.write(frame)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_dir(self.path)
        except (OSError, CheckpointError, TypeError, ValueError) as exc:
            # Nothing after this quantum may be logged: a gap (an unlogged
            # quantum) would replay as a discontinuity, a torn frame as a
            # shorter log.
            self._broken = True
            raise CheckpointError(
                f"cannot append to delta log in {self.path}: {exc}"
            ) from exc
        self._frames.append(frame)
        self.log_bytes += len(frame)
        self.replay_seconds += seconds
        self.records_written += 1
        self.append_seconds += time.perf_counter() - started
        if self.replay_seconds > REPLAY_BUDGET_S:
            self._roll(source, self.generation + 1)
            self.compactions += 1
        return len(frame)

    def seal(self, source) -> None:
        """For a graceful stop: roll a generation whose base carries
        ``source``'s partial quantum; with none, the log holds everything
        and nothing is written.  ``session.close()`` does not seal, since
        it also runs while an exception unwinds mid-quantum."""
        self._check_writable()
        if source.batcher.pending:
            self._roll(source, self.generation + 1)

    def close(self) -> None:
        """Close the log file handle (appends already fsynced)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------ internals

    def _check_writable(self) -> None:
        if self._fh is None:
            raise CheckpointError("delta log writer is not started")
        if self._broken:
            raise CheckpointError(
                "delta log writer is broken after a failed append; the log "
                "tail may be torn — resume a new leader from the directory "
                "instead of appending further"
            )

    def _attach(self, tail: LogTail, manifest: dict) -> None:
        """Append to the replayed generation, cutting a torn tail back to
        where the replay ended; complete records past it (another writer's)
        refuse the attach and leave the log untouched.  The frame ring is
        seeded from the generation's window file and log."""
        window = FileTailTransport(self.path).window_frames(manifest)
        log = self.path / _log_name(tail.generation)
        try:
            fh = open(log, "r+b")
            try:
                data = fh.read()
                newer, _ = decode_frames(data, offset=tail.offset)
                if not newer:
                    fh.truncate(tail.offset)
                    fh.seek(tail.offset)
                    os.fsync(fh.fileno())
            except BaseException:
                fh.close()
                raise
        except OSError as exc:
            raise CheckpointError(
                f"cannot reopen delta log {log}: {exc}"
            ) from exc
        if newer:
            fh.close()
            raise CheckpointError(
                f"{log} holds {len(newer)} complete record(s) past quantum "
                f"{tail.quantum}, where this session's replay ended: another "
                f"writer logged them since; resume from the directory again "
                f"instead of appending"
            )
        self._frames.extend(window)
        self._frames.extend(
            _split_frames(data[: tail.offset], offset=len(_LOG_MAGIC))[0]
        )
        self._fh = fh
        self.generation = tail.generation
        self.log_bytes = tail.offset - len(_LOG_MAGIC)
        self.replay_seconds = tail.replay_seconds

    def _roll(self, source, generation: int) -> None:
        """Write a fresh generation — window file, base, empty log — and
        flip the manifest to it; on failure the previous one stays current
        and the writer keeps appending to it."""
        window_from = source.current_quantum - len(self._frames) + 1
        state = source._state_tree(window_from)
        files = [
            self.path / name(generation)
            for name in (_window_name, _base_name, _log_name)
        ]
        window, base, log = files
        fh = None
        try:
            _create_log(window, self._frames).close()
            fh = _create_log(log, ())
            # the base's atomic write fsyncs the directory, making the two
            # log files' entries durable before the manifest names them
            save_checkpoint(base, state)
            write_manifest(
                self.path,
                {
                    "format": DELTA_FORMAT,
                    "version": DELTA_VERSION,
                    "generation": generation,
                    "base": base.name,
                    "log": log.name,
                    "window": window.name,
                    "base_quantum": state["quantum"],
                    "window_from": window_from,
                    "pending": len(state["pending"]),
                },
            )
        except CheckpointError:
            if fh is not None:
                fh.close()
            for path in files:
                path.unlink(missing_ok=True)
            raise
        self.close()
        self._fh = fh
        previous = self.generation
        self.generation = generation
        self.log_bytes = 0
        self.replay_seconds = 0.0
        if previous >= 0:
            # Old-generation files are garbage after the manifest flip; a
            # follower mid-read keeps its open descriptor (POSIX) and picks
            # up the new generation at its next manifest poll.
            for name in (_window_name, _base_name, _log_name):
                try:
                    (self.path / name(previous)).unlink(missing_ok=True)
                except OSError:
                    pass


__all__ = [
    "DELTA_FORMAT",
    "DELTA_VERSION",
    "MANIFEST_NAME",
    "REPLAY_BUDGET_S",
    "DeltaCheckpointWriter",
    "FileTailTransport",
    "LogTail",
    "catch_up",
    "decode_frames",
    "encode_frame",
    "open_replayed",
    "read_delta_checkpoint",
    "read_manifest",
    "replay",
    "write_manifest",
]
