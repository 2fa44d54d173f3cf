"""Incremental (delta) checkpoints: base snapshot + per-quantum edit log.

A *delta checkpoint* is a directory::

    <path>/
        MANIFEST.json      {"format": ..., "version": 6, "generation": g,
                            "base": "base-<g>.ckpt", "log": "deltas-<g>.log",
                            "base_quantum": q}
        base-<g>.ckpt      ordinary monolithic checkpoint (current layout)
        deltas-<g>.log     framed, length-prefixed per-quantum edit records

The leader writes the base once, then appends one *edit op* per completed
quantum, turning the previous quantum's serialized state tree into the
current one.  The op is not discovered by diffing trees: every large
stateful layer reports its own edit for the quantum it just processed (the
id-set window drops head blocks and inserts one, the event tracker patches
the records the ranker touched), and the session ships its small volatile
subtrees whole — so a record costs what the quantum *touched*, not what
the window holds, to compute as well as to store.  Ops stay structural and
engine-free on the way back in: a follower applies records with
:func:`patch_tree` alone, and replay is bit-identical to a monolithic
snapshot because each layer's op is pinned, quantum by quantum, against an
exhaustive tree differ kept as a test oracle (``tests/tree_diff.py``).

The op vocabulary: ``["r", value]`` replaces a subtree, ``["d", sets,
dels]`` patches/deletes dict keys, ``["s", added, removed]`` edits a set,
``["l", edits]`` splices a sequence with runs of ``k`` (keep), ``x``
(drop), ``i`` (insert) and ``p`` (patch in place).

Log framing is crash-oriented: each record is ``>II`` (payload length,
CRC32) followed by the JSON payload, the file opens with a 4-byte magic,
and every append fsyncs the file and its directory.  A torn tail (short
header, short payload, or CRC mismatch on the final frame) is *expected*
after a crash and the reader silently loads the last consistent prefix; a
quantum-discontinuous record — which a sequential appender cannot produce
by crashing — raises :class:`~repro.errors.CheckpointError` instead of
returning silently wrong state.

Compaction bounds replay cost: once the log grows past
:data:`COMPACT_RATIO` times the base size, the writer rewrites a fresh
base from the current state, starts an empty log, and atomically flips
``MANIFEST.json`` to the new generation (old-generation files are then
unlinked; a follower holding an open descriptor on POSIX keeps reading
safely and switches generations at its next manifest poll).

A follower reads the directory through :class:`FileTailTransport`, and
only ever calls its ``manifest()`` / ``load_base()`` / ``read_records()``.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro.api.checkpoint import (
    atomic_write,
    decode_state,
    encode_state,
    fsync_dir,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import CheckpointError

DELTA_FORMAT = "repro-session-delta-checkpoint"
DELTA_VERSION = 6
"""Directory-format version, counted apart from the monolithic snapshot
versions of :mod:`repro.api.checkpoint`.  4 — base-plus-delta-log over v3
bases, records diffed from whole trees; 5 — bases are v4 snapshots (windows
as queues of quanta) and records are layer-emitted ops over that layout;
6 — bases are v5 snapshots and records carry no sketch-window splice.
Records only patch the layout they were written against, so an older
directory is refused by name rather than replayed onto a migrated base."""

MANIFEST_NAME = "MANIFEST.json"
_LOG_MAGIC = b"RDLG"
_FRAME_HEADER = struct.Struct(">II")
_MAX_FRAME = 1 << 31

COMPACT_RATIO = 4.0
"""The writer rolls a fresh generation once its log outgrows this many
times the base snapshot: replay then reads at most a few bases' worth."""


# =====================================================================
# Edit ops over decoded state trees: wire codec and patch
# =====================================================================


def _map_op(op: Optional[list], leaf: Callable[[Any], Any]) -> Optional[list]:
    """Copy an edit op's structure (tags, splice counts, nesting) and apply
    ``leaf`` to every embedded state value (replacement payloads, inserted
    elements, set members, dict keys); raises on a malformed script."""
    if op is None:
        return None
    if not isinstance(op, list) or not op:
        raise CheckpointError(f"malformed state edit op: {op!r}")
    tag = op[0]
    if tag == "r":
        return ["r", leaf(op[1])]
    if tag == "d":
        return [
            "d",
            [[leaf(k), _map_op(sub, leaf)] for k, sub in op[1]],
            [leaf(k) for k in op[2]],
        ]
    if tag == "s":
        return ["s", [leaf(x) for x in op[1]], [leaf(x) for x in op[2]]]
    if tag == "l":
        edits = []
        for edit in op[1]:
            kind = edit[0]
            if kind in ("k", "x"):
                edits.append([kind, edit[1]])
            elif kind == "i":
                edits.append(["i", [leaf(x) for x in edit[1]]])
            elif kind == "p":
                edits.append(["p", [_map_op(sub, leaf) for sub in edit[1]]])
            else:
                raise CheckpointError(f"unknown sequence edit {kind!r}")
        return ["l", edits]
    raise CheckpointError(f"unknown state edit tag: {tag!r}")


def encode_op(op: Optional[list]) -> Optional[list]:
    """JSON-safe form of an edit script: plain structure, tagged payloads.

    The script *structure* (tags, splice counts, nesting) is plain JSON
    arrays — running it through the tagged state codec would roughly
    triple its size, and structure is most of a churn-heavy record.  Only
    the embedded *state values* (replacement payloads, inserted elements,
    set members, dict keys) need :func:`encode_state`, because they can
    hold tuples/sets/non-string keys that raw JSON cannot represent.
    """
    return _map_op(op, encode_state)


def decode_op(op: Optional[list]) -> Optional[list]:
    """Inverse of :func:`encode_op`; raises on a malformed script."""
    return _map_op(op, decode_state)


def patch_tree(a: Any, op: Optional[list]) -> Any:
    """Apply an edit op (see the module docstring for the vocabulary).

    Non-mutating: returns a new tree sharing unchanged substructure with
    ``a``.  A script that does not fit the tree (missing dict key, splice
    overrun, unknown tag) raises :class:`CheckpointError` — a delta log
    must never be applied to the wrong base state silently.
    """
    if op is None:
        return a
    if not isinstance(op, list) or not op:
        raise CheckpointError(f"malformed state edit op: {op!r}")
    tag = op[0]
    if tag == "r":
        return op[1]
    if tag == "d":
        if not isinstance(a, dict):
            raise CheckpointError(
                f"dict edit applied to {type(a).__name__} state"
            )
        out = dict(a)
        for key in op[2]:
            if key not in out:
                raise CheckpointError(
                    f"state edit deletes missing dict key {key!r}"
                )
            del out[key]
        for key, sub in op[1]:
            if key in out:
                out[key] = patch_tree(out[key], sub)
            elif isinstance(sub, list) and sub and sub[0] == "r":
                out[key] = sub[1]
            else:
                raise CheckpointError(
                    f"state edit patches missing dict key {key!r}"
                )
        return out
    if tag == "s":
        if not isinstance(a, (set, frozenset)):
            raise CheckpointError(
                f"set edit applied to {type(a).__name__} state"
            )
        out = set(a)
        for value in op[2]:
            if value not in out:
                raise CheckpointError(
                    f"state edit removes missing set member {value!r}"
                )
            out.discard(value)
        out.update(op[1])
        return frozenset(out) if isinstance(a, frozenset) else out
    if tag == "l":
        if not isinstance(a, (list, tuple)):
            raise CheckpointError(
                f"sequence edit applied to {type(a).__name__} state"
            )
        out: List[Any] = []
        i = 0
        for edit in op[1]:
            kind = edit[0]
            if kind == "k":
                out.extend(a[i : i + edit[1]])
                i += edit[1]
            elif kind == "x":
                i += edit[1]
            elif kind == "i":
                out.extend(edit[1])
            elif kind == "p":
                for sub in edit[1]:
                    if i >= len(a):
                        raise CheckpointError(
                            "sequence edit script overruns the state"
                        )
                    out.append(patch_tree(a[i], sub))
                    i += 1
            else:
                raise CheckpointError(f"unknown sequence edit {kind!r}")
            if i > len(a):
                raise CheckpointError(
                    "sequence edit script overruns the state"
                )
        out.extend(a[i:])
        return tuple(out) if isinstance(a, tuple) else out
    raise CheckpointError(f"unknown state edit tag: {tag!r}")


# =====================================================================
# Frame codec
# =====================================================================


def encode_frame(record: dict) -> bytes:
    """One framed log record: length + CRC32 header, JSON payload."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(data: bytes, *, offset: int = 0) -> Tuple[List[dict], int]:
    """Parse frames from ``data[offset:]``; stops at the first torn frame.

    Returns ``(records, end_offset)`` where ``end_offset`` is the byte
    position after the last *complete, checksummed* frame — the consistent
    prefix.  A short header, a payload extending past EOF, an absurd
    length, or a CRC mismatch all mark the torn tail a crash can leave; a
    checksummed frame that is not valid JSON means the writer itself was
    broken and raises :class:`CheckpointError`.
    """
    records: List[dict] = []
    position = offset
    size = len(data)
    while True:
        if position + _FRAME_HEADER.size > size:
            break
        length, crc = _FRAME_HEADER.unpack_from(data, position)
        if length > _MAX_FRAME or position + _FRAME_HEADER.size + length > size:
            break
        start = position + _FRAME_HEADER.size
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"delta log record at byte {position} passed its checksum "
                f"but is not valid JSON: {exc}"
            ) from exc
        position = start + length
    return records, position


# =====================================================================
# Manifest
# =====================================================================


def _base_name(generation: int) -> str:
    return f"base-{generation}.ckpt"


def _log_name(generation: int) -> str:
    return f"deltas-{generation}.log"


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
    for field in ("generation", "base", "log", "base_quantum"):
        if field not in manifest:
            raise CheckpointError(
                f"{path} is missing the {field!r} manifest field"
            )
    return manifest


# =====================================================================
# Tailing a delta checkpoint
# =====================================================================


class FileTailTransport:
    """Tail a delta-checkpoint directory on a (shared) filesystem."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def manifest(self) -> dict:
        """Current manifest (generation pointer)."""
        return read_manifest(self.path)

    def load_base(self, manifest: dict) -> dict:
        """Decoded state tree of the manifest's base snapshot."""
        return load_checkpoint(self.path / manifest["base"])

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
# Reader: replay base + deltas into one state tree
# =====================================================================


def apply_record(state: dict, record: dict) -> dict:
    """Apply one log record to a state tree, enforcing quantum continuity."""
    if not isinstance(record, dict) or "q" not in record or "op" not in record:
        raise CheckpointError(f"malformed delta log record: {record!r}")
    expected = state["quantum"] + 1
    if record["q"] != expected:
        raise CheckpointError(
            f"delta log is discontinuous: expected the record for quantum "
            f"{expected}, found quantum {record['q']!r}"
        )
    try:
        return patch_tree(state, decode_op(record["op"]))
    except CheckpointError as exc:
        raise CheckpointError(
            f"cannot apply delta record for quantum {record['q']}: {exc}"
        ) from exc


def read_delta_checkpoint(path) -> dict:
    """Replay a delta-checkpoint directory into one decoded state tree.

    The result is bit-identical (through the canonical codec, byte-
    identical on re-serialization) to a monolithic snapshot taken at the
    same stream position — the reader the monolithic
    :func:`~repro.api.checkpoint.load_checkpoint` dispatches to for
    directories.
    """
    transport = FileTailTransport(path)
    manifest = transport.manifest()
    state = transport.load_base(manifest)
    if state.get("quantum") != manifest["base_quantum"]:
        raise CheckpointError(
            f"{path}: base snapshot is at quantum {state.get('quantum')!r} "
            f"but the manifest says {manifest['base_quantum']!r}"
        )
    records, _ = transport.read_records(manifest, 0)
    for record in records:
        state = apply_record(state, record)
    return state


# =====================================================================
# Writer (leader side)
# =====================================================================


class DeltaCheckpointWriter:
    """Leader-side delta checkpoint: base snapshot + append-only edit log.

    The writer only frames, writes and fsyncs; a record's content comes
    from the ``source`` it is handed — the session, or anything with its
    ``current_quantum``, ``_quantum_op()`` (the edit op for the quantum
    just finished) and ``_state_tree()`` (the full tree, asked for only
    when a generation is rolled).  ``start(source)`` opens (or creates) the
    directory and writes a fresh generation; ``append(source)`` logs one
    record and compacts — rewrite base, truncate log, flip manifest — once
    the log exceeds :data:`COMPACT_RATIO` times the base size.  Every append
    fsyncs the log file *and* its directory; base and manifest writes are
    atomic-rename durable.  A writer whose append failed mid-frame refuses
    further appends (the tail is torn; the next leader attaches with a
    fresh generation instead).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.generation = -1
        self.base_bytes = 0
        self.log_bytes = 0
        self.records_written = 0
        self.compactions = 0
        self.append_seconds = 0.0
        self._fh = None
        self._broken = False

    # ------------------------------------------------------------ lifecycle

    def start(self, source) -> None:
        """Create or attach to the directory; write a new generation."""
        try:
            self.path.mkdir(exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create delta checkpoint directory "
                f"{self.path}: {exc}"
            ) from exc
        generation = 0
        if (self.path / MANIFEST_NAME).exists():
            generation = read_manifest(self.path)["generation"] + 1
        self._roll(source._state_tree(), generation)

    def append(self, source) -> int:
        """Log the quantum ``source`` just finished; returns the frame size
        in bytes."""
        if self._fh is None:
            raise CheckpointError("delta log writer is not started")
        if self._broken:
            raise CheckpointError(
                "delta log writer is broken after a failed append; the log "
                "tail may be torn — start a new leader (fresh generation) "
                "instead of appending further"
            )
        started = time.perf_counter()
        frame = encode_frame(
            {
                "q": source.current_quantum,
                "op": encode_op(source._quantum_op()),
            }
        )
        try:
            self._fh.write(frame)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_dir(self.path)
        except OSError as exc:
            self._broken = True
            raise CheckpointError(
                f"cannot append to delta log in {self.path}: {exc}"
            ) from exc
        self.log_bytes += len(frame)
        self.records_written += 1
        self.append_seconds += time.perf_counter() - started
        if self.log_bytes > COMPACT_RATIO * max(self.base_bytes, 1):
            self._roll(source._state_tree(), self.generation + 1)
            self.compactions += 1
        return len(frame)

    def close(self) -> None:
        """Close the log file handle (appends already fsynced)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------ internals

    def _roll(self, state: dict, generation: int) -> None:
        """Write a fresh generation (new base, empty log, manifest flip)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        base = self.path / _base_name(generation)
        log = self.path / _log_name(generation)
        save_checkpoint(base, state)
        try:
            fh = open(log, "wb")
            fh.write(_LOG_MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
            fsync_dir(self.path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create delta log {log}: {exc}"
            ) from exc
        write_manifest(
            self.path,
            {
                "format": DELTA_FORMAT,
                "version": DELTA_VERSION,
                "generation": generation,
                "base": base.name,
                "log": log.name,
                "base_quantum": state["quantum"],
            },
        )
        self._fh = fh
        previous = self.generation
        self.generation = generation
        self.base_bytes = base.stat().st_size
        self.log_bytes = 0
        if previous >= 0 and previous != generation:
            # Old-generation files are garbage after the manifest flip; a
            # follower mid-read keeps its open descriptor (POSIX) and picks
            # up the new generation at its next manifest poll.
            for stale in (
                self.path / _base_name(previous),
                self.path / _log_name(previous),
            ):
                try:
                    stale.unlink(missing_ok=True)
                except OSError:
                    pass


__all__ = [
    "COMPACT_RATIO",
    "DELTA_FORMAT",
    "DELTA_VERSION",
    "MANIFEST_NAME",
    "DeltaCheckpointWriter",
    "FileTailTransport",
    "apply_record",
    "decode_frames",
    "decode_op",
    "encode_frame",
    "encode_op",
    "patch_tree",
    "read_delta_checkpoint",
    "read_manifest",
    "write_manifest",
]
