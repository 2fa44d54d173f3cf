"""Versioned on-disk checkpoint format for detector sessions.

A checkpoint is a single JSON document::

    {"format": "repro-session-checkpoint", "version": 1, "state": <encoded>}

``state`` is the session's composed ``to_state()`` tree (DESIGN.md
Section 6) run through a small *tagged* encoding, because plain JSON cannot
represent the state faithfully: user ids may be non-string hashables used as
dict keys, edge keys are tuples, window id sets are sets.  Every container
is wrapped as ``{"t": <kind>, "v": <payload>}`` — ``list``, ``tuple``,
``set``, ``frozenset``, and ``dict`` (payload: list of ``[key, value]``
pairs) — and scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass
through untouched.  Python's shortest-roundtrip float repr makes the float
trip exact, which the bit-identical resume guarantee relies on.

The encoding is **canonical**: set members and dict pairs serialize in a
deterministic sorted order, so two state trees that compare equal encode
to identical bytes no matter how their containers were built.  The delta
checkpoint format (:mod:`repro.api.deltalog`) leans on this — a state tree
reconstructed by replaying base + per-quantum edit scripts re-serializes
byte-for-byte like a monolithic snapshot taken at the same position.

Compatibility is handled loudly and explicitly: an unknown format, a newer
``version``, an unmigratable older ``version``, or an unknown tag raises
:class:`~repro.errors.CheckpointError` instead of best-effort loading a
state the code cannot honour.  Supported older versions are upgraded
in-memory through the ``_MIGRATIONS`` table — one pure ``state -> state``
step per version hop, chained until the current layout is reached — so a
v2 snapshot (pre-extractor) loads under the current reader without ever
rewriting the file on disk.

Checkpoints are **history-independent**: every stateful layer serializes
in content-sorted order, so the same stream position produces the same
checkpoint bytes whether the session ran uninterrupted or through any
number of earlier snapshot/restore cycles (DESIGN.md Section 6).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError

CHECKPOINT_FORMAT = "repro-session-checkpoint"
CHECKPOINT_VERSION = 7
"""Bump on any change to the state tree layout, and add a migration step
below so supported older snapshots keep loading.
Version history: 1 — PR 3 layout (no longer readable); 2 — event histories
are change-point encoded (``EventTracker`` state gained ``last_quantum``
and per-record ``gaps``);
3 — extractor identity recorded (``extractor`` spec + ``custom_extractor``
flag replacing ``custom_tokenizer``) and the first timing slot renamed
``tokenize`` → ``extract`` with the stage; 4 — the id-set and sketch
windows serialize as queues of per-quantum blocks (``window``) instead of
per-keyword entry lists (``entries`` / ``minis``); 5 — the builder's
``sketches`` subtree is gone (sketches are read off the id-set window);
6 — no referee-mode flags (top-level and config ``oracle_*``, the
builder's ``oracle``): a session always runs the incremental stages;
7 — no Section 7.4 CKG counters (top-level ``ckg_stats``, config
``track_ckg_stats``): the reduction bench assembles its own tracker."""

_SCALARS = (bool, int, float, str)


def _migrate_v2_to_v3(state: dict) -> dict:
    """v2 (pre-extractor) → v3: the keyword path was the only path.

    A v2 session tokenized text, full stop — so its extractor identity is
    the default ``keyword`` spec (or a custom tokenizer, which v2 recorded
    as ``custom_tokenizer`` and v3 generalises to ``custom_extractor``),
    and its ``tokenize`` timing slot is v3's ``extract``.  The embedded
    config predates the ``extractor``/``extractor_options`` fields and
    falls back to their keyword defaults on ``from_dict``.
    """
    state = dict(state)
    custom = state.pop("custom_tokenizer")
    state["custom_extractor"] = custom
    state["extractor"] = (
        None if custom else {"name": "keyword", "options": {}}
    )
    timings = dict(state["timings"])
    timings["extract"] = timings.pop("tokenize")
    state["timings"] = timings
    return state


def _migrate_v3_to_v4(state: dict) -> dict:
    """v3 → v4: transpose the per-keyword windows into queues of quanta.

    ``[[kw, [[q, value], ...]], ...]`` (sorted by keyword) becomes
    ``[[q, [[kw, value], ...]], ...]`` (oldest first, each block still
    sorted by keyword).  The oracle builder always kept its window in the
    queue layout and has no sketch state, so only non-oracle trees move.
    """
    if state["builder"]["oracle"]:
        return state

    def transposed(per_keyword: list) -> list:
        blocks: dict = {}
        for kw, entries in per_keyword:
            for q, value in entries:
                blocks.setdefault(q, []).append([kw, value])
        return [[q, blocks[q]] for q in sorted(blocks)]

    state = dict(state)
    builder = state["builder"] = dict(state["builder"])
    builder["idsets"] = {
        "last_quantum": builder["idsets"]["last_quantum"],
        "window": transposed(builder["idsets"]["entries"]),
    }
    builder["sketches"] = {
        "window": transposed(builder["sketches"]["minis"]),
    }
    return state


def _migrate_v4_to_v5(state: dict) -> dict:
    """v4 → v5: sketches stopped being state; drop the subtree."""
    builder = {k: v for k, v in state["builder"].items() if k != "sketches"}
    return {**state, "builder": builder}


def _migrate_v5_to_v6(state: dict) -> dict:
    """v5 → v6: drop the ``oracle_akg`` / ``oracle_ranking`` flags (top
    level and config) and the builder's ``oracle`` flag.

    A checkpoint taken under either mode holds the from-scratch referee's
    state, which no session runs any more (the referees are built by the
    differential tests), so it is refused by name rather than resumed on
    the incremental stages.
    """
    modes = ("oracle_akg", "oracle_ranking")
    for mode in modes:
        if state[mode]:
            raise CheckpointError(
                f"checkpoint was taken under {mode}=True, a from-scratch "
                f"referee mode sessions no longer run; it cannot be resumed"
            )
    config = {
        k: v for k, v in state["config"].items() if k not in modes
    }
    builder = {k: v for k, v in state["builder"].items() if k != "oracle"}
    rest = {k: v for k, v in state.items() if k not in modes}
    return {**rest, "config": config, "builder": builder}


def _migrate_v6_to_v7(state: dict) -> dict:
    """v6 → v7: drop the ``ckg_stats`` subtree and the config's
    ``track_ckg_stats``.  The counters never fed detection, so a session
    that tracked them resumes identically without them."""
    config = {
        k: v for k, v in state["config"].items() if k != "track_ckg_stats"
    }
    rest = {k: v for k, v in state.items() if k != "ckg_stats"}
    return {**rest, "config": config}


_MIGRATIONS = {
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
    4: _migrate_v4_to_v5,
    5: _migrate_v5_to_v6,
    6: _migrate_v6_to_v7,
}
"""``version -> state migration`` steps; each maps a decoded state tree one
version forward.  :func:`load_checkpoint` chains them until
``CHECKPOINT_VERSION`` is reached."""


def encode_state(obj: Any) -> Any:
    """Encode a state tree into the tagged JSON-safe form."""
    if obj is None or isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, list):
        return {"t": "list", "v": [encode_state(x) for x in obj]}
    if isinstance(obj, tuple):
        return {"t": "tuple", "v": [encode_state(x) for x in obj]}
    if isinstance(obj, (set, frozenset)):
        kind = "set" if isinstance(obj, set) else "frozenset"
        return {
            "t": kind,
            "v": [encode_state(x) for x in sorted(obj, key=repr)],
        }
    if isinstance(obj, dict):
        # Canonical pair order: sort by the JSON rendering of the encoded
        # key.  Keys are unique, so the order is total and deterministic —
        # equal dicts encode identically however they were assembled
        # (fresh ``to_state()`` vs. a replayed delta-log patch).
        pairs = [[encode_state(k), encode_state(v)] for k, v in obj.items()]
        pairs.sort(
            key=lambda pair: json.dumps(
                pair[0], sort_keys=True, separators=(",", ":")
            )
        )
        return {"t": "dict", "v": pairs}
    raise CheckpointError(
        f"cannot checkpoint object of type {type(obj).__name__}: {obj!r}"
    )


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if obj is None or isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, dict):
        try:
            tag, payload = obj["t"], obj["v"]
        except KeyError:
            raise CheckpointError(f"malformed tagged value: {obj!r}") from None
        if tag == "list":
            return [decode_state(x) for x in payload]
        if tag == "tuple":
            return tuple(decode_state(x) for x in payload)
        if tag == "set":
            return {decode_state(x) for x in payload}
        if tag == "frozenset":
            return frozenset(decode_state(x) for x in payload)
        if tag == "dict":
            return {decode_state(k): decode_state(v) for k, v in payload}
        raise CheckpointError(f"unknown state tag: {tag!r}")
    raise CheckpointError(f"unexpected raw JSON value in state: {obj!r}")


def fsync_dir(path: "str | Path") -> None:
    """fsync a directory so a rename/creation inside it survives a crash.

    ``os.replace`` makes a write atomic but not durable: until the parent
    directory's entry is flushed, a crash can roll the rename back and
    lose a checkpoint that appeared to succeed.  Raises
    :class:`CheckpointError` on failure — an unflushable directory means
    the write is *not* durable and pretending otherwise defeats the point.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError as exc:
        raise CheckpointError(
            f"cannot open directory {path} for fsync: {exc}"
        ) from exc
    try:
        os.fsync(fd)
    except OSError as exc:
        raise CheckpointError(
            f"cannot fsync directory {path}: {exc}"
        ) from exc
    finally:
        os.close(fd)


def atomic_write(path: "str | Path", data: bytes, what: str) -> None:
    """Replace ``path`` with ``data``, crash-durably (``what`` names the
    file in errors).

    A *uniquely named* temp file (``tempfile.mkstemp`` in the target
    directory, so concurrent writers — e.g. a leader and a follower
    compacting to the same target — never clobber each other's scratch),
    fsync, atomic ``os.replace``, then an fsync of the parent directory so
    the rename itself survives a crash.  The scratch file is removed on
    every failure path, not just ``OSError``.
    """
    target = Path(path)
    try:
        fd, scratch_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name + ".", suffix=".tmp"
        )
    except OSError as exc:
        raise CheckpointError(f"cannot write {what} {path}: {exc}") from exc
    scratch = Path(scratch_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(scratch, target)
        fsync_dir(target.parent)
    except OSError as exc:
        raise CheckpointError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        scratch.unlink(missing_ok=True)


def save_checkpoint(path: "str | Path", state: dict) -> None:
    """Write one session state tree as a versioned checkpoint file
    (crash-durable end to end, see :func:`atomic_write`)."""
    document = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "state": encode_state(state),
    }
    # dumps, not dump: json.dump streams through the pure-Python encoder,
    # an order of magnitude slower for the same bytes.
    data = json.dumps(document, separators=(",", ":")).encode("utf-8")
    atomic_write(path, data, "checkpoint")


def load_checkpoint(path: "str | Path") -> dict:
    """Read and validate a checkpoint; returns the decoded state tree.

    A directory is read as a *delta checkpoint* (base snapshot
    plus per-quantum edit log — :mod:`repro.api.deltalog`): the log's
    consistent prefix is replayed onto the base, yielding a state tree
    bit-identical to a monolithic snapshot at the same stream position.
    """
    if Path(path).is_dir():
        from repro.api.deltalog import read_delta_checkpoint

        return read_delta_checkpoint(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(f"{path} is not a repro session checkpoint")
    version = document.get("version")
    readable = sorted({CHECKPOINT_VERSION, *_MIGRATIONS})
    if version not in readable:
        raise CheckpointError(
            f"{path} has checkpoint version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION} and can migrate versions "
            f"{', '.join(str(v) for v in sorted(_MIGRATIONS))}"
        )
    state = decode_state(document["state"])
    while version < CHECKPOINT_VERSION:
        state = _MIGRATIONS[version](state)
        version += 1
    return state


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "encode_state",
    "decode_state",
    "atomic_write",
    "fsync_dir",
    "save_checkpoint",
    "load_checkpoint",
]
