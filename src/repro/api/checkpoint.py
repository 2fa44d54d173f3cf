"""Versioned on-disk checkpoint format for detector sessions.

A checkpoint is a single JSON document::

    {"format": "repro-session-checkpoint", "version": 10, "state": <encoded>}

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
to identical bytes no matter how their containers were built, and a
session restored from a checkpoint re-serializes byte-for-byte like the
one that wrote it.

Compatibility is handled loudly and explicitly: an unknown format, a newer
``version``, an unmigratable older ``version``, or an unknown tag raises
:class:`~repro.errors.CheckpointError` instead of best-effort loading a
state the code cannot honour.  Supported older versions are upgraded
in memory by one pure step, ``_upgrade(state, version)``, that drops every
retired key and applies the two reshapes still needed — so a v2 snapshot
(pre-extractor) loads under the current reader without ever rewriting the
file on disk.

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

from repro.akg.minhash import HASH_SEED
from repro.errors import CheckpointError

CHECKPOINT_FORMAT = "repro-session-checkpoint"
CHECKPOINT_VERSION = 10
"""Bump on any change to the state tree layout, and teach ``_upgrade``
below the change so supported older snapshots keep loading.
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
``track_ckg_stats``): the reduction bench assembles its own tracker;
8 — no MinHash sketch-size override or hash salt in the config: the sketch
size is always the paper's derivation and the salt is
:data:`~repro.akg.minhash.HASH_SEED`; 9 — no report-rule settings in the
config and no ``notified`` state (notifications derive from the report
index, which restore rebuilds); 10 — no per-record ``gaps`` in the
tracker: a dead event never reopens."""

_SCALARS = (bool, int, float, str)


_UPGRADABLE = range(2, CHECKPOINT_VERSION)
"""Older versions :func:`load_checkpoint` upgrades in memory."""

_REFEREE_MODES = ("oracle_akg", "oracle_ranking")

_RETIRED_CONSTANTS = {
    "minhash_size": None,
    "seed": HASH_SEED,
    "min_cluster_size": 3,
    "rank_threshold_scale": 1.0,
}
"""Config fields versions 8 and 9 made constants, and their values."""


def _upgrade(state: dict, version: int) -> dict:
    """Reshape a decoded older state tree into the current layout.

    A checkpoint taken under a referee mode holds the from-scratch
    referee's state, which no session runs any more (the differential
    tests build the referees), so it is refused by name rather than resumed
    on the incremental stages.  So is one whose config set a retired
    constant to another value: its graph or reports came from a rule no
    session runs any more, and resuming it under the constants would
    silently diverge.  Every other retired key is dropped: the
    referee-mode flags (top level, config, builder), the builder's sketch
    window (sketches are read off the id-set window), the Section 7.4
    CKG counters (top level, config; the reduction bench assembles its own
    tracker), the notified state (restore rebuilds the report index) and
    the retired constants at their constant values, and each event
    record's ``gaps`` (a non-empty one, a reopened event, is refused by
    name).  Two reshapes are version-gated:

    * v2 predates extractors, so its identity is the default ``keyword``
      spec (or a custom one where v2 recorded ``custom_tokenizer``) and its
      ``tokenize`` timing slot is ``extract``;
    * v2 and v3 keep the id-set window per keyword,
      ``[[kw, [[q, users], ...]], ...]``, which becomes the queue of
      per-quantum blocks ``[[q, [[kw, users], ...]], ...]`` (oldest first,
      each block sorted by keyword).
    """
    for mode in _REFEREE_MODES:
        if state.get(mode):
            raise CheckpointError(
                f"checkpoint was taken under {mode}=True, a from-scratch "
                f"referee mode sessions no longer run; it cannot be resumed"
            )
    for key, constant in _RETIRED_CONSTANTS.items():
        value = state["config"].get(key, constant)
        if value != constant:
            raise CheckpointError(
                f"checkpoint was taken with {key}={value!r}; sessions now "
                f"always run with {key}={constant!r}, so it cannot be "
                f"resumed without diverging"
            )
    retired = (
        *_REFEREE_MODES, "ckg_stats", "track_ckg_stats", "notified",
        *_RETIRED_CONSTANTS,
    )
    records = state["tracker"]["records"]
    for record in records:
        if record["gaps"]:
            raise CheckpointError(
                f"checkpoint holds event {record['event_id']} with gaps="
                f"{record['gaps']!r}: it reopened, which no session does"
            )
    state = {k: v for k, v in state.items() if k not in retired}
    records = [{k: v for k, v in r.items() if k != "gaps"} for r in records]
    state["tracker"] = {**state["tracker"], "records": records}
    state["config"] = {
        k: v for k, v in state["config"].items() if k not in retired
    }
    builder = state["builder"] = {
        k: v
        for k, v in state["builder"].items()
        if k not in ("sketches", "oracle")
    }
    if version == 2:
        custom = state.pop("custom_tokenizer")
        state["custom_extractor"] = custom
        state["extractor"] = (
            None if custom else {"name": "keyword", "options": {}}
        )
        timings = state["timings"] = dict(state["timings"])
        timings["extract"] = timings.pop("tokenize")
    if version <= 3:
        blocks: dict = {}
        for kw, entries in builder["idsets"]["entries"]:
            for q, users in entries:
                blocks.setdefault(q, []).append([kw, users])
        builder["idsets"] = {
            "last_quantum": builder["idsets"]["last_quantum"],
            "window": [[q, blocks[q]] for q in sorted(blocks)],
        }
    return state


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
        # (a live ``to_state()`` vs. one restored from a checkpoint).
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


def read_checkpoint_file(path: "str | Path") -> dict:
    """Read and validate one checkpoint file; returns the decoded state
    tree, upgraded to the current layout.  Unlike :func:`load_checkpoint`
    it does not refuse a delta-checkpoint base, whose reader
    (:mod:`repro.api.deltalog`) completes it from its directory."""
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
    if version != CHECKPOINT_VERSION and version not in _UPGRADABLE:
        raise CheckpointError(
            f"{path} has checkpoint version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION} and can migrate versions "
            f"{', '.join(str(v) for v in _UPGRADABLE)}"
        )
    state = decode_state(document["state"])
    if version != CHECKPOINT_VERSION:
        state = _upgrade(state, version)
    return state


def load_checkpoint(path: "str | Path") -> dict:
    """Read and validate a checkpoint; returns the decoded state tree.

    A directory is read as a *delta checkpoint* (base snapshot plus
    per-quantum input log — :mod:`repro.api.deltalog`): the base is
    restored and the log's consistent prefix replayed through the
    pipeline, yielding the state tree of a monolithic snapshot at the same
    stream position (wall clocks aside).  Replay needs the session's
    function-valued parts, so a directory whose base was taken with a
    custom extractor or noun tagger raises :class:`CheckpointError` here;
    read it with :func:`~repro.api.deltalog.read_delta_checkpoint`, passing
    them.  The base file of such a directory is refused on its own: the
    input of its window's last quanta lives in the directory's window file.
    """
    if Path(path).is_dir():
        from repro.api.deltalog import read_delta_checkpoint

        return read_delta_checkpoint(path)
    state = read_checkpoint_file(path)
    if "window_from" in state:
        raise CheckpointError(
            f"{path} is the base of a delta-checkpoint directory and not a "
            f"complete state on its own: the input of its window from "
            f"quantum {state['window_from']} on is in the directory's "
            f"window file; resume the directory instead "
            f"(open_session(resume=DIR))"
        )
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
    "read_checkpoint_file",
]
