"""Trace persistence: JSON-lines reading and writing of message streams.

One JSON object per line: ``{"u": user_id, "k": [tokens...]}`` with optional
``"t"`` (text), ``"f"`` (structured fields payload, for non-text workloads
read by the extractors of :mod:`repro.extract`) and ``"ts"`` (timestamp).
The compact keys keep multi-million message traces manageable on disk.

Reading is hardened for unbounded production feeds: a malformed line —
invalid UTF-8, broken JSON (e.g. a truncated final line), a non-object
record, or a record failing message validation — is **skipped and counted**
instead of killing the stream mid-iteration.  Callers that want the tally
(and the first few ``file:line: why`` diagnostics) pass a
:class:`TraceReadStats` to fill in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.errors import StreamError
from repro.stream.messages import Message

_ERROR_LOG_CAP = 20


def message_to_record(message: Message) -> dict:
    """The message's compact JSONL record (shared with checkpointing)."""
    record = {"u": message.user_id}
    if message.tokens is not None:
        record["k"] = list(message.tokens)
    if message.text is not None:
        record["t"] = message.text
    if message.fields is not None:
        record["f"] = dict(message.fields)
    if message.timestamp is not None:
        record["ts"] = message.timestamp
    return record


def check_record(record: dict) -> None:
    """Raise ``StreamError`` naming the field of a bad message record.

    The one rule set for every record the engine reads back — an ingest
    frame, a JSONL line, a delta-log record, a checkpoint's pending buffer
    — and checked by their writers before they write: ``u`` (required) is
    a string or an integer (not a bool), ``k`` a list of strings, ``t`` a
    string, ``f`` an object and ``ts`` a number, and at least one of ``k``,
    ``t`` and ``f`` carries the payload.  A record that passes builds a
    :class:`Message`: nothing past this check refuses it.
    """
    if not isinstance(record, dict):
        raise StreamError(f"record is not an object: {record!r}")
    if "u" not in record:
        raise StreamError("missing user id")
    user, tokens = record["u"], record.get("k")
    text, fields, timestamp = record.get("t"), record.get("f"), record.get("ts")
    if isinstance(user, bool) or not isinstance(user, (str, int)):
        raise StreamError(
            f"field 'u' (user id) must be a string or an integer: {user!r}"
        )
    if tokens is not None and not (
        isinstance(tokens, list) and all(type(t) is str for t in tokens)
    ):
        raise StreamError(
            f"field 'k' (tokens) must be a list of strings: {tokens!r}"
        )
    if text is not None and not isinstance(text, str):
        raise StreamError(f"field 't' (text) must be a string: {text!r}")
    if fields is not None and not isinstance(fields, dict):
        raise StreamError(
            f"field 'f' (fields payload) must be an object: {fields!r}"
        )
    if timestamp is not None and (
        isinstance(timestamp, bool) or not isinstance(timestamp, (int, float))
    ):
        raise StreamError(
            f"field 'ts' (timestamp) must be a number: {timestamp!r}"
        )
    if tokens is None and text is None and fields is None:
        raise StreamError(
            "record has no payload: one of 'k' (tokens), 't' (text) or "
            "'f' (fields) is required"
        )


def message_from_record(record: dict) -> Message:
    """Inverse of :func:`message_to_record`, after :func:`check_record`."""
    check_record(record)
    tokens = record.get("k")
    return Message(
        user_id=record["u"],
        tokens=tuple(tokens) if tokens is not None else None,
        text=record.get("t"),
        fields=record.get("f"),
        timestamp=record.get("ts"),
    )


@dataclass
class TraceReadStats:
    """Tally of one :func:`read_jsonl_trace` pass (filled as it streams).

    ``errors`` keeps the first few per-line diagnostics (capped) so a
    monitoring path can report *why* lines were dropped without retaining an
    unbounded log.
    """

    lines: int = 0
    messages: int = 0
    malformed: int = 0
    errors: List[str] = field(default_factory=list)

    def _record_error(self, path: "str | Path", line_no: int, why: str) -> None:
        self.malformed += 1
        if len(self.errors) < _ERROR_LOG_CAP:
            self.errors.append(f"{path}:{line_no}: {why}")


def write_jsonl_trace(path: "str | Path", messages: Iterable[Message]) -> int:
    """Write messages to ``path``; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for message in messages:
            record = message_to_record(message)
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def read_jsonl_trace(
    path: "str | Path", stats: Optional[TraceReadStats] = None
) -> Iterator[Message]:
    """Stream messages back from a JSONL trace file.

    Undecodable, unparsable or invalid lines are dropped and counted in
    ``stats`` (when given), each with its line number.  The file is read
    in binary and decoded per line so a single corrupt byte sequence costs
    exactly one line, not the rest of the stream.
    """
    tally = stats if stats is not None else TraceReadStats()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            tally.lines += 1
            why = None
            message = None
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                why = f"undecodable bytes ({exc.reason})"
            else:
                if not line:
                    continue
                try:
                    message = message_from_record(json.loads(line))
                except json.JSONDecodeError:
                    why = "invalid JSON"
                except StreamError as exc:
                    why = str(exc)
            if why is not None:
                tally._record_error(path, line_no, why)
                continue
            tally.messages += 1
            yield message


__all__ = [
    "write_jsonl_trace",
    "read_jsonl_trace",
    "TraceReadStats",
    "check_record",
    "message_to_record",
    "message_from_record",
]
