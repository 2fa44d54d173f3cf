"""Wire primitives of the serving layer: HTTP/1.1 parsing, WebSocket frames
and the ingest frame codec.

Everything here is stdlib-only (DESIGN.md Section 11): the front door must
run on a bare python install, so instead of depending on an HTTP framework
the server speaks the small subset of HTTP/1.1 and RFC 6455 it needs —
request line + headers + ``Content-Length`` bodies on the REST side (a
``Transfer-Encoding`` is refused, ``Expect: 100-continue`` is answered),
and unfragmented text/close/ping/pong frames on the WebSocket side.  The
frame reader is one sans-IO parser that the asyncio server and the
blocking :mod:`repro.serve.client` both drive, so they share one
implementation (and one set of tests).  An ingest frame (an HTTP ingest
body or one WebSocket text frame) is decoded twice by one function pair
here: at the door, where every record is checked and the frame is queued
as its bytes, and once on the executor, where the queued bytes become
:class:`~repro.stream.messages.Message` objects.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServeError, StreamError
from repro.stream.sources import check_record, message_from_record

# RFC 6455 Section 1.3: the fixed GUID concatenated to the client key.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

# Frame opcodes (the subset the serving layer speaks).
OP_TEXT = 0x1
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024  # a 256 MB cap, not a promise
MAX_FRAME_BYTES = 64 * 1024 * 1024


@dataclass
class Request:
    """One parsed HTTP request (REST call or WebSocket upgrade)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """The body decoded as JSON (``None`` for an empty body)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ServeError("request body JSON is nested too deeply") from None

    @property
    def wants_websocket(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        upgrade = self.headers.get("upgrade", "").lower()
        return "upgrade" in connection and upgrade == "websocket"


async def read_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> Optional[Request]:
    """Parse one HTTP request from the stream (None on clean EOF).

    The body is read by ``Content-Length`` alone: a request carrying any
    ``Transfer-Encoding`` is refused, since its body would otherwise be
    taken as empty, and so is one repeating ``Content-Length`` with
    differing values, whose framing would be a guess.  A client that sent
    ``Expect: 100-continue`` is told ``100 Continue`` (on ``writer``) once
    the length is accepted.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError("truncated HTTP request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ServeError("HTTP header section too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ServeError("HTTP header section too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ServeError(f"malformed request line: {lines[0]!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ServeError(
                f"conflicting Content-Length headers: "
                f"{headers[name]!r} and {value!r}"
            )
        headers[name] = value
    parts = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(parts.query, keep_blank_values=True).items()
    }
    if "transfer-encoding" in headers:
        raise ServeError(
            f"Transfer-Encoding {headers['transfer-encoding']!r} is not "
            f"supported; send the body with a Content-Length"
        )
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise ServeError(f"bad Content-Length: {length!r}") from exc
        if n < 0 or n > MAX_BODY_BYTES:
            raise ServeError(f"unreasonable Content-Length: {n}")
        if n and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(n)
    return Request(method.upper(), parts.path, query, headers, body)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def http_response(status: int, payload, *, content_type: str = "application/json") -> bytes:
    """Serialize one ``Connection: close`` HTTP response."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = payload
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def websocket_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key (RFC 6455)."""
    digest = hashlib.sha1((client_key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def websocket_upgrade_response(client_key: str) -> bytes:
    """The ``101 Switching Protocols`` reply that completes a client's
    WebSocket handshake (RFC 6455 Section 4.2.2)."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def _xor_mask(payload: bytes, key: bytes) -> bytes:
    """RFC 6455 Section 5.3 masking (its own inverse): byte ``i`` of the
    payload XOR ``key[i % 4]``, as one big-integer XOR of the payload
    against the 4-byte key repeated to its length."""
    n = len(payload)
    pad = (key * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(pad, "big")
    ).to_bytes(n, "big")


def encode_frame(opcode: int, payload: bytes, *, mask: bool = False) -> bytes:
    """Encode one unfragmented WebSocket frame.

    Servers send unmasked frames; clients MUST mask (RFC 6455 Section 5.3),
    so the blocking client passes ``mask=True``.
    """
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = _xor_mask(payload, key)
    return bytes(header) + payload


def _frame_parser() -> Generator[int, bytes, Tuple[int, bytes]]:
    """Sans-IO reader of one frame: yields how many bytes it needs next,
    is sent exactly those bytes, and returns ``(opcode, payload)``.

    Raises :class:`~repro.errors.ServeError` on a fragmented frame or one
    longer than :data:`MAX_FRAME_BYTES`.
    """
    first, second = yield 2
    if not first & 0x80:
        raise ServeError("fragmented WebSocket frames are not supported")
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", (yield 2))
    elif length == 127:
        (length,) = struct.unpack(">Q", (yield 8))
    if length > MAX_FRAME_BYTES:
        raise ServeError(f"WebSocket frame too large: {length} bytes")
    key = (yield 4) if second & 0x80 else None
    payload = (yield length) if length else b""
    if key is not None:
        payload = _xor_mask(payload, key)
    return first & 0x0F, payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame from an asyncio stream; returns (opcode, payload).

    Raises :class:`~repro.errors.ServeError` on protocol violations and
    :class:`asyncio.IncompleteReadError` on EOF mid-frame.
    """
    parser = _frame_parser()
    try:
        need = next(parser)
        while True:
            need = parser.send(await reader.readexactly(need))
    except StopIteration as done:
        return done.value


def read_frame_blocking(rfile) -> Tuple[int, bytes]:
    """Blocking twin of :func:`read_frame` over a ``makefile('rb')`` object."""
    parser = _frame_parser()
    try:
        need = next(parser)
        while True:
            data = rfile.read(need)
            if data is None or len(data) != need:
                raise ServeError("WebSocket connection closed mid-frame")
            need = parser.send(data)
    except StopIteration as done:
        return done.value


# The JSONL line breaks: every break of :meth:`str.splitlines` that JSON
# never allows raw inside a string.  U+0085, U+2028 and U+2029 may stand
# raw in a JSON string, so they do not end a line.
_JSONL_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e]")


def _decode_frame(body: bytes) -> list:
    """The JSON values of an ingest frame: one JSON array, or JSONL lines.

    Lines break where :meth:`str.splitlines` breaks them, except at U+0085,
    U+2028 and U+2029 (see :data:`_JSONL_BREAK`); a line blank under
    :meth:`str.strip` is skipped.
    """
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServeError(f"ingest body is not UTF-8: {exc}") from exc
    try:
        if text.lstrip().startswith("["):
            return json.loads(text)
        return [
            json.loads(line)
            for line in _JSONL_BREAK.split(text)
            if line.strip()
        ]
    except json.JSONDecodeError as exc:
        raise ServeError(f"ingest body is not valid JSON(L): {exc}") from exc
    except RecursionError:
        raise ServeError("ingest body JSON is nested too deeply") from None


def ingest_records(body: bytes) -> list:
    """The door's decode: an ingest frame's records, each checked by
    :func:`~repro.stream.sources.check_record` (a record that passes builds
    a message, so a queued frame cannot fail its executor batch)."""
    records = _decode_frame(body)
    try:
        for record in records:
            check_record(record)
    except StreamError as exc:
        raise ServeError(f"bad ingest record: {exc}") from exc
    return records


def encode_records(records: list) -> bytes:
    """An ingest frame holding ``records``: one compact JSON array,
    ASCII-escaped so any string a record holds (a lone surrogate too)
    encodes."""
    return json.dumps(records, separators=(",", ":")).encode("ascii")


def parse_ingest_body(body: bytes) -> list:
    """Decode an ingest frame into its messages (the executor's decode)."""
    try:
        return [message_from_record(record) for record in _decode_frame(body)]
    except StreamError as exc:
        raise ServeError(f"bad ingest record: {exc}") from exc


__all__ = [
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "Request",
    "encode_frame",
    "encode_records",
    "http_response",
    "ingest_records",
    "parse_ingest_body",
    "read_frame",
    "read_frame_blocking",
    "read_request",
    "websocket_accept_key",
    "websocket_upgrade_response",
]
