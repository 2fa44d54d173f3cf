"""The load generator's plumbing: a real ``repro serve`` subprocess, two
long-lived WebSocket connections, an open-loop pacer and a closed-loop
flooder.

Every wait has a deadline and fails with a :class:`BenchError` naming the
workload and phase.  The server under test is started at its default flags
(only ``--port 0`` and, for durable workloads, ``--state-dir``).
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import re
import select
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Generous on purpose: deadlines exist to turn a hang into a readable
#: error, not to police speed (the metrics do that).
DEADLINE = 120.0

_SERVING = re.compile(rb"-- serving on http://([0-9.]+):(\d+)")


class BenchError(RuntimeError):
    """A harness failure, worded for the person reading the bench log."""


def scratch_dir(label: str) -> Path:
    """A fresh directory under ``out/`` (inside the checkout, git-ignored)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"tmp-{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (default: this one), in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM line in {status}")


# --------------------------------------------------------------- the server


def _die_with_parent() -> None:
    """In the child: ask the kernel for SIGKILL when the benchmark dies, so
    not even a ``kill -9`` of the benchmark leaves a server behind."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # not Linux: the exit paths below still kill the server


class Server:
    """One ``python -m repro serve --port 0 [--state-dir D]`` process."""

    def __init__(self, where: str, state_dir: Optional[Path] = None) -> None:
        self.where = where
        self.state_dir = state_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.spawned_at = 0.0
        self.peak_rss = 0.0

    def start(self) -> "Server":
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.state_dir is not None:
            command += ["--state-dir", str(self.state_dir)]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            preexec_fn=_die_with_parent,
        )
        self.port = self._read_port()
        return self

    def _read_port(self) -> int:
        """Parse the bound port from the ``-- serving on http://…`` line."""
        fd = self.proc.stdout.fileno()
        seen = b""
        end = time.monotonic() + DEADLINE
        while True:
            match = _SERVING.search(seen)
            if match:
                return int(match.group(2))
            remaining = end - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise BenchError(
                    f"{self.where}: server printed no '-- serving on' line "
                    f"within {DEADLINE:.0f}s (got {seen[-200:]!r})"
                )
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    code = self.proc.wait(timeout=DEADLINE)
                    raise BenchError(
                        f"{self.where}: server exited with code {code} "
                        f"before it was listening"
                    )
                seen += chunk

    def kill(self) -> None:
        """``kill -9``, then wait for the process to be gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.peak_rss = peak_rss_mb(self.proc.pid)
            except (OSError, BenchError):
                pass
            self.proc.kill()
        try:
            self.proc.wait(timeout=DEADLINE)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"{self.where}: server pid {self.proc.pid} survived SIGKILL "
                f"for {DEADLINE:.0f}s"
            ) from None
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        self.proc = None


def guarded(where: str, call: Callable, *args, **kwargs):
    """Run one control-plane call; reword socket errors with the phase."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise BenchError(f"{where}: {type(exc).__name__}: {exc}") from exc


# ------------------------------------------------------------ frames (out)


def mask_frame(payload: bytes, rng: random.Random) -> bytes:
    """One masked RFC 6455 text frame, as a client must send it.

    Same bytes on the wire as ``repro.serve.wire.encode_frame(mask=True)``;
    encoded here because frames are prepared during set-up (the generator
    must not spend its send window XOR-ing in Python) and the mask key has
    to come from the workload seed.
    """
    length = len(payload)
    if length < 126:
        header = bytes([0x81, 0x80 | length])
    elif length < 1 << 16:
        header = bytes([0x81, 0x80 | 126]) + struct.pack(">H", length)
    else:
        header = bytes([0x81, 0x80 | 127]) + struct.pack(">Q", length)
    key = rng.getrandbits(32).to_bytes(4, "big")
    repeated = (key * (length // 4 + 1))[:length]
    masked = (
        int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")
    ).to_bytes(length, "big") if length else b""
    return header + key + masked


def text_records(messages: Sequence) -> List[dict]:
    """What a microblog firehose delivers: user id and raw text."""
    return [{"u": m.user_id, "t": " ".join(m.tokens)} for m in messages]


def frame_payloads(records: Sequence[dict], per_frame: int) -> List[bytes]:
    """JSON-array payloads of ``per_frame`` records each."""
    return [
        json.dumps(records[lo:lo + per_frame], separators=(",", ":")).encode()
        for lo in range(0, len(records), per_frame)
    ]


# ----------------------------------------------------------- frames (back)


class _FrameBuffer:
    """Incremental parser of the server's (unmasked) WebSocket frames.

    ``repro.serve.wire.read_frame_blocking`` reads one connection and
    blocks; the receiver thread watches two with ``select`` and must never
    block on either, so it parses what has arrived.
    """

    def __init__(self) -> None:
        self.data = bytearray()

    def feed(self, chunk: bytes) -> List[tuple]:
        self.data += chunk
        frames = []
        data = self.data
        offset = 0
        while len(data) - offset >= 2:
            opcode = data[offset] & 0x0F
            length = data[offset + 1] & 0x7F
            head = 2
            if length == 126:
                if len(data) - offset < 4:
                    break
                (length,) = struct.unpack_from(">H", data, offset + 2)
                head = 4
            elif length == 127:
                if len(data) - offset < 10:
                    break
                (length,) = struct.unpack_from(">Q", data, offset + 2)
                head = 10
            if len(data) - offset < head + length:
                break
            frames.append(
                (opcode, bytes(data[offset + head:offset + head + length]))
            )
            offset += head + length
        del data[:offset]
        return frames


class Receiver(threading.Thread):
    """The generator's second thread: reads both connections.

    Event records are stamped with the time their bytes were read, before
    any decoding; ingest acks update the backpressure view the sender
    thread waits on.  The thread never raises: a failure is kept in
    ``error`` and reported by whoever waits on it.
    """

    def __init__(self, events_ws, stream_ws=None) -> None:
        super().__init__(name="e2e-receiver", daemon=True)
        self.events_sock = events_ws.sock
        self.stream_sock = stream_ws.sock if stream_ws is not None else None
        self.records: List[dict] = []
        self.last_event_at: Dict[int, float] = {}
        self.acks = 0
        self.queued = 0
        self.ack_errors: List[str] = []
        self.error: Optional[str] = None
        self.changed = threading.Condition()
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # reported through .error, see class doc
            with self.changed:
                self.error = f"{type(exc).__name__}: {exc}"
                self.changed.notify_all()

    def _loop(self) -> None:
        buffers = {self.events_sock: _FrameBuffer()}
        if self.stream_sock is not None:
            buffers[self.stream_sock] = _FrameBuffer()
        while not self._halt.is_set() and buffers:
            ready, _, _ = select.select(list(buffers), [], [], 0.05)
            for sock in ready:
                chunk = sock.recv(1 << 16)
                now = time.perf_counter()
                if not chunk:
                    del buffers[sock]
                    continue
                frames = buffers[sock].feed(chunk)
                with self.changed:
                    for opcode, payload in frames:
                        if opcode != 0x1:
                            continue
                        if sock is self.events_sock:
                            record = json.loads(payload)
                            self.records.append(record)
                            self.last_event_at[record["quantum"]] = now
                        else:
                            self._ack(json.loads(payload))
                    self.changed.notify_all()

    def _ack(self, ack: dict) -> None:
        self.acks += 1
        if "error" in ack:
            self.ack_errors.append(str(ack["error"]))
            return
        self.queued = ack["queued"]

    def wait_for(self, where: str, condition: Callable[[], bool]) -> None:
        """Block until ``condition()`` holds (checked under the lock)."""
        with self.changed:
            ok = self.changed.wait_for(
                lambda: self.error is not None or condition(), DEADLINE
            )
        if self.error is not None:
            raise BenchError(f"{where}: receiver thread failed: {self.error}")
        if not ok:
            raise BenchError(
                f"{where}: still waiting after {DEADLINE:.0f}s "
                f"({len(self.records)} events, {self.acks} acks received)"
            )

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=DEADLINE)


# ------------------------------------------------------------- the senders


def send_paced(
    where: str, sock, frames: Sequence[bytes], per_frame: int, rate: float
) -> dict:
    """Open loop: frame *i* leaves when its last message is due.

    The schedule never slows when the server does; how late the generator
    itself ran is returned so a starved generator cannot pass for a slow
    server.  Returns the schedule start and the per-frame lateness.
    """
    late: List[float] = []
    start = time.perf_counter() + 0.05
    try:
        for index, frame in enumerate(frames):
            due = start + (index + 1) * per_frame / rate
            while True:
                remaining = due - time.perf_counter()
                if remaining <= 0:
                    break
                time.sleep(remaining)
            late.append(time.perf_counter() - due)
            sock.sendall(frame)
    except OSError as exc:
        raise BenchError(f"{where}: send failed: {exc}") from exc
    return {"start": start, "late": late, "end": time.perf_counter()}


def send_flood(
    where: str,
    sock,
    receiver: Receiver,
    frames: Sequence[bytes],
    probe: bytes,
    high_water: int,
) -> float:
    """Closed loop: one frame in flight, pausing above ``high_water``.

    The ack of each frame carries the tenant's queue depth; while it reads
    above the high-water mark the sender only probes with empty frames, so
    the server's bounded queue never sheds.  Returns the first send time.
    """
    sent = receiver.acks
    first = time.perf_counter()
    try:
        for frame in frames:
            sock.sendall(frame)
            sent += 1
            receiver.wait_for(where, lambda: receiver.acks >= sent)
            while receiver.queued > high_water:
                time.sleep(0.01)
                sock.sendall(probe)
                sent += 1
                receiver.wait_for(where, lambda: receiver.acks >= sent)
    except OSError as exc:
        raise BenchError(f"{where}: send failed: {exc}") from exc
    return first
