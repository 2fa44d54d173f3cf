"""repro.api — the streaming session API.

The public surface for long-lived detection: :func:`open_session` returns a
:class:`DetectorSession` with incremental ingestion (``ingest`` /
``ingest_many``), push-based lifecycle subscription (``subscribe`` with
callback or queue sinks receiving ``EMERGING`` / ``GROWING`` / ``DYING`` /
``RANK_CHANGED`` events), and checkpoint/restore (``snapshot`` +
``open_session(resume=...)``).  See DESIGN.md Section 6 for the lifecycle
and checkpoint contracts, and :mod:`repro.pipeline` for the stage objects a
session drives.
"""

from repro.api.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    decode_state,
    encode_state,
    fsync_dir,
    load_checkpoint,
    save_checkpoint,
)
from repro.api.deltalog import (
    DELTA_FORMAT,
    DELTA_VERSION,
    DeltaCheckpointWriter,
    FileTailTransport,
    read_delta_checkpoint,
)
from repro.api.session import DetectorSession, Subscription, open_session
from repro.api.session_events import EventKind, SessionEvent
from repro.api.sinks import CallbackSink, QueueSink, Sink

__all__ = [
    "open_session",
    "DetectorSession",
    "Subscription",
    "EventKind",
    "SessionEvent",
    "Sink",
    "CallbackSink",
    "QueueSink",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DELTA_FORMAT",
    "DELTA_VERSION",
    "DeltaCheckpointWriter",
    "FileTailTransport",
    "save_checkpoint",
    "load_checkpoint",
    "read_delta_checkpoint",
    "encode_state",
    "decode_state",
    "fsync_dir",
]
