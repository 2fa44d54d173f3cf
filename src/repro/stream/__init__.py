"""Message stream plumbing: records, quantum batching, trace I/O."""

from repro.stream.messages import Message
from repro.stream.window import QuantumBatcher
from repro.stream.sources import read_jsonl_trace, write_jsonl_trace

__all__ = [
    "Message",
    "QuantumBatcher",
    "read_jsonl_trace",
    "write_jsonl_trace",
]
