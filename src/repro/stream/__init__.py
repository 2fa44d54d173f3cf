"""Message stream plumbing: records, quantum batching, trace I/O."""

from repro.stream.messages import Message
from repro.stream.window import (
    QuantumBatcher,
    actor_entities_of_quantum,
    invert_actor_entities,
)
from repro.stream.sources import read_jsonl_trace, write_jsonl_trace

__all__ = [
    "Message",
    "QuantumBatcher",
    "actor_entities_of_quantum",
    "invert_actor_entities",
    "read_jsonl_trace",
    "write_jsonl_trace",
]
