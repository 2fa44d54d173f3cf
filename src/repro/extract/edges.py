"""Raw actor–entity interaction streams: the edge-stream adapter.

The most direct instantiation of the paper's model: the stream *is*
already a sequence of actor–entity interactions — a buyer and the products
in one basket (co-purchase), a paper and the works it cites (citation), a
flow source and the hosts it touched.  No extraction logic is needed at
all: the record's entity list passes through verbatim, and the engine's
spatial correlation (distinct actors per entity per quantum, Jaccard over
windowed actor sets) does the rest — exactly the generic
entity-co-occurrence graph maintained by Angel et al.'s story-identification
system.

Records carry their entities either in the ``fields`` payload (under
``entities_field``, default ``"entities"``) or — the compact wire form —
as the message's pre-extracted ``tokens``.  Both forms are equivalent;
the JSONL trace format uses ``"k"`` (tokens) for exactly this reason.  A
record's ``"k"`` holds strings (:func:`~repro.stream.sources.check_record`);
integer entity ids travel in the payload, ``{"f": {"entities": [1001]}}``,
which is read as ``"1001"``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.errors import ConfigError


class EdgeStreamAdapter:
    """Pass an interaction record's entity list through unchanged."""

    name = "edges"
    textual = False
    custom = False

    def __init__(self, entities_field: str = "entities") -> None:
        if not entities_field or not isinstance(entities_field, str):
            raise ConfigError(
                f"entities_field must be a non-empty string, "
                f"got {entities_field!r}"
            )
        self.entities_field = entities_field

    def entities(self, message) -> Tuple[str, ...]:
        payload = message.fields
        if payload:
            value = payload.get(self.entities_field)
            if value is not None:
                values = (
                    value if isinstance(value, (list, tuple)) else (value,)
                )
                return tuple(s for v in values if (s := str(v)))
        if message.tokens is not None:
            # Coerce like the fields path: the engine's string-entity
            # contract (sorted checkpoints) and the
            # "both forms are equivalent" promise both need one canonical
            # form — an in-process Message(tokens=(1001,)) and
            # {"entities": [1001]} must land on the same graph node.
            return tuple(s for v in message.tokens if (s := str(v)))
        return ()

    def options(self) -> Dict[str, Any]:
        return {"entities_field": self.entities_field}


__all__ = ["EdgeStreamAdapter"]
