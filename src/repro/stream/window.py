"""Quantum batching and per-quantum aggregation.

The moving-window paradigm of Section 1.1: the stream is consumed in quanta
of a fixed number of records; the window spans the last ``w`` quanta.  The
:class:`QuantumBatcher` groups an arbitrary message iterator into quanta;
:func:`quantum_columns` reduces a quantum to the interned pair columns the
window indexes consume (:class:`QuantumColumns`) — the one aggregated form
of a quantum.  Extraction is delegated to an
:class:`~repro.extract.base.EntityExtractor`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.interning import Interner
from repro.errors import StreamError
from repro.stream.messages import Message

Entity = str
ActorId = Hashable


class QuantumBatcher:
    """Groups messages into fixed-size quanta.

    Feed messages with :meth:`push`; each call returns a full quantum when
    one completes, else None.  :meth:`flush` returns any partial remainder.
    """

    def __init__(self, quantum_size: int) -> None:
        if quantum_size < 1:
            raise StreamError(f"quantum_size must be >= 1, got {quantum_size}")
        self.quantum_size = quantum_size
        self._buffer: List[Message] = []

    def push(self, message: Message) -> List[Message] | None:
        self._buffer.append(message)
        if len(self._buffer) >= self.quantum_size:
            quantum, self._buffer = self._buffer, []
            return quantum
        return None

    def fill(self, messages: Iterator[Message]) -> List[Message] | None:
        """Pull from an iterator until a quantum completes or it drains.

        The bulk equivalent of per-message :meth:`push` — one C-level
        ``islice`` per quantum instead of one Python call per message.
        Returns the completed quantum, or None when the iterator ran dry
        first (the partial stays buffered, exactly like ``push``).
        """
        buffer = self._buffer
        need = self.quantum_size - len(buffer)
        taken = list(islice(messages, need))
        buffer.extend(taken)
        if len(taken) == need:
            quantum, self._buffer = buffer, []
            return quantum
        return None

    def flush(self) -> List[Message]:
        quantum, self._buffer = self._buffer, []
        return quantum

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def pending_messages(self) -> List[Message]:
        """Copy of the buffered partial quantum (checkpointing support)."""
        return list(self._buffer)

    def load_pending(self, messages: Iterable[Message]) -> None:
        """Replace the buffer (checkpoint restore); must not overflow."""
        buffer = list(messages)
        if len(buffer) >= self.quantum_size:
            raise StreamError(
                f"restored buffer holds {len(buffer)} messages, a full "
                f"quantum is {self.quantum_size}"
            )
        self._buffer = buffer

    def batches(self, messages: Iterable[Message]) -> Iterator[List[Message]]:
        """Iterate full quanta from a message iterable (drops the remainder
        only if it is empty; a final partial quantum is yielded)."""
        for message in messages:
            quantum = self.push(message)
            if quantum is not None:
                yield quantum
        tail = self.flush()
        if tail:
            yield tail


class QuantumColumns:
    """One quantum reduced to flat, interned, deduplicated pair columns.

    The extraction product of the hot path (DESIGN.md Section 9): ``keys``
    holds the quantum's distinct (entity, actor) pairs as packed int64
    ``(eid << 32) | aid`` interner ids, ascending — i.e. sorted by
    ``(entity id, actor id)``, because ids are non-negative and below
    2**32 — and grouped into contiguous entity ``segments``: ``(eid, lo,
    hi)`` runs with the entity's token string in the parallel
    ``ent_strings`` list.  Semantically it is the quantum's ``entity ->
    actors`` mapping with every actor's entities aggregated over all its
    records (spatial correlation is per actor per quantum, Section 3.2):
    per-record truncation applies before interning, records without
    entities add nothing, and deduplication makes each (entity, actor)
    pair count once, so segment length equals the quantum's distinct-user
    support.  The actor of key ``k`` is ``acts.objs[k & 0xFFFFFFFF]``.
    """

    __slots__ = ("keys", "segments", "ent_strings")

    def __init__(
        self,
        keys: np.ndarray,
        segments: List[Tuple[int, int, int]],
        ent_strings: List[Entity],
    ) -> None:
        self.keys = keys
        self.segments = segments
        self.ent_strings = ent_strings


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending; sorts ``keys`` in place.

    One SIMD sort plus an adjacent compare.  Plain ``np.unique`` on an
    int64 column takes a hash-set path on numpy 2.4 — an order of
    magnitude slower on the packed pair keys of a quantum or a window.
    """
    keys.sort()
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys.compress(keep)


def _columns_from_occurrences(
    ent_occ: List[int], act_occ, objs: List
) -> QuantumColumns:
    """Dedupe/sort/segment flat occurrence columns into QuantumColumns:
    pack both ids into one int64 key, sort-and-dedupe it in C, and read
    the segment boundaries off the packed column."""
    if not ent_occ:
        return QuantumColumns(np.empty(0, dtype=np.int64), [], [])
    keys = np.array(ent_occ, dtype=np.int64)
    keys <<= 32
    keys |= np.asarray(act_occ, dtype=np.int64)
    keys = sorted_distinct(keys)
    ents = keys >> 32
    bounds = np.flatnonzero(ents[1:] != ents[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(keys)]))
    segments = list(
        zip(ents[starts].tolist(), starts.tolist(), ends.tolist())
    )
    strings = [objs[eid] for eid, _, _ in segments]
    return QuantumColumns(keys, segments, strings)


def quantum_columns(
    messages: Iterable[Message],
    extractor,
    max_entities_per_record: int | None,
    ents: Interner,
    acts: Interner,
) -> QuantumColumns:
    """Extract one quantum straight into interned pair columns.

    One pass appends interned (entity, actor) occurrence ids to flat lists
    — each record capped at ``max_entities_per_record`` entities, which
    bounds the pair fan-out a flooder can inject — then a single
    dedupe/sort kernel builds the grouped columns, with no per-message
    dict or set allocation.  Messages
    already carrying pre-extracted ``tokens`` skip the extractor call when
    the extractor is the plain keyword one (whose ``entities`` is exactly
    ``keyword_tuple``, i.e. the tokens themselves).
    """
    from repro.extract.keyword import KeywordExtractor

    tok_occ: List[Entity] = []
    msg_aids: List[int] = []
    msg_counts: List[int] = []
    act_ids = acts.ids
    act_intern = acts.intern
    cap = max_entities_per_record
    keyword_fast = type(extractor) is KeywordExtractor
    extract = extractor.entities
    for message in messages:
        if keyword_fast:
            entities = message.tokens
            if entities is None:
                entities = extract(message)
        else:
            entities = extract(message)
        if not entities:
            continue
        if cap is not None and len(entities) > cap:
            entities = entities[:cap]
        user = message.user_id
        aid = act_ids.get(user)
        if aid is None:
            aid = act_intern(user)
        tok_occ += entities
        msg_aids.append(aid)
        msg_counts.append(len(entities))
    # One C-level gather for the whole quantum; only genuinely new tokens
    # (the None holes) fall back to the python interning path.
    ent_occ = [*map(ents.ids.get, tok_occ)]
    ent_intern = ents.intern
    try:
        i = ent_occ.index(None)
        while True:
            ent_occ[i] = ent_intern(tok_occ[i])
            i = ent_occ.index(None, i + 1)
    except ValueError:
        pass
    # Expand the per-message actor ids across their token runs in one
    # C-level repeat instead of allocating a small list per message.
    act_occ = np.repeat(
        np.array(msg_aids, dtype=np.int64),
        np.array(msg_counts, dtype=np.int64),
    )
    return _columns_from_occurrences(ent_occ, act_occ, ents.objs)


def columns_from_mapping(
    keyword_users: Dict[Entity, Set[ActorId]],
    ents: Interner,
    acts: Interner,
) -> QuantumColumns:
    """Intern an entity -> actors mapping into :class:`QuantumColumns`.

    The adapter behind the window indexes' mapping entry point (the
    from-scratch referee builder, direct construction in tests); empty
    user sets are skipped — they carry no id-set information.
    """
    ent_occ: List[int] = []
    act_occ: List[int] = []
    for kw, users in keyword_users.items():
        if not users:
            continue
        eid = ents.intern(kw)
        for user in users:
            ent_occ.append(eid)
            act_occ.append(acts.intern(user))
    return _columns_from_occurrences(ent_occ, act_occ, ents.objs)


__all__ = [
    "QuantumBatcher",
    "QuantumColumns",
    "columns_from_mapping",
    "quantum_columns",
    "sorted_distinct",
]
