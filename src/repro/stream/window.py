"""Quantum batching and per-quantum aggregation.

The moving-window paradigm of Section 1.1: the stream is consumed in quanta
of a fixed number of records; the window spans the last ``w`` quanta.  The
:class:`QuantumBatcher` groups an arbitrary message iterator into quanta;
:func:`quantum_columns` reduces a quantum to the interned pair columns the
window indexes consume (:class:`QuantumColumns`) — the one aggregated form
of a quantum.  Extraction is delegated to an
:class:`~repro.extract.base.EntityExtractor`.

A quantum's vocabulary stays in id columns: the segments are arrays of
entity ids and distinct-user counts, and no token string is looked up
again after interning — the AKG stage resolves strings only for the few
entities it acts on (its graph's nodes, the quantum's bursty keywords and
the keywords whose window empties; DESIGN.md Section 5).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, islice, repeat
from operator import iadd
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.interning import Interner
from repro.errors import StreamError
from repro.stream.messages import Message


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


class QuantumColumns:
    """One quantum reduced to flat, interned, deduplicated pair columns.

    The extraction product of the hot path (DESIGN.md Section 9): ``keys``
    holds the quantum's distinct (entity, actor) pairs as packed int64
    ``(eid << 32) | aid`` interner ids, ascending — i.e. sorted by
    ``(entity id, actor id)``, because ids are non-negative and below
    2**32 — so each entity's pairs form one contiguous segment.  The
    segments are two parallel int64 arrays: ``eids`` (ascending) and
    ``counts``, each segment's length, which is the entity's distinct-user
    support in the quantum; segment ``i`` starts at ``counts[:i].sum()``.
    Semantically it is the quantum's ``entity -> actors`` mapping with
    every actor's entities aggregated over all its records (spatial
    correlation is per actor per quantum, Section 3.2): per-record
    truncation applies before interning, records without entities add
    nothing, and deduplication makes each (entity, actor) pair count once.
    Nothing is resolved back to objects here: the token of entity ``e`` is
    ``ents.objs[e]`` and the actor of key ``k`` is
    ``acts.objs[k & 0xFFFFFFFF]``, read by whoever needs them.
    """

    __slots__ = ("keys", "eids", "counts")

    def __init__(self, keys: np.ndarray) -> None:
        """Segment ``keys``, which must be sorted and distinct."""
        self.keys = keys
        starts, self.counts = sorted_runs(keys >> 32)
        self.eids = keys[starts] >> 32


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


def sorted_runs(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs of equal values in a sorted column."""
    first = np.ones(len(column), dtype=bool)
    np.not_equal(column[1:], column[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=len(column))


def quantum_columns(
    messages: Iterable[Message],
    extractor,
    max_entities_per_record: int | None,
    ents: Interner,
    acts: Interner,
) -> QuantumColumns:
    """Extract one quantum straight into interned pair columns.

    Built by columns, with no loop body per message: one comprehension
    gathers each record's entities — capped at
    ``max_entities_per_record``, which bounds the pair fan-out a flooder
    can inject — the records without entities drop out by their zero
    count, and a single dedupe/sort kernel builds the grouped columns.
    Messages already carrying pre-extracted ``tokens`` skip the extractor
    call when the extractor is the plain keyword one (whose ``entities``
    is exactly ``keyword_tuple``, i.e. the tokens themselves).
    """
    from repro.extract.keyword import KeywordExtractor

    messages = messages if isinstance(messages, list) else [*messages]
    extract = extractor.entities
    if type(extractor) is KeywordExtractor:
        entities = [
            extract(m) if m.tokens is None else m.tokens for m in messages
        ]
    else:
        entities = [*map(extract, messages)]
    counts = [*map(len, entities)]
    cap = max_entities_per_record
    if cap is not None and max(counts, default=0) > cap:
        entities = [e[:cap] for e in entities]
        counts = [*map(len, entities)]
    # Records without entities intern no actor: their zero count drops
    # them from the actor column.
    aids = _ids(acts, [*compress([m.user_id for m in messages], counts)])
    keys = _ids(ents, reduce(iadd, entities, []))
    keys <<= 32
    # Expand the per-record actor ids across their token runs in one
    # C-level repeat instead of allocating a small list per message.
    keys |= np.repeat(aids, [*filter(None, counts)])
    return QuantumColumns(sorted_distinct(keys))


def _ids(interner: Interner, objs: List) -> np.ndarray:
    """The interner ids of ``objs`` as an int64 column: one C-level gather,
    then only the genuinely new objects (the ``-1`` holes) are interned,
    in first-occurrence order."""
    ids = np.fromiter(
        map(interner.ids.get, objs, repeat(-1)), dtype=np.int64, count=len(objs)
    )
    get, intern = interner.ids.get, interner.intern
    for i in np.flatnonzero(ids < 0).tolist():
        obj = objs[i]
        slot = get(obj)  # a repeat of an object interned at an earlier hole
        ids[i] = intern(obj) if slot is None else slot
    return ids


__all__ = [
    "QuantumBatcher",
    "QuantumColumns",
    "quantum_columns",
    "sorted_distinct",
    "sorted_runs",
]
