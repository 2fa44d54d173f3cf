"""Dense-integer interning with an optional persistent 64-bit hash column.

The column engine (DESIGN.md Section 9) replaces per-message object churn
with integer columns: every entity token and every actor id is interned to a
small dense int once, and all window bookkeeping — pair columns,
distinct-id sets, sketches — happens on those ints.
The interner also owns the object's expensive derived hash (the MinHash
base hash for actors), computed exactly once per interned object and stored
in a column parallel to the id space, so the hot loop never re-hashes a
recurring object.

Ids are recycled through a free list: when a window slide finds that an
actor left every id set or an entity's window emptied, its slot is
released and reused by the next new object.  The id space therefore tracks
the *live window population* — the cache-bound tests assert exactly this.
Live ids stay below ``capacity`` = the high-water mark of simultaneously
live objects, which keeps ids packable into the low 32 bits of a combined
``(entity << 32) | actor`` pair key.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional

import numpy as np

_ID_LIMIT = 1 << 32
_INITIAL_HASH_SLOTS = 16


class Interner:
    """Hashable-object <-> dense-int table with free-list recycling.

    The mutable internals (``ids``, ``objs``, ``hashes``) are deliberately
    public: the per-token extraction loop reads ``ids`` directly and the
    sketch kernel gathers from ``hashes`` — attribute indirection in the hot
    loop is exactly the overhead the column engine exists to remove.

    ``hashes`` is a ``uint64`` array grown by doubling, so a whole id
    column is hashed with one fancy-indexed gather.  Growth *replaces* the
    array: read it through the attribute after interning, never through a
    local bound before.  Slots at and beyond ``capacity`` are scratch.
    """

    __slots__ = ("ids", "objs", "hashes", "_free", "_hash_fn")

    def __init__(
        self, hash_fn: Optional[Callable[[Hashable], int]] = None
    ) -> None:
        self.ids: dict = {}
        self.objs: List = []
        self.hashes: Optional[np.ndarray] = (
            np.empty(_INITIAL_HASH_SLOTS, dtype=np.uint64)
            if hash_fn is not None
            else None
        )
        self._free: List[int] = []
        self._hash_fn = hash_fn

    def intern(self, obj: Hashable) -> int:
        """The object's dense id, allocating (and hashing) on first sight."""
        ids = self.ids
        slot = ids.get(obj)
        if slot is not None:
            return slot
        free = self._free
        if free:
            slot = free.pop()
            self.objs[slot] = obj
            if self.hashes is not None:
                self.hashes[slot] = self._hash_fn(obj)
        else:
            slot = len(self.objs)
            if slot >= _ID_LIMIT:
                raise OverflowError(
                    "interner id space exhausted (2**32 live objects)"
                )
            self.objs.append(obj)
            if self.hashes is not None:
                if slot == len(self.hashes):
                    grown = np.empty(2 * slot, dtype=np.uint64)
                    grown[:slot] = self.hashes
                    self.hashes = grown
                self.hashes[slot] = self._hash_fn(obj)
        ids[obj] = slot
        return slot

    def release(self, slots: Iterable[int]) -> None:
        """Free ids for reuse; their objects re-intern to fresh slots."""
        objs = self.objs
        ids = self.ids
        free = self._free
        for slot in slots:
            del ids[objs[slot]]
            objs[slot] = None
            free.append(slot)

    def clear(self) -> None:
        """Drop every mapping (hashes recompute on demand after this; the
        hash column keeps its buffer, every slot of it scratch again)."""
        self.ids.clear()
        self.objs.clear()
        self._free.clear()

    @property
    def live_count(self) -> int:
        """Number of currently interned objects (the memo-bound metric)."""
        return len(self.ids)

    @property
    def capacity(self) -> int:
        """Allocated slot count — the high-water mark of live objects."""
        return len(self.objs)


__all__ = ["Interner"]
