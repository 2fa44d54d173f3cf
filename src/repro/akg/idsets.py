"""Sliding-window id sets: which users used which keyword, per window.

Section 3.2 associates with every keyword the set of user ids that used it in
the current window; the Jaccard coefficient of two keywords' id sets is the
edge correlation, and Section 3.2.2 sketches the same sets ("p Min-Hash
values amongst all the user ids in the id set") to find edge candidates.
:class:`IdSetIndex` answers both from one column.

The index is the column engine (DESIGN.md Section 9): keywords and users are
interned to dense ints, a pair is the packed int64 ``(eid << 32) | aid``,
each quantum contributes one sorted block of its distinct pairs, and **the
deque of the last ``window_quanta`` blocks is the only window state**.  A
slide pops the expired blocks, appends the entering one and *derives* the
rest — the sorted column of distinct live pairs, the per-keyword supports,
the live users — with one C sort over the blocks (:meth:`IdSetIndex.
_rebuild`).  A user who used a keyword in several quanta is in several
blocks and so stays in the id set until the *last* of them expires; no
multiplicity is tracked anywhere.

Churn proportionality (DESIGN.md Section 5): the sort is O(window pairs) in
C, and so are the array compares around it.  The slide hands the supports
before and after to the AKG stage as id columns inside a
:class:`SlideDelta`, which reads them at its few dozen nodes; no keyword is
resolved to a string.  Its only Python work is releasing the interner
slots of the vanished users and the emptied keywords.

Serialized, the window is that same queue of per-quantum blocks ``[[q,
[[kw, users], ...]], ...]``, oldest first, each sorted by keyword.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.akg.minhash import user_hash_fn
from repro.errors import StreamError
from repro.interning import Interner
from repro.stream.window import QuantumColumns, sorted_distinct, sorted_runs

Keyword = str
UserId = Hashable
Sketch = Tuple[int, ...]

_KEYWORD = itemgetter(0)  # sort key of a ``[keyword, users]`` block entry
_AID_MASK = 0xFFFFFFFF  # low half of a packed pair key
_SCRATCH_BYTES = 1 << 22  # ceiling on jaccard_many's byte-per-bit scratch

@dataclass(frozen=True, slots=True, eq=False)
class SlideDelta:
    """What one window slide changed — the AKG stage's delta contract.

    ``before``, ``after``
        the window support (distinct-user count) of every entity id before
        and after the slide, as two int64 columns of one length: entity
        ``e`` moved from ``before[e]`` to ``after[e]``.  They are the
        index's own support columns, never written after a slide; ids
        interned since the previous slide read 0 in ``before``.

    A keyword's support can only reach zero in the slide that expires its
    last entry, so the ids where ``before != 0`` and ``after == 0`` are
    every stale-node candidate.  The delta holds no Python container:
    nothing in it grows with the quantum's or the window's vocabulary.
    The ids of emptied keywords and of users that left every id set are
    released inside the slide.
    """

    quantum: int
    before: np.ndarray
    after: np.ndarray


def _empty_keys():
    return np.empty(0, dtype=np.int64)


def _padded(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` zero-extended to ``size`` slots (an id space only grows
    between two slides)."""
    if len(column) == size:
        return column
    out = np.zeros(size, dtype=column.dtype)
    out[: len(column)] = column
    return out


def _first_of_each_run(keys: np.ndarray, p: int) -> np.ndarray:
    """Of ascending packed keys, the first ``p`` of every run of keys that
    share a high half."""
    starts, lengths = sorted_runs(keys >> 32)
    return keys[np.arange(len(keys)) - np.repeat(starts, lengths) < p]


class IdSetIndex:
    """Per-keyword sliding-window user-id sets over interned pair columns.

    Keywords and users live in two :class:`~repro.interning.Interner`
    tables (``ents``/``acts``); the actor table also stores each user's
    64-bit MinHash base hash, computed once per window residency.

    The window state is ``_quanta`` — a deque of ``(quantum, keys)``
    packed columns, oldest first, holding each quantum's contribution
    verbatim (the extraction stage's own key arrays, kept by reference —
    they are never mutated).  Derived from it by :meth:`_rebuild`, after
    every slide and on restore alike:

    * ``_pair_keys`` — the packed ``(eid << 32) | aid`` key of every live
      *distinct* (keyword, user) pair, ascending — so a keyword's id set is
      one contiguous slice and its support the slice's length;
    * ``_support`` — ``_support[eid]``, the slice lengths as a dense column
      over the entity id space (the ranker asks for node weights far more
      often than a slide moves them);
    * ``_present`` — ``_present[aid]``, whether the user is in any id set.

    Ids are recycled: a user who left every id set releases their
    interner slot and a keyword whose window emptied releases its entity
    slot — only when the last window occurrence expires, at which point no
    array in ``_quanta`` can still reference the slot — so both id spaces
    track the live window population.

    :meth:`add_columns` is the one update: it consumes the extraction
    stage's :class:`~repro.stream.window.QuantumColumns`, interned over
    this index's own tables.
    """

    __slots__ = (
        "window_quanta",
        "ents",
        "acts",
        "_quanta",
        "_pair_keys",
        "_support",
        "_present",
        "_last_quantum",
    )

    def __init__(self, window_quanta: int, seed: int = 0) -> None:
        if window_quanta < 1:
            raise StreamError(f"window_quanta must be >= 1, got {window_quanta}")
        self.window_quanta = window_quanta
        self.ents = Interner()
        self.acts = Interner(hash_fn=user_hash_fn(seed))
        # (quantum, packed int64 keys) — oldest first, keys sorted/distinct
        self._quanta: Deque[Tuple[int, np.ndarray]] = deque()
        self._pair_keys = _empty_keys()
        self._support = _empty_keys()
        self._present = np.zeros(0, dtype=bool)
        self._last_quantum: int | None = None

    # ------------------------------------------------------------- updates

    def _check_order(self, quantum: int) -> None:
        if self._last_quantum is not None and quantum <= self._last_quantum:
            raise StreamError(
                f"quanta must be added in increasing order: got {quantum} "
                f"after {self._last_quantum}"
            )

    def _rebuild(self) -> None:
        """Derive the pair column, the supports and the live users from the
        blocks — the one place any of the three is computed."""
        blocks = [keys for _, keys in self._quanta]
        if len(blocks) > 1:
            pair_keys = sorted_distinct(np.concatenate(blocks))
        else:  # a block is sorted and distinct already
            pair_keys = blocks[0] if blocks else _empty_keys()
        self._pair_keys = pair_keys
        eids = pair_keys >> 32
        starts, lengths = sorted_runs(eids)  # a keyword's id set is one run
        self._support = np.zeros(self.ents.capacity, dtype=np.int64)
        self._support[eids[starts]] = lengths
        present = np.zeros(self.acts.capacity, dtype=bool)
        present[pair_keys & _AID_MASK] = True
        self._present = present

    def add_columns(self, quantum: int, columns: QuantumColumns) -> SlideDelta:
        """Ingest one quantum's interned pair columns and expire old quanta.

        Returns the :class:`SlideDelta` of the slide: the supports before
        and after the rebuild.  A quantum that neither expires nor
        contributes a block moves nothing and rebuilds nothing.
        """
        self._check_order(quantum)
        self._last_quantum = quantum
        cutoff = quantum - self.window_quanta
        quanta = self._quanta
        expired = False
        while quanta and quanta[0][0] <= cutoff:
            quanta.popleft()
            expired = True
        if len(columns.keys):
            quanta.append((quantum, columns.keys))
        elif not expired:
            return SlideDelta(quantum, self._support, self._support)

        old_support, old_present = self._support, self._present
        self._rebuild()
        support, present = self._support, self._present
        before = _padded(old_support, len(support))
        freed = np.flatnonzero((support == 0) & (before != 0)).tolist()
        vanished = np.flatnonzero(
            _padded(old_present, len(present)) & ~present
        ).tolist()
        if vanished:
            self.acts.release(vanished)
        if freed:
            self.ents.release(freed)
        return SlideDelta(quantum, before, support)

    # ---------------------------------------------------------- persistence

    def _block_entries(self, keys: np.ndarray) -> list:
        """One quantum's packed key column in snapshot form: ``[[kw,
        users], ...]`` with interner ids resolved back to the original
        objects, sorted by keyword (users by ``repr``)."""
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        eids = keys >> 32
        starts, lengths = sorted_runs(eids)
        ends = starts + lengths
        aids = (keys & _AID_MASK).tolist()
        block = [
            [ent_objs[eid], sorted((act_objs[a] for a in aids[lo:hi]), key=repr)]
            for eid, lo, hi in zip(
                eids[starts].tolist(), starts.tolist(), ends.tolist()
            )
        ]
        block.sort(key=_KEYWORD)
        return block

    def to_state(self, window_from: int | None = None) -> dict:
        """Checkpointable snapshot: the window as a queue of quantum blocks.

        The blocks *are* the window state (plus the slide cursor);
        :meth:`from_state` derives the rest exactly as a slide does.  Blocks
        are oldest first and each is sorted by keyword, and interner ids
        never appear, so the snapshot is a pure function of the window
        *contents* (DESIGN.md Section 6).  ``window_from`` leaves out the
        blocks of that quantum and later ones — a delta-log base, whose
        directory holds those quanta's input (DESIGN.md Section 10).
        """
        return {
            "last_quantum": self._last_quantum,
            "window": [
                [q, self._block_entries(keys)]
                for q, keys in self._quanta
                if window_from is None or q < window_from
            ],
        }

    def from_state(
        self,
        state: dict,
        window: Iterable[Tuple[int, np.ndarray]] = (),
    ) -> None:
        """Rebuild the index in place from :meth:`to_state` output.

        ``window`` continues the state's blocks with ``(quantum, keys)``
        of the later quanta, in order.  It is consumed after the state's
        own blocks are interned, so a generator may intern into this
        index's tables as it goes (a delta-log restore runs the extract
        stage there); one :meth:`_rebuild` then derives the rest.
        """
        self._last_quantum = state["last_quantum"]
        # Cleared *in place*: the extract stage holds references to these
        # same interners (shared id space), so replacing them here would
        # silently fork the interning.
        self.ents.clear()
        self.acts.clear()
        ent_intern = self.ents.intern
        act_intern = self.acts.intern
        self._quanta = deque()
        for q, block in state["window"]:
            packed = [
                (ent_intern(kw) << 32) | act_intern(user)
                for kw, users in block
                for user in users
            ]
            self._quanta.append((q, np.sort(np.array(packed, dtype=np.int64))))
        self._quanta.extend((q, keys) for q, keys in window if len(keys))
        self._rebuild()

    # ------------------------------------------------------------- queries

    def __contains__(self, keyword: Keyword) -> bool:
        return self.support(keyword) > 0

    def keywords(self) -> Iterable[Keyword]:
        """Every keyword with at least one occurrence in the window."""
        ent_objs = self.ents.objs
        return [ent_objs[eid] for eid in np.flatnonzero(self._support).tolist()]

    @property
    def num_keywords(self) -> int:
        return int(np.count_nonzero(self._support))

    def entries(
        self, keyword: Keyword
    ) -> Tuple[Tuple[int, FrozenSet[UserId]], ...]:
        """The keyword's live (quantum, users) window entries, oldest first.

        Exposed for the leak tests: a keyword must never hold two entries for
        the same quantum, even when it expires and re-enters in one slide.
        """
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return ()
        act_objs = self.acts.objs
        base = eid << 32
        out = []
        for q, keys in self._quanta:
            lo = np.searchsorted(keys, base)
            hi = np.searchsorted(keys, base | _AID_MASK, side="right")
            if hi > lo:
                aids = (keys[lo:hi] & _AID_MASK).tolist()
                out.append((q, frozenset(act_objs[a] for a in aids)))
        return tuple(out)

    def id_set(self, keyword: Keyword) -> FrozenSet[UserId]:
        """The id set — distinct users of ``keyword`` in the window — as an
        immutable frozenset of the original user ids."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return frozenset()
        pair_keys = self._pair_keys
        base = eid << 32
        lo = pair_keys.searchsorted(base)
        hi = pair_keys.searchsorted(base | _AID_MASK, side="right")
        act_objs = self.acts.objs
        aids = (pair_keys[lo:hi] & _AID_MASK).tolist()
        return frozenset(act_objs[a] for a in aids)

    def users(self, keyword: Keyword) -> Set[UserId]:
        """The id set as a fresh mutable set."""
        return set(self.id_set(keyword))

    def support(self, keyword: Keyword) -> int:
        """|id set| — the node weight ``w_i`` of the ranking function."""
        eid = self.ents.ids.get(keyword)
        # An entity interned for the quantum not yet slid in has no slot.
        if eid is None or eid >= len(self._support):
            return 0
        return int(self._support[eid])

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one keyword's window id set.

        The exact live set whose leavers release their actor slots in a
        slide; the cache-bound tests assert the actor interner never
        outgrows it.
        """
        act_objs = self.acts.objs
        return {act_objs[a] for a in np.flatnonzero(self._present).tolist()}

    def _slices(self, eids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(start, length)`` of each entity's id-set slice of the pair
        column.  A keyword outside the window goes in as eid -1: its key
        range sorts below every live key, so its slice is empty."""
        pair_keys = self._pair_keys
        bases = eids << 32
        lo = pair_keys.searchsorted(bases)
        return lo, pair_keys.searchsorted(bases | _AID_MASK, side="right") - lo

    def _gather(
        self, lo: np.ndarray, lens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The given slices' actor ids as one column, and beside it the
        number (position in ``lo``) of the slice each came from."""
        ends = np.cumsum(lens)
        # position i of the gathered column reads pair_keys[i + shift]
        shift = np.repeat(lo - (ends - lens), lens)
        aids = self._pair_keys[np.arange(ends[-1]) + shift] & _AID_MASK
        return np.repeat(np.arange(len(lens)), lens), aids

    def sketch_many(
        self, keywords: Sequence[Keyword], p: int
    ) -> Dict[Keyword, Sketch]:
        """Bottom-``p`` MinHash sketches of many keywords' window id sets.

        The paper's sketch — the ``p`` smallest distinct base-hash values
        over the id set (Section 3.2.2) — read off the pair column for just
        the keywords asked about: their slices are gathered as in
        :meth:`jaccard_many`, the gathered users' stored 64-bit hashes are
        ranked (equal hashes share a rank, so colliding users occupy one
        sketch slot), ``(slice << 32) | rank`` is sorted and deduplicated
        as a single key, and the first ``p`` ranks of every slice map back
        to hash values.  Each sketch is the ascending tuple of Python ints
        that the bottom-``p`` distinct hashes of the same id set are; a
        keyword outside the window gets ``()``.

        Ranking 64-bit values takes an argsort, several times the price of
        a value sort, so the same sort-and-cut first runs on the hashes'
        high halves alone: ``p`` distinct high halves are at least ``p``
        distinct hashes, hence a slice's ``p`` smallest hashes lie at or
        below its ``p``-th smallest high half, and only those are ranked.
        """
        out: Dict[Keyword, Sketch] = dict.fromkeys(keywords, ())
        if not out:
            return out
        names = list(out)
        eid_of = self.ents.ids.get
        eids = np.array([eid_of(kw, -1) for kw in names], dtype=np.int64)
        slices, aids = self._gather(*self._slices(eids))
        hashes = self.acts.hashes[aids]
        high = (hashes >> 32).view(np.int64)
        lowest = _first_of_each_run(sorted_distinct((slices << 32) | high), p)
        bound = np.zeros(len(names), dtype=np.int64)
        np.maximum.at(bound, lowest >> 32, lowest & _AID_MASK)
        near = np.flatnonzero(high <= bound[slices])
        values, ranks = np.unique(hashes[near], return_inverse=True)
        lowest = _first_of_each_run(
            sorted_distinct((slices[near] << 32) | ranks), p
        )
        for row, value in zip(
            (lowest >> 32).tolist(), values[lowest & _AID_MASK].tolist()
        ):
            out[names[row]] += (value,)
        return out

    def jaccard(self, kw1: Keyword, kw2: Keyword) -> float:
        """Exact edge correlation |U1 n U2| / |U1 u U2| (Section 3.2) of one
        pair — :meth:`jaccard_many` over a one-pair list."""
        return self.jaccard_many([(kw1, kw2)])[0]

    def jaccard_many(
        self, pairs: Sequence[Tuple[Keyword, Keyword]]
    ) -> List[float]:
        """Exact edge correlations of many keyword pairs in one kernel.

        Every involved keyword's id set becomes one row of a bit matrix
        over the actor-id space (ids are dense and recycled, so a row is
        ``acts.capacity`` bits — at most the messages in the window),
        packed to uint64 words; a pair's intersection is then
        ``popcount(row1 & row2)`` and its supports the two slice lengths.
        The cardinalities are exact integers and the quotient one
        int64 / int64 true division, so every float equals the one an
        intersection of the original user-id sets produces.  A keyword
        outside the window is an all-zero row: 0.0, like an empty set.

        Rows are packed (and pairs answered) in blocks, so the
        byte-per-bit scratch never exceeds ``_SCRATCH_BYTES`` (or one row,
        should a row alone be larger) however many keywords and pairs are
        involved; what remains is the packed rows themselves and index
        arrays the size of the gathered slices.
        """
        if not pairs:
            return []
        eid_of = self.ents.ids.get
        eids = np.array(
            [(eid_of(kw1, -1), eid_of(kw2, -1)) for kw1, kw2 in pairs],
            dtype=np.int64,
        )
        involved, row_of = np.unique(eids.ravel(), return_inverse=True)
        first = row_of[0::2]
        second = row_of[1::2]
        lo, support = self._slices(involved)

        words = max(1, (self.acts.capacity + 63) >> 6)
        width = words << 6
        # rows per block: a byte per bit plus the packed copy made of it
        block = max(1, _SCRATCH_BYTES // (width + 8 * words))
        packed = np.empty((len(involved), words), dtype=np.uint64)
        bits = np.zeros((min(block, len(involved)), width), dtype=np.uint8)
        for r0 in range(0, len(involved), block):
            if r0:
                bits.fill(0)
            lens = support[r0 : r0 + block]
            rows, aids = self._gather(lo[r0 : r0 + block], lens)
            bits[rows, aids] = 1
            packed[r0 : r0 + block] = np.packbits(
                bits[: len(lens)], axis=1
            ).view(np.uint64)
        del bits  # the scratch is not held while the pairs are answered

        shared = np.empty(len(pairs), dtype=np.int64)
        for p0 in range(0, len(pairs), block):
            both = packed[first[p0 : p0 + block]] & packed[second[p0 : p0 + block]]
            shared[p0 : p0 + block] = np.bitwise_count(both).sum(axis=1)
        union = support[first] + support[second] - shared
        out = np.zeros(len(pairs))
        np.divide(shared, union, out=out, where=union > 0)
        return out.tolist()


__all__ = ["IdSetIndex", "SlideDelta"]
