"""Sliding-window id sets: which users used which keyword, per window.

Section 3.2 associates with every keyword the set of user ids that used it in
the current window; the Jaccard coefficient of two keywords' id sets is the
edge correlation.  :class:`IdSetIndex` maintains those sets incrementally as
the window slides: each quantum contributes its distinct (keyword, user)
pairs, and quanta older than ``window_quanta`` are subtracted again.

Multiplicities are tracked per (keyword, user) so that a user who used a
keyword in several quanta stays in the id set until the *last* of those
quanta expires.

The index is the column engine (DESIGN.md Section 9): keywords and users are
interned to dense ints, a pair is the packed int64 ``(eid << 32) | aid``, and
the window is a handful of sorted numpy columns of such keys.

Churn proportionality (DESIGN.md Section 5): a slide locates the entering
and expiring pairs by binary search and touches only the keywords that
appeared in the entering quantum plus the keywords whose pairs expire —
never the full vocabulary — and reports exactly that delta as a
:class:`SlideDelta` so downstream stages can stay delta-driven too.

Serialized, the window is a queue of per-quantum blocks ``[[q, [[kw,
users], ...]], ...]``, oldest first, each sorted by keyword — so a slide
edits it by dropping head blocks and appending one, which ``window_edit``
reports and the delta log records (DESIGN.md Section 10).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.akg.minhash import user_hash_fn
from repro.errors import StreamError
from repro.interning import Interner
from repro.stream.window import QuantumColumns, columns_from_mapping

Keyword = str
UserId = Hashable

_KEYWORD = itemgetter(0)  # sort key of a ``[keyword, users]`` block entry
_AID_MASK = 0xFFFFFFFF  # low half of a packed pair key
_SCRATCH_BYTES = 1 << 22  # ceiling on jaccard_many's byte-per-bit scratch

WindowEdit = Tuple[Sequence[int], Sequence[int], Optional[list]]
"""The last slide's edit to a serialized window queue: ``(dropped, live,
entries)`` — the quanta of the head blocks it expired, the quanta of the
blocks now live (oldest first), and the newest block's keyword-sorted
entries (``None`` when the quantum contributed no block)."""


@dataclass(frozen=True, slots=True)
class SlideDelta:
    """Everything one window slide changed — the AKG stage's delta contract.

    ``appeared``
        keywords with a non-empty user set in the entering quantum;
    ``expired``
        keywords that lost at least one window entry to expiry this slide;
    ``support_deltas``
        ``keyword -> (old, new)`` for every keyword whose window support
        (distinct-user count) actually moved;
    ``emptied``
        keywords whose support dropped to zero this slide — the complete set
        of stale-node candidates, because a keyword's support can only reach
        zero in the slide that expires its last entry.
    ``vanished_users``
        user ids that left *every* keyword's window id set this slide — the
        complete eviction pool for per-user state (the actor interner's
        slots and the base hashes stored in them), because a user's last
        window occurrence can only expire in one slide.

    Every field is computable in O(appeared + expired); nothing here is ever
    proportional to the window vocabulary.
    """

    quantum: int
    appeared: FrozenSet[Keyword] = frozenset()
    expired: FrozenSet[Keyword] = frozenset()
    support_deltas: Mapping[Keyword, Tuple[int, int]] = field(
        default_factory=dict
    )
    emptied: FrozenSet[Keyword] = frozenset()
    vanished_users: FrozenSet[UserId] = frozenset()

    @property
    def touched(self) -> FrozenSet[Keyword]:
        """Keywords whose window id set may have changed this slide."""
        return self.appeared | self.expired


def _empty_keys():
    return np.empty(0, dtype=np.int64)


def _locate(sorted_keys, wanted):
    """``(pos, found)``: where each of ``wanted`` sits (or would be inserted)
    in ``sorted_keys``, and whether it is already there."""
    pos = np.searchsorted(sorted_keys, wanted)
    found = np.zeros(len(wanted), dtype=bool)
    valid = pos < len(sorted_keys)
    found[valid] = sorted_keys[pos[valid]] == wanted[valid]
    return pos, found


class IdSetIndex:
    """Per-keyword sliding-window user-id sets over interned pair columns.

    Keywords and users live in two :class:`~repro.interning.Interner`
    tables (``ents``/``acts``); the actor table also stores each user's
    64-bit MinHash base hash, computed once per window residency.  The
    window state is sorted int64 arrays:

    * ``_pair_keys`` — the packed ``(eid << 32) | aid`` key of every live
      *distinct* (keyword, user) pair, ascending, with the live
      multiplicity of each pair in the parallel ``_pair_cnt`` — so a
      keyword's id set is one contiguous slice and its support the slice's
      length;
    * ``_aid_keys`` / ``_aid_cnt`` — per-user total multiplicities across
      the whole window (the vanished-user detector);
    * ``_supports`` — ``keyword -> support`` for every keyword in the
      window, kept current from the slide's own before/after slice lengths
      (the ranker asks for node weights far more often than a slide moves
      them);
    * ``_quanta`` — a deque of ``(quantum, keys)`` packed columns, oldest
      first, holding each quantum's contribution verbatim (the extraction
      stage's own key arrays, kept by reference — they are never mutated).

    A slide is array algebra: ``searchsorted`` locates the entering and
    expiring pairs, fancy-indexed adds/subtracts move the multiplicities
    (entering keys are distinct per quantum and expiring keys are uniqued
    first, so positions never repeat within one update), and
    ``np.insert``/boolean masks grow and shrink the key columns.

    Ids are recycled: a user reported in ``vanished_users`` releases their
    interner slot and a keyword whose window emptied releases its entity
    slot — only when the last window occurrence expires, at which point no
    array in ``_quanta`` can still reference the slot — so both id spaces
    track the live window population.

    :meth:`add_columns` is the production entry point — it consumes the
    extraction stage's :class:`~repro.stream.window.QuantumColumns`
    directly; :meth:`add_quantum` accepts a ``keyword -> users`` mapping by
    interning it first (:meth:`intern_quantum`).
    """

    __slots__ = (
        "window_quanta",
        "ents",
        "acts",
        "_quanta",
        "_pair_keys",
        "_pair_cnt",
        "_aid_keys",
        "_aid_cnt",
        "_supports",
        "_last_quantum",
        "_dropped",
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
        self._pair_cnt = _empty_keys()
        self._aid_keys = _empty_keys()
        self._aid_cnt = _empty_keys()
        self._supports: Dict[Keyword, int] = {}
        self._last_quantum: int | None = None
        # quanta of the window blocks the last slide expired
        self._dropped: List[int] = []

    # ------------------------------------------------------------- updates

    def _check_order(self, quantum: int) -> None:
        if self._last_quantum is not None and quantum <= self._last_quantum:
            raise StreamError(
                f"quanta must be added in increasing order: got {quantum} "
                f"after {self._last_quantum}"
            )

    def intern_quantum(
        self, quantum: int, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> QuantumColumns:
        """One quantum's ``keyword -> users`` mapping as pair columns over
        this index's interner tables, ready for :meth:`add_columns`.

        Order is validated *before* interning so a rejected call leaves the
        interner tables untouched (no orphan ids behind a StreamError).
        """
        self._check_order(quantum)
        return columns_from_mapping(keyword_users, self.ents, self.acts)

    def add_quantum(
        self, quantum: int, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> SlideDelta:
        """Ingest one quantum's keyword -> users mapping and expire old ones.

        Quanta must be added in increasing order.  Empty user sets are
        skipped: they carry no id-set information.
        """
        return self.add_columns(
            quantum, self.intern_quantum(quantum, keyword_users)
        )

    def add_columns(self, quantum: int, columns: QuantumColumns) -> SlideDelta:
        """Ingest one quantum's interned pair columns and expire old quanta.

        Returns the :class:`SlideDelta` of the slide; work is O(entering
        pairs + expiring pairs) binary searches, never O(window vocabulary).
        """
        self._check_order(quantum)
        self._last_quantum = quantum
        cutoff = quantum - self.window_quanta
        K_in = columns.keys if len(columns.keys) else None

        # -- which quanta leave the window --------------------------------
        expiring: List[np.ndarray] = []
        dropped = self._dropped = []
        while self._quanta and self._quanta[0][0] <= cutoff:
            old, keys = self._quanta.popleft()
            dropped.append(old)
            expiring.append(keys)
        if K_in is not None:
            self._quanta.append((quantum, K_in))
        if expiring:
            K_out = (
                expiring[0]
                if len(expiring) == 1
                else np.sort(np.concatenate(expiring))
            )
            out_eids = np.unique(K_out >> 32)
        else:
            K_out = None
            out_eids = _empty_keys()

        # -- before-supports over every touched keyword -------------------
        segments = columns.segments
        if segments:
            in_eids = np.fromiter(
                (s[0] for s in segments), dtype=np.int64, count=len(segments)
            )
            touched = (
                np.union1d(in_eids, out_eids) if len(out_eids) else in_eids
            )
        else:
            touched = out_eids
        pair_keys = self._pair_keys
        lo_bounds = touched << 32
        hi_bounds = lo_bounds | _AID_MASK
        before = np.searchsorted(pair_keys, hi_bounds, side="right")
        before -= np.searchsorted(pair_keys, lo_bounds)

        # -- entering quantum ---------------------------------------------
        if K_in is not None:
            pos, found = _locate(pair_keys, K_in)
            # K_in is distinct, so found positions never repeat: a plain
            # fancy-indexed increment is exact (no ufunc.at needed).
            self._pair_cnt[pos[found]] += 1
            miss = ~found
            if miss.any():
                pair_keys = np.insert(pair_keys, pos[miss], K_in[miss])
                self._pair_keys = pair_keys
                self._pair_cnt = np.insert(self._pair_cnt, pos[miss], 1)
            aids_in, cnt_in = np.unique(K_in & _AID_MASK, return_counts=True)
            apos, afound = _locate(self._aid_keys, aids_in)
            self._aid_cnt[apos[afound]] += cnt_in[afound]
            amiss = ~afound
            if amiss.any():
                self._aid_keys = np.insert(
                    self._aid_keys, apos[amiss], aids_in[amiss]
                )
                self._aid_cnt = np.insert(
                    self._aid_cnt, apos[amiss], cnt_in[amiss]
                )

        # -- expiring quanta ----------------------------------------------
        vanished_aids: List[int] = []
        if K_out is not None:
            # A pair can recur across several expiring quanta only when the
            # quantum counter jumped; unique-with-counts folds that into one
            # exact subtraction per distinct key.
            k_u, k_c = np.unique(K_out, return_counts=True)
            pos = np.searchsorted(pair_keys, k_u)
            self._pair_cnt[pos] -= k_c
            dead = self._pair_cnt == 0
            if dead.any():
                keep = ~dead
                pair_keys = pair_keys[keep]
                self._pair_keys = pair_keys
                self._pair_cnt = self._pair_cnt[keep]
            aids_out, cnt_out = np.unique(
                K_out & _AID_MASK, return_counts=True
            )
            apos = np.searchsorted(self._aid_keys, aids_out)
            self._aid_cnt[apos] -= cnt_out
            van = self._aid_cnt[apos] == 0
            if van.any():
                akeep = np.ones(len(self._aid_keys), dtype=bool)
                akeep[apos[van]] = False
                self._aid_keys = self._aid_keys[akeep]
                self._aid_cnt = self._aid_cnt[akeep]
                vanished_aids = aids_out[van].tolist()

        # -- after-supports and the delta ---------------------------------
        after = np.searchsorted(pair_keys, hi_bounds, side="right")
        after -= np.searchsorted(pair_keys, lo_bounds)
        changed = np.flatnonzero(after != before)
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        supports = self._supports
        support_deltas: Dict[Keyword, Tuple[int, int]] = {}
        emptied: List[Keyword] = []
        freed_eids: List[int] = []
        for eid, old_support, new_support in zip(
            touched[changed].tolist(),
            before[changed].tolist(),
            after[changed].tolist(),
        ):
            kw = ent_objs[eid]
            support_deltas[kw] = (old_support, new_support)
            if new_support:
                supports[kw] = new_support
            else:
                del supports[kw]
                emptied.append(kw)
                freed_eids.append(eid)
        # Resolved to objects *before* the slots are released.
        delta = SlideDelta(
            quantum=quantum,
            appeared=frozenset(columns.ent_strings),
            expired=frozenset(ent_objs[eid] for eid in out_eids.tolist()),
            support_deltas=support_deltas,
            emptied=frozenset(emptied),
            vanished_users=frozenset(act_objs[aid] for aid in vanished_aids),
        )
        if vanished_aids:
            self.acts.release(vanished_aids)
        if freed_eids:
            self.ents.release(freed_eids)
        return delta

    # ---------------------------------------------------------- persistence

    def _block_entries(self, keys: np.ndarray) -> list:
        """One quantum's packed key column in snapshot form: ``[[kw,
        users], ...]`` with interner ids resolved back to the original
        objects, sorted by keyword (users by ``repr``)."""
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        eids = keys >> 32
        bounds = np.flatnonzero(eids[1:] != eids[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(keys)]))
        aids = (keys & _AID_MASK).tolist()
        block = [
            [ent_objs[eid], sorted((act_objs[a] for a in aids[lo:hi]), key=repr)]
            for eid, lo, hi in zip(
                eids[starts].tolist(), starts.tolist(), ends.tolist()
            )
        ]
        block.sort(key=_KEYWORD)
        return block

    def to_state(self) -> dict:
        """Checkpointable snapshot: the window as a queue of quantum blocks.

        The multiplicity columns are derivable from the blocks, so only the
        blocks (plus the slide cursor) are stored; :meth:`from_state`
        rebuilds the rest deterministically.  Blocks are oldest first and
        each is sorted by keyword, and interner ids never appear, so the
        snapshot is a pure function of the window *contents* — the
        keyword-range-sharded front-end relies on this to make its merged
        checkpoint byte-identical to a serial one (DESIGN.md Section 7).
        """
        return {
            "last_quantum": self._last_quantum,
            "window": [
                [q, self._block_entries(keys)] for q, keys in self._quanta
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the index in place from :meth:`to_state` output."""
        self._last_quantum = state["last_quantum"]
        self._dropped = []
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
        cat = np.concatenate([_empty_keys(), *(k for _, k in self._quanta)])
        self._pair_keys, self._pair_cnt = np.unique(cat, return_counts=True)
        self._aid_keys, self._aid_cnt = np.unique(
            cat & _AID_MASK, return_counts=True
        )
        eids, counts = np.unique(self._pair_keys >> 32, return_counts=True)
        ent_objs = self.ents.objs
        self._supports = {
            ent_objs[eid]: n for eid, n in zip(eids.tolist(), counts.tolist())
        }

    def window_edit(self, quantum: int) -> WindowEdit:
        """What the slide to ``quantum`` (the last one) did to the
        serialized window — read off the quantum queue on demand; nothing
        is recorded for it beyond the block quanta the slide pops anyway."""
        quanta = self._quanta
        entries = None
        if quanta and quanta[-1][0] == quantum:
            entries = self._block_entries(quanta[-1][1])
        return self._dropped, [q for q, _ in quanta], entries

    # ------------------------------------------------------------- queries

    def __contains__(self, keyword: Keyword) -> bool:
        return keyword in self._supports

    def keywords(self) -> Iterable[Keyword]:
        """Every keyword with at least one occurrence in the window."""
        return list(self._supports)

    @property
    def num_keywords(self) -> int:
        return len(self._supports)

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
        immutable, shippable frozenset of the original user ids (what the
        sharded front-end's exchange puts on the wire)."""
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
        return self._supports.get(keyword, 0)

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one keyword's window id set.

        The exact live set behind ``SlideDelta.vanished_users``; the
        cache-bound tests assert the actor interner never outgrows it.
        """
        act_objs = self.acts.objs
        return {act_objs[a] for a in self._aid_keys.tolist()}

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
        # A keyword outside the window gets eid -1: its key range sorts
        # below every live key, so its slice is empty.
        eids = np.array(
            [(eid_of(kw1, -1), eid_of(kw2, -1)) for kw1, kw2 in pairs],
            dtype=np.int64,
        )
        involved, row_of = np.unique(eids.ravel(), return_inverse=True)
        first = row_of[0::2]
        second = row_of[1::2]
        pair_keys = self._pair_keys
        bases = involved << 32
        lo = pair_keys.searchsorted(bases)
        support = pair_keys.searchsorted(bases | _AID_MASK, side="right") - lo

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
            ends = np.cumsum(lens)
            # position i of the gathered column reads pair_keys[i + shift]
            shift = np.repeat(lo[r0 : r0 + block] - (ends - lens), lens)
            aids = pair_keys[np.arange(ends[-1]) + shift] & _AID_MASK
            bits[np.repeat(np.arange(len(lens)), lens), aids] = 1
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


__all__ = ["IdSetIndex", "SlideDelta", "WindowEdit"]
