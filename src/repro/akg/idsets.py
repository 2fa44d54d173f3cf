"""Sliding-window id sets: which users used which keyword, per window.

Section 3.2 associates with every keyword the set of user ids that used it in
the current window; the Jaccard coefficient of two keywords' id sets is the
edge correlation.  This index maintains those sets incrementally as the
window slides: each quantum contributes a per-keyword user set, and sets older
than ``window_quanta`` are subtracted again.

Multiplicities are tracked per (keyword, user) so that a user who used a
keyword in several quanta stays in the id set until the *last* of those
quanta expires.

Churn proportionality (DESIGN.md Section 5): every keyword owns its own deque
of ``(quantum, users)`` entries, and a global appearance schedule records
which keywords contributed to each quantum.  A slide therefore touches only
the keywords that appeared in the entering quantum plus the keywords whose
entries expire — never the full vocabulary — and reports exactly that delta
as a :class:`SlideDelta` so downstream stages can stay delta-driven too.

Serialized, the window is a queue of per-quantum blocks ``[[q, [[kw,
users], ...]], ...]``, oldest first, each sorted by keyword — so a slide
edits it by dropping head blocks and appending one, which ``window_edit``
reports and the delta log records (DESIGN.md Section 10).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
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

from repro.akg.minhash import user_hash_fn
from repro.arrays import get_numpy
from repro.errors import StreamError
from repro.interning import Interner

if TYPE_CHECKING:
    from repro.stream.window import QuantumColumns

Keyword = str
UserId = Hashable

_KEYWORD = itemgetter(0)  # sort key of a ``[keyword, users]`` block entry

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
        complete eviction pool for per-user memo caches (the MinHasher's
        hash memo), because a user's last window occurrence can only expire
        in one slide.

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


class IdSetIndex:
    """Per-keyword sliding-window user-id sets with O(changes) updates."""

    __slots__ = (
        "window_quanta",
        "_entries",
        "_schedule",
        "_counts",
        "_user_counts",
        "_last_quantum",
        "_dropped",
    )

    def __init__(self, window_quanta: int) -> None:
        if window_quanta < 1:
            raise StreamError(f"window_quanta must be >= 1, got {window_quanta}")
        self.window_quanta = window_quanta
        # keyword -> deque of (quantum, frozenset of users), oldest first
        self._entries: Dict[Keyword, Deque[Tuple[int, FrozenSet[UserId]]]] = {}
        # expiry schedule: (quantum, keywords that appeared then), oldest first
        self._schedule: Deque[Tuple[int, Tuple[Keyword, ...]]] = deque()
        self._counts: Dict[Keyword, Counter] = {}
        # user -> total multiplicity across every live (keyword, quantum)
        # entry; a user whose count reaches zero has left the whole window,
        # which is what feeds SlideDelta.vanished_users.
        self._user_counts: Counter = Counter()
        self._last_quantum: int | None = None
        # quanta of the schedule blocks the last slide expired
        self._dropped: List[int] = []

    # ------------------------------------------------------------- updates

    def add_quantum(
        self, quantum: int, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> SlideDelta:
        """Ingest one quantum's keyword -> users mapping and expire old ones.

        Quanta must be added in increasing order.  Returns the
        :class:`SlideDelta` of the slide; work is O(appeared + expired),
        never O(window vocabulary).
        """
        if self._last_quantum is not None and quantum <= self._last_quantum:
            raise StreamError(
                f"quanta must be added in increasing order: got {quantum} "
                f"after {self._last_quantum}"
            )
        self._last_quantum = quantum
        cutoff = quantum - self.window_quanta
        # Empty user sets are skipped: they carry no id-set information and
        # would otherwise leave dangling empty entries behind.
        frozen = {
            kw: frozenset(users) for kw, users in keyword_users.items() if users
        }
        appeared = set(frozen)
        expired: Set[Keyword] = set()
        dropped = self._dropped = []
        while self._schedule and self._schedule[0][0] <= cutoff:
            old, kws = self._schedule.popleft()
            dropped.append(old)
            expired.update(kws)
        touched = appeared | expired
        counts = self._counts
        before = {
            kw: len(counter) if (counter := counts.get(kw)) else 0
            for kw in touched
        }

        user_counts = self._user_counts
        for kw, users in frozen.items():
            entries = self._entries.get(kw)
            if entries is None:
                entries = self._entries[kw] = deque()
            entries.append((quantum, users))
            counter = counts.get(kw)
            if counter is None:
                counter = counts[kw] = Counter()
            counter.update(users)
            user_counts.update(users)
        if frozen:
            self._schedule.append((quantum, tuple(frozen)))

        vanished: Set[UserId] = set()
        for kw in expired:
            entries = self._entries.get(kw)
            if entries is None:
                continue
            counter = counts[kw]
            while entries and entries[0][0] <= cutoff:
                _, users = entries.popleft()
                for user in users:
                    remaining = counter[user] - 1
                    if remaining:
                        counter[user] = remaining
                    else:
                        del counter[user]
                    total = user_counts[user] - 1
                    if total:
                        user_counts[user] = total
                    else:
                        del user_counts[user]
                        vanished.add(user)
            if not entries:
                del self._entries[kw]
            if not counter:
                del counts[kw]

        support_deltas = {
            kw: (old_support, new_support)
            for kw, old_support in before.items()
            if (
                new_support := len(counter)
                if (counter := counts.get(kw))
                else 0
            )
            != old_support
        }
        emptied = frozenset(
            kw
            for kw, (old_support, new_support) in support_deltas.items()
            if new_support == 0
        )
        return SlideDelta(
            quantum=quantum,
            appeared=frozenset(appeared),
            expired=frozenset(expired),
            support_deltas=support_deltas,
            emptied=emptied,
            vanished_users=frozenset(vanished),
        )

    # ---------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpointable snapshot: the window as a queue of quantum blocks.

        The multiplicity counters are derivable from the blocks, so only
        the blocks (plus the slide cursor) are stored; :meth:`from_state`
        rebuilds the rest deterministically.  Blocks are oldest first and
        each is sorted by keyword, so the snapshot is a pure function of
        the window *contents* — the keyword-range-sharded front-end relies
        on this to make its merged checkpoint byte-identical to a serial
        one (DESIGN.md Section 7).
        """
        blocks: Dict[int, list] = {q: [] for q, _ in self._schedule}
        for kw, entries in sorted(self._entries.items()):
            for q, users in entries:
                blocks[q].append([kw, sorted(users, key=repr)])
        return {
            "last_quantum": self._last_quantum,
            "window": [[q, block] for q, block in blocks.items()],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the index in place from :meth:`to_state` output."""
        self._last_quantum = state["last_quantum"]
        self._entries = {}
        self._counts = {}
        self._user_counts = Counter()
        self._schedule = deque()
        self._dropped = []
        for q, block in state["window"]:
            for kw, users in block:
                frozen = frozenset(users)
                self._entries.setdefault(kw, deque()).append((q, frozen))
                self._counts.setdefault(kw, Counter()).update(frozen)
                self._user_counts.update(frozen)
            self._schedule.append((q, tuple(kw for kw, _ in block)))

    def window_edit(self, quantum: int) -> WindowEdit:
        """What the slide to ``quantum`` (the last one) did to the
        serialized window — read off the schedule on demand; nothing is
        recorded for it beyond the block quanta the slide pops anyway."""
        schedule = self._schedule
        entries = None
        if schedule and schedule[-1][0] == quantum:
            entries = [
                [kw, sorted(self._entries[kw][-1][1], key=repr)]
                for kw in sorted(schedule[-1][1])
            ]
        return self._dropped, [q for q, _ in schedule], entries

    # ------------------------------------------------------------- queries

    def __contains__(self, keyword: Keyword) -> bool:
        return keyword in self._counts

    def keywords(self) -> Iterable[Keyword]:
        """Every keyword with at least one occurrence in the window."""
        return self._counts.keys()

    @property
    def num_keywords(self) -> int:
        return len(self._counts)

    def entries(self, keyword: Keyword) -> Tuple[Tuple[int, FrozenSet[UserId]], ...]:
        """The keyword's live (quantum, users) window entries, oldest first.

        Exposed for the leak tests: a keyword must never hold two entries for
        the same quantum, even when it expires and re-enters in one slide.
        """
        return tuple(self._entries.get(keyword, ()))

    def users(self, keyword: Keyword) -> Set[UserId]:
        """The id set: distinct users of ``keyword`` in the window."""
        counter = self._counts.get(keyword)
        return set(counter) if counter else set()

    def id_set(self, keyword: Keyword) -> FrozenSet[UserId]:
        """The id set as an immutable, shippable frozenset (one copy).

        The sharded front-end's exchange uses this instead of
        ``frozenset(users(kw))``, which would copy twice.
        """
        counter = self._counts.get(keyword)
        return frozenset(counter) if counter else frozenset()

    def support(self, keyword: Keyword) -> int:
        """|id set| — the node weight ``w_i`` of the ranking function."""
        counter = self._counts.get(keyword)
        return len(counter) if counter else 0

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one keyword's window id set.

        The exact live set behind ``SlideDelta.vanished_users``; the MinHash
        cache-bound tests assert the hash memo never outgrows it.
        """
        return set(self._user_counts)

    def jaccard(self, kw1: Keyword, kw2: Keyword) -> float:
        """Exact edge correlation |U1 n U2| / |U1 u U2| (Section 3.2)."""
        c1 = self._counts.get(kw1)
        c2 = self._counts.get(kw2)
        if not c1 or not c2:
            return 0.0
        intersection = len(c1.keys() & c2.keys())
        union = len(c1) + len(c2) - intersection
        return intersection / union if union else 0.0


class BatchedIdSetIndex:
    """Interned, array-backed sliding-window id sets (DESIGN.md Section 9).

    Same contract as :class:`IdSetIndex` — identical :class:`SlideDelta`
    output, identical queries, byte-identical ``to_state()`` — but the
    internal bookkeeping runs on dense interner ids instead of Python
    objects:

    * keywords and users live in two :class:`~repro.interning.Interner`
      tables; the actor table also stores each user's 64-bit MinHash base
      hash, computed once per window residency;
    * a window entry is a tuple of actor ids (no frozensets of objects);
    * per-(keyword, user) multiplicities are one flat dict keyed by the
      packed int ``(eid << 32) | aid`` instead of a Counter per keyword;
    * each keyword's distinct id set is a set of ints, so edge-correlation
      intersections hash machine ints, not strings.

    Ids are recycled: a user reported in ``vanished_users`` releases their
    interner slot (the analogue of the reference MinHasher memo eviction),
    and a keyword whose window emptied releases its entity slot, so both id
    spaces track the live window population.

    :meth:`add_columns` is the batched entry point — it consumes the
    extraction stage's :class:`~repro.stream.window.QuantumColumns`
    directly; :meth:`add_quantum` adapts the reference mapping contract by
    interning it first, so the two indexes are drop-in interchangeable.
    """

    __slots__ = (
        "window_quanta",
        "ents",
        "acts",
        "_entries",
        "_schedule",
        "_pair_counts",
        "_distinct",
        "_user_counts",
        "_last_quantum",
        "_dropped",
    )

    def __init__(self, window_quanta: int, seed: int = 0) -> None:
        if window_quanta < 1:
            raise StreamError(f"window_quanta must be >= 1, got {window_quanta}")
        self.window_quanta = window_quanta
        self.ents = Interner()
        self.acts = Interner(hash_fn=user_hash_fn(seed))
        # eid -> deque of (quantum, tuple of aids), oldest first
        self._entries: Dict[int, Deque[Tuple[int, Tuple[int, ...]]]] = {}
        # expiry schedule: (quantum, eids that appeared then), oldest first
        self._schedule: Deque[Tuple[int, Tuple[int, ...]]] = deque()
        # (eid << 32) | aid -> live multiplicity across window entries
        self._pair_counts: Dict[int, int] = {}
        # eid -> distinct aids in the window (the id set, as ints)
        self._distinct: Dict[int, Set[int]] = {}
        # aid -> total multiplicity across every live (keyword, quantum)
        # entry; zero means the user left the whole window (vanished).
        self._user_counts: Dict[int, int] = {}
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

    def add_quantum(
        self, quantum: int, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> SlideDelta:
        """Reference-contract entry point: intern the mapping, then slide.

        Order is validated *before* interning so a rejected call leaves the
        interner tables untouched (no orphan ids behind a StreamError).
        """
        from repro.stream.window import columns_from_mapping

        self._check_order(quantum)
        columns = columns_from_mapping(keyword_users, self.ents, self.acts)
        return self.add_columns(quantum, columns)

    def add_columns(
        self, quantum: int, columns: "QuantumColumns"
    ) -> SlideDelta:
        """Ingest one quantum's interned pair columns and expire old entries.

        The batched slide: one pass over the entering deduplicated pairs,
        one pass over the expiring entries, every transition (support move,
        emptied keyword, vanished user) read off integer count edges.
        Work is O(entering pairs + expiring pairs) — identical asymptotics
        to the reference index, a fraction of its constant factor.
        """
        self._check_order(quantum)
        self._last_quantum = quantum
        cutoff = quantum - self.window_quanta
        segments = columns.segments
        expired_eids: Set[int] = set()
        dropped = self._dropped = []
        while self._schedule and self._schedule[0][0] <= cutoff:
            old, eids = self._schedule.popleft()
            dropped.append(old)
            expired_eids.update(eids)

        distinct = self._distinct
        before: Dict[int, int] = {}
        for eid, _, _ in segments:
            dset = distinct.get(eid)
            before[eid] = len(dset) if dset else 0
        for eid in expired_eids:
            if eid not in before:
                dset = distinct.get(eid)
                before[eid] = len(dset) if dset else 0

        # -- entering quantum ---------------------------------------------
        pair_counts = self._pair_counts
        user_counts = self._user_counts
        entries_map = self._entries
        act_col = columns.act_col
        for eid, lo, hi in segments:
            entry = tuple(act_col[lo:hi])
            entries = entries_map.get(eid)
            if entries is None:
                entries = entries_map[eid] = deque()
            entries.append((quantum, entry))
            dset = distinct.get(eid)
            if dset is None:
                dset = distinct[eid] = set()
            base = eid << 32
            for aid in entry:
                key = base | aid
                count = pair_counts.get(key)
                if count is None:
                    pair_counts[key] = 1
                    dset.add(aid)
                else:
                    pair_counts[key] = count + 1
                total = user_counts.get(aid)
                user_counts[aid] = 1 if total is None else total + 1
        if segments:
            self._schedule.append(
                (quantum, tuple(eid for eid, _, _ in segments))
            )

        # -- expiring entries ---------------------------------------------
        vanished_aids: List[int] = []
        freed_eids: List[int] = []
        for eid in expired_eids:
            entries = entries_map.get(eid)
            if entries is None:
                continue
            dset = distinct[eid]
            base = eid << 32
            while entries and entries[0][0] <= cutoff:
                _, entry = entries.popleft()
                for aid in entry:
                    key = base | aid
                    count = pair_counts[key] - 1
                    if count:
                        pair_counts[key] = count
                    else:
                        del pair_counts[key]
                        dset.remove(aid)
                    total = user_counts[aid] - 1
                    if total:
                        user_counts[aid] = total
                    else:
                        del user_counts[aid]
                        vanished_aids.append(aid)
            if not entries:
                del entries_map[eid]
            if not dset:
                del distinct[eid]
                freed_eids.append(eid)

        # -- delta (resolved to objects *before* releasing slots) ---------
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        support_deltas: Dict[Keyword, Tuple[int, int]] = {}
        emptied: List[Keyword] = []
        for eid, old_support in before.items():
            dset = distinct.get(eid)
            new_support = len(dset) if dset else 0
            if new_support != old_support:
                kw = ent_objs[eid]
                support_deltas[kw] = (old_support, new_support)
                if new_support == 0:
                    emptied.append(kw)
        delta = SlideDelta(
            quantum=quantum,
            appeared=frozenset(columns.ent_strings),
            expired=frozenset(ent_objs[eid] for eid in expired_eids),
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

    def _window(self) -> Deque[tuple]:
        """The live ``(quantum, block handle)`` queue, oldest first."""
        return self._schedule

    def _block_entries(self, quantum: int, eids: Iterable[int]) -> list:
        """One quantum block in snapshot form: ``[[kw, users], ...]`` with
        interner ids resolved back to the original objects and sorted
        exactly as the reference index sorts."""
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        block = []
        for eid in eids:
            for q, entry in self._entries[eid]:
                if q == quantum:
                    block.append(
                        [
                            ent_objs[eid],
                            sorted((act_objs[a] for a in entry), key=repr),
                        ]
                    )
        block.sort(key=_KEYWORD)
        return block

    def to_state(self) -> dict:
        """Checkpointable snapshot — byte-identical to :class:`IdSetIndex`.

        Interner ids are execution-internal, so a batched session's
        checkpoint is indistinguishable from a reference one at the same
        stream position (the Section 9 checkpoint-identity contract).
        """
        return {
            "last_quantum": self._last_quantum,
            "window": [
                [q, self._block_entries(q, block)]
                for q, block in self._window()
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the index in place from :meth:`to_state` output.

        Accepts reference-index snapshots too (the layouts are identical),
        which is what lets a checkpoint taken under one backend resume
        under the other.
        """
        self._last_quantum = state["last_quantum"]
        # Clear the interner tables *in place*: the batched extract stage
        # holds references to these same objects (shared id space), so
        # replacing them here would silently fork the interning.
        self.ents.clear()
        self.acts.clear()
        self._entries = {}
        self._pair_counts = {}
        self._distinct = {}
        self._user_counts = {}
        self._schedule = deque()
        self._dropped = []
        pair_counts = self._pair_counts
        user_counts = self._user_counts
        for q, block in state["window"]:
            eids = []
            for kw, users in block:
                eid = self.ents.intern(kw)
                eids.append(eid)
                entry = tuple(self.acts.intern(u) for u in users)
                self._entries.setdefault(eid, deque()).append((q, entry))
                dset = self._distinct.setdefault(eid, set())
                base = eid << 32
                for aid in entry:
                    key = base | aid
                    pair_counts[key] = pair_counts.get(key, 0) + 1
                    dset.add(aid)
                    user_counts[aid] = user_counts.get(aid, 0) + 1
            self._schedule.append((q, tuple(eids)))

    def window_edit(self, quantum: int) -> WindowEdit:
        """What the slide to ``quantum`` (the last one) did to the
        serialized window."""
        window = self._window()
        entries = None
        if window and window[-1][0] == quantum:
            entries = self._block_entries(quantum, window[-1][1])
        return self._dropped, [q for q, _ in window], entries

    # ------------------------------------------------------------- queries

    def __contains__(self, keyword: Keyword) -> bool:
        return keyword in self.ents.ids

    def keywords(self) -> Iterable[Keyword]:
        """Every keyword with at least one occurrence in the window."""
        ent_objs = self.ents.objs
        return [ent_objs[eid] for eid in self._distinct]

    @property
    def num_keywords(self) -> int:
        return len(self._distinct)

    def entries(
        self, keyword: Keyword
    ) -> Tuple[Tuple[int, FrozenSet[UserId]], ...]:
        """The keyword's live (quantum, users) window entries, oldest first."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return ()
        act_objs = self.acts.objs
        return tuple(
            (q, frozenset(act_objs[a] for a in entry))
            for q, entry in self._entries.get(eid, ())
        )

    def users(self, keyword: Keyword) -> Set[UserId]:
        """The id set: distinct users of ``keyword`` in the window."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return set()
        act_objs = self.acts.objs
        return {act_objs[a] for a in self._distinct[eid]}

    def id_set(self, keyword: Keyword) -> FrozenSet[UserId]:
        """The id set as an immutable frozenset of the original user ids."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return frozenset()
        act_objs = self.acts.objs
        return frozenset(act_objs[a] for a in self._distinct[eid])

    def support(self, keyword: Keyword) -> int:
        """|id set| — the node weight ``w_i`` of the ranking function."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return 0
        return len(self._distinct[eid])

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one keyword's window id set."""
        act_objs = self.acts.objs
        return {act_objs[a] for a in self._user_counts}

    def jaccard(self, kw1: Keyword, kw2: Keyword) -> float:
        """Exact edge correlation over the interned id sets.

        Set intersection over machine ints — the same cardinalities as the
        reference object-set intersection, so the same exact float.
        """
        ids = self.ents.ids
        eid1 = ids.get(kw1)
        eid2 = ids.get(kw2)
        if eid1 is None or eid2 is None:
            return 0.0
        s1 = self._distinct[eid1]
        s2 = self._distinct[eid2]
        intersection = len(s1 & s2)
        union = len(s1) + len(s2) - intersection
        return intersection / union if union else 0.0


class ArrayIdSetIndex(BatchedIdSetIndex):
    """The numpy engine behind the batched backend's window id sets.

    Same contract as :class:`BatchedIdSetIndex` (itself contract-identical
    to :class:`IdSetIndex`), but the window state is four sorted int64
    arrays instead of dict-of-deque bookkeeping:

    * ``_pair_keys`` — the packed ``(eid << 32) | aid`` key of every live
      *distinct* (keyword, user) pair, sorted ascending, with the live
      multiplicity of each pair in the parallel ``_pair_cnt``;
    * ``_aid_keys`` / ``_aid_cnt`` — per-user total multiplicities across
      the whole window (the vanished-user detector);
    * ``_quanta`` — a deque of ``(quantum, keys)`` packed columns, oldest
      first, holding each quantum's contribution verbatim (these are the
      extraction stage's own key arrays, kept by reference — they are
      never mutated).

    A slide is then pure array algebra: ``searchsorted`` locates the
    entering and expiring pairs, fancy-indexed adds/subtracts move the
    multiplicities (entering keys are distinct per quantum and expiring
    keys are uniqued first, so positions never repeat within one update),
    ``np.insert``/boolean masks grow and shrink the key columns, and a
    keyword's window support is just the length of its contiguous key
    slice.  Because both engines deal in the same distinct-pair
    multiset, every SlideDelta field, query result, and ``to_state()``
    byte is identical; the differential tests drive them in lockstep.

    Safe id recycling is inherited from the shared-interner scheme: a slot
    is only released when its last window occurrence expires, at which
    point no array in ``_quanta`` can still reference it.
    """

    __slots__ = (
        "_np",
        "_quanta",
        "_pair_keys",
        "_pair_cnt",
        "_aid_keys",
        "_aid_cnt",
        "_num_eids",
        "_set_cache",
    )

    def __init__(self, window_quanta: int, seed: int = 0) -> None:
        super().__init__(window_quanta, seed)
        np = get_numpy()
        if np is None:
            raise StreamError(
                "ArrayIdSetIndex requires numpy; use BatchedIdSetIndex "
                "(or make_batched_idsets) for the pure-python engine"
            )
        self._np = np
        # (quantum, packed int64 keys) — oldest first, keys sorted/distinct
        self._quanta: Deque[Tuple[int, object]] = deque()
        self._pair_keys = np.empty(0, dtype=np.int64)
        self._pair_cnt = np.empty(0, dtype=np.int64)
        self._aid_keys = np.empty(0, dtype=np.int64)
        self._aid_cnt = np.empty(0, dtype=np.int64)
        self._num_eids = 0
        # eid -> masked sorted aid column, valid for the current window
        # position only (cleared on every slide); feeds the per-quantum
        # edge-correlation burst, where the same keyword's id set is
        # intersected against many partners.
        self._set_cache: Dict[int, object] = {}

    # ------------------------------------------------------------- updates

    def add_columns(
        self, quantum: int, columns: "QuantumColumns"
    ) -> SlideDelta:
        """One window slide as array algebra (see class docstring)."""
        self._check_order(quantum)
        self._last_quantum = quantum
        np = self._np
        if self._set_cache:
            self._set_cache = {}
        cutoff = quantum - self.window_quanta
        K_in = columns.key_array() if columns.num_pairs else None

        # -- which quanta leave the window --------------------------------
        expiring: List[object] = []
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
            out_eids = np.empty(0, dtype=np.int64)

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
        hi_bounds = lo_bounds | 0xFFFFFFFF
        before = np.searchsorted(pair_keys, hi_bounds, side="right")
        before -= np.searchsorted(pair_keys, lo_bounds)

        # -- entering quantum ---------------------------------------------
        if K_in is not None:
            pos = np.searchsorted(pair_keys, K_in)
            found = np.zeros(len(K_in), dtype=bool)
            valid = pos < len(pair_keys)
            found[valid] = pair_keys[pos[valid]] == K_in[valid]
            # K_in is distinct, so found positions never repeat: a plain
            # fancy-indexed increment is exact (no ufunc.at needed).
            self._pair_cnt[pos[found]] += 1
            miss = ~found
            if miss.any():
                new_keys = K_in[miss]
                where = pos[miss]
                pair_keys = np.insert(pair_keys, where, new_keys)
                self._pair_keys = pair_keys
                self._pair_cnt = np.insert(self._pair_cnt, where, 1)
            aids_in, cnt_in = np.unique(
                K_in & 0xFFFFFFFF, return_counts=True
            )
            apos = np.searchsorted(self._aid_keys, aids_in)
            afound = np.zeros(len(aids_in), dtype=bool)
            avalid = apos < len(self._aid_keys)
            afound[avalid] = self._aid_keys[apos[avalid]] == aids_in[avalid]
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
                K_out & 0xFFFFFFFF, return_counts=True
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
        support_deltas: Dict[Keyword, Tuple[int, int]] = {}
        emptied: List[Keyword] = []
        freed_eids: List[int] = []
        if len(changed):
            t_list = touched[changed].tolist()
            b_list = before[changed].tolist()
            a_list = after[changed].tolist()
            for eid, old_support, new_support in zip(t_list, b_list, a_list):
                kw = ent_objs[eid]
                support_deltas[kw] = (old_support, new_support)
                if new_support == 0:
                    emptied.append(kw)
                    freed_eids.append(eid)
                elif old_support == 0:
                    self._num_eids += 1
            self._num_eids -= len(freed_eids)
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

    def _window(self) -> Deque[tuple]:
        return self._quanta

    def _block_entries(self, quantum: int, keys) -> list:
        """Decode one quantum's packed key column to snapshot form."""
        np = self._np
        ent_objs = self.ents.objs
        act_objs = self.acts.objs
        eids = keys >> 32
        bounds = np.flatnonzero(eids[1:] != eids[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(keys)]))
        aids = (keys & 0xFFFFFFFF).tolist()
        block = [
            [ent_objs[eid], sorted((act_objs[a] for a in aids[lo:hi]), key=repr)]
            for eid, lo, hi in zip(
                eids[starts].tolist(), starts.tolist(), ends.tolist()
            )
        ]
        block.sort(key=_KEYWORD)
        return block

    def from_state(self, state: dict) -> None:
        """Rebuild the packed columns from a reference-layout snapshot."""
        np = self._np
        self._last_quantum = state["last_quantum"]
        self._set_cache = {}
        self._dropped = []
        # In-place clear: the batched extract stage shares these interners.
        self.ents.clear()
        self.acts.clear()
        ent_intern = self.ents.intern
        act_intern = self.acts.intern
        self._quanta = deque()
        columns: List[object] = []
        for q, block in state["window"]:
            packed = [
                (ent_intern(kw) << 32) | act_intern(user)
                for kw, users in block
                for user in users
            ]
            keys = np.sort(np.array(packed, dtype=np.int64))
            self._quanta.append((q, keys))
            columns.append(keys)
        if columns:
            cat = np.concatenate(columns)
            self._pair_keys, self._pair_cnt = np.unique(
                cat, return_counts=True
            )
            self._aid_keys, self._aid_cnt = np.unique(
                cat & 0xFFFFFFFF, return_counts=True
            )
            self._num_eids = len(np.unique(self._pair_keys >> 32))
        else:
            self._pair_keys = np.empty(0, dtype=np.int64)
            self._pair_cnt = np.empty(0, dtype=np.int64)
            self._aid_keys = np.empty(0, dtype=np.int64)
            self._aid_cnt = np.empty(0, dtype=np.int64)
            self._num_eids = 0

    # ------------------------------------------------------------- queries

    def _eid_slice(self, eid: int) -> Tuple[int, int]:
        np = self._np
        base = eid << 32
        lo = int(np.searchsorted(self._pair_keys, base))
        hi = int(
            np.searchsorted(self._pair_keys, base | 0xFFFFFFFF, side="right")
        )
        return lo, hi

    def keywords(self) -> Iterable[Keyword]:
        """Every keyword with at least one occurrence in the window."""
        np = self._np
        ent_objs = self.ents.objs
        return [
            ent_objs[eid]
            for eid in np.unique(self._pair_keys >> 32).tolist()
        ]

    @property
    def num_keywords(self) -> int:
        return self._num_eids

    def entries(
        self, keyword: Keyword
    ) -> Tuple[Tuple[int, FrozenSet[UserId]], ...]:
        """The keyword's live (quantum, users) window entries, oldest first."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return ()
        np = self._np
        act_objs = self.acts.objs
        base = eid << 32
        hi_key = base | 0xFFFFFFFF
        out = []
        for q, keys in self._quanta:
            lo = np.searchsorted(keys, base)
            hi = np.searchsorted(keys, hi_key, side="right")
            if hi > lo:
                out.append(
                    (
                        q,
                        frozenset(
                            act_objs[a]
                            for a in (keys[lo:hi] & 0xFFFFFFFF).tolist()
                        ),
                    )
                )
        return tuple(out)

    def users(self, keyword: Keyword) -> Set[UserId]:
        """The id set: distinct users of ``keyword`` in the window."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return set()
        lo, hi = self._eid_slice(eid)
        act_objs = self.acts.objs
        return {
            act_objs[a]
            for a in (self._pair_keys[lo:hi] & 0xFFFFFFFF).tolist()
        }

    def id_set(self, keyword: Keyword) -> FrozenSet[UserId]:
        """The id set as an immutable frozenset of the original user ids."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return frozenset()
        lo, hi = self._eid_slice(eid)
        act_objs = self.acts.objs
        return frozenset(
            act_objs[a]
            for a in (self._pair_keys[lo:hi] & 0xFFFFFFFF).tolist()
        )

    def support(self, keyword: Keyword) -> int:
        """|id set| — one slice length off the sorted key column."""
        eid = self.ents.ids.get(keyword)
        if eid is None:
            return 0
        lo, hi = self._eid_slice(eid)
        return hi - lo

    def window_users(self) -> Set[UserId]:
        """Every user present in at least one keyword's window id set."""
        act_objs = self.acts.objs
        return {act_objs[a] for a in self._aid_keys.tolist()}

    def _aid_set(self, eid: int) -> frozenset:
        """The keyword's window aid set, memoized per slide.

        The edge-correlation burst intersects the *same* keyword's id set
        against many partners within one quantum; decoding the key slice to
        a Python set once keeps each pair test a single C-level
        ``len(a & b)`` — faster than a vectorized merge at window-set sizes
        because it avoids per-call ufunc dispatch overhead.
        """
        cached = self._set_cache.get(eid)
        if cached is None:
            lo, hi = self._eid_slice(eid)
            cached = frozenset(
                (self._pair_keys[lo:hi] & 0xFFFFFFFF).tolist()
            )
            self._set_cache[eid] = cached
        return cached

    def jaccard(self, kw1: Keyword, kw2: Keyword) -> float:
        """Exact edge correlation by intersecting two window aid sets.

        Cardinalities are exact integers either way, so the quotient is the
        same float the reference object-set intersection produces.
        """
        ids = self.ents.ids
        eid1 = ids.get(kw1)
        eid2 = ids.get(kw2)
        if eid1 is None or eid2 is None:
            return 0.0
        a = self._aid_set(eid1)
        b = self._aid_set(eid2)
        intersection = len(a & b)
        union = len(a) + len(b) - intersection
        return intersection / union if union else 0.0


def make_batched_idsets(
    window_quanta: int, seed: int = 0
) -> BatchedIdSetIndex:
    """The batched backend's engine factory: numpy when available.

    Both engines are contract-identical (deltas, queries, snapshots), so
    this is a pure performance decision taken once at construction time;
    ``REPRO_PURE_PYTHON=1`` forces the dict engine.
    """
    if get_numpy() is None:
        return BatchedIdSetIndex(window_quanta, seed)
    return ArrayIdSetIndex(window_quanta, seed)


__all__ = [
    "ArrayIdSetIndex",
    "BatchedIdSetIndex",
    "IdSetIndex",
    "SlideDelta",
    "WindowEdit",
    "make_batched_idsets",
]
