"""MinHash sketches for efficient edge-candidate discovery (Section 3.2.2).

Each keyword keeps the ``p`` minimum hash values over the user ids in its
window id set.  Two keywords become an edge *candidate* when their sketches
share at least one value; the probability of the single-minimum variant
matching equals the Jaccard coefficient, and keeping p minima drives the
false-negative rate down (Cohen [6, 7]).  ``p = min(theta / 2, 1 / gamma)``
per the paper.

Hashing uses a salted 64-bit blake2b digest so results are stable across
processes and independent of ``PYTHONHASHSEED``.  On the hot path each
user is hashed once per window residency — the id-set index's actor
interner stores the value in the user's slot (:func:`user_hash_fn`) and
:func:`batched_quantum_minis` builds a quantum's mini-sketches from that
column.  :class:`MinHasher` is the object-level form (what the from-scratch
oracle hashes with); its per-user memo is *bounded*: the AKG builder evicts
users reported by ``SlideDelta.vanished_users`` — users whose last window
occurrence just expired — so the cache tracks the live window population
instead of every user id ever seen.
"""

from __future__ import annotations

import heapq
from collections import deque
from hashlib import blake2b
from typing import Callable, Deque, Dict, Hashable, Iterable, List, Mapping, Set, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.stream.window import QuantumColumns

UserId = Hashable
Sketch = Tuple[int, ...]


def user_hash_fn(seed: int) -> Callable[[UserId], int]:
    """The MinHash base-hash as a standalone function of the user id.

    Bit-identical to :meth:`MinHasher.hash_user` by construction (same
    digest, same salt derivation) — the id-set index installs this as the
    actor interner's hash column so each user is hashed exactly once per
    window residency, and the vectorized sketch kernel then works on the
    stored 64-bit values instead of re-hashing.
    """
    salt = seed.to_bytes(8, "little", signed=False)

    def hash_user(user: UserId) -> int:
        digest = blake2b(
            repr(user).encode("utf-8"), digest_size=8, salt=salt
        ).digest()
        return int.from_bytes(digest, "big")

    return hash_user


class MinHasher:
    """Salted, memoised 64-bit user hashing + sketch construction."""

    __slots__ = ("p", "_salt", "_cache")

    def __init__(self, p: int, seed: int = 0) -> None:
        if p < 1:
            raise ConfigError(f"sketch size p must be >= 1, got {p}")
        self.p = p
        self._salt = seed.to_bytes(8, "little", signed=False)
        self._cache: Dict[UserId, int] = {}

    def hash_user(self, user: UserId) -> int:
        """Stable 64-bit hash of a user id (uniform over (0, 2^64))."""
        cached = self._cache.get(user)
        if cached is not None:
            return cached
        digest = blake2b(
            repr(user).encode("utf-8"), digest_size=8, salt=self._salt
        ).digest()
        value = int.from_bytes(digest, "big")
        self._cache[user] = value
        return value

    def evict(self, users: Iterable[UserId]) -> int:
        """Drop memoised hashes for users that left the window entirely.

        Fed from ``SlideDelta.vanished_users`` on every slide; hashes are a
        pure salted function of the user id, so a user who later returns is
        simply re-memoised.  Returns the number of entries removed.
        """
        removed = 0
        cache = self._cache
        for user in users:
            if cache.pop(user, None) is not None:
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop the whole memo (checkpoint restore: hashes re-warm on
        demand, being pure salted functions of the user id)."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        """Current number of memoised user hashes (cache-bound tests)."""
        return len(self._cache)

    def sketch(self, users: Iterable[UserId]) -> Sketch:
        """The p smallest *distinct* user hashes, ascending (may be < p).

        Hash values are deduplicated before the bottom-p cut so that a
        colliding pair of users cannot occupy two sketch slots — this keeps
        a from-scratch sketch of a union of sets identical to the merge of
        the per-set sketches, which the windowed index and its oracle rely
        on.  ``p == 1`` (a common outcome of the paper's
        ``min(theta/2, 1/gamma)`` derivation) short-circuits to a plain
        ``min`` — duplicates cannot matter for a single minimum.
        """
        hashes = map(self.hash_user, users)
        if self.p == 1:
            smallest = min(hashes, default=None)
            return () if smallest is None else (smallest,)
        return tuple(heapq.nsmallest(self.p, set(hashes)))


class WindowedSketchIndex:
    """Sliding-window MinHash sketches maintained incrementally.

    The paper keeps "p Min-Hash values amongst all the user ids in the id
    set" per keyword.  Recomputing that from the full window id set every
    quantum costs O(window); instead this index stores a deque of
    per-quantum dicts (keyword -> bottom-p mini-sketch, computed once from
    that quantum's users only) and merges a keyword's <= ``window_quanta``
    live minis into a cached full-window sketch on demand.

    The merged sketch is recomputed lazily and only when *dirtied*: a
    keyword's cache entry is invalidated exactly when it gains a mini-sketch
    (it appeared this quantum) or loses one (an entry expired).  Untouched
    keywords keep serving their cached sketch, so per-quantum sketch work is
    proportional to the delta, matching the paper's real-time constraint
    (DESIGN.md Section 5).
    """

    __slots__ = (
        "hasher",
        "window_quanta",
        "_quanta",
        "_live_blocks",
        "_merged",
        "_dirty",
        "_dropped",
        "merge_recomputes",
    )

    def __init__(self, hasher: MinHasher, window_quanta: int) -> None:
        self.hasher = hasher
        self.window_quanta = window_quanta
        # (quantum, keyword -> mini-sketch) — oldest first.  Storing whole
        # quanta makes the slide O(1) deque work plus one C-level set union
        # for dirty tracking, instead of one deque append/pop per keyword
        # per quantum; a keyword's window minis are gathered by probing the
        # <= window_quanta live dicts on (lazy, cached) merge.
        self._quanta: Deque[Tuple[int, Dict[str, Sketch]]] = deque()
        # keyword -> number of live blocks holding a mini for it; derived
        # from ``_quanta`` (never serialized) so expiry can tell "still in
        # the window" without probing every block.
        self._live_blocks: Dict[str, int] = {}
        self._merged: Dict[str, Sketch] = {}
        self._dirty: Set[str] = set()
        # quanta of the blocks the last slide expired
        self._dropped: List[int] = []
        # Number of merged-sketch rebuilds performed (work counter for the
        # dirty-only regression tests and the AKG bench).
        self.merge_recomputes = 0

    def add_quantum(
        self, quantum: int, keyword_users: Mapping[str, Iterable[UserId]]
    ) -> None:
        sketch = self.hasher.sketch
        self.add_quantum_minis(
            quantum,
            {
                kw: mini
                for kw, users in keyword_users.items()
                if (mini := sketch(users))
            },
        )

    def add_quantum_minis(
        self, quantum: int, minis: Mapping[str, Sketch]
    ) -> None:
        """Ingest pre-computed per-quantum mini-sketches.

        ``minis`` must hold, per keyword, the bottom-p distinct base-hash
        values of the quantum's users — exactly what :meth:`add_quantum`
        would compute via :meth:`MinHasher.sketch`.  The hot path produces
        them vectorized from the actor interner's hash column
        (:func:`batched_quantum_minis`).
        """
        cutoff = quantum - self.window_quanta
        if any(minis.values()):
            entered = {kw: mini for kw, mini in minis.items() if mini}
            self._quanta.append((quantum, entered))
            self._dirty.update(entered)
            live_blocks = self._live_blocks
            for kw in entered:
                live_blocks[kw] = live_blocks.get(kw, 0) + 1
        self._expire(cutoff)

    def _expire(self, cutoff: int) -> None:
        quanta = self._quanta
        live_blocks = self._live_blocks
        merged = self._merged
        dirty = self._dirty
        dropped = self._dropped = []
        while quanta and quanta[0][0] <= cutoff:
            old, expired = quanta.popleft()
            dropped.append(old)
            for kw in expired:
                merged.pop(kw, None)
                left = live_blocks[kw] - 1
                if left:
                    live_blocks[kw] = left
                    dirty.add(kw)
                else:
                    del live_blocks[kw]
                    dirty.discard(kw)

    @staticmethod
    def _block_entries(minis: Mapping[str, Sketch]) -> list:
        return [[kw, list(mini)] for kw, mini in sorted(minis.items())]

    def to_state(self) -> dict:
        """Checkpointable snapshot: the queue of per-quantum mini-sketches.

        The merged-sketch cache is a pure function of the queue, so it is
        not stored; :meth:`from_state` marks every keyword dirty — the
        first post-restore query recomputes a merge identical to the
        pre-snapshot one (the merge is exact, DESIGN.md Section 5).  Blocks
        are oldest first and each is sorted by keyword, so the snapshot is
        a pure function of the window contents, which makes the sharded
        front-end's merged checkpoint byte-identical to a serial one.
        """
        return {
            "window": [
                [q, self._block_entries(minis)] for q, minis in self._quanta
            ],
        }

    def from_state(self, state: dict) -> None:
        """Rebuild the index in place from :meth:`to_state` output."""
        self._quanta = deque(
            (q, {kw: tuple(mini) for kw, mini in block})
            for q, block in state["window"]
        )
        self._live_blocks = {}
        for _, minis in self._quanta:
            for kw in minis:
                self._live_blocks[kw] = self._live_blocks.get(kw, 0) + 1
        self._merged = {}
        self._dirty = set(self._live_blocks)
        self._dropped = []
        self.merge_recomputes = 0

    def window_edit(self, quantum: int):
        """What the slide to ``quantum`` (the last one) did to the
        serialized window — an :data:`~repro.akg.idsets.WindowEdit`, all
        empty while the index never slides (MinHash filter off)."""
        quanta = self._quanta
        entries = None
        if quanta and quanta[-1][0] == quantum:
            entries = self._block_entries(quanta[-1][1])
        return self._dropped, [q for q, _ in quanta], entries

    def sketch(self, keyword: str) -> Sketch:
        """Bottom-p hash values of the keyword's window id set (cached)."""
        if keyword not in self._dirty:
            cached = self._merged.get(keyword)
            if cached is not None:
                return cached
        values: set = set()
        for _, minis in self._quanta:
            mini = minis.get(keyword)
            if mini is not None:
                values.update(mini)
        if not values:
            return ()
        if len(values) <= self.hasher.p:
            merged = tuple(sorted(values))
        else:
            merged = tuple(heapq.nsmallest(self.hasher.p, values))
        self._merged[keyword] = merged
        self._dirty.discard(keyword)
        self.merge_recomputes += 1
        return merged


def batched_quantum_minis(
    columns: QuantumColumns, hashes: list, p: int
) -> Dict[str, Sketch]:
    """Per-keyword bottom-p mini-sketches of one quantum, vectorized.

    ``columns`` are the quantum's deduplicated interned pair columns
    (:class:`~repro.stream.window.QuantumColumns`) and ``hashes`` the actor
    interner's 64-bit base-hash column, so no hashing happens here at all —
    only a gather plus sort/dedupe/take-p: one lexsort over (entity, hash)
    for the whole quantum, then each entity's first ``p`` distinct values in
    a handful of array ops.  Returns ascending tuples of Python ints equal
    to ``MinHasher.sketch`` over the same users (same hash values, distinct,
    bottom-p).
    """
    keys = columns.keys
    n = len(keys)
    if not n:
        return {}
    hash_col = np.fromiter(
        map(hashes.__getitem__, (keys & 0xFFFFFFFF).tolist()),
        dtype=np.uint64,
        count=n,
    )
    ent_col = keys >> 32
    order = np.lexsort((hash_col, ent_col))
    ents = ent_col[order]
    vals = hash_col[order]
    # Drop consecutive duplicate (entity, hash) pairs, then keep only the
    # first p rows of every entity run (rows are hash-ascending per entity).
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.logical_or(ents[1:] != ents[:-1], vals[1:] != vals[:-1], out=keep[1:])
    ents = ents[keep]
    vals = vals[keep]
    m = len(ents)
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(ents[1:], ents[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    run_lengths = np.diff(np.append(starts, m))
    rank_in_run = np.arange(m) - np.repeat(starts, run_lengths)
    selected = vals[rank_in_run < p].tolist()
    # Entity runs are eid-ascending (the lexsort's primary key), exactly the
    # order of ``segments``/``ent_strings``, so the selected values map back
    # to keywords by walking the per-run take-p counts — no id lookups.
    counts = np.minimum(run_lengths, p).tolist()
    out: Dict[str, Sketch] = {}
    pos = 0
    for kw, count in zip(columns.ent_strings, counts):
        end = pos + count
        out[kw] = tuple(selected[pos:end])
        pos = end
    return out


def sketches_share_value(sketch_a: Sketch, sketch_b: Sketch) -> bool:
    """Candidate test: do the two sketches share at least one hash value?

    Both sketches are ascending, so a linear merge suffices.
    """
    i = j = 0
    while i < len(sketch_a) and j < len(sketch_b):
        a, b = sketch_a[i], sketch_b[j]
        if a == b:
            return True
        if a < b:
            i += 1
        else:
            j += 1
    return False


def estimate_jaccard(sketch_a: Sketch, sketch_b: Sketch, p: int) -> float:
    """Bottom-p Jaccard estimate from two sketches.

    Takes the p smallest values of the union of the sketches and counts the
    fraction present in both — the standard bottom-k estimator.  Exact when
    either underlying set has at most p elements.
    """
    if not sketch_a or not sketch_b:
        return 0.0
    union_bottom = heapq.nsmallest(p, set(sketch_a) | set(sketch_b))
    if not union_bottom:
        return 0.0
    set_a, set_b = set(sketch_a), set(sketch_b)
    shared = sum(1 for v in union_bottom if v in set_a and v in set_b)
    return shared / len(union_bottom)


__all__ = [
    "MinHasher",
    "Sketch",
    "WindowedSketchIndex",
    "batched_quantum_minis",
    "sketches_share_value",
    "estimate_jaccard",
    "user_hash_fn",
]
