"""MinHash sketches for efficient edge-candidate discovery (Section 3.2.2).

Each keyword's sketch is the ``p`` minimum hash values over the user ids in
its window id set.  Two keywords become an edge *candidate* when their
sketches share at least one value; the probability of the single-minimum
variant matching equals the Jaccard coefficient, and keeping p minima drives
the false-negative rate down (Cohen [6, 7]).  ``p = min(theta / 2, 1 /
gamma)`` per the paper.

Hashing uses a salted 64-bit blake2b digest so results are stable across
processes and independent of ``PYTHONHASHSEED``.  On the hot path each
user is hashed once per window residency — the id-set index's actor
interner stores the value in the user's slot (:func:`user_hash_fn`) — and
no sketch is *kept*: :meth:`repro.akg.idsets.IdSetIndex.sketch_many` reads
the sketches of the quantum's bursty keywords off the window's pair column
when the candidate step asks for them.  :class:`MinHasher` is the
object-level form (what the from-scratch oracle hashes with, and the
definition ``sketch_many`` is tested against); its per-user memo is
*bounded*: the AKG builder evicts users reported by
``SlideDelta.vanished_users`` — users whose last window occurrence just
expired — so the cache tracks the live window population instead of every
user id ever seen.
"""

from __future__ import annotations

import heapq
from hashlib import blake2b
from typing import Callable, Dict, Hashable, Iterable, Tuple

from repro.errors import ConfigError

UserId = Hashable
Sketch = Tuple[int, ...]

#: The salt every session hashes user ids with; fixed so sketches (and
#: the checkpoints that replay them) are reproducible across processes.
HASH_SEED = 0x5C9C1E


def user_hash_fn(seed: int) -> Callable[[UserId], int]:
    """The MinHash base-hash as a standalone function of the user id.

    Bit-identical to :meth:`MinHasher.hash_user` by construction (same
    digest, same salt derivation) — the id-set index installs this as the
    actor interner's hash column so each user is hashed exactly once per
    window residency, and the sketch kernel (``IdSetIndex.sketch_many``)
    then works on the stored 64-bit values instead of re-hashing.
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
        colliding pair of users cannot occupy two sketch slots — the sketch
        is a function of the *set of hash values*, which is also how the
        column kernel computes it (equal hashes share one rank).  ``p ==
        1`` (a common outcome of the paper's ``min(theta/2, 1/gamma)``
        derivation) short-circuits to a plain ``min`` — duplicates cannot
        matter for a single minimum.
        """
        hashes = map(self.hash_user, users)
        if self.p == 1:
            smallest = min(hashes, default=None)
            return () if smallest is None else (smallest,)
        return tuple(heapq.nsmallest(self.p, set(hashes)))


__all__ = ["HASH_SEED", "MinHasher", "Sketch", "user_hash_fn"]
