"""The salted user hash behind the MinHash sketches of Section 3.2.2.

Each keyword's sketch is the ``p`` minimum hash values over the user ids in
its window id set.  Two keywords become an edge *candidate* when their
sketches share at least one value; the probability of the single-minimum
variant matching equals the Jaccard coefficient, and keeping p minima drives
the false-negative rate down (Cohen [6, 7]).  ``p = min(theta / 2, 1 /
gamma)`` per the paper.

Hashing uses a salted 64-bit blake2b digest so results are stable across
processes and independent of ``PYTHONHASHSEED``.  Each user is hashed once
per window residency — the id-set index's actor interner stores the value
in the user's slot (:func:`user_hash_fn`) — and no sketch is *kept*:
:meth:`repro.akg.idsets.IdSetIndex.sketch_many` reads the sketches of the
quantum's bursty keywords off the window's pair column when the candidate
step asks for them.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Callable, Hashable

UserId = Hashable

#: The salt every session hashes user ids with; fixed so sketches (and
#: the checkpoints that replay them) are reproducible across processes.
HASH_SEED = 0x5C9C1E


def user_hash_fn(seed: int) -> Callable[[UserId], int]:
    """The MinHash base hash as a standalone function of the user id.

    A salted 64-bit blake2b digest of ``repr(user)``, uniform over
    (0, 2^64) — the id-set index installs this as the actor interner's
    hash column so each user is hashed exactly once per window residency,
    and the sketch kernel (``IdSetIndex.sketch_many``) then works on the
    stored 64-bit values instead of re-hashing.
    """
    salt = seed.to_bytes(8, "little", signed=False)

    def hash_user(user: UserId) -> int:
        digest = blake2b(
            repr(user).encode("utf-8"), digest_size=8, salt=salt
        ).digest()
        return int.from_bytes(digest, "big")

    return hash_user


__all__ = ["HASH_SEED", "user_hash_fn"]
