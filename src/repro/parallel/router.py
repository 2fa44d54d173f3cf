"""Stable keyword-range routing for the sharded AKG front-end.

A keyword's shard is a pure function of the keyword string: the top 64 bits
of a salted-free blake2b digest, scaled into ``shard_count`` contiguous
ranges.  Using a cryptographic digest (not ``hash()``) keeps the partition
identical across processes, interpreter runs and ``PYTHONHASHSEED`` values —
a checkpoint written under one worker count must re-partition identically
when resumed under another.

Shards are assigned to workers in contiguous runs (worker *w* of *W* owns
shards ``[w*S//W, (w+1)*S//W)``), so with the default ``S == W`` each worker
owns exactly one contiguous hash range, as the shard contract specifies.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set

import numpy as np

from repro.errors import ConfigError

Keyword = str
UserId = Hashable

_RANGE = 1 << 64


def keyword_hash(keyword: Keyword) -> int:
    """Stable 64-bit hash of a keyword (process-independent)."""
    digest = blake2b(keyword.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shard_of_hash(hash_value: int, shard_count: int) -> int:
    """Shard of a precomputed :func:`keyword_hash` value (range scaling)."""
    return (hash_value * shard_count) >> 64


def shards_of_hashes(
    hashes: Sequence[int], shard_count: int
) -> List[int]:
    """Vectorized :func:`shard_of_hash` over a hash column.

    The sharded extract stage keeps each keyword's 64-bit hash in an
    interner table, so routing a quantum is one pass over precomputed
    values rather than one blake2b digest per keyword.  Each hash is split
    into 32-bit halves to evaluate the exact 128-bit product shift
    ``(h * S) >> 64`` as ``(hi*S + ((lo*S) >> 32)) >> 32`` — floor-exact
    (nested floored right-shifts compose), so it is bit-identical to the
    arbitrary-precision :func:`shard_of_hash` for any ``shard_count``
    below 2**31.
    """
    h = np.asarray(hashes, dtype=np.uint64)
    hi = h >> np.uint64(32)
    lo = h & np.uint64(0xFFFFFFFF)
    s = np.uint64(shard_count)
    out = (hi * s + ((lo * s) >> np.uint64(32))) >> np.uint64(32)
    return out.astype(np.int64).tolist()


class ShardRouter:
    """Maps keywords to ``shard_count`` contiguous 64-bit hash ranges."""

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ConfigError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def shard_of(self, keyword: Keyword) -> int:
        """The shard owning ``keyword`` — range index, not a modulus, so
        neighbouring hash values land in the same shard (contiguous
        ranges).  Single-shard routing skips the digest entirely."""
        if self.shard_count == 1:
            return 0
        return (keyword_hash(keyword) * self.shard_count) >> 64

    def range_of(self, shard: int) -> tuple:
        """The half-open hash interval ``[lo, hi)`` shard ``shard`` owns."""
        lo = -(-shard * _RANGE // self.shard_count) if shard else 0
        hi = -(-(shard + 1) * _RANGE // self.shard_count)
        return (lo, min(hi, _RANGE))

    def partition(
        self, keyword_users: Mapping[Keyword, Set[UserId]]
    ) -> List[Dict[Keyword, Set[UserId]]]:
        """Split one quantum's ``keyword -> users`` mapping by shard."""
        if self.shard_count == 1:
            return [dict(keyword_users)]
        slices: List[Dict[Keyword, Set[UserId]]] = [
            {} for _ in range(self.shard_count)
        ]
        shard_of = self.shard_of
        for kw, users in keyword_users.items():
            slices[shard_of(kw)][kw] = users
        return slices

    def partition_keywords(
        self, keywords: Iterable[Keyword]
    ) -> List[Set[Keyword]]:
        """Split a keyword iterable into per-shard sets."""
        out: List[Set[Keyword]] = [set() for _ in range(self.shard_count)]
        for kw in keywords:
            out[self.shard_of(kw)].add(kw)
        return out


def worker_assignments(shard_count: int, workers: int) -> List[List[int]]:
    """Contiguous shard runs per worker: worker w owns ``[wS//W, (w+1)S//W)``.

    Workers beyond ``shard_count`` receive empty assignments (they are never
    spawned; ``make_pool`` clamps the worker count first).
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return [
        list(range(w * shard_count // workers, (w + 1) * shard_count // workers))
        for w in range(workers)
    ]


__all__ = [
    "ShardRouter",
    "keyword_hash",
    "shard_of_hash",
    "shards_of_hashes",
    "worker_assignments",
]
