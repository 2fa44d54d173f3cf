"""The interner's hash column: a ``uint64`` array grown by doubling.

Growth replaces the array, so every reader must go through
``interner.hashes`` *after* interning — the sharded extract stage once
bound the column to a local before its interning loop and indexed the
pre-growth buffer.
"""

from types import SimpleNamespace

import numpy as np

from repro.extract.keyword import KeywordExtractor
from repro.interning import Interner
from repro.parallel.router import (
    ShardRouter,
    keyword_hash,
    shard_of_hash,
    shards_of_hashes,
)
from repro.parallel.stages import ShardedExtractStage
from repro.pipeline.stages import QuantumContext
from repro.stream.messages import Message

WORDS = [f"w{i}" for i in range(70)]  # 16 -> 32 -> 64 -> 128 slots


class TestHashColumn:
    def test_growth_keeps_every_earlier_slot(self):
        interner = Interner(hash_fn=keyword_hash)
        start = len(interner.hashes)
        for word in WORDS:
            interner.intern(word)
        assert interner.hashes.dtype == np.uint64
        assert len(interner.hashes) >= 4 * start  # past two doublings
        assert interner.capacity == len(WORDS)
        assert interner.hashes[: len(WORDS)].tolist() == [
            keyword_hash(word) for word in WORDS
        ]

    def test_recycled_slot_gets_the_new_objects_hash(self):
        interner = Interner(hash_fn=keyword_hash)
        for word in WORDS[:5]:
            interner.intern(word)
        interner.release([3])
        assert int(interner.hashes[3]) == keyword_hash("w3")  # stale, unread
        assert interner.intern("newcomer") == 3
        assert int(interner.hashes[3]) == keyword_hash("newcomer")
        assert interner.capacity == 5

    def test_clear_resets_the_fill(self):
        interner = Interner(hash_fn=keyword_hash)
        for word in WORDS:
            interner.intern(word)
        interner.clear()
        assert interner.capacity == 0 and interner.live_count == 0
        assert interner.intern("again") == 0
        assert int(interner.hashes[0]) == keyword_hash("again")

    def test_no_hash_fn_no_column(self):
        interner = Interner()
        interner.intern("a")
        assert interner.hashes is None

    def test_routing_reads_exact_values_off_the_column(self):
        """Hashes above 2**63 survive the ``uint64`` column exactly, as a
        gathered array and as the scalars a list of them holds."""
        interner = Interner(hash_fn=keyword_hash)
        ids = [interner.intern(word) for word in WORDS]
        exact = [keyword_hash(word) for word in WORDS]
        assert max(exact) >= 1 << 63
        for shard_count in (2, 3, 7):
            expected = [shard_of_hash(h, shard_count) for h in exact]
            assert shards_of_hashes(interner.hashes[ids], shard_count) == expected
            assert (
                shards_of_hashes([interner.hashes[i] for i in ids], shard_count)
                == expected
            )


def test_sharded_extract_routes_a_quantum_that_regrows_the_column():
    router = ShardRouter(3)
    stage = ShardedExtractStage(
        SimpleNamespace(router=router), KeywordExtractor(), 32
    )
    for quantum, words in enumerate((WORDS[:10], WORDS)):
        ctx = QuantumContext(
            quantum=quantum,
            messages=[Message(f"u{i}", tokens=(word,)) for i, word in enumerate(words)],
        )
        stage.run(ctx)
        slices = ctx.scratch["shard_slices"]
        assert sorted(kw for part in slices for kw in part) == sorted(words)
        for shard, part in enumerate(slices):
            assert all(router.shard_of(kw) == shard for kw in part)
