"""The interner's hash column: a ``uint64`` array grown by doubling.

Growth replaces the array, so every reader must go through
``interner.hashes`` *after* interning (``IdSetIndex.sketch_many`` gathers
the users' MinHash base hashes off this column).
"""

import numpy as np

from repro.akg.minhash import user_hash_fn
from repro.interning import Interner

word_hash = user_hash_fn(7)  # 64-bit blake2b: values reach past 2**63

WORDS = [f"w{i}" for i in range(70)]  # 16 -> 32 -> 64 -> 128 slots


class TestHashColumn:
    def test_growth_keeps_every_earlier_slot(self):
        interner = Interner(hash_fn=word_hash)
        start = len(interner.hashes)
        for word in WORDS:
            interner.intern(word)
        assert interner.hashes.dtype == np.uint64
        assert len(interner.hashes) >= 4 * start  # past two doublings
        assert interner.capacity == len(WORDS)
        exact = [word_hash(word) for word in WORDS]
        assert max(exact) >= 1 << 63  # survives the uint64 column exactly
        assert interner.hashes[: len(WORDS)].tolist() == exact

    def test_recycled_slot_gets_the_new_objects_hash(self):
        interner = Interner(hash_fn=word_hash)
        for word in WORDS[:5]:
            interner.intern(word)
        interner.release([3])
        assert int(interner.hashes[3]) == word_hash("w3")  # stale, unread
        assert interner.intern("newcomer") == 3
        assert int(interner.hashes[3]) == word_hash("newcomer")
        assert interner.capacity == 5

    def test_clear_resets_the_fill(self):
        interner = Interner(hash_fn=word_hash)
        for word in WORDS:
            interner.intern(word)
        interner.clear()
        assert interner.capacity == 0 and interner.live_count == 0
        assert interner.intern("again") == 0
        assert int(interner.hashes[0]) == word_hash("again")

    def test_no_hash_fn_no_column(self):
        interner = Interner()
        interner.intern("a")
        assert interner.hashes is None
