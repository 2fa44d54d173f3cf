"""Sliding-window id sets: expiry, support, Jaccard, sketches, and the
slide delta.

Every test runs against the production index — the array-backed column
engine (DESIGN.md Section 9) — and against the from-scratch oracle that
referees it: the two share one contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MappingIdSetIndex, observed_slide
from oracles import MinHasher, OracleIdSetIndex
from repro.errors import StreamError
from repro.interning import Interner

# The ids these cases have always run under, so per-case history stays
# comparable: "batched-array" is the column engine.
ENGINES = [
    pytest.param(MappingIdSetIndex, id="batched-array"),
    pytest.param(OracleIdSetIndex, id="reference"),
]


def entries_of(index, keyword):
    """A keyword's live ``(quantum, users)`` window entries, oldest first.

    The oracle keeps raw quanta instead of per-keyword entries; read the
    same view off them."""
    if isinstance(index, OracleIdSetIndex):
        return tuple(
            (q, content[keyword])
            for q, content in index._window
            if keyword in content
        )
    return index.entries(keyword)


@pytest.fixture(params=ENGINES)
def Index(request):
    return request.param


class TestWindowMechanics:
    def test_support_counts_distinct_users(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"kw": {1, 2, 3}})
        assert index.support("kw") == 3
        assert index.users("kw") == {1, 2, 3}

    def test_users_merge_across_quanta(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"kw": {1, 2}})
        index.add_quantum(1, {"kw": {2, 3}})
        assert index.users("kw") == {1, 2, 3}

    def test_expiry_after_window(self, Index):
        index = Index(window_quanta=2)
        index.add_quantum(0, {"kw": {1}})
        index.add_quantum(1, {"kw": {2}})
        index.add_quantum(2, {"other": {9}})
        assert index.users("kw") == {2}
        index.add_quantum(3, {"other": {9}})
        assert index.support("kw") == 0
        assert "kw" not in index

    def test_user_survives_until_last_mention_expires(self, Index):
        index = Index(window_quanta=2)
        index.add_quantum(0, {"kw": {1}})
        index.add_quantum(1, {"kw": {1}})
        index.add_quantum(2, {"x": {9}})
        # user 1's quantum-1 mention is still in the window
        assert index.users("kw") == {1}

    def test_out_of_order_quantum_rejected(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(5, {"kw": {1}})
        with pytest.raises(StreamError):
            index.add_quantum(5, {"kw": {2}})
        with pytest.raises(StreamError):
            index.add_quantum(3, {"kw": {2}})

    def test_invalid_window_rejected(self, Index):
        with pytest.raises(StreamError):
            Index(window_quanta=0)

    def test_keywords_iteration(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1}, "b": {2}})
        assert set(index.keywords()) == {"a", "b"}
        assert index.num_keywords == 2


class TestSlideDelta:
    """What a slide moved, read through ``support``/``window_users`` before
    and after it, and the queried keywords it emptied."""

    def test_appearance_reports_support_delta(self, Index):
        index = Index(window_quanta=3)
        moved, emptied, _ = observed_slide(index, 0, {"kw": {1, 2}}, ["kw"])
        assert moved == {"kw": (0, 2)}
        assert emptied == frozenset()

    def test_expiry_reports_emptied(self, Index):
        index = Index(window_quanta=2)
        index.add_quantum(0, {"kw": {1}})
        index.add_quantum(1, {"other": {9}})
        moved, emptied, _ = observed_slide(index, 2, {"other": {9}}, ["kw"])
        assert moved == {"kw": (1, 0)}
        assert emptied == {"kw"}

    def test_unchanged_support_not_reported(self, Index):
        """A keyword whose expiring users re-enter the same slide moves
        nothing and is not emptied."""
        index = Index(window_quanta=2)
        index.add_quantum(0, {"kw": {1}})
        index.add_quantum(1, {"kw": {1}})
        moved, emptied, _ = observed_slide(index, 2, {"kw": {1}}, ["kw"])
        assert moved == {}
        assert emptied == frozenset()

    def test_empty_user_sets_do_not_appear(self, Index):
        index = Index(window_quanta=2)
        moved, emptied, _ = observed_slide(index, 0, {"kw": set()}, ["kw"])
        assert moved == {} and emptied == frozenset()
        assert index.support("kw") == 0

    def test_same_quantum_expiry_and_reentry_single_entry(self, Index):
        """Stale + re-enter in one slide must not leak a duplicate deque
        entry: the expired entry is popped, the fresh one alone remains."""
        index = Index(window_quanta=2)
        index.add_quantum(0, {"kw": {1, 2}})
        index.add_quantum(1, {"x": {9}})
        moved, emptied, _ = observed_slide(index, 2, {"kw": {3}}, ["kw"])
        assert moved == {"kw": (2, 1)} and emptied == frozenset()
        assert entries_of(index, "kw") == ((2, frozenset({3})),)
        assert index.users("kw") == {3}

    def test_skipped_quanta_expire_together(self, Index):
        """Quantum numbers may skip; every overdue entry expires in one
        slide and each keyword still holds at most one entry per quantum."""
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1}})
        index.add_quantum(1, {"a": {2}, "b": {5}})
        moved, emptied, _ = observed_slide(index, 7, {"a": {3}}, ["a", "b"])
        assert emptied == {"b"}
        assert moved == {"a": (2, 1), "b": (1, 0)}
        assert entries_of(index, "a") == ((7, frozenset({3})),)

    @pytest.mark.parametrize("Engine", ENGINES)
    @given(
        quanta=st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]),
                st.sets(st.integers(0, 10), min_size=0, max_size=4),
                max_size=3,
            ),
            min_size=1,
            max_size=12,
        ),
        window=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_delta_matches_from_scratch_oracle(self, Engine, quanta, window):
        """The slide's moves, emptied set and leaving users equal the
        oracle's full diff."""
        fast = Engine(window_quanta=window)
        oracle = OracleIdSetIndex(window_quanta=window)
        for q, content in enumerate(quanta):
            fast_slide = observed_slide(fast, q, content, ["a", "b", "c"])
            oracle_slide = observed_slide(oracle, q, content, ["a", "b", "c"])
            assert fast_slide == oracle_slide
            for kw in ("a", "b", "c"):
                assert fast.support(kw) == oracle.support(kw)
                assert fast.users(kw) == oracle.users(kw)
            assert set(fast.keywords()) == set(oracle.keywords())


class TestJaccard:
    def test_identical_sets(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1, 2}, "b": {1, 2}})
        assert index.jaccard("a", "b") == 1.0

    def test_disjoint_sets(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1, 2}, "b": {3, 4}})
        assert index.jaccard("a", "b") == 0.0

    def test_half_overlap(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1, 2, 3}, "b": {2, 3, 4}})
        assert index.jaccard("a", "b") == pytest.approx(2 / 4)

    def test_missing_keyword_zero(self, Index):
        index = Index(window_quanta=3)
        index.add_quantum(0, {"a": {1}})
        assert index.jaccard("a", "nope") == 0.0

    @pytest.mark.parametrize("Engine", ENGINES)
    @given(
        sets=st.lists(
            st.tuples(
                st.sets(st.integers(0, 30), min_size=0, max_size=10),
                st.sets(st.integers(0, 30), min_size=0, max_size=10),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_computation(self, Engine, sets):
        """Index Jaccard over a sliding window equals the direct Jaccard of
        the window-union sets."""
        window = 3
        index = Engine(window_quanta=window)
        for q, (ua, ub) in enumerate(sets):
            index.add_quantum(q, {"a": ua, "b": ub})
        live = sets[-window:]
        union_a = set().union(*(ua for ua, _ in live))
        union_b = set().union(*(ub for _, ub in live))
        if not union_a or not union_b:
            expected = 0.0
        else:
            expected = len(union_a & union_b) / len(union_a | union_b)
        assert index.jaccard("a", "b") == pytest.approx(expected)
        assert index.support("a") == len(union_a)


KEYWORDS = ["a", "b", "c", "d", "e"]

# One slide: how far the quantum counter advances (> 1 skips quanta, so
# several blocks can expire at once) and the quantum's keyword -> users.
# Users come from a small pool so they vanish and return, and their
# recycled actor slots get reused by other users.
slides = st.lists(
    st.tuples(
        st.integers(1, 4),
        st.dictionaries(
            st.sampled_from(KEYWORDS),
            st.sets(st.integers(0, 25), max_size=8),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=10,
)


class TestJaccardManyKernel:
    """The batched EC kernel against the oracle's per-pair set
    intersection — equal floats, not approximately equal ones."""

    @given(
        slides=slides,
        pairs=st.lists(
            st.tuples(
                st.sampled_from(KEYWORDS + ["absent"]),
                st.sampled_from(KEYWORDS + ["absent"]),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_jaccard_after_every_slide(self, slides, pairs):
        fast = MappingIdSetIndex(window_quanta=3)
        oracle = OracleIdSetIndex(window_quanta=3)
        pairs = pairs + pairs[:1]  # a pair listed twice
        quantum = 0
        for step, keyword_users in slides:
            quantum += step
            fast.add_quantum(quantum, keyword_users)
            oracle.add_quantum(quantum, keyword_users)
            got = fast.jaccard_many(pairs)
            assert got == [oracle.jaccard(kw1, kw2) for kw1, kw2 in pairs]
            assert all(type(ec) is float for ec in got)
            assert fast.jaccard_many([]) == []
            for kw1, kw2 in pairs[:2]:  # the one-pair call is the kernel
                assert fast.jaccard(kw1, kw2) == oracle.jaccard(kw1, kw2)

    def test_recycled_actor_slot_counts_for_its_new_user(self):
        """The bit columns are recycled actor slots: a vanished user's slot
        goes to the next new user and must count for that user alone (the
        property above meets this at random; here it is pinned)."""
        index = MappingIdSetIndex(window_quanta=1)
        index.add_quantum(0, {"a": {1, 2}, "b": {2}})
        freed = {index.acts.ids[1], index.acts.ids[2]}
        index.add_quantum(1, {"c": {3}})  # users 1 and 2 vanish
        assert not {1, 2} & index.acts.ids.keys()
        index.add_quantum(2, {"a": {7}, "b": {7, 8}})
        assert {index.acts.ids[7], index.acts.ids[8]} == freed
        assert index.jaccard_many([("a", "b"), ("a", "c")]) == [1 / 2, 0.0]

    def test_empty_pair_list_makes_no_numpy_call(self, monkeypatch):
        import repro.akg.idsets as module

        index = MappingIdSetIndex(window_quanta=2)
        index.add_quantum(0, {"a": {1}})
        monkeypatch.setattr(module, "np", None)
        assert index.jaccard_many([]) == []

    def test_rows_are_packed_in_blocks(self, monkeypatch):
        """With a scratch too small for two rows the kernel packs (and
        answers) one row at a time — same floats."""
        import repro.akg.idsets as module

        index = MappingIdSetIndex(window_quanta=2)
        index.add_quantum(
            0, {kw: set(range(i, 200, i + 1)) for i, kw in enumerate(KEYWORDS)}
        )
        pairs = [(kw1, kw2) for kw1 in KEYWORDS for kw2 in KEYWORDS]
        expected = index.jaccard_many(pairs)
        monkeypatch.setattr(module, "_SCRATCH_BYTES", 300)
        assert index.jaccard_many(pairs) == expected

    def test_scratch_is_bounded_whatever_the_population(self):
        """64 involved keywords over >= 100k live users: the call peaks
        under the scratch constant plus the packed rows (plus the gathered
        slices, a few kB here) — a 64 x capacity byte-per-bit matrix would
        be 6.4 MB on its own."""
        import tracemalloc

        from repro.akg.idsets import _SCRATCH_BYTES

        users = 100_000
        index = MappingIdSetIndex(window_quanta=2)
        quantum = {f"kw{i}": set(range(i * 10, i * 10 + 40)) for i in range(64)}
        quantum["everyone"] = set(range(users))
        index.add_quantum(0, quantum)
        assert index.acts.capacity >= users
        pairs = [(f"kw{i}", f"kw{j}") for i in range(64) for j in range(i)]
        packed_rows = 64 * (index.acts.capacity + 63) // 64 * 8
        assert 64 * index.acts.capacity > _SCRATCH_BYTES + packed_rows
        tracemalloc.start()
        try:
            ecs = index.jaccard_many(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ecs[0] == 30 / 50  # kw1 & kw0: users 10..39 of 0..49
        assert peak < _SCRATCH_BYTES + packed_rows + 512 * 1024


def four_bit_hash(user):
    return (user * 7 + 3) % 16


def expected_sketch(hash_of, users, p):
    """Section 3.2.2, literally: the ``p`` smallest distinct hash values."""
    return tuple(sorted({hash_of(user) for user in users})[:p])


class TestSketchMany:
    """The window's sketch kernel against ``MinHasher.sketch`` of the
    oracle's id sets — the per-keyword bottom-p the paper defines, read off
    the pair column for the keywords asked about."""

    @given(slides=slides, p=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_equals_full_recompute(self, slides, p):
        """After every slide (skipped quanta and reused actor slots
        included) each sketch equals sketching the full window id set from
        scratch."""
        hasher = MinHasher(p, seed=11)
        fast = MappingIdSetIndex(window_quanta=3, seed=11)
        oracle = OracleIdSetIndex(window_quanta=3)
        asked = KEYWORDS + ["absent", KEYWORDS[0]]  # one listed twice
        quantum = 0
        for step, keyword_users in slides:
            quantum += step
            fast.add_quantum(quantum, keyword_users)
            oracle.add_quantum(quantum, keyword_users)
            got = fast.sketch_many(asked, p)
            assert got == {kw: hasher.sketch(oracle.users(kw)) for kw in asked}
            assert all(
                type(value) is int for sketch in got.values() for value in sketch
            )

    def test_expiry(self):
        index = MappingIdSetIndex(window_quanta=2, seed=1)
        index.add_quantum(0, {"kw": {1, 2, 3}})
        assert index.sketch_many(["kw"], 2) == {
            "kw": MinHasher(2, seed=1).sketch({1, 2, 3})
        }
        index.add_quantum(1, {})
        index.add_quantum(2, {})
        assert index.sketch_many(["kw"], 2) == {"kw": ()}

    def test_head_block_expiry_while_live_in_later_blocks(self):
        """A keyword leaving the head block is sketched from the blocks
        that still hold it, and forgotten only with the last one — also on
        an index rebuilt from a snapshot."""
        hasher = MinHasher(2, seed=1)
        index = MappingIdSetIndex(window_quanta=3, seed=1)
        index.add_quantum(0, {"kw": {1, 2, 3}, "gone": {9}})
        index.add_quantum(1, {"other": {7}})
        index.add_quantum(2, {"kw": {4, 5}})
        restored = MappingIdSetIndex(window_quanta=3, seed=1)
        restored.from_state(index.to_state())
        for idx in (index, restored):
            assert idx.sketch_many(["kw"], 2)["kw"] == hasher.sketch(
                {1, 2, 3, 4, 5}
            )
            idx.add_quantum(3, {"other": {8}})  # block 0 expires
            assert idx.sketch_many(["kw", "gone", "other"], 2) == {
                "kw": hasher.sketch({4, 5}),
                "gone": (),
                "other": hasher.sketch({7, 8}),
            }
            idx.add_quantum(6, {})  # everything expires
            assert idx.sketch_many(["kw", "other"], 2) == {"kw": (), "other": ()}

    @given(slides=slides, p=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_colliding_users_share_one_slot(self, slides, p):
        """Under a 4-bit hash distinct users collide all the time: equal
        hashes must share a rank, so a sketch never repeats a value and
        never loses the (p+1)-th distinct one to a duplicate."""
        index = MappingIdSetIndex(window_quanta=3)
        index.acts = Interner(hash_fn=four_bit_hash)
        oracle = OracleIdSetIndex(window_quanta=3)
        quantum = 0
        for step, keyword_users in slides:
            quantum += step
            index.add_quantum(quantum, keyword_users)
            oracle.add_quantum(quantum, keyword_users)
            assert index.sketch_many(KEYWORDS, p) == {
                kw: expected_sketch(four_bit_hash, oracle.users(kw), p)
                for kw in KEYWORDS
            }

    def test_p_of_one_and_p_beyond_the_support(self):
        hasher = MinHasher(1, seed=0)
        index = MappingIdSetIndex(window_quanta=2)
        index.add_quantum(0, {"a": {1, 2, 3}, "b": {3}})
        hashes = sorted(hasher.hash_user(user) for user in (1, 2, 3))
        assert index.sketch_many(["a", "b"], 1) == {
            "a": (hashes[0],),
            "b": (hasher.hash_user(3),),
        }
        assert index.sketch_many(["a", "b"], 50) == {
            "a": tuple(hashes),
            "b": (hasher.hash_user(3),),
        }

    def test_keyword_outside_the_window_and_keyword_listed_twice(self):
        index = MappingIdSetIndex(window_quanta=2)
        index.add_quantum(0, {"a": {1, 2}})
        got = index.sketch_many(["a", "nope", "a"], 2)
        assert got == {"a": MinHasher(2).sketch({1, 2}), "nope": ()}
        assert index.sketch_many(["nope"], 2) == {"nope": ()}
        assert MappingIdSetIndex(window_quanta=2).sketch_many(["a"], 2) == {"a": ()}

    def test_empty_keyword_list_makes_no_numpy_call(self, monkeypatch):
        import repro.akg.idsets as module

        index = MappingIdSetIndex(window_quanta=2)
        index.add_quantum(0, {"a": {1}})
        monkeypatch.setattr(module, "np", None)
        assert index.sketch_many([], 3) == {}


class TestRebuild:
    def test_gap_quantum_rebuilds_nothing(self):
        """Nothing expires and nothing enters: the empty delta comes back
        and the derived column is not even re-derived."""
        index = MappingIdSetIndex(window_quanta=3)
        index.add_quantum(0, {"a": {1, 2}, "b": {2}})
        column = index._pair_keys
        delta = index.add_quantum(1, {})
        assert delta.before is delta.after  # no support moved
        assert index._pair_keys is column
        assert [q for q, _ in index._quanta] == [0]
        index.add_quantum(3, {})  # block 0 expires: this one does rebuild
        assert index._pair_keys is not column
        assert index.support("a") == 0

