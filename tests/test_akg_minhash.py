"""MinHash sketches: determinism and the candidate rule's collision
guarantee (Section 3.2.2).  The window's sketch kernel is tested beside the
index it reads: ``tests/test_akg_idsets.py::TestSketchMany``; the builder's
bucketing of bursty keywords by sketch value is exercised end to end by the
AKG differential suites."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MappingAkgBuilder, MappingIdSetIndex, observed_slide
from oracles import MinHasher, OracleIdSetIndex, ReferenceAkgBuilder
from repro.errors import ConfigError


def collide(sketch_a, sketch_b):
    """The candidate rule: two keywords pair up when their sketches share
    a hash value (they land in one of the builder's value buckets)."""
    return bool(set(sketch_a) & set(sketch_b))


class TestMinHasher:
    def test_deterministic_across_instances(self):
        h1, h2 = MinHasher(4, seed=7), MinHasher(4, seed=7)
        assert h1.hash_user("alice") == h2.hash_user("alice")

    def test_seed_changes_hashes(self):
        h1, h2 = MinHasher(4, seed=7), MinHasher(4, seed=8)
        assert h1.hash_user("alice") != h2.hash_user("alice")

    def test_sketch_is_sorted_bottom_p(self):
        hasher = MinHasher(3, seed=1)
        users = [f"u{i}" for i in range(20)]
        sketch = hasher.sketch(users)
        assert len(sketch) == 3
        assert list(sketch) == sorted(sketch)
        all_hashes = sorted(hasher.hash_user(u) for u in users)
        assert list(sketch) == all_hashes[:3]

    def test_sketch_shorter_than_p(self):
        hasher = MinHasher(5, seed=1)
        assert len(hasher.sketch(["a", "b"])) == 2

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            MinHasher(0)


class TestCandidateFilter:
    def test_identical_sets_always_collide(self):
        hasher = MinHasher(2, seed=3)
        users = {f"u{i}" for i in range(10)}
        assert collide(hasher.sketch(users), hasher.sketch(users))

    def test_disjoint_sets_never_collide(self):
        hasher = MinHasher(4, seed=3)
        s1 = hasher.sketch({f"a{i}" for i in range(10)})
        s2 = hasher.sketch({f"b{i}" for i in range(10)})
        assert not collide(s1, s2)

    def test_empty_sketch_no_collision(self):
        """A keyword outside the window sketches to ``()``: no candidate."""
        hasher = MinHasher(2, seed=3)
        assert hasher.sketch(()) == ()
        assert not collide(hasher.sketch(()), hasher.sketch({"u1", "u2"}))

    def test_collision_rate_tracks_jaccard(self):
        """Over many draws, pairs with higher Jaccard collide more — the
        probabilistic guarantee of Section 3.2.2 (Cohen [7])."""
        rng = random.Random(0)
        hits = {0.2: 0, 0.8: 0}
        trials = 200
        for trial in range(trials):
            hasher = MinHasher(2, seed=trial)
            base = [f"u{trial}_{i}" for i in range(20)]
            for j in hits:
                shared = int(round(20 * 2 * j / (1 + j)))  # |A n B| for target J
                a = set(base[:20])
                b = set(base[:shared]) | {f"x{trial}_{i}" for i in range(20 - shared)}
                if collide(hasher.sketch(a), hasher.sketch(b)):
                    hits[j] += 1
        assert hits[0.8] > hits[0.2]
        assert hits[0.8] / trials > 0.8  # high-J pairs almost always collide


class TestCacheBound:
    """The per-user hash memo must track the live window, not all history."""

    def test_evict_removes_only_named_users(self):
        hasher = MinHasher(2, seed=3)
        for user in range(10):
            hasher.hash_user(user)
        assert hasher.cache_size == 10
        assert hasher.evict([3, 4, 99]) == 2  # 99 was never cached
        assert hasher.cache_size == 8
        # evicted users re-memoise to the identical value
        before = MinHasher(2, seed=3).hash_user(3)
        assert hasher.hash_user(3) == before
        assert hasher.cache_size == 9

    def test_builder_cache_bounded_by_window_population(self):
        """Replaying a stream of one-shot users must not grow per-user
        hash storage beyond the users actually present in the window: the
        fast builder keeps hashes in its actor interner's slots, the oracle
        builder in the ``MinHasher`` memo it evicts from."""
        from repro.config import DetectorConfig
        from repro.core.maintenance import ClusterMaintainer

        config = DetectorConfig(
            quantum_size=8,
            window_quanta=3,
            high_state_threshold=2,
            ec_threshold=0.3,
        )
        fast = MappingAkgBuilder(config, ClusterMaintainer())
        oracle = ReferenceAkgBuilder(config, ClusterMaintainer())
        for quantum in range(40):
            # Fresh user cohort every quantum: after the window slides past
            # a cohort, its hashes must leave the cache.
            users = {quantum * 100 + u for u in range(4)}
            content = {
                f"kw{quantum % 5}": set(users),
                f"noise{quantum}": {quantum * 100 + 50},
            }
            fast.process_quantum(quantum, content)
            oracle.process_quantum(quantum, content)
            live = fast.idsets.window_users()
            assert live == oracle.idsets.window_users()
            assert set(fast.idsets.acts.ids) == live, (
                f"interner leaked beyond the window at quantum {quantum}"
            )
            assert set(oracle.minhasher._cache) <= live, (
                f"cache leaked beyond the window at quantum {quantum}"
            )
        # after 40 quanta only ~3 quanta of users are live (a quantum is
        # interned before the slide releases the expiring one's slots, so
        # the slot table's high-water mark is one cohort more)
        assert fast.idsets.acts.live_count <= 3 * 5
        assert fast.idsets.acts.capacity <= 4 * 5
        assert not hasattr(fast, "minhasher")  # the hot path never memoises
        assert 0 < oracle.minhasher.cache_size <= 3 * 5

    def test_oracle_reports_vanished_users_identically(self):
        """The from-scratch index must agree on the eviction pool."""
        fast, oracle = MappingIdSetIndex(2), OracleIdSetIndex(2)
        stream = [
            {"a": {1, 2}, "b": {2, 3}},
            {"a": {2}},
            {"c": {4}},
            {},
            {"a": {1}},
        ]
        for quantum, content in enumerate(stream):
            before = fast.window_users()
            fast.add_quantum(quantum, content)
            od = oracle.add_quantum(quantum, content)
            assert before - fast.window_users() == od.vanished_users
            assert fast.window_users() == oracle.window_users()


class TestBatchedEvictionStateful:
    """Hash eviction under the interned path (DESIGN.md Section 9).

    The column engine keeps each user's base hash in their actor-interner
    slot, and the slot is released exactly when the user's last window
    occurrence expires.  This stateful differential drives the index and
    the from-scratch oracle over a churny random stream (one-shot users,
    re-entries, empty quanta, skipped quanta) and checks, after every
    slide, that the eviction pools coincide and the interner refcounts
    track the live window exactly."""

    @given(
        seed=st.integers(0, 100),
        window=st.integers(1, 4),
        n_quanta=st.integers(4, 24),
    )
    @settings(max_examples=30, deadline=None)
    def test_vanished_users_and_refcounts_track_reference(
        self, seed, window, n_quanta
    ):
        rng = random.Random(seed)
        reference = OracleIdSetIndex(window_quanta=window)
        index = MappingIdSetIndex(window_quanta=window)
        quantum = 0
        for _ in range(n_quanta):
            content = {}
            for kw in rng.sample("abcdef", rng.randint(0, 4)):
                users = {
                    # mix of recurring ids and one-shot drive-bys
                    rng.choice((rng.randrange(8), 100 + quantum * 10))
                    for _ in range(rng.randint(1, 4))
                }
                content[kw] = users
            ref_slide = observed_slide(reference, quantum, content, "abcdef")
            slide = observed_slide(index, quantum, content, "abcdef")
            assert slide == ref_slide
            vanished = slide[2]

            # The eviction pool empties the memo: a vanished user's slot
            # is released, so the live interner population IS the window
            # population — no leak, no premature eviction.
            live_users = index.window_users()
            assert live_users == reference.window_users()
            assert index.acts.live_count == len(live_users)
            assert set(index.acts.ids) == live_users
            assert index.ents.live_count == index.num_keywords
            for user in vanished:
                assert user not in index.acts.ids

            quantum += rng.choice((1, 1, 1, 2, window + 1))

    def test_reentry_after_vanish_reinterns_cleanly(self):
        """A vanished user who returns gets a slot again (possibly
        recycled) and identical window behaviour."""
        reference = OracleIdSetIndex(window_quanta=2)
        index = MappingIdSetIndex(window_quanta=2)
        stream = [
            {"a": {"u1", "u2"}},
            {"b": {"u3"}},
            {"b": {"u3"}},  # u1/u2 vanish here
            {"a": {"u1"}},  # u1 re-enters after eviction
            {},
            {},
        ]
        for quantum, content in enumerate(stream):
            assert observed_slide(
                index, quantum, content, "ab"
            ) == observed_slide(reference, quantum, content, "ab")
            assert index.window_users() == reference.window_users()
        assert index.acts.live_count == 0
        assert index.ents.live_count == 0
