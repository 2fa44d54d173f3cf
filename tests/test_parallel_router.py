"""Units for the shard router and the worker pool plumbing."""

import pytest

from repro.errors import ConfigError
from repro.parallel.pool import WorkerPool, default_backend, make_pool
from repro.parallel.router import (
    ShardRouter,
    keyword_hash,
    shard_of_hash,
    shards_of_hashes,
    worker_assignments,
)
from repro.parallel.shard_state import ShardParams, ShardState


class TestShardRouter:
    def test_shard_of_is_stable_and_in_range(self):
        router = ShardRouter(4)
        keywords = [f"kw{i}" for i in range(200)]
        shards = [router.shard_of(kw) for kw in keywords]
        assert all(0 <= s < 4 for s in shards)
        assert shards == [router.shard_of(kw) for kw in keywords]
        # all shards get some traffic at this scale
        assert set(shards) == {0, 1, 2, 3}

    def test_ranges_are_contiguous_and_cover_the_hash_space(self):
        router = ShardRouter(3)
        ranges = [router.range_of(s) for s in range(3)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1 << 64
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        for kw in ("alpha", "beta", "gamma", "delta"):
            shard = router.shard_of(kw)
            lo, hi = router.range_of(shard)
            assert lo <= keyword_hash(kw) < hi

    def test_partition_is_exact(self):
        router = ShardRouter(3)
        mapping = {f"kw{i}": {i} for i in range(50)}
        slices = router.partition(mapping)
        assert sum(len(s) for s in slices) == 50
        for shard, piece in enumerate(slices):
            for kw in piece:
                assert router.shard_of(kw) == shard

    def test_vectorized_routing_equals_the_big_int_product(self):
        """The uint64 kernel splits the 128-bit product into halves; the
        arbitrary-precision ``shard_of_hash`` is its reference, at the
        edges of the hash space and for short and long columns."""
        import random

        rng = random.Random(5)
        top = (1 << 64) - 1
        edges = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63, top]
        for n in (0, 1, 31, 500):
            hashes = edges[:n] + [rng.randrange(1 << 64) for _ in range(n)]
            for shard_count in (1, 2, 3, 7, 1000, (1 << 31) - 1):
                assert shards_of_hashes(hashes, shard_count) == [
                    shard_of_hash(h, shard_count) for h in hashes
                ]

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert all(router.shard_of(f"k{i}") == 0 for i in range(20))

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            ShardRouter(0)
        with pytest.raises(ConfigError):
            worker_assignments(4, 0)


class TestWorkerAssignments:
    def test_contiguous_cover(self):
        for shards, workers in [(4, 4), (8, 3), (5, 2), (3, 7)]:
            assignment = worker_assignments(shards, workers)
            flat = [s for run in assignment for s in run]
            assert flat == list(range(shards))
            for run in assignment:
                assert run == list(range(run[0], run[0] + len(run))) if run else True


PARAMS = ShardParams(
    window_quanta=3, minhash_size=2, seed=7, theta=2, use_minhash=True
)


class TestPool:
    def test_default_backend_selection(self):
        assert default_backend(1) == "serial"
        assert default_backend(4) in ("process", "thread")

    def test_worker_count_clamped_to_shards(self):
        pool = make_pool(2, 8, PARAMS, backend="serial")
        assert pool.workers == 2
        pool.close()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_ingest_and_state_round_trip(self, backend):
        pool = make_pool(3, 2, PARAMS, backend=backend)
        try:
            slices = [
                {"a": {1, 2}},
                {"b": {2, 3}},
                {"c": {3, 4}},
            ]
            updates = pool.ingest(0, slices)
            assert [u.shard for u in updates] == [0, 1, 2]
            assert updates[0].bursty == frozenset({"a"})
            answers = pool.exchange([(0, [], ["a"]), (1, [("b", "b")], [])])
            assert [a[0] for a in answers] == [0, 1]
            assert answers[0][2]["a"] == frozenset({1, 2})
            assert answers[1][1][("b", "b")] == 1.0  # intra-shard exact EC
            states = pool.export_states()
            assert [s[0] for s in states] == [0, 1, 2]
            # round-trip into a fresh pool (different backend shape)
            other = make_pool(3, 1, PARAMS, backend="serial")
            other.load_states(states)
            assert other.export_states() == states
            other.close()
        finally:
            pool.close()

    def test_empty_slices_still_slide_the_window(self):
        pool = make_pool(2, 1, PARAMS, backend="serial")
        try:
            pool.ingest(0, [{"a": {1, 2}}, {}])
            for quantum in range(1, 4):
                updates = pool.ingest(quantum, [{}, {}])
            # quantum 3 slides quantum 0 out: "a" must report emptied
            emptied = set()
            for update in updates:
                emptied |= update.emptied
            assert emptied == {"a"}
        finally:
            pool.close()

    def test_shard_state_ingest_matches_serial_index(self):
        from repro.akg.idsets import IdSetIndex

        state = ShardState(0, PARAMS)
        serial = IdSetIndex(PARAMS.window_quanta)
        for quantum, content in enumerate(
            [{"a": {1, 2}, "b": {2}}, {"a": {3}}, {}, {"b": {4, 5}}]
        ):
            state.ingest(quantum, content)
            serial.add_quantum(quantum, content)
        assert state.idsets.to_state() == serial.to_state()
