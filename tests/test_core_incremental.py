"""IncrementalRanker: cache behaviour, dirt propagation, oracle parity."""

import pytest

from oracles import ScratchRanker, verify_ranker
from repro.core.changelog import NodeWeightChanged
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer


@pytest.fixture
def maintainer():
    return ClusterMaintainer()


def build(maintainer, edges):
    for u, v in edges:
        maintainer.graph.ensure_node(u)
        maintainer.graph.ensure_node(v)
        maintainer.add_edge(u, v)
    return maintainer


def make_rankers(maintainer, weights):
    """An incremental ranker and a from-scratch oracle over shared state."""

    def weight_fn(nodes):
        return {n: weights.get(n, 1.0) for n in nodes}

    incremental = IncrementalRanker(
        maintainer.registry, maintainer.graph, weight_fn,
    )
    oracle = ScratchRanker(maintainer.registry, maintainer.graph, weight_fn)
    return incremental, oracle


def ranks_of(ranker):
    return {c.cluster_id: (r, s) for c, r, s in ranker.rank_all()}


class TestIncrementalRanking:
    def test_matches_oracle_after_build(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"),
                           ("d", "e"), ("c", "e")])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)

    def test_unchanged_clusters_served_from_cache(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        incremental, _ = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        assert incremental.stats.recomputed == 1
        incremental.apply(maintainer.drain_changes())  # empty batch
        incremental.rank_all()
        assert incremental.stats.recomputed == 0
        assert incremental.stats.cache_hits == 1

    def test_node_weight_delta_dirties_only_containing_cluster(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c"),
                           ("x", "y"), ("y", "z"), ("x", "z")])
        weights = {}
        incremental, oracle = make_rankers(maintainer, weights)
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()

        weights["a"] = 5.0
        maintainer.changelog.record(NodeWeightChanged("a", 1.0, 5.0))
        dirty = incremental.apply(maintainer.drain_changes())
        abc = next(iter(maintainer.registry.clusters_of_node("a")))
        assert dirty == {abc}
        assert ranks_of(incremental) == ranks_of(oracle)
        assert incremental.stats.recomputed == 1
        assert incremental.stats.cache_hits == 1  # the xyz triangle

    def test_edge_weight_delta_dirties_owner(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c"),
                           ("x", "y"), ("y", "z"), ("x", "z")])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        before = ranks_of(incremental)

        maintainer.set_edge_weight("a", "b", 0.25)  # listener records delta
        incremental.apply(maintainer.drain_changes())
        after = ranks_of(incremental)
        abc = maintainer.registry.cluster_of_edge("a", "b")
        xyz = maintainer.registry.cluster_of_edge("x", "y")
        assert after[abc] != before[abc]
        assert after[xyz] == before[xyz]
        assert after == ranks_of(oracle)

    def test_dissolve_evicts_cache_entry(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()

        maintainer.remove_edge("a", "b")  # triangle dissolves
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle) == {}
        assert not incremental._cache

    def test_edge_removal_without_split_still_dirties(self, maintainer):
        """Regression: deleting one K4 edge leaves a single glued cluster
        (two triangles sharing an edge), so the re-glue confirms it
        "intact" — but it lost an edge and its rank changed, so an event
        must still be emitted or the cache serves a stale rank."""
        build(maintainer, [("a", "b"), ("a", "c"), ("a", "d"),
                           ("b", "c"), ("b", "d"), ("c", "d")])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()

        maintainer.remove_edge("a", "b")
        assert len(maintainer.registry) == 1  # no split happened
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)

    def test_node_removal_without_split_still_dirties(self, maintainer):
        """Same hole via NodeDeletion: K5 minus a node is a K4 that re-glues
        into a single unchanged-looking (post-release) cluster."""
        nodes = ["a", "b", "c", "d", "e"]
        build(maintainer, [(u, v) for i, u in enumerate(nodes)
                           for v in nodes[i + 1:]])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()

        maintainer.remove_node("e")
        assert len(maintainer.registry) == 1
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)

    def test_split_rank_parity(self, maintainer):
        # two triangles joined at a shared edge form one cluster; deleting a
        # bridge-side edge splits it
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c"),
                           ("b", "d"), ("c", "d")])
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()

        maintainer.remove_edge("a", "b")
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)

    def test_verify_against_oracle_passes_when_clean(self, maintainer):
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        incremental, _ = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        verify_ranker(incremental)

    def test_rank_stage_work_scales_with_dirty_only(self, maintainer):
        """ROADMAP regression: the ranked-result list is maintained in
        place, so a quantum that dirties one cluster performs exactly one
        cluster visit and one weight lookup — no O(live clusters) sweep."""
        n_clusters = 40
        for c in range(n_clusters):
            nodes = [f"k{c}_{i}" for i in range(3)]
            for n in nodes:
                maintainer.graph.ensure_node(n)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    maintainer.add_edge(u, v, 0.5)
        weights = {}
        weight_calls = []

        def weight_fn(nodes):
            weight_calls.append(set(nodes))
            return {n: weights.get(n, 1.0) for n in nodes}

        incremental = IncrementalRanker(
            maintainer.registry, maintainer.graph, weight_fn,
        )
        oracle = ScratchRanker(maintainer.registry, maintainer.graph, weight_fn)
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()  # warm: every cluster computed once
        assert incremental.stats.recomputed == n_clusters

        weight_calls.clear()
        weights["k7_0"] = 9.0
        maintainer.changelog.record(NodeWeightChanged("k7_0", 1.0, 9.0))
        incremental.apply(maintainer.drain_changes())
        ranked = incremental.rank_all()
        stats = incremental.stats
        assert stats.dirty_processed == 1
        assert stats.recomputed == 1
        assert stats.ranked == n_clusters
        assert stats.cache_hits == n_clusters - 1
        # the one dirty cluster's nodes are the only weight lookups made
        assert weight_calls == [{"k7_0", "k7_1", "k7_2"}]
        assert {c.cluster_id: (r, s) for c, r, s in ranked} == ranks_of(oracle)

        # a no-change quantum performs zero per-cluster work
        weight_calls.clear()
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        assert incremental.stats.dirty_processed == 0
        assert incremental.stats.recomputed == 0
        assert weight_calls == []

    def test_cluster_birth_and_death_drive_result_list(self, maintainer):
        """Without a registry sweep, list membership must be driven purely
        by dirty events: a cluster that is born, grows and dies enters,
        is refreshed in, and leaves the maintained results."""
        incremental, oracle = make_rankers(maintainer, {})
        assert ranks_of(incremental) == ranks_of(oracle) == {}
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)
        assert len(ranks_of(incremental)) == 1
        # grow the triangle into a K4: the same entry is recomputed
        maintainer.graph.ensure_node("d")
        for other in ("a", "b", "c"):
            maintainer.add_edge("d", other)
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle)
        assert len(ranks_of(incremental)) == 1
        # remove two nodes: what is left is no cycle, so the cluster dies
        maintainer.remove_node("d")
        maintainer.remove_node("c")
        incremental.apply(maintainer.drain_changes())
        assert ranks_of(incremental) == ranks_of(oracle) == {}

    def test_output_order_stable_under_evict_and_reenter(self, maintainer):
        """An entry recomputed after a shrink and a regrowth must not
        migrate to the end of the returned ranking: both modes order by
        cluster id, so tie-ranked events downstream are emitted
        identically."""
        nodes1 = ["a", "b", "c", "d"]
        nodes2 = ["w", "x", "y", "z"]
        for group in (nodes1, nodes2):
            for n in group:
                maintainer.graph.ensure_node(n)
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    maintainer.add_edge(u, v)
        incremental, oracle = make_rankers(maintainer, {})
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        # cluster 1 shrinks to a triangle and regrows into a K4
        maintainer.remove_node("d")
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        maintainer.graph.ensure_node("d")
        for other in ("a", "b", "c"):
            maintainer.add_edge("d", other)
        incremental.apply(maintainer.drain_changes())
        inc_ids = [c.cluster_id for c, _, _ in incremental.rank_all()]
        ora_ids = [c.cluster_id for c, _, _ in oracle.rank_all()]
        assert inc_ids == ora_ids == sorted(inc_ids)

    def test_ranker_over_prepopulated_registry_ranks_without_apply(self, maintainer):
        """A ranker constructed after the world was built must rank the
        existing clusters on its first rank_all, even with no batch applied
        — pre-existing clusters are seeded dirty at construction."""
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        maintainer.drain_changes()  # events consumed by nobody
        incremental, oracle = make_rankers(maintainer, {})
        assert ranks_of(incremental) == ranks_of(oracle)
        assert len(ranks_of(incremental)) == 1

    def test_verify_against_oracle_detects_staleness(self, maintainer):
        """An un-propagated weight change must trip the verifier — this is
        the guard that the dirty-marking rules are load-bearing."""
        build(maintainer, [("a", "b"), ("b", "c"), ("a", "c")])
        weights = {}
        incremental, _ = make_rankers(maintainer, weights)
        incremental.apply(maintainer.drain_changes())
        incremental.rank_all()
        weights["a"] = 99.0  # mutate weights without recording a delta
        with pytest.raises(AssertionError):
            verify_ranker(incremental)
