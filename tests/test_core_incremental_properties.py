"""Property-based verification of incremental ranking (DESIGN.md Section 3).

A hypothesis state machine performs arbitrary interleavings of node/edge
additions and deletions *and* node/edge weight changes, propagating the
maintainer's typed change batches into an :class:`IncrementalRanker`.  After
every step it asserts that the incremental ranks equal a from-scratch oracle
ranker's ranks exactly — the ranking counterpart of Theorem 3's decomposition
oracle in ``test_core_maintenance_properties.py``.  Any missing dirty-marking
rule (a mutation whose effect on some cluster's rank is not propagated)
diverges here.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oracles import ScratchRanker, verify_ranker
from repro.core.changelog import NodeWeightChanged
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer

NODE_POOL = list(range(10))


class IncrementalRankingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.maintainer = ClusterMaintainer()
        self.weights = {}

        def weight_fn(nodes):
            return {n: self.weights.get(n, 1.0) for n in nodes}

        self.incremental = IncrementalRanker(
            self.maintainer.registry, self.maintainer.graph, weight_fn,
        )
        self.oracle = ScratchRanker(
            self.maintainer.registry, self.maintainer.graph, weight_fn,
        )

    # ------------------------------------------------------------- helpers

    @property
    def graph(self):
        return self.maintainer.graph

    def present_nodes(self):
        return [n for n in NODE_POOL if self.graph.has_node(n)]

    def missing_edges(self):
        nodes = self.present_nodes()
        return [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if not self.graph.has_edge(u, v)
        ]

    def present_edges(self):
        return [(u, v) for u, v, _ in self.graph.edges()]

    # --------------------------------------------------------------- rules

    @rule(index=st.integers(0, len(NODE_POOL) - 1))
    def add_node(self, index):
        node = NODE_POOL[index]
        if not self.graph.has_node(node):
            self.maintainer.add_node(node)

    @precondition(lambda self: self.missing_edges())
    @rule(data=st.data(), weight=st.floats(0.1, 1.0, allow_nan=False))
    def add_edge(self, data, weight):
        u, v = data.draw(st.sampled_from(self.missing_edges()))
        self.maintainer.add_edge(u, v, weight)

    @rule(data=st.data(), size=st.integers(4, 5))
    def build_clique(self, data, size):
        """Jump straight to a dense region: deletions inside cliques are the
        states where a shrink re-glues into a single 'intact-looking'
        cluster, which single-edge growth rarely reaches in 30 steps."""
        nodes = data.draw(
            st.lists(st.sampled_from(NODE_POOL), min_size=size,
                     max_size=size, unique=True)
        )
        for n in nodes:
            self.graph.ensure_node(n)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if not self.graph.has_edge(u, v):
                    self.maintainer.add_edge(u, v)

    @precondition(lambda self: self.present_edges())
    @rule(data=st.data())
    def remove_edge(self, data):
        u, v = data.draw(st.sampled_from(self.present_edges()))
        self.maintainer.remove_edge(u, v)

    @precondition(lambda self: self.present_nodes())
    @rule(data=st.data())
    def remove_node(self, data):
        node = data.draw(st.sampled_from(self.present_nodes()))
        self.maintainer.remove_node(node)
        self.weights.pop(node, None)

    @precondition(lambda self: self.present_edges())
    @rule(data=st.data(), weight=st.floats(0.1, 1.0, allow_nan=False))
    def change_edge_weight(self, data, weight):
        """Correlation refresh: the graph's weight-listener hook records the
        delta into the changelog automatically."""
        u, v = data.draw(st.sampled_from(self.present_edges()))
        self.maintainer.set_edge_weight(u, v, weight)

    @precondition(lambda self: self.present_nodes())
    @rule(data=st.data(), weight=st.integers(1, 20))
    def change_node_weight(self, data, weight):
        """Window-support change: recorded as a typed delta, the way the
        AKG builder reports id-set slides."""
        node = data.draw(st.sampled_from(self.present_nodes()))
        old = self.weights.get(node, 1.0)
        if float(weight) == old:
            return
        self.weights[node] = float(weight)
        self.maintainer.changelog.record(
            NodeWeightChanged(node, old, float(weight))
        )

    # ---------------------------------------------------------- invariants

    @invariant()
    def incremental_ranks_equal_oracle(self):
        batch = self.maintainer.drain_changes()
        self.incremental.apply(batch)
        incremental = {
            c.cluster_id: (rank, support)
            for c, rank, support in self.incremental.rank_all()
        }
        oracle = {
            c.cluster_id: (rank, support)
            for c, rank, support in self.oracle.rank_all()
        }
        assert incremental == oracle, (
            f"incremental ranking diverged from oracle:\n"
            f"  incremental: {incremental}\n"
            f"  oracle:      {oracle}\n"
            f"  batch:       {batch.events}"
        )

    @invariant()
    def cache_is_never_stale(self):
        """Once a quantum's batch is applied, no clean cache entry is stale.

        The guarantee is per-drain (the engine drains exactly once per
        quantum), so the check only applies when no events are pending.
        """
        if self.maintainer.changelog:
            return  # un-drained mutations; staleness is expected until apply
        verify_ranker(self.incremental)


IncrementalRankingMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestIncrementalRankingMachine = IncrementalRankingMachine.TestCase
