"""Property-based verification of Theorem 3 (uniqueness / consistency).

A hypothesis state machine performs arbitrary interleavings of node/edge
additions and deletions and asserts after every step that the incremental
registry equals the from-scratch global decomposition and that all internal
indexes are consistent.  This is the strongest correctness evidence in the
suite: any divergence between the local Section 5 algorithms and the global
model would be found here.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from helpers import check_decomposition
from repro.core.atoms import atoms_in_subgraph, satisfies_scp
from repro.core.maintenance import ClusterMaintainer, _glue_atoms, _glue_cycles
from repro.graph.biconnected import is_biconnected

NODE_POOL = list(range(12))


class MaintenanceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.maintainer = ClusterMaintainer()

    # ------------------------------------------------------------- helpers

    @property
    def graph(self):
        return self.maintainer.graph

    def absent_nodes(self):
        return [n for n in NODE_POOL if not self.graph.has_node(n)]

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
    @rule(data=st.data())
    def add_edge(self, data):
        u, v = data.draw(st.sampled_from(self.missing_edges()))
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

    @precondition(lambda self: len(self.absent_nodes()) > 0)
    @rule(data=st.data(), k=st.integers(0, 4))
    def add_node_with_edges(self, data, k):
        node = data.draw(st.sampled_from(self.absent_nodes()))
        others = self.present_nodes()
        if others:
            chosen = data.draw(
                st.lists(st.sampled_from(others), max_size=k, unique=True)
            )
        else:
            chosen = []
        self.maintainer.add_node_with_edges(node, {o: 1.0 for o in chosen})

    # ---------------------------------------------------------- invariants

    @invariant()
    def matches_global_oracle(self):
        check_decomposition(self.maintainer)

    @invariant()
    def registry_indexes_consistent(self):
        self.maintainer.registry.check_integrity()

    @invariant()
    def clusters_satisfy_scp_and_biconnectivity(self):
        """P1 and P2 of Section 4.3 for every live cluster."""
        for cluster in self.maintainer.registry:
            adjacency = cluster.adjacency()
            assert satisfies_scp(adjacency, cluster.edges), (
                f"cluster {cluster.cluster_id} violates SCP"
            )
            assert is_biconnected(adjacency), (
                f"cluster {cluster.cluster_id} not biconnected"
            )


MaintenanceMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestMaintenanceMachine = MaintenanceMachine.TestCase


# ------------------------------------------------------------------------
# Deletion re-glue: the edge union-find against the atom enumeration.

STRING_NODES = [f"n{i:02d}" for i in range(12)]
MIXED_NODES = [i if i % 2 else f"n{i}" for i in range(12)]


def _frozen(groups):
    return {(frozenset(nodes), frozenset(edges)) for nodes, edges in groups}


@pytest.mark.parametrize(
    "pool", [STRING_NODES, MIXED_NODES], ids=["string-nodes", "mixed-nodes"]
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_glue_cycles_equals_atom_gluing(pool, data):
    """``_glue_cycles`` never lists a cycle, yet returns exactly the groups
    the Theorem-3 oracle forms by enumerating every atom and gluing on
    shared edges — node sets included, and none for edges on no cycle."""
    nodes = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    possible = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    chosen = (
        data.draw(st.lists(st.sampled_from(possible), unique=True))
        if possible
        else []
    )
    adjacency = {}
    for u, v in chosen:  # like ``_reglue``: only nodes with an edge appear
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    groups = _glue_cycles(adjacency)
    assert _frozen(groups) == _frozen(_glue_atoms(atoms_in_subgraph(adjacency)))
    assert len(_frozen(groups)) == len(groups)  # no group reported twice
