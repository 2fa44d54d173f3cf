"""The AKG update is sized by the graph, and exact at the slide's edges.

``AkgBuilder.process_columns`` keeps the quantum's vocabulary in the id
columns of the extract stage and the window slide: Python work per quantum
is O(AKG nodes + bursty + emptied) (DESIGN.md Section 5).  The guard below
holds that down from outside — one fixed AKG, N one-off keywords beside it
— by counting ``DynamicGraph.has_node`` calls and checking that the slide
hands over no Python container.

The boundary cases replay hand-built streams into the production builder
and the from-scratch ``ReferenceAkgBuilder`` in lockstep and compare the
graph, the change-event multiset and the supports after every quantum, at
the places the column reads could slip: a node whose entity id is released
by the very slide that moves its weight to zero, a keyword that re-enters
in the slide that expires its last entry, a quantum with no keys that still
expires blocks, and a keyword that bursts, joins the graph and has its new
edges refreshed in one quantum.
"""

from collections import Counter

import numpy as np
import pytest

from helpers import MappingAkgBuilder, intern_quantum
from oracles import ReferenceAkgBuilder
from repro.akg.idsets import IdSetIndex, SlideDelta
from repro.config import DetectorConfig
from repro.core.changelog import NodeWeightChanged
from repro.core.maintenance import ClusterMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from test_akg_incremental_properties import graph_snapshot

WINDOW = 3
PLANTED = {kw: {1, 2, 3, 4, 5, 6} for kw in ("p0", "p1", "p2", "p3")}


def make_config(**overrides):
    base = dict(
        quantum_size=8,
        window_quanta=WINDOW,
        high_state_threshold=2,
        ec_threshold=0.3,
        node_grace_quanta=1,
        use_minhash_filter=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


class TestWorkSizedByGraph:
    """Guard: N one-off keywords beside a fixed AKG cost the builder no
    graph lookup — neither in the quantum they enter nor in the one whose
    slide expires them — and the slide delta no Python container at all:
    it is the two support columns."""

    def measure(self, monkeypatch, n):
        """``(calls, delta)`` — the ``has_node`` calls and the slide delta
        — of the quantum the one-offs enter and of the one they expire
        in."""
        builder = MappingAkgBuilder(
            make_config(high_state_threshold=4), ClusterMaintainer()
        )
        builder.process_quantum(0, PLANTED)
        assert builder.maintainer.graph.num_nodes == 4
        content = dict(PLANTED)
        for i in range(n):
            content[f"once{i}"] = {1000 + i}
        expiry = 1 + WINDOW
        calls = []
        has_node = DynamicGraph.has_node
        add_columns = IdSetIndex.add_columns
        deltas = []

        def counted(graph, node):
            calls.append(node)
            return has_node(graph, node)

        def captured(index, quantum, cols):
            deltas.append(add_columns(index, quantum, cols))
            return deltas[-1]

        measured = []
        for quantum in range(1, expiry + 1):
            columns = intern_quantum(
                builder.idsets, quantum, content if quantum == 1 else PLANTED
            )
            calls.clear()
            monkeypatch.setattr(DynamicGraph, "has_node", counted)
            monkeypatch.setattr(IdSetIndex, "add_columns", captured)
            stats = builder.process_columns(quantum, columns)
            monkeypatch.undo()
            assert stats.bursty_keywords == 4
            assert builder.maintainer.graph.num_nodes == 4
            if quantum in (1, expiry):
                measured.append((len(calls), deltas[-1]))
        assert builder.idsets.num_keywords == 4
        (_, entered), (_, expired) = measured
        for delta, emptied in ((entered, 0), (expired, n)):
            assert np.count_nonzero(
                (delta.before != 0) & (delta.after == 0)
            ) == emptied
        return measured

    def test_graph_lookups_do_not_grow_with_the_vocabulary(self, monkeypatch):
        (small, _), _ = self.measure(monkeypatch, 1_000)
        (large, _), _ = self.measure(monkeypatch, 20_000)
        assert small == large

    def test_expiry_lookups_do_not_grow_with_the_vocabulary(
        self, monkeypatch
    ):
        """The dead-node pass gets the nodes the slide emptied, not every
        keyword it emptied."""
        _, (small, _) = self.measure(monkeypatch, 1_000)
        _, (large, _) = self.measure(monkeypatch, 20_000)
        assert small == large

    def test_slide_delta_holds_no_vocabulary_sized_container(
        self, monkeypatch
    ):
        """Neither in the quantum the one-offs enter nor in the one that
        empties them: beside its quantum, the delta is two arrays."""
        for _, delta in self.measure(monkeypatch, 20_000):
            fields = [getattr(delta, name) for name in SlideDelta.__slots__]
            assert [type(v) for v in fields] == [int, np.ndarray, np.ndarray]


def lockstep(stream, config):
    """Replay ``stream`` into the production and the reference builder;
    after each quantum assert graph, change events and supports equal and
    yield ``(quantum, stats, events, graph)`` of the production side."""
    fast_m, ref_m = ClusterMaintainer(), ClusterMaintainer()
    fast = MappingAkgBuilder(config, fast_m)
    ref = ReferenceAkgBuilder(config, ref_m)
    vocabulary = {kw for content in stream for kw in content}
    for quantum, content in enumerate(stream):
        stats = fast.process_quantum(quantum, content)
        ref.process_quantum(quantum, content)
        assert graph_snapshot(fast_m) == graph_snapshot(ref_m), quantum
        events = Counter(fast_m.drain_changes().events)
        assert events == Counter(ref_m.drain_changes().events), quantum
        for kw in vocabulary:
            assert fast.idsets.support(kw) == ref.idsets.support(kw), kw
        yield quantum, stats, events, fast_m.graph


def weight_moves(events):
    return {
        (e.node, e.old, e.new)
        for e in events
        if isinstance(e, NodeWeightChanged)
    }


TRIANGLE = {"a": {1, 2, 3}, "b": {1, 2, 3}, "c": {1, 2, 3}}
QUIET = {"x": {9}}


@pytest.mark.parametrize("use_minhash", [False, True])
class TestSlideBoundaries:
    def test_node_emptied_by_the_slide_moves_to_zero_then_goes(
        self, use_minhash
    ):
        """The triangle's last entries expire at quantum 3: each node's
        ``(3, 0)`` weight move is recorded although the slide released its
        entity id, and then the node is removed as stale."""
        stream = [TRIANGLE, QUIET, QUIET, QUIET]
        config = make_config(use_minhash_filter=use_minhash)
        for quantum, stats, events, graph in lockstep(stream, config):
            if quantum == 3:
                assert weight_moves(events) == {
                    ("a", 3, 0),
                    ("b", 3, 0),
                    ("c", 3, 0),
                }
                assert stats.nodes_removed_stale == 3
                assert graph.num_nodes == 0

    @pytest.mark.parametrize(
        "users, moves",
        [({4, 5}, {("a", 3, 2)}), ({1, 2, 3}, set())],
        ids=["new-users", "same-users"],
    )
    def test_keyword_reenters_as_its_last_entry_expires(
        self, use_minhash, users, moves
    ):
        """``a`` comes back in the quantum that expires its only entry: it
        is not emptied and stays a node; its weight moves only if its user
        set does."""
        stream = [TRIANGLE, QUIET, QUIET, {"a": users, "x": {9}}]
        config = make_config(use_minhash_filter=use_minhash)
        for quantum, stats, events, graph in lockstep(stream, config):
            if quantum == 3:
                moved = {m for m in weight_moves(events) if m[0] == "a"}
                assert moved == moves
                assert graph.has_node("a")
                assert not graph.has_node("b") and not graph.has_node("c")

    @pytest.mark.parametrize(
        "last", [{}, {"z": set()}], ids=["no-keys", "empty-sets"]
    )
    def test_quantum_without_keys_still_expires(self, use_minhash, last):
        """A quantum that contributes no pair still slides the window."""
        stream = [TRIANGLE, QUIET, QUIET, last]
        config = make_config(use_minhash_filter=use_minhash)
        for quantum, stats, events, graph in lockstep(stream, config):
            if quantum == 3:
                assert ("a", 3, 0) in weight_moves(events)
                assert stats.bursty_keywords == 0
                assert graph.num_nodes == 0

    def test_new_bursty_node_has_its_new_edges_refreshed(self, use_minhash):
        """``d`` bursts for the first time at quantum 1: it enters the
        graph, gains an edge to the bursty ``a``, and the refresh of that
        quantum covers the new node's edges too."""
        stream = [TRIANGLE, {"a": {1, 2, 3}, "d": {1, 2, 3}}]
        config = make_config(use_minhash_filter=use_minhash)
        for quantum, stats, events, graph in lockstep(stream, config):
            if quantum == 0:
                assert stats.nodes_added == 3 and stats.edges_added == 3
                assert stats.edges_refreshed == 3
            if quantum == 1:
                assert stats.nodes_added == 1
                assert graph.has_edge("a", "d")
                # a-b, a-c, a-d: every edge of a node seen this quantum
                assert stats.edges_refreshed == 3
