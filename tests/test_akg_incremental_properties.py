"""Differential verification of the delta-driven AKG stage (DESIGN.md S5).

Random message streams are replayed into two complete AKG pipelines — the
fast delta-driven :class:`~repro.akg.builder.AkgBuilder` and the same builder
running on the from-scratch oracle components
(:mod:`repro.akg.oracle`) — and after **every quantum** the two worlds must
be indistinguishable: same AKG nodes, same edges with the same correlations,
same cluster decomposition (ids included), same window supports, same MinHash
sketches, and the same multiset of emitted ChangeLog events.  Any incremental
shortcut that drops, duplicates, or mistimes an update diverges here.

Three stream regimes target the distinct failure surfaces:

* **bursty** — few keywords, heavy user sets: dense graphs, constant cluster
  churn, merge/split traffic;
* **uniform** — wide shallow vocabulary: mostly sub-threshold keywords, so
  staleness expiry and lazy drops dominate;
* **adversarial re-entry** — keywords fall silent for exactly the window
  length and re-appear in the quantum their last entry expires, the
  boundary where a duplicate deque entry or double-emitted delta would hide.
"""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.akg.builder import AkgBuilder
from repro.config import DetectorConfig
from repro.core.maintenance import ClusterMaintainer
from repro.graph.dynamic_graph import edge_key

KEYWORDS = [f"k{i}" for i in range(8)]
USERS = list(range(12))
WINDOW = 3


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


def graph_snapshot(maintainer):
    graph = maintainer.graph
    nodes = frozenset(graph.nodes())
    edges = {edge_key(u, v): w for u, v, w in graph.edges()}
    clusters = {
        c.cluster_id: (frozenset(c.nodes), frozenset(c.edges))
        for c in maintainer.registry
    }
    return nodes, edges, clusters


def assert_equivalent(stream, config):
    """Replay ``stream`` into fast and oracle pipelines, diffing per quantum."""
    fast_m, oracle_m = ClusterMaintainer(), ClusterMaintainer()
    fast = AkgBuilder(config, fast_m)
    oracle = AkgBuilder(config, oracle_m, oracle=True)
    assert oracle.oracle and not fast.oracle
    for quantum, content in enumerate(stream):
        fast.process_quantum(quantum, content)
        oracle.process_quantum(quantum, content)
        fast_snap = graph_snapshot(fast_m)
        oracle_snap = graph_snapshot(oracle_m)
        assert fast_snap == oracle_snap, (
            f"AKG diverged at quantum {quantum}:\n"
            f"  fast:   {fast_snap}\n"
            f"  oracle: {oracle_snap}"
        )
        fast_events = Counter(fast_m.drain_changes().events)
        oracle_events = Counter(oracle_m.drain_changes().events)
        assert fast_events == oracle_events, (
            f"ChangeLog diverged at quantum {quantum}:\n"
            f"  fast only:   {fast_events - oracle_events}\n"
            f"  oracle only: {oracle_events - fast_events}"
        )
        vocabulary = set(fast.idsets.keywords()) | set(oracle.idsets.keywords())
        for kw in vocabulary:
            assert fast.idsets.support(kw) == oracle.idsets.support(kw), (
                f"support diverged for {kw!r} at quantum {quantum}"
            )
            assert fast.idsets.users(kw) == oracle.idsets.users(kw)
        if config.use_minhash_filter:
            sketches = fast.idsets.sketch_many(
                sorted(fast_snap[0]), fast.minhasher.p
            )
            for kw in fast_snap[0]:
                assert sketches[kw] == oracle.sketches.sketch(kw), (
                    f"sketch diverged for {kw!r} at quantum {quantum}"
                )
        fast_m.registry.check_integrity()
        fast_m.check_against_oracle()


def quantum_contents(keywords, max_users, min_keywords=0):
    return st.dictionaries(
        st.sampled_from(keywords),
        st.sets(st.sampled_from(USERS), min_size=1, max_size=max_users),
        min_size=min_keywords,
        max_size=len(keywords),
    )


BURSTY_STREAMS = st.lists(
    quantum_contents(KEYWORDS[:4], max_users=8, min_keywords=1),
    min_size=2,
    max_size=10,
)

UNIFORM_STREAMS = st.lists(
    quantum_contents(KEYWORDS, max_users=3),
    min_size=2,
    max_size=10,
)


@st.composite
def reentry_streams(draw):
    """Keywords re-appear exactly when their previous entries expire.

    A base quantum is replayed every ``WINDOW`` quanta with silence between,
    so each replay lands in the same slide that expires the previous one —
    the stale/re-enter boundary case.  A second, offset keyword group keeps
    the graph non-trivial while the first group sits at the boundary.
    """
    base_a = draw(quantum_contents(KEYWORDS[:3], max_users=8, min_keywords=1))
    base_b = draw(quantum_contents(KEYWORDS[3:6], max_users=8))
    cycles = draw(st.integers(2, 3))
    stream = []
    for _ in range(cycles):
        stream.append(base_a)
        for _ in range(WINDOW - 1):
            stream.append(dict(base_b))
        base_b = draw(quantum_contents(KEYWORDS[3:6], max_users=8))
    stream.append(base_a)
    return stream


@pytest.mark.parametrize("use_minhash", [False, True])
class TestIncrementalAkgEqualsOracle:
    @given(stream=BURSTY_STREAMS)
    @settings(max_examples=25, deadline=None)
    def test_bursty_regime(self, use_minhash, stream):
        assert_equivalent(stream, make_config(use_minhash_filter=use_minhash))

    @given(stream=UNIFORM_STREAMS)
    @settings(max_examples=25, deadline=None)
    def test_uniform_regime(self, use_minhash, stream):
        assert_equivalent(stream, make_config(use_minhash_filter=use_minhash))

    @given(stream=reentry_streams())
    @settings(max_examples=25, deadline=None)
    def test_adversarial_reentry_regime(self, use_minhash, stream):
        assert_equivalent(stream, make_config(use_minhash_filter=use_minhash))


class TestConfigSensitivity:
    """The equivalence must hold across the lifecycle parameters too."""

    @given(
        stream=UNIFORM_STREAMS,
        grace=st.integers(0, 3),
        theta=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_grace_and_theta(self, stream, grace, theta):
        assert_equivalent(
            stream,
            make_config(node_grace_quanta=grace, high_state_threshold=theta),
        )

    @given(stream=BURSTY_STREAMS, window=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_window_lengths(self, stream, window):
        assert_equivalent(stream, make_config(window_quanta=window))
