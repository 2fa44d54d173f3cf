"""Differential verification of the delta-driven AKG stage (DESIGN.md S5).

Random message streams are replayed into two complete AKG pipelines — the
fast delta-driven :class:`~repro.akg.builder.AkgBuilder` and the same builder
running on the from-scratch oracle components
(``oracles.ReferenceAkgBuilder``) — and after **every quantum** the two worlds must
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
  boundary where a duplicate deque entry or double-emitted delta would hide;
* **long-tailed churn** — a deterministic stream of stable keyword groups,
  a rotating fraction of which emits each quantum over a long window, plus
  a tail of fresh single-user keywords every quantum (the Section 7.4
  CKG-vs-AKG gap): most of the graph sits untouched while its window ages.
"""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from helpers import MappingAkgBuilder, check_decomposition
from oracles import ReferenceAkgBuilder
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
    fast = MappingAkgBuilder(config, fast_m)
    oracle = ReferenceAkgBuilder(config, oracle_m)
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
                sorted(fast_snap[0]), config.effective_minhash_size
            )
            for kw in fast_snap[0]:
                assert sketches[kw] == oracle.sketches.sketch(kw), (
                    f"sketch diverged for {kw!r} at quantum {quantum}"
                )
        fast_m.registry.check_integrity()
        check_decomposition(fast_m)


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


def long_tailed_churn_stream(churn, groups=40, group_size=4, noise=40):
    """Stable keyword groups, ``churn * groups`` of them emitting per
    quantum in round-robin, each with one user cohort that rotates by one
    user per round (so every appearance moves supports); plus ``noise``
    fresh single-user keywords every quantum.  One full rotation comes
    first, then ten more rounds."""
    per_round = max(1, round(churn * groups))
    rounds = -(-groups // per_round) + 10
    stream = []
    cursor = 0
    for r in range(rounds):
        content = {}
        for _ in range(per_round):
            group = cursor % groups
            users = {group * 100 + r % 3 + u for u in range(6)}
            for i in range(group_size):
                content[f"g{group}_k{i}"] = set(users)
            cursor += 1
        for i in range(noise):
            content[f"noise_{r}_{i}"] = {1_000_000 + r * 64 + i}
        stream.append(content)
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

    @pytest.mark.parametrize("churn", [0.05, 0.5])
    def test_long_tailed_churn_regime(self, use_minhash, churn):
        # the window outlives a full rotation, so no group goes stale
        assert_equivalent(
            long_tailed_churn_stream(churn),
            make_config(
                window_quanta=24,
                high_state_threshold=3,
                use_minhash_filter=use_minhash,
            ),
        )


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
