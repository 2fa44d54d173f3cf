"""Failure injection: hostile and degenerate inputs must not corrupt state.

After every abuse scenario the cluster registry's internal indexes and the
incremental/global equivalence (Theorem 3) are re-verified.
"""

import pytest

from helpers import check_decomposition
from repro.api import open_session
from repro.config import DetectorConfig
from repro.errors import EdgeNotFoundError, NodeNotFoundError, StreamError
from repro.core.maintenance import ClusterMaintainer
from repro.stream.messages import Message


def exact_config(**overrides):
    base = dict(
        quantum_size=8,
        window_quanta=3,
        high_state_threshold=2,
        ec_threshold=0.1,
        use_minhash_filter=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


class TestHostileStreams:
    def test_single_user_flood_never_clusters(self):
        """One user flooding identical messages must not create an event:
        correlation is computed over user ids, not message ids (Section 3.2)."""
        detector = open_session(exact_config())
        flood = [
            Message("flooder", tokens=("scam", "link", "click"))
            for _ in range(64)
        ]
        for start in range(0, 64, 8):
            report = detector.process_quantum(flood[start : start + 8])
            assert report.reported == []
        assert len(detector.registry) == 0

    def test_empty_token_messages(self):
        detector = open_session(exact_config())
        report = detector.process_quantum(
            [Message(f"u{i}", tokens=()) for i in range(8)]
        )
        assert report.reported == []
        assert detector.graph.num_nodes == 0

    def test_pathologically_long_message_truncated(self):
        """A 400-keyword message would inject ~80k correlated pairs into the
        graph; the message-length cap (microblog posts are short) bounds the
        damage to max_tokens_per_message keywords."""
        detector = open_session(exact_config(max_tokens_per_message=16))
        huge = tuple(f"word{i}" for i in range(400))
        report = detector.process_quantum(
            [Message(f"u{i}", tokens=huge) for i in range(8)]
        )
        detector.registry.check_integrity()
        assert report is not None
        assert detector.graph.num_nodes <= 16

    def test_unicode_and_odd_tokens(self):
        detector = open_session(exact_config())
        tokens = ("зе́мля", "ná Ísland", "🌍quake", "5.9")
        report = detector.process_quantum(
            [Message(f"u{i}", tokens=tokens) for i in range(8)]
        )
        detector.registry.check_integrity()
        assert report is not None

    def test_duplicate_tokens_in_message(self):
        detector = open_session(exact_config())
        report = detector.process_quantum(
            [Message(f"u{i}", tokens=("echo", "echo", "chamber")) for i in range(8)]
        )
        detector.registry.check_integrity()
        # duplicates collapse into one node occurrence
        assert detector.graph.num_nodes <= 2

    def test_alternating_burst_silence(self):
        """Keywords flapping in and out of burstiness must keep state exact."""
        detector = open_session(exact_config(window_quanta=2))
        loud = [Message(f"u{i}", tokens=("flap", "per", "node")) for i in range(8)]
        quiet = [Message(f"q{i}", tokens=(f"noise{i}",)) for i in range(8)]
        for round_no in range(6):
            detector.process_quantum(loud if round_no % 2 == 0 else quiet)
            check_decomposition(detector.maintainer)
            detector.registry.check_integrity()

    def test_user_id_type_mixture(self):
        detector = open_session(exact_config())
        messages = [
            Message(1, tokens=("mix", "types")),
            Message("1", tokens=("mix", "types")),
            Message((2, 3), tokens=("mix", "types")),
        ]
        report = detector.process_quantum(messages)
        assert report is not None
        # int 1 and str "1" must count as distinct users
        assert detector.builder.idsets.support("mix") == 3


class TestMaintainerMisuse:
    def test_remove_unknown_node(self):
        maintainer = ClusterMaintainer()
        with pytest.raises(NodeNotFoundError):
            maintainer.remove_node("ghost")

    def test_remove_unknown_edge(self):
        maintainer = ClusterMaintainer()
        maintainer.add_node("a")
        maintainer.add_node("b")
        with pytest.raises(EdgeNotFoundError):
            maintainer.remove_edge("a", "b")

    def test_failed_operation_leaves_state_consistent(self):
        maintainer = ClusterMaintainer()
        for n in "abc":
            maintainer.add_node(n)
        maintainer.add_edge("a", "b")
        maintainer.add_edge("b", "c")
        maintainer.add_edge("a", "c")
        with pytest.raises(EdgeNotFoundError):
            maintainer.remove_edge("a", "zzz")
        check_decomposition(maintainer)
        maintainer.registry.check_integrity()


class TestMessageValidation:
    def test_tokenless_textless_rejected(self):
        with pytest.raises(StreamError):
            Message(user_id="u1")
