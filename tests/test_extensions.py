"""Extension features: synonym pre-processing and event post-correlation
(the Section 1.1 discussion the paper leaves as future work)."""

import pytest

from repro.api import open_session
from repro.config import DetectorConfig
from repro.core.events import EventRecord, EventSnapshot
from repro.core.postprocess import (
    CorrelatedEventGroup,
    CorrelationPolicy,
    correlate_events,
)
from repro.errors import ConfigError
from repro.extract import KeywordExtractor
from repro.stream.messages import Message
from repro.text.synonyms import SynonymNormalizer
from repro.text.tokenize import tokenize


class TestSynonymNormalizer:
    def test_canonicalisation(self):
        norm = SynonymNormalizer([["earthquake", "quake", "tremor"]])
        assert norm.canonical("quake") == "earthquake"
        assert norm.canonical("tremor") == "earthquake"
        assert norm.canonical("earthquake") == "earthquake"
        assert norm.canonical("unrelated") == "unrelated"

    def test_normalize_deduplicates(self):
        norm = SynonymNormalizer([["quake", "tremor"]])
        assert norm.normalize(["tremor", "hits", "quake"]) == ["quake", "hits"]

    def test_case_insensitive_groups(self):
        norm = SynonymNormalizer([["Quake", "TREMOR"]])
        assert norm.canonical("tremor") == "quake"

    def test_group_merging(self):
        norm = SynonymNormalizer()
        norm.add_group(["a", "b"])
        norm.add_group(["c", "d"])
        norm.add_group(["b", "c"])  # bridges the two groups
        assert len({norm.canonical(w) for w in "abcd"}) == 1

    def test_single_word_group_rejected(self):
        with pytest.raises(ConfigError):
            SynonymNormalizer([["alone"]])

    def test_wrapped_tokenizer(self):
        norm = SynonymNormalizer([["earthquake", "quake"]])
        wrapped = norm.wrap_tokenizer(tokenize)
        assert wrapped("The quake struck!") == ["earthquake", "struck"]

    def test_detector_merges_synonym_streams(self):
        """Users describing the same event with synonymous words end up in
        ONE cluster once the normaliser runs — without it, two clusters."""
        config = DetectorConfig(
            quantum_size=8,
            window_quanta=4,
            high_state_threshold=2,
            ec_threshold=0.1,
            use_minhash_filter=False,
        )
        messages = []
        for u in range(4):
            messages.append(Message(f"a{u}", text="earthquake struck turkey"))
        for u in range(4):
            messages.append(Message(f"b{u}", text="quake struck turkey"))

        plain = open_session(config)
        report = plain.process_quantum(messages)
        plain_keywords = set().union(*(e.keywords for e in report.reported))
        assert {"earthquake", "quake"} <= plain_keywords  # two distinct nodes

        norm = SynonymNormalizer([["earthquake", "quake"]])
        merged = open_session(
            config,
            extractor=KeywordExtractor(tokenizer=norm.wrap_tokenizer(tokenize)),
        )
        report = merged.process_quantum(messages)
        assert len(report.reported) == 1
        assert "quake" not in report.reported[0].keywords
        assert "earthquake" in report.reported[0].keywords
        # the merged node carries the union of both user groups
        assert report.reported[0].support >= 8 + 8 + 8  # 3 keywords x 8 users


def record(event_id, start_q, end_q, keywords, rank=10.0, born=None):
    rec = EventRecord(event_id, born if born is not None else start_q)
    for q in range(start_q, end_q + 1):
        rec.snapshots.append(
            EventSnapshot(q, frozenset(keywords), rank, 20.0, 3)
        )
    return rec


class TestCorrelateEvents:
    def test_concurrent_overlapping_events_grouped(self):
        a = record(1, 0, 10, ["quake", "turkey", "struck"])
        b = record(2, 2, 9, ["turkey", "rescue", "teams"])
        groups = correlate_events([a, b])
        assert len(groups) == 1
        assert set(groups[0].event_ids) == {1, 2}
        assert "rescue" in groups[0].keywords and "quake" in groups[0].keywords

    def test_disjoint_keywords_not_grouped(self):
        a = record(1, 0, 10, ["quake", "turkey"])
        b = record(2, 0, 10, ["concert", "tickets"])
        groups = correlate_events([a, b])
        assert len(groups) == 2

    def test_temporally_disjoint_not_grouped(self):
        a = record(1, 0, 4, ["quake", "turkey"])
        b = record(2, 30, 34, ["turkey", "holiday"], born=30)
        groups = correlate_events([a, b])
        assert len(groups) == 2

    def test_birth_gap_limit(self):
        policy = CorrelationPolicy(max_birth_gap_quanta=3)
        a = record(1, 0, 30, ["quake", "turkey"])
        b = record(2, 20, 30, ["turkey", "aid"], born=20)
        assert len(correlate_events([a, b], policy)) == 2
        policy = CorrelationPolicy(max_birth_gap_quanta=30)
        assert len(correlate_events([a, b], policy)) == 1

    def test_transitive_grouping(self):
        a = record(1, 0, 10, ["quake", "turkey"])
        b = record(2, 1, 10, ["turkey", "rescue"])
        c = record(3, 1, 11, ["rescue", "teams"])
        groups = correlate_events([a, b, c])
        assert len(groups) == 1
        assert set(groups[0].event_ids) == {1, 2, 3}

    def test_groups_ordered_by_peak_rank(self):
        a = record(1, 0, 5, ["alpha", "beta"], rank=5.0)
        b = record(2, 0, 5, ["gamma", "delta"], rank=50.0)
        groups = correlate_events([a, b])
        assert groups[0].event_ids == [2]

    def test_group_metadata(self):
        a = record(1, 2, 5, ["quake", "turkey"], rank=8.0, born=2)
        b = record(2, 3, 6, ["turkey", "aid"], rank=12.0, born=3)
        group = correlate_events([a, b])[0]
        assert group.peak_rank == 12.0
        assert group.born_quantum == 2

    def test_empty_records_skipped(self):
        empty = EventRecord(9, 0)
        assert correlate_events([empty]) == []
