"""End-to-end detector behaviour on controlled micro-streams."""

import math
from dataclasses import replace

from oracles import ReferenceAkgBuilder, oracle_session
from repro.api import open_session
from repro.config import DetectorConfig
from repro.core.ranking import minimum_rank
from repro.datasets.figure1 import figure1_messages
from repro.stream.messages import Message
from repro.text.pos import NounTagger


def exact_config(**overrides):
    base = dict(
        quantum_size=6,
        window_quanta=5,
        high_state_threshold=2,
        ec_threshold=0.1,
        use_minhash_filter=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def burst(keywords, users, quantum_size=6):
    """Messages where each user posts all keywords (max correlation)."""
    return [Message(f"u{u}", tokens=tuple(keywords)) for u in users]


class TestFigure1Scenario:
    def test_cluster_discovered_and_evolves(self):
        """The paper's running example: the earthquake cluster forms, then
        '5.9' joins it when the window slides."""
        detector = open_session(exact_config())
        initial, update = figure1_messages()
        report1 = detector.process_quantum(initial)
        assert len(report1.reported) == 1
        keywords1 = report1.reported[0].keywords
        assert {"earthquake", "struck", "eastern", "turkey"} <= keywords1
        # bursty but spatially weak words stay out of the cluster
        assert "massive" not in keywords1
        assert "moderate" not in keywords1

        report2 = detector.process_quantum(update)
        assert len(report2.reported) >= 1
        top = report2.top(1)[0]
        assert "5.9" in top.keywords
        assert top.event_id == report1.reported[0].event_id  # same event

    def test_event_tracker_records_evolution(self):
        detector = open_session(exact_config())
        initial, update = figure1_messages()
        detector.process_quantum(initial)
        detector.process_quantum(update)
        records = detector.tracker.all_events()
        main = max(records, key=lambda r: len(r.all_keywords))
        assert main.evolved()
        assert "5.9" in main.all_keywords


class TestDetectorLifecycle:
    def test_cluster_dies_when_stale(self):
        config = exact_config(window_quanta=2)
        detector = open_session(config)
        detector.process_quantum(burst(["alpha", "beta", "gamma"], range(6)))
        assert len(detector.registry) == 1
        noise = [
            Message(f"n{i}", tokens=(f"w{i}a", f"w{i}b")) for i in range(6)
        ]
        detector.process_quantum(noise)
        report = detector.process_quantum(
            [Message(f"m{i}", tokens=(f"v{i}a",)) for i in range(6)]
        )
        assert len(detector.registry) == 0
        assert report.dead_event_ids

    def test_quantum_boundaries_via_process_message(self):
        detector = open_session(exact_config(quantum_size=3))
        messages = burst(["a1", "b1", "c1"], range(3))
        reports = [detector.ingest(m) for m in messages]
        assert reports[:2] == [None, None]
        assert reports[2] is not None
        assert reports[2].quantum == 0

    def test_partial_final_quantum_via_stream(self):
        detector = open_session(exact_config(quantum_size=4))
        messages = burst(["a1", "b1", "c1"], range(6))
        reports = list(detector.ingest_many(messages, flush=True))
        assert len(reports) == 2
        assert reports[1].messages_processed == 2

    def test_throughput_accounting(self):
        detector = open_session(exact_config())
        detector.process_quantum(burst(["a1", "b1"], range(6)))
        assert detector.total_messages == 6
        assert detector.throughput() > 0


class TestReportFilters:
    def test_rank_floor_suppresses_weak_clusters(self):
        """The Section 7.2.2 floor is the paper's minimum rank of a
        qualifying cluster: an entry at it is reported, one just below it
        is suppressed."""
        config = exact_config()
        detector = open_session(config)
        report = detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        [event] = report.reported
        floor = minimum_rank(config.high_state_threshold, config.ec_threshold)
        passes = detector.report_index.predicate
        assert passes(replace(event, rank=floor))
        assert not passes(replace(event, rank=math.nextafter(floor, 0.0)))

    def test_noun_filter(self):
        tagger = NounTagger({"quickly": "adv", "running": "verb", "slowly": "adv"})
        detector = open_session(exact_config(), noun_tagger=tagger)
        report = detector.process_quantum(
            burst(["quickly", "running", "slowly"], range(6))
        )
        assert report.reported == []
        assert len(report.suppressed) == 1

    def test_noun_filter_disabled(self):
        tagger = NounTagger({"quickly": "adv", "running": "verb", "slowly": "adv"})
        detector = open_session(
            exact_config(require_noun=False), noun_tagger=tagger
        )
        report = detector.process_quantum(
            burst(["quickly", "running", "slowly"], range(6))
        )
        assert len(report.reported) == 1


class TestSpatialCorrelation:
    def test_temporally_but_not_spatially_correlated_words_unclustered(self):
        """Two bursts from disjoint user groups never share an edge."""
        detector = open_session(exact_config())
        messages = burst(["a1", "b1", "c1"], range(3)) + burst(
            ["x1", "y1", "z1"], range(10, 13)
        )
        report = detector.process_quantum(messages)
        keyword_sets = [set(e.keywords) for e in report.reported]
        for keywords in keyword_sets:
            assert not (
                keywords & {"a1", "b1", "c1"} and keywords & {"x1", "y1", "z1"}
            )

    def test_user_level_spatiality_spans_messages(self):
        """Keywords of one user may be spread over several messages within a
        quantum and still correlate (Section 3.2)."""
        detector = open_session(exact_config())
        messages = []
        for u in range(3):
            messages.append(Message(f"u{u}", tokens=("storm", "warning")))
            messages.append(Message(f"u{u}", tokens=("coast", "warning")))
        report = detector.process_quantum(messages)
        assert len(report.reported) == 1
        assert report.reported[0].keywords == {"storm", "warning", "coast"}


class TestStagedPipeline:
    def test_per_stage_timings_populated(self):
        detector = open_session(exact_config())
        report = detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        timings = report.timings.as_dict()
        assert set(timings) == {
            "extract", "akg_update", "maintain", "propagate", "rank",
            "report", "slide", "sketch", "pairing", "correlate",
        }
        assert all(t >= 0.0 for t in timings.values())
        assert report.timings.total <= report.elapsed_seconds
        assert detector.total_timings.total > 0.0

    def test_change_and_dirty_counters(self):
        detector = open_session(exact_config())
        report = detector.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert report.changes > 0          # cluster creation was logged
        assert report.dirty_clusters == 1  # the new cluster
        assert report.ranked_clusters == 1

    def test_stable_cluster_served_from_cache(self):
        """A cluster whose support and correlations are unchanged between
        quanta must not be re-ranked — the heart of the incremental claim."""
        detector = open_session(exact_config())
        messages = burst(["a1", "b1", "c1"], range(6))
        detector.process_quantum(messages)
        report = detector.process_quantum(list(messages))
        assert report.ranked_clusters == 1
        assert report.rank_cache_hits == 1

    def test_incremental_matches_oracle_end_to_end(self):
        """Whole-stream parity: the incremental pipeline reports exactly what
        the from-scratch oracle pipeline reports, quantum by quantum."""
        def stream():
            quanta = [
                burst(["a1", "b1", "c1"], range(6)),
                burst(["a1", "b1", "c1", "d1"], range(4)),
                [Message(f"n{i}", tokens=(f"w{i}a", f"w{i}b")) for i in range(6)],
                burst(["x1", "y1", "z1"], range(5)),
                burst(["a1", "b1"], range(3)) + burst(["x1", "y1", "z1"], range(5)),
                [Message(f"m{i}", tokens=(f"v{i}a",)) for i in range(6)],
            ]
            return quanta

        incremental = open_session(exact_config(window_quanta=3))
        oracle = oracle_session(
            exact_config(window_quanta=3), akg=False, ranking=True
        )
        for batch in stream():
            a = incremental.process_quantum(batch)
            b = oracle.process_quantum(list(batch))
            key = lambda e: (e.event_id, e.keywords, e.rank, e.support)
            assert [key(e) for e in a.reported] == [key(e) for e in b.reported]
            assert [key(e) for e in a.suppressed] == [key(e) for e in b.suppressed]
            assert a.rank_cache_hits >= 0 and b.rank_cache_hits == 0

    def test_oracle_akg_matches_fast_akg_end_to_end(self):
        """Whole-stream parity for the AKG stage: the delta-driven builder
        and the from-scratch oracle builder report identical events."""
        def stream():
            return [
                burst(["a1", "b1", "c1"], range(6)),
                burst(["a1", "b1", "c1", "d1"], range(4)),
                [Message(f"n{i}", tokens=(f"w{i}a", f"w{i}b")) for i in range(6)],
                burst(["x1", "y1", "z1"], range(5)),
                burst(["a1", "b1"], range(3)) + burst(["x1", "y1", "z1"], range(5)),
                [Message(f"m{i}", tokens=(f"v{i}a",)) for i in range(6)],
                burst(["a1", "b1", "c1"], range(6)),
            ]

        fast = open_session(exact_config(window_quanta=3))
        oracle = oracle_session(exact_config(window_quanta=3))
        assert not isinstance(fast.builder, ReferenceAkgBuilder)
        assert isinstance(oracle.builder, ReferenceAkgBuilder)
        for batch in stream():
            a = fast.process_quantum(batch)
            b = oracle.process_quantum(list(batch))
            key = lambda e: (e.event_id, e.keywords, e.rank, e.support)
            assert sorted(map(key, a.reported)) == sorted(map(key, b.reported))
            assert sorted(map(key, a.suppressed)) == sorted(map(key, b.suppressed))
            assert set(fast.graph.nodes()) == set(oracle.graph.nodes())

    def test_top_k_uses_rank_order(self):
        detector = open_session(exact_config())
        report = detector.process_quantum(
            burst(["a1", "b1", "c1"], range(6))
            + burst(["x1", "y1", "z1"], range(10, 18))
        )
        top = report.top(1)
        assert len(top) == 1
        assert top[0].rank == max(e.rank for e in report.reported)
        assert report.top(0) == []
        assert len(report.top(99)) == len(report.reported)

