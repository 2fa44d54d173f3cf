"""Evaluation harness: matching, filtering, metrics, quality, reporting."""

import pytest

from repro.config import DetectorConfig
from repro.core.events import EventRecord, EventSnapshot
from repro.datasets.events import GroundTruthEvent
from repro.eval.filtering import reported_records
from repro.eval.matching import MatchCriteria, match_events
from repro.eval.metrics import precision_recall
from repro.eval.quality import quality_stats
from repro.eval.reporting import render_grid, render_table
from repro.text.pos import NounTagger


def record(event_id, quanta_keywords, ranks=None, born=None):
    """EventRecord from [(quantum, keywords)] plus optional ranks."""
    rec = EventRecord(event_id, born if born is not None else quanta_keywords[0][0])
    for i, (quantum, keywords) in enumerate(quanta_keywords):
        rank = ranks[i] if ranks else 10.0
        rec.snapshots.append(
            EventSnapshot(quantum, frozenset(keywords), rank, 20.0, 4)
        )
    return rec


def truth(event_id, keywords, start=0, end=4000, spurious=False, rate=0.1):
    return GroundTruthEvent(
        event_id=event_id,
        keywords=tuple(keywords),
        start_message=start,
        end_message=end,
        total_messages=100,
        n_users=30,
        headlined=False,
        headline_message=None,
        spurious=spurious,
        peak_keyword_rate=rate,
    )


QUANTUM, WINDOW = 160, 30


class TestMatching:
    def test_basic_match(self):
        records = [record(1, [(0, ["a", "b", "c"])])]
        truths = [truth("e1", ["a", "b", "c", "d"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        assert match.detected_to_truth == {1: "e1"}
        assert match.truth_to_detected == {"e1": [1]}

    def test_min_overlap_enforced(self):
        records = [record(1, [(0, ["a", "x", "y"])])]
        truths = [truth("e1", ["a", "b", "c"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        assert match.detected_to_truth == {}

    def test_cluster_fraction_blocks_giant_clusters(self):
        giant = record(1, [(0, [f"w{i}" for i in range(18)] + ["a", "b"])])
        truths = [truth("e1", ["a", "b", "c"])]
        match = match_events(
            giant and [giant], truths, QUANTUM, WINDOW,
            MatchCriteria(min_overlap=2, min_cluster_fraction=0.34),
        )
        assert match.detected_to_truth == {}

    def test_temporal_overlap_required(self):
        # event lives at messages 0-1000; record first seen at quantum 60
        records = [record(1, [(60, ["a", "b", "c"])])]
        truths = [truth("e1", ["a", "b", "c"], start=0, end=1000)]
        match = match_events(records, truths, QUANTUM, window_quanta=2)
        assert match.detected_to_truth == {}

    def test_best_overlap_wins(self):
        records = [record(1, [(0, ["a", "b", "c", "d"])])]
        truths = [
            truth("e1", ["a", "b", "x"]),
            truth("e2", ["a", "b", "c", "d"]),
        ]
        match = match_events(records, truths, QUANTUM, WINDOW)
        assert match.detected_to_truth[1] == "e2"

    def test_evolution_keywords_count(self):
        """Matching uses everything the event ever contained."""
        records = [record(1, [(0, ["a", "b"]), (1, ["b", "c"])])]
        truths = [truth("e1", ["a", "b", "c"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        assert match.detected_to_truth == {1: "e1"}

    def test_first_detection_quantum(self):
        records = [
            record(1, [(5, ["a", "b", "c"])]),
            record(2, [(3, ["a", "b", "d"])]),
        ]
        truths = [truth("e1", ["a", "b", "c", "d"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        assert match.first_detection_quantum["e1"] == 3
        assert match.first_detection_message("e1", QUANTUM) == 4 * QUANTUM


class TestFiltering:
    def config(self, **overrides):
        base = dict(high_state_threshold=4, ec_threshold=0.2)
        base.update(overrides)
        return DetectorConfig(**base)

    def test_rank_floor(self):
        # floor = 4 * 1.4 = 5.6
        low = record(1, [(0, ["a", "b", "c"]), (1, ["a", "b", "c", "d"])], ranks=[1.0, 2.0])
        high = record(2, [(0, ["x", "y", "z"]), (1, ["x", "y", "z", "w"])], ranks=[1.0, 9.0])
        out = reported_records([low, high], self.config())
        assert [r.event_id for r in out] == [2]

    def test_noun_filter(self):
        tagger = NounTagger({"a": "verb", "b": "adj", "x": "noun", "y": "verb",
                             "a2": "verb", "x2": "verb"})
        rec1 = record(1, [(0, ["a", "b"]), (1, ["a", "b", "a2"])], ranks=[9.0, 10.0])
        rec2 = record(2, [(0, ["x", "y"]), (1, ["x", "y", "x2"])], ranks=[9.0, 10.0])
        out = reported_records([rec1, rec2], self.config(), tagger)
        assert [r.event_id for r in out] == [2]

    def test_posthoc_decay_rule(self):
        decaying = record(1, [(q, ["a", "b", "c"]) for q in range(4)],
                          ranks=[12.0, 10.0, 8.0, 6.0])
        evolving = record(2, [(0, ["x", "y", "z"]), (1, ["x", "y", "z", "w"])],
                          ranks=[12.0, 10.0])
        out = reported_records([decaying, evolving], self.config())
        assert [r.event_id for r in out] == [2]
        out_all = reported_records(
            [decaying, evolving], self.config(), apply_posthoc=False
        )
        assert len(out_all) == 2

    def test_empty_records_skipped(self):
        empty = EventRecord(1, 0)
        assert reported_records([empty], self.config()) == []


class TestMetrics:
    def test_perfect_run(self):
        records = [record(1, [(0, ["a", "b", "c"])])]
        truths = [truth("e1", ["a", "b", "c"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        pr = precision_recall(records, match, truths, QUANTUM, theta=4)
        assert pr.precision == 1.0
        assert pr.recall == 1.0
        assert pr.f1 == 1.0

    def test_spurious_detection_hurts_precision(self):
        records = [
            record(1, [(0, ["a", "b", "c"])]),
            record(2, [(0, ["s1", "s2", "s3"])]),
        ]
        truths = [
            truth("e1", ["a", "b", "c"]),
            truth("spur", ["s1", "s2", "s3"], spurious=True),
        ]
        match = match_events(records, truths, QUANTUM, WINDOW)
        pr = precision_recall(records, match, truths, QUANTUM, theta=4)
        assert pr.precision == 0.5
        assert pr.recall == 1.0

    def test_unmatched_detection_hurts_precision(self):
        records = [record(1, [(0, ["junk1", "junk2", "junk3"])])]
        truths = [truth("e1", ["a", "b", "c"])]
        match = match_events(records, truths, QUANTUM, WINDOW)
        pr = precision_recall(records, match, truths, QUANTUM, theta=4)
        assert pr.precision == 0.0
        assert pr.recall == 0.0

    def test_undiscoverable_events_excluded_from_recall(self):
        """The paper's 27 sub-threshold headline events are not misses."""
        records = [record(1, [(0, ["a", "b", "c"])])]
        truths = [
            truth("e1", ["a", "b", "c"], rate=0.1),
            truth("tiny", ["t1", "t2"], rate=0.001),  # 0.16 < theta at 160
        ]
        match = match_events(records, truths, QUANTUM, WINDOW)
        pr = precision_recall(records, match, truths, QUANTUM, theta=4)
        assert pr.n_truth_discoverable == 1
        assert pr.recall == 1.0

    def test_f1_zero_when_empty(self):
        match = match_events([], [], QUANTUM, WINDOW)
        pr = precision_recall([], match, [], QUANTUM, theta=4)
        assert pr.f1 == 0.0


class TestQuality:
    def test_stats(self):
        records = [
            record(1, [(0, ["a", "b", "c"]), (1, ["a", "b", "c", "d"])],
                   ranks=[10.0, 20.0]),
            record(2, [(0, ["x", "y"])], ranks=[8.0]),
        ]
        stats = quality_stats(records)
        assert stats.n_events == 2
        assert stats.avg_cluster_size == pytest.approx((3.5 + 2) / 2)
        assert stats.avg_rank == pytest.approx((15.0 + 8.0) / 2)
        assert stats.avg_peak_rank == pytest.approx(14.0)

    def test_empty(self):
        stats = quality_stats([])
        assert stats.n_events == 0
        assert stats.avg_rank == 0.0


class TestReporting:
    def test_render_table(self):
        out = render_table(
            ["Scheme", "P"], [["SCP", 0.911], ["BC", 0.795]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert set(lines[2]) <= {"-", " "}  # header rule
        assert "SCP" in lines[3] and "0.911" in lines[3]

    def test_render_grid(self):
        out = render_grid(
            "gamma", [0.1, 0.2], "delta", [80, 160],
            [[0.9, 0.8], [0.7, 0.6]],
        )
        assert "gamma" in out and "80" in out and "0.900" in out

    def test_number_formats(self):
        out = render_table(["x"], [[12345.6], [0.123456], [42]])
        assert "12,346" in out
        assert "0.123" in out
        assert "42" in out
