"""End-to-end integration: synthetic traces through runner, eval, comparison.

These are the slowest tests in the suite (a few seconds total); they verify
the properties the benchmarks rely on, at reduced scale.
"""

import pytest

from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.headlines import headlines_for_trace
from repro.datasets.traces import (
    build_es_trace,
    build_ground_truth_trace,
    build_tw_trace,
)
from repro.eval.comparison import compare_schemes
from repro.eval.runner import evaluate_run, run_detector
from repro.text.pos import NounTagger


@pytest.fixture(scope="module")
def tw_trace():
    return build_tw_trace(total_messages=10_000, n_events=6, seed=7)


@pytest.fixture(scope="module")
def tw_run(tw_trace):
    return run_detector(tw_trace, DetectorConfig())


class TestDetectionQuality:
    def test_finds_most_discoverable_events(self, tw_trace, tw_run):
        summary = evaluate_run(tw_run, tw_trace)
        assert summary.pr.recall >= 0.7
        assert summary.pr.precision >= 0.6

    def test_quality_in_paper_band(self, tw_trace, tw_run):
        summary = evaluate_run(tw_run, tw_trace)
        assert 3.0 <= summary.quality.avg_cluster_size <= 12.0

    def test_akg_much_smaller_than_vocabulary(self, tw_trace, tw_run):
        # the trace touches thousands of distinct words; the AKG holds tens
        assert tw_run.peak_akg_nodes < 250

    def test_run_bookkeeping(self, tw_trace, tw_run):
        assert tw_run.messages_processed == tw_trace.total_messages
        assert tw_run.quanta == (tw_trace.total_messages + 159) // 160
        assert tw_run.throughput > 0


class TestParameterSensitivityShape:
    """The headline trends of Figures 7-10 at reduced scale."""

    @pytest.mark.parametrize("trace_builder", [build_tw_trace])
    def test_recall_increases_with_quantum_size(self, trace_builder):
        trace = trace_builder(total_messages=12_000, n_events=8, seed=13)
        recalls = []
        for quantum in (80, 240):
            config = DetectorConfig(quantum_size=quantum)
            summary = evaluate_run(run_detector(trace, config), trace)
            recalls.append(summary.pr.recall)
        assert recalls[1] >= recalls[0]

    def test_recall_decreases_with_gamma(self):
        trace = build_tw_trace(total_messages=12_000, n_events=8, seed=13)
        recalls = []
        for gamma in (0.10, 0.25):
            config = DetectorConfig(ec_threshold=gamma)
            summary = evaluate_run(run_detector(trace, config), trace)
            recalls.append(summary.pr.recall)
        assert recalls[0] >= recalls[1]


class TestGroundTruthScenario:
    @pytest.fixture(scope="class")
    def gt(self):
        trace = build_ground_truth_trace(
            total_messages=15_000,
            n_headline_discoverable=8,
            n_headline_subthreshold=6,
            n_local_events=10,
            n_spurious=2,
            seed=3,
        )
        run = run_detector(trace, DetectorConfig())
        return trace, run

    def test_subthreshold_headlines_not_counted_against_recall(self, gt):
        trace, run = gt
        summary = evaluate_run(run, trace)
        subs = [e for e in trace.ground_truth if e.event_id.startswith("gt-sub")]
        assert len(subs) == 6
        discoverable_ids = {
            e.event_id
            for e in trace.ground_truth
            if not e.spurious and e.discoverable(160, 4)
        }
        assert not any(e.event_id in discoverable_ids for e in subs)
        assert summary.pr.recall >= 0.7

    def test_local_events_found_beyond_headlines(self, gt):
        """The paper found ~6x more events than Google News carried."""
        trace, run = gt
        summary = evaluate_run(run, trace)
        matched = summary.match.matched_truth_ids()
        local = [t for t in matched if t.startswith("gt-local")]
        headline = [t for t in matched if t.startswith("gt-head")]
        assert local, "local events must be discovered"
        assert len(local) + len(headline) > len(headline)

    def test_detection_beats_headline_for_some_events(self, gt):
        trace, run = gt
        summary = evaluate_run(run, trace)
        headlines = headlines_for_trace(trace)
        leads = []
        for headline in headlines:
            detected = summary.match.first_detection_message(
                headline.event_id, run.config.quantum_size
            )
            lead = headline.lead_time_messages(detected)
            if lead is not None:
                leads.append(lead)
        assert leads, "at least one headlined event must be detected"
        assert max(leads) > 0, "detection should beat the headline sometimes"


class TestSchemeComparisonShape:
    def test_table3_shape(self):
        """The Section 7.3 orderings at reduced scale."""
        trace = build_ground_truth_trace(
            total_messages=15_000,
            n_headline_discoverable=8,
            n_headline_subthreshold=4,
            n_local_events=12,
            n_spurious=2,
            seed=3,
        )
        comparison = compare_schemes(trace, DetectorConfig())
        scp = comparison.row("SCP Clusters")
        bc = comparison.row("Bi-connected Clusters")
        bc_edges = comparison.row("Bi-connected clusters +Edges")
        # +Edges reports far more "events" with far worse precision
        assert bc_edges.events_discovered > scp.events_discovered
        assert bc_edges.precision < scp.precision
        assert bc_edges.avg_cluster_size < scp.avg_cluster_size
        # plain BC never beats SCP on recall (merging can only lose events)
        assert bc.recall <= scp.recall + 1e-9
        # offline produces extra cluster instances overall
        assert comparison.additional_clusters_pct > 0
        # most BC event clusters coincide with SCP clusters, not all
        assert 50.0 <= comparison.exact_overlap_pct <= 100.0


class TestDetectorResilience:
    def test_empty_quantum_handled(self):
        detector = open_session(DetectorConfig(quantum_size=4))
        report = detector.process_quantum([])
        assert report.reported == []

    def test_repeated_runs_deterministic(self):
        trace = build_es_trace(total_messages=5000, n_events=6, seed=5)
        outputs = []
        for _ in range(2):
            run = run_detector(trace, DetectorConfig())
            outputs.append(
                sorted(
                    (r.born_quantum, tuple(sorted(r.all_keywords)))
                    for r in run.records
                )
            )
        assert outputs[0] == outputs[1]
