"""The composable Stage pipeline and the incremental report index."""

from pathlib import Path

import pytest

from repro.akg.builder import AKG_SUB_SPANS
from repro.api import open_session
from repro.api.checkpoint import load_checkpoint
from repro.config import DetectorConfig
from repro.errors import PipelineError
from repro.pipeline import (
    Pipeline,
    QuantumContext,
    ReportedEvent,
    Stage,
    ThresholdIndex,
)
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


def burst(keywords, users):
    return [Message(f"u{u}", tokens=tuple(keywords)) for u in users]


def event(event_id, rank, size=3, keywords=None):
    return ReportedEvent(
        event_id=event_id,
        keywords=frozenset(keywords or {f"w{event_id}"}),
        rank=rank,
        support=rank,
        size=size,
        num_edges=size,
        born_quantum=0,
    )


class TestPipelineAssembly:
    def test_default_pipeline_has_six_named_stages(self):
        session = open_session(exact_config())
        assert session.pipeline.names() == [
            "extract",
            "akg_update",
            "maintain",
            "propagate",
            "rank",
            "report",
        ]

    def test_stage_protocol_runtime_checkable(self):
        session = open_session(exact_config())
        for stage in session.pipeline.stages:
            assert isinstance(stage, Stage)

    def test_stage_lookup(self):
        session = open_session(exact_config())
        assert session.pipeline.stage("rank").name == "rank"
        with pytest.raises(PipelineError):
            session.pipeline.stage("no-such-stage")

    def test_stages_write_their_own_timing_slots(self):
        session = open_session(exact_config())
        report = session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        timings = report.timings.as_dict()
        assert set(timings) == {
            "extract", "akg_update", "maintain", "propagate", "rank",
            "report", "slide", "sketch", "pairing", "correlate",
        }
        assert all(t >= 0.0 for t in timings.values())

    def test_akg_sub_spans_stay_within_akg_update_on_every_quantum(self):
        from golden import bursty_stream

        session = open_session(
            DetectorConfig(
                quantum_size=20,
                window_quanta=3,
                high_state_threshold=3,
                ec_threshold=0.2,
                node_grace_quanta=1,
            )
        )
        stream = [Message(u, tokens=t) for u, t in bursty_stream(11, 1200)]
        reports = list(session.ingest_many(stream))
        assert len(reports) == 60
        for report in reports:
            spans = [getattr(report.timings, name) for name in AKG_SUB_SPANS]
            assert all(seconds >= 0.0 for seconds in spans)
            # ... after MaintainStage moved the clustering share out, too
            assert sum(spans) <= report.timings.akg_update
        totals = session.total_timings
        assert all(getattr(totals, name) > 0.0 for name in AKG_SUB_SPANS)
        # sub-spans are not part of the total
        assert totals.total == pytest.approx(
            totals.extract + totals.akg_update + totals.maintain
            + totals.propagate + totals.rank + totals.report
        )

    def test_checkpoint_without_sub_span_keys_still_loads(self):
        """Totals written before the sub-spans existed restore with the new
        slots at zero and accumulate from there."""
        asset = Path(__file__).parent / "data" / "checkpoint_v3.ckpt"
        assert "slide" not in load_checkpoint(asset)["timings"]
        session = open_session(resume=asset)
        assert session.total_timings.slide == 0.0
        session.flush()
        assert session.total_timings.slide > 0.0

    def test_wrapped_stage_composes(self):
        """A stage can be wrapped without the pipeline noticing — the
        swap/wrap seam the Stage extraction exists for."""

        class CountingStage:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.calls = 0

            def run(self, ctx):
                self.calls += 1
                self.inner.run(ctx)

        plain = open_session(exact_config())
        wrapped = open_session(exact_config())
        counter = CountingStage(wrapped.pipeline.stage("rank"))
        wrapped.pipeline.stages[wrapped.pipeline.names().index("rank")] = counter

        quanta = [
            burst(["a1", "b1", "c1"], range(6)),
            burst(["a1", "b1", "c1", "d1"], range(4)),
        ]
        for batch in quanta:
            a = plain.process_quantum(batch)
            b = wrapped.process_quantum(list(batch))
            key = lambda e: (e.event_id, e.keywords, e.rank)
            assert [key(e) for e in a.reported] == [key(e) for e in b.reported]
        assert counter.calls == len(quanta)

    def test_custom_stage_appended(self):
        """Extra stages ride at the end of the pipeline and see the report."""
        session = open_session(exact_config())
        seen = []

        class AuditStage:
            name = "audit"

            def run(self, ctx):
                seen.append((ctx.quantum, len(ctx.report.reported)))

        session.pipeline.stages.append(AuditStage())
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert seen == [(0, 1)]

    def test_context_carries_typed_products(self):
        session = open_session(exact_config())
        captured = {}

        class CaptureStage:
            name = "capture"

            def run(self, ctx):
                captured.update(
                    batch=ctx.batch, dirty=ctx.dirty, ranked=ctx.ranked
                )

        session.pipeline.stages.append(CaptureStage())
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert len(captured["batch"]) > 0
        assert captured["dirty"] == {1}
        assert len(captured["ranked"]) == 1

    def test_pipeline_run_returns_context(self):
        pipeline = Pipeline([])
        ctx = QuantumContext(quantum=0, messages=[])
        assert pipeline.run(ctx) is ctx


class TestThresholdIndex:
    def test_update_and_filter_split(self):
        index = ThresholdIndex(lambda e: e.rank >= 10.0)
        assert index.update(event(1, rank=20.0)) is True
        assert index.update(event(2, rank=5.0)) is True
        assert index.update(event(1, rank=25.0)) is False  # refresh, not new
        assert [e.event_id for e in index.reported()] == [1]
        assert [e.event_id for e in index.suppressed()] == [2]
        assert set(index.entries()) == {1, 2}

    def test_reported_order_rank_desc_stable_by_id(self):
        index = ThresholdIndex(lambda e: True)
        index.update(event(3, rank=7.0))
        index.update(event(1, rank=9.0))
        index.update(event(2, rank=7.0))
        assert [e.event_id for e in index.reported()] == [1, 2, 3]

    def test_remove(self):
        index = ThresholdIndex(lambda e: True)
        index.update(event(1, rank=1.0))
        assert index.remove(1) is True
        assert index.remove(1) is False
        assert index.reported() == []

    def test_top_k(self):
        index = ThresholdIndex(lambda e: e.rank >= 2.0)
        for cid in range(1, 6):
            index.update(event(cid, rank=float(cid)))
        assert [e.event_id for e in index.top(2)] == [5, 4]
        # suppressed entries never appear in the top-k view
        assert all(e.rank >= 2.0 for e in index.top(10))

    def test_rebuild_replaces_entries(self):
        index = ThresholdIndex(lambda e: True)
        index.update(event(1, rank=1.0))
        index.update(event(2, rank=2.0))
        index.rebuild([event(2, rank=3.0), event(5, rank=5.0)])
        assert set(index.entries()) == {2, 5}
        assert index.entries()[2].rank == 3.0

    def test_before_is_the_entry_reported_before_first_touch(self):
        index = ThresholdIndex(lambda e: e.rank >= 2.0)
        index.update(event(1, rank=5.0))
        index.update(event(2, rank=1.0))
        index.update(event(4, rank=9.0))
        index.begin()
        assert index.before() == {}
        index.update(event(1, rank=6.0))
        index.update(event(1, rank=7.0))
        index.update(event(2, rank=3.0))  # suppressed before: None
        index.update(event(3, rank=4.0))  # new: None
        index.remove(4)
        assert index.before() == {
            1: event(1, rank=5.0), 2: None, 3: None, 4: event(4, rank=9.0),
        }
        assert index.reported_entry(1) == event(1, rank=7.0)
        assert index.reported_entry(4) is None

    def test_returned_lists_are_copies(self):
        index = ThresholdIndex(lambda e: True)
        index.update(event(1, rank=1.0))
        first = index.reported()
        first.clear()
        assert [e.event_id for e in index.reported()] == [1]


class TestChurnProportionalReporting:
    def test_unchanged_quantum_evaluates_no_filters(self):
        """The regression the satellite exists for: a quantum that dirties
        nothing must not re-filter the live result list."""
        session = open_session(exact_config())
        messages = burst(["a1", "b1", "c1"], range(6))
        session.process_quantum(messages)
        before = session.report_index.filter_evaluations
        report = session.process_quantum(list(messages))
        after = session.report_index.filter_evaluations
        assert report.rank_cache_hits == 1  # cluster itself not re-ranked
        assert after == before  # ...and not re-filtered either

    def test_filter_evaluations_track_dirty_set(self):
        session = open_session(exact_config())
        session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        baseline = session.report_index.filter_evaluations
        # second, disjoint cluster: only the new cluster is evaluated
        session.process_quantum(burst(["x1", "y1", "z1"], range(10, 16)))
        assert session.report_index.filter_evaluations == baseline + 1

    def test_index_matches_report_contents(self):
        verbs = NounTagger({"a1": "verb", "b1": "verb", "c1": "verb"})
        session = open_session(exact_config(), noun_tagger=verbs)
        report = session.process_quantum(burst(["a1", "b1", "c1"], range(6)))
        assert report.reported == []
        assert len(report.suppressed) == 1
        assert set(session.report_index.entries()) == {1}
