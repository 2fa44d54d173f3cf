"""Section 7.4 — impact of using the AKG instead of the full CKG.

Paper: AKG edges < 2% of CKG edges; < 5% of CKG nodes show burstiness;
average AKG degree < 6; average cluster < 7 nodes.  This bench runs the
detector with one extra pipeline stage right after extract: it decodes the
quantum's pair columns into ``actor -> keywords`` and feeds a
:class:`~repro.akg.ckg_stats.CkgStatsTracker`, whose full-CKG counts give
the denominators of those ratios.
"""

import time
from statistics import mean

from _results import write_json_result

from repro.akg.ckg_stats import CkgStatsTracker
from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.traces import build_tw_trace
from repro.eval.reporting import render_table
from repro.text.pos import NounTagger

from conftest import emit


class CkgStatsStage:
    """Feeds each quantum's ``actor -> keywords`` sets, read off the pair
    columns extracted over ``acts``, to a CKG-stats tracker."""

    name = "ckg_stats"

    def __init__(self, tracker, acts):
        self.tracker = tracker
        self.acts = acts

    def run(self, ctx):
        columns = ctx.columns
        actor_keywords = {}
        for kw, (_, lo, hi) in zip(columns.ent_strings, columns.segments):
            for aid in (columns.keys[lo:hi] & 0xFFFFFFFF).tolist():
                actor_keywords.setdefault(self.acts.objs[aid], set()).add(kw)
        self.tracker.add_quantum(ctx.quantum, actor_keywords)


def bench_akg_reduction(benchmark):
    # dedicated smaller trace: CKG pair tracking is exactly the cost the
    # AKG avoids, so the measurement run is scaled down
    trace = build_tw_trace(total_messages=12_000, n_events=8, seed=7)
    config = DetectorConfig()

    def run():
        session = open_session(config, noun_tagger=NounTagger(trace.lexicon))
        tracker = CkgStatsTracker(config.window_quanta)
        session.pipeline.stages.insert(
            1, CkgStatsStage(tracker, session.builder.idsets.acts)
        )
        node_ratios, edge_ratios, degrees, sizes = [], [], [], []
        for report in session.ingest_many(trace.messages, flush=True):
            stats = report.akg_stats
            if tracker.ckg_nodes:
                node_ratios.append(stats.akg_nodes / tracker.ckg_nodes)
            if tracker.ckg_edges:
                edge_ratios.append(stats.akg_edges / tracker.ckg_edges)
            if stats.akg_nodes:
                degrees.append(2 * stats.akg_edges / stats.akg_nodes)
            for event in report.reported:
                sizes.append(event.size)
        return node_ratios, edge_ratios, degrees, sizes

    started = time.perf_counter()
    node_ratios, edge_ratios, degrees, sizes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - started

    rows = [
        ["AKG nodes / CKG nodes %", round(100 * mean(node_ratios), 2), "< 5"],
        ["AKG edges / CKG edges %", round(100 * mean(edge_ratios), 2), "< 2"],
        ["average AKG degree", round(mean(degrees), 2), "< 6"],
        ["average reported cluster size", round(mean(sizes), 2), "< 7"],
    ]
    emit(
        "akg_reduction_7_4",
        render_table(
            ["quantity", "measured", "paper"],
            rows,
            title="Section 7.4 — Impact of using AKG",
        ),
    )

    write_json_result(
        "akg_reduction_7_4",
        config={
            "node_ratio_pct": round(100 * mean(node_ratios), 2),
            "edge_ratio_pct": round(100 * mean(edge_ratios), 2),
            "avg_degree": round(mean(degrees), 2),
        },
        wall_s=wall_s,
        speedup=None,
        quanta=len(trace.messages) // config.quantum_size,
    )
    assert mean(node_ratios) < 0.10
    assert mean(edge_ratios) < 0.05
    assert mean(degrees) < 8.0
    assert mean(sizes) < 9.0
