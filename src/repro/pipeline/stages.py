"""The staged quantum pipeline as composable, typed ``Stage`` objects.

A detector session runs six per-quantum stages — ``extract → AKG update
→ maintain → propagate → rank → report`` — each a small object behind the
:class:`Stage` protocol, so stages can be swapped or wrapped (e.g. with
extra instrumentation) without touching the session.
The first stage is parameterised by an
:class:`~repro.extract.base.EntityExtractor`, so the same pipeline runs
tokenized microblog text, structured field streams, or raw actor–entity
interaction streams (DESIGN.md Section 8).

Stage 1 has one form, :class:`ColumnExtractStage` (DESIGN.md Section 9):
it reduces a quantum straight to interned pair columns over the builder's
own interner tables, and :class:`AkgUpdateStage` hands them to the
builder.  Anything that needs another view of the quantum (the
from-scratch referee's ``entity -> actors`` mapping in the differential
tests, the Section 7.4 CKG counters in ``bench_akg_reduction.py``) decodes
it from those columns in a stage of its own.

Data flows between stages through a mutable :class:`QuantumContext`: each
stage consumes the typed products of its predecessors (the per-quantum
pair columns, the
:class:`~repro.core.changelog.ChangeBatch`
drained from the maintainer, the ranked-result list) and is responsible for
writing its own slot(s) of :class:`~repro.pipeline.reports.StageTimings` —
timing is per-stage wiring, not session code.

One physical-execution note: cluster maintenance (Section 5) runs *inline*
inside the AKG update — every edge/node mutation immediately re-glues the
decomposition — so :class:`AkgUpdateStage` performs both stages' work.
:class:`MaintainStage` is the accounting boundary: it splits the fused wall
time using the maintainer's clustering clock, and is the seam where a future
deferred-maintenance implementation would slot in.

``build_stages`` wires the default six-stage pipeline from the engine's
components; :class:`Pipeline` runs any stage list over a context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.errors import PipelineError
from repro.interning import Interner
from repro.pipeline.report_index import ThresholdIndex
from repro.pipeline.reports import QuantumReport, ReportedEvent, StageTimings
from repro.stream.window import QuantumColumns, quantum_columns

if TYPE_CHECKING:  # type-only: the stages hold these by duck-typed reference
    from repro.akg.builder import AkgBuilder, AkgQuantumStats
    from repro.core.changelog import ChangeBatch
    from repro.core.clusters import Cluster
    from repro.core.events import EventTracker
    from repro.core.incremental import IncrementalRanker
    from repro.core.maintenance import ClusterMaintainer
    from repro.stream.messages import Message


@dataclass
class QuantumContext:
    """Mutable carrier of one quantum's data as it flows through the stages.

    Stages read the fields earlier stages produced and fill their own; the
    session turns the final ``report`` into the public
    :class:`~repro.pipeline.reports.QuantumReport`.  ``scratch`` holds
    stage-private hand-offs (e.g. the fused AKG/maintain wall split) without
    widening the typed surface.
    """

    quantum: int
    messages: Sequence[Message]
    timings: StageTimings = field(default_factory=StageTimings)
    columns: Optional[QuantumColumns] = None
    akg_stats: Optional[AkgQuantumStats] = None
    batch: Optional[ChangeBatch] = None
    dirty: Optional[Set[int]] = None
    ranked: Optional[List[Tuple[Cluster, float, float]]] = None
    report: Optional[QuantumReport] = None
    scratch: Dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class Stage(Protocol):
    """One step of the per-quantum pipeline.

    A stage owns its components, reads/writes the :class:`QuantumContext`,
    and records its wall time in its own :class:`StageTimings` slot(s).
    Implementations must be deterministic functions of the context and their
    own state for the pipeline's differential guarantees to hold.
    """

    name: str

    def run(self, ctx: QuantumContext) -> None:
        """Execute the stage against ``ctx`` in place."""
        ...


class ColumnExtractStage:
    """Stage 1, hot path: one quantum -> interned, deduplicated pair columns.

    The extractor is the workload seam (DESIGN.md Section 8): a
    :class:`~repro.extract.keyword.KeywordExtractor` reproduces the paper's
    tokenize stage bit for bit; structured-field and edge-stream extractors
    open non-text workloads without touching any later stage.

    The interner tables are the *builder's* (shared with its window index),
    so ids minted here are the ids the id-set index stores and the sketch
    kernel hashes — intern once per token per window residency, reuse
    everywhere.
    """

    name = "extract"

    def __init__(
        self,
        extractor,
        max_entities_per_record: int,
        ents: Interner,
        acts: Interner,
    ) -> None:
        self.extractor = extractor
        self.max_entities_per_record = max_entities_per_record
        self.ents = ents
        self.acts = acts

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        ctx.columns = quantum_columns(
            ctx.messages,
            self.extractor,
            self.max_entities_per_record,
            self.ents,
            self.acts,
        )
        ctx.timings.extract = time.perf_counter() - t


class AkgUpdateStage:
    """Stages 2+3 (fused execution): AKG maintenance driving clustering.

    The builder performs the Section 3 window/graph updates and, through the
    maintainer, the Section 5 cluster maintenance inline.  The stage stashes
    the maintainer's clustering-clock delta in ``ctx.scratch`` for
    :class:`MaintainStage` to account; until that stage runs, the whole
    fused wall time is attributed to ``akg_update``.
    """

    name = "akg_update"

    def __init__(self, builder: AkgBuilder, maintainer: ClusterMaintainer) -> None:
        self.builder = builder
        self.maintainer = maintainer

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        maintain_before = self.maintainer.clustering_seconds
        ctx.akg_stats = self.builder.process_columns(ctx.quantum, ctx.columns)
        ctx.scratch["maintain_seconds"] = (
            self.maintainer.clustering_seconds - maintain_before
        )
        for name, seconds in self.builder.sub_spans.items():
            setattr(ctx.timings, name, seconds)
        ctx.timings.akg_update = time.perf_counter() - t


class MaintainStage:
    """Stage 3 accounting: attribute the clustering share of the AKG wall.

    Cluster maintenance physically runs inside :class:`AkgUpdateStage`
    (every mutation re-glues immediately); this stage moves the measured
    clustering-clock share out of ``akg_update`` into ``maintain`` so the
    per-stage breakdown matches the paper's cost model.  Replacing this
    stage is the seam for a deferred/batched maintenance implementation.
    """

    name = "maintain"

    def __init__(self, maintainer: ClusterMaintainer) -> None:
        self.maintainer = maintainer

    def run(self, ctx: QuantumContext) -> None:
        share = ctx.scratch.pop("maintain_seconds", 0.0)
        ctx.timings.maintain = share
        ctx.timings.akg_update -= share


class PropagateStage:
    """Stage 4: drain the change log and dirty the perturbed clusters."""

    name = "propagate"

    def __init__(
        self, maintainer: ClusterMaintainer, ranker: IncrementalRanker
    ) -> None:
        self.maintainer = maintainer
        self.ranker = ranker

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        ctx.batch = self.maintainer.drain_changes()
        ctx.dirty = self.ranker.apply(ctx.batch)
        ctx.timings.propagate = time.perf_counter() - t


class RankStage:
    """Stage 5: re-rank exactly the dirty clusters of the wrapped
    :class:`~repro.core.incremental.IncrementalRanker` (every live cluster,
    when that ranker is the from-scratch referee)."""

    name = "rank"

    def __init__(self, ranker: IncrementalRanker) -> None:
        self.ranker = ranker

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        ctx.ranked = self.ranker.rank_all()
        ctx.timings.rank = time.perf_counter() - t


class ReportStage:
    """Stage 6: lifecycle tracking plus churn-proportional report assembly.

    Filter verdicts live in a :class:`ThresholdIndex` keyed by cluster id;
    per quantum only the ranker's ``last_recomputed`` / ``last_removed``
    delta is re-filtered, and the report's ``new_event_ids`` /
    ``dead_event_ids`` fall out of the same delta — no per-quantum scan of
    the live result list (DESIGN.md Section 6).  Each run begins a fresh
    index delta, which the session's notifications are derived from.
    """

    name = "report"

    def __init__(
        self,
        tracker: EventTracker,
        ranker: IncrementalRanker,
        index: ThresholdIndex,
    ) -> None:
        self.tracker = tracker
        self.ranker = ranker
        self.index = index

    @staticmethod
    def make_event(
        cluster: Cluster, rank: float, support: float
    ) -> ReportedEvent:
        """Freeze one ranked cluster into its reportable snapshot."""
        return ReportedEvent(
            event_id=cluster.cluster_id,
            keywords=frozenset(str(n) for n in cluster.nodes),
            rank=rank,
            support=support,
            size=cluster.size,
            num_edges=cluster.num_edges,
            born_quantum=cluster.born_quantum,
        )

    def seed(self, ranked: List[Tuple[Cluster, float, float]]) -> None:
        """Rebuild the index from a full ranking (checkpoint restore)."""
        self.index.rebuild(
            [self.make_event(c, rank, support) for c, rank, support in ranked]
        )

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        # Histories ride the same edit script as the threshold index: only
        # recomputed/removed events are touched (never the live population).
        self.tracker.observe_edits(ctx.quantum, self.ranker, ctx.batch)
        self.index.begin()
        new_ids: Set[int] = set()
        dead_ids: Set[int] = set()
        for cid in self.ranker.last_removed:
            if self.index.remove(cid):
                dead_ids.add(cid)
        for cid in sorted(self.ranker.last_recomputed):
            cluster, rank, support = self.ranker.result(cid)
            if self.index.update(self.make_event(cluster, rank, support)):
                new_ids.add(cid)
        report = QuantumReport(quantum=ctx.quantum, akg_stats=ctx.akg_stats)
        report.reported = self.index.reported()
        report.suppressed = self.index.suppressed()
        report.new_event_ids = new_ids
        report.dead_event_ids = dead_ids
        ctx.report = report
        ctx.timings.report = time.perf_counter() - t


class Pipeline:
    """An ordered list of stages run once per quantum.

    The default construction is :func:`build_stages`; callers may pass any
    stage sequence (wrapped, reordered, extended) as long as each stage's
    context inputs are produced by an earlier stage.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages: List[Stage] = list(stages)

    def run(self, ctx: QuantumContext) -> QuantumContext:
        """Run every stage over ``ctx`` in order; returns ``ctx``."""
        for stage in self.stages:
            stage.run(ctx)
        return ctx

    def stage(self, name: str) -> Stage:
        """Look up a stage by its ``name`` (raises ``PipelineError``)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PipelineError(f"no stage named {name!r} in pipeline")

    def names(self) -> List[str]:
        return [stage.name for stage in self.stages]


def build_stages(
    extractor,
    maintainer: ClusterMaintainer,
    builder: AkgBuilder,
    ranker: IncrementalRanker,
    tracker: EventTracker,
    report_index: ThresholdIndex,
    max_entities_per_record: int,
) -> List[Stage]:
    """The default six-stage pipeline over the given engine components,
    extracting into the builder's own interner tables."""
    return [
        ColumnExtractStage(
            extractor,
            max_entities_per_record,
            builder.idsets.ents,
            builder.idsets.acts,
        ),
        AkgUpdateStage(builder, maintainer),
        MaintainStage(maintainer),
        PropagateStage(maintainer, ranker),
        RankStage(ranker),
        ReportStage(tracker, ranker, report_index),
    ]


__all__ = [
    "QuantumContext",
    "Stage",
    "ColumnExtractStage",
    "AkgUpdateStage",
    "MaintainStage",
    "PropagateStage",
    "RankStage",
    "ReportStage",
    "Pipeline",
    "build_stages",
]
