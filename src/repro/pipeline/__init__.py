"""repro.pipeline — the staged quantum pipeline as composable objects.

The six per-quantum engine stages (``extract → AKG update → maintain →
propagate → rank → report``) live here as typed :class:`Stage` objects
communicating through a :class:`QuantumContext` (see DESIGN.md Section 6).
:mod:`repro.api` drives a :class:`Pipeline` of these stages inside a
long-lived session.
"""

from repro.pipeline.report_index import FilterPredicate, ThresholdIndex
from repro.pipeline.reports import QuantumReport, ReportedEvent, StageTimings
from repro.pipeline.stages import (
    AkgUpdateStage,
    ColumnExtractStage,
    MaintainStage,
    Pipeline,
    PropagateStage,
    QuantumContext,
    RankStage,
    ReportStage,
    Stage,
    build_stages,
)

__all__ = [
    "QuantumReport",
    "ReportedEvent",
    "StageTimings",
    "ThresholdIndex",
    "FilterPredicate",
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
