"""Session-level referees: a detector session re-wired onto the from-scratch
AKG builder and/or ranker.

The product has one way to run — the incremental stages ``open_session``
builds.  The differential suites compare it against the paper's
from-scratch definitions (Sections 3 and 5, Theorem 3) at the session
level too, so this module assembles such a session from public parts: an
ordinary session whose engine components are swapped, before the first
quantum, for a fresh :class:`~repro.core.maintenance.ClusterMaintainer`,
``AkgBuilder(oracle=akg)`` and ``IncrementalRanker(oracle=ranking)``,
driven by a :class:`~repro.pipeline.stages.Pipeline` of the public stage
classes.  Everything else — batching, filters, tracker, notifications —
is the session's own.

A referee session is for comparing reports, notes and histories; the
from-scratch builder keeps no checkpointable state, so it is never
snapshotted or delta-logged.
"""

from repro.akg.builder import AkgBuilder
from repro.api import open_session
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer
from repro.pipeline.stages import (
    AkgUpdateStage,
    ColumnExtractStage,
    ExtractStage,
    MaintainStage,
    Pipeline,
    PropagateStage,
    RankStage,
    ReportStage,
)


def oracle_session(config=None, *, akg=True, ranking=False, **session_kwargs):
    """A fresh session running the from-scratch AKG stage (``akg``) and/or
    the from-scratch rank stage (``ranking``)."""
    session = open_session(config, **session_kwargs)
    config = session.config
    maintainer = ClusterMaintainer()
    builder = AkgBuilder(config, maintainer, oracle=akg)
    ranker = IncrementalRanker(
        maintainer.registry,
        maintainer.graph,
        builder.node_weights,
        min_cluster_size=config.min_cluster_size,
        oracle=ranking,
    )
    cap = config.max_tokens_per_message
    if akg or session.ckg_stats is not None:
        # the referee builder is fed the entity -> actors mapping
        extract = ExtractStage(session.extractor, cap, session.ckg_stats)
    else:
        ents, acts = builder.idsets.ents, builder.idsets.acts
        extract = ColumnExtractStage(session.extractor, cap, ents, acts)
    session.maintainer = maintainer
    session.builder = builder
    session.ranker = ranker
    session.pipeline = Pipeline(
        [
            extract,
            AkgUpdateStage(builder, maintainer),
            MaintainStage(maintainer),
            PropagateStage(maintainer, ranker),
            RankStage(ranker),
            ReportStage(session.tracker, ranker, session.report_index),
        ]
    )
    return session
