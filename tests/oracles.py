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

The product extracts a quantum in one form, interned pair columns; the
from-scratch AKG takes the ``entity -> actors`` mapping instead, so its
builder sits behind :class:`MappingFeed`, which decodes the columns back
into that mapping for the unchanged :class:`AkgUpdateStage`.

A referee session is for comparing reports, notes and histories; the
from-scratch builder keeps no checkpointable state, so it is never
snapshotted or delta-logged.
"""

from helpers import entity_actors
from repro.akg.builder import AkgBuilder
from repro.api import open_session
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer
from repro.interning import Interner
from repro.pipeline.stages import (
    AkgUpdateStage,
    ColumnExtractStage,
    MaintainStage,
    Pipeline,
    PropagateStage,
    RankStage,
    ReportStage,
)


class MappingFeed:
    """A from-scratch builder behind the ``process_columns`` entry
    :class:`AkgUpdateStage` calls: the columns, extracted over ``acts``,
    reach it as the mapping its window indexes take."""

    def __init__(self, builder, acts):
        self.builder = builder
        self.acts = acts
        self.sub_spans = builder.sub_spans

    def process_columns(self, quantum, columns):
        return self.builder.process_quantum(
            quantum, entity_actors(columns, self.acts)
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
    if akg:
        ents, acts = Interner(), Interner()
        feed = MappingFeed(builder, acts)
    else:
        ents, acts = builder.idsets.ents, builder.idsets.acts
        feed = builder
    session.maintainer = maintainer
    session.builder = builder
    session.ranker = ranker
    session.pipeline = Pipeline(
        [
            ColumnExtractStage(
                session.extractor, config.max_tokens_per_message, ents, acts
            ),
            AkgUpdateStage(feed, maintainer),
            MaintainStage(maintainer),
            PropagateStage(maintainer, ranker),
            RankStage(ranker),
            ReportStage(session.tracker, ranker, session.report_index),
        ]
    )
    return session
