"""repro — Real-time discovery of dense clusters in highly dynamic graphs.

A complete reproduction of Agarwal, Ramamritham & Bhide, *Real Time Discovery
of Dense Clusters in Highly Dynamic Graphs* (PVLDB 5(10), 2012): incremental
maintenance of short-cycle-property (SCP) clusters — approximate majority
quasi-cliques — over the active keyword graph of a microblog stream, with
local event ranking, an offline biconnected-cluster baseline, synthetic
workload generators, and the paper's full evaluation harness.  Everything
under ``repro`` is run by a session, the ``repro`` CLI and server, or a
named referee; test-only builders live with the tests.

Public entry points
-------------------
:func:`open_session`       streaming session API: ingest / subscribe /
                           checkpoint-resume (:mod:`repro.api`)
:class:`DetectorSession`   the long-lived session behind it
:class:`DetectorConfig`    Table 2 parameters
:class:`Message`           stream record
``repro.extract``          pluggable entity extractors: keyword text,
                           structured fields, raw actor–entity edges
:class:`ClusterMaintainer` incremental SCP clustering over any dynamic graph
:class:`DynamicGraph`      the graph substrate
``repro.pipeline``         the composable per-quantum Stage pipeline
``repro.datasets``         synthetic ES/TW traces and ground truth
``repro.baselines``        offline biconnected clustering ([2]), the Section
                           7.3 comparator
``repro.eval``             precision/recall/quality harness
"""

from repro.api import (
    CallbackSink,
    DetectorSession,
    EventKind,
    QueueSink,
    SessionEvent,
    open_session,
)
from repro.config import DetectorConfig, NOMINAL_CONFIG
from repro.core.changelog import ChangeBatch, ChangeEvent, ChangeLog
from repro.extract import (
    EdgeStreamAdapter,
    EntityExtractor,
    FieldExtractor,
    KeywordExtractor,
    extractor_names,
    make_extractor,
    register_extractor,
)
from repro.pipeline.reports import QuantumReport, ReportedEvent, StageTimings
from repro.core.incremental import IncrementalRanker
from repro.core.maintenance import ClusterMaintainer, decompose_graph
from repro.core.clusters import Cluster, ClusterRegistry
from repro.core.events import EventRecord, EventTracker
from repro.core.ranking import cluster_rank, minimum_rank
from repro.graph.dynamic_graph import DynamicGraph, edge_key
from repro.stream.messages import Message
from repro.errors import (
    CheckpointError,
    ClusterError,
    ConfigError,
    GraphError,
    PipelineError,
    ReproError,
    StreamError,
)

__version__ = "1.0.0"

__all__ = [
    "open_session",
    "DetectorSession",
    "EventKind",
    "SessionEvent",
    "CallbackSink",
    "QueueSink",
    "DetectorConfig",
    "NOMINAL_CONFIG",
    "EntityExtractor",
    "KeywordExtractor",
    "FieldExtractor",
    "EdgeStreamAdapter",
    "register_extractor",
    "extractor_names",
    "make_extractor",
    "QuantumReport",
    "ReportedEvent",
    "StageTimings",
    "ChangeBatch",
    "ChangeEvent",
    "ChangeLog",
    "IncrementalRanker",
    "ClusterMaintainer",
    "decompose_graph",
    "Cluster",
    "ClusterRegistry",
    "EventRecord",
    "EventTracker",
    "cluster_rank",
    "minimum_rank",
    "DynamicGraph",
    "edge_key",
    "Message",
    "ReproError",
    "ConfigError",
    "GraphError",
    "ClusterError",
    "StreamError",
    "PipelineError",
    "CheckpointError",
    "__version__",
]
