"""Entity-range sharded front-end for the AKG-update stage's window work.

The per-quantum entity work — id-set slides, sketch hashing, burst
transition tests — is embarrassingly parallel *per entity*: every window
index keyed by entity token decomposes into independent partitions.  This
package exploits that (the ROADMAP scale-out item); "keyword" in the shard
internals below means "entity token" — the keyword workload is the paper's
instantiation:

* :class:`~repro.parallel.router.ShardRouter` splits the keyword space into
  ``shard_count`` contiguous 64-bit hash ranges (stable blake2b, so the
  partition is identical across processes and runs);
* each shard owns a shard-local ``IdSetIndex``
  (:mod:`repro.parallel.shard_state`), hosted by a worker — a forked
  process, a thread, or the caller itself (:mod:`repro.parallel.pool`);
* a deterministic merge (:mod:`repro.parallel.frontend`) combines the
  per-shard outputs in global sorted-keyword order and applies every graph
  and cluster mutation to the single authoritative
  ``DynamicGraph``/``ClusterMaintainer`` — including the *cross-shard*
  candidate edges, whose sketch collisions and exact ECs are evaluated on
  data the workers shipped up (the exchange protocol of DESIGN.md S7);
* :class:`~repro.parallel.stages.ShardedExtractStage` (extraction stays
  in the parent; it routes the quantum's entities by shard) and
  :class:`~repro.parallel.stages.ShardedAkgUpdateStage` slot the whole
  thing behind the existing :class:`repro.pipeline.stages.Stage` protocol;
* workers may live in *other processes on other machines*: the
  :class:`~repro.parallel.transport.ShardTransport` seam
  (:mod:`repro.parallel.transport`) abstracts the wire, and
  :mod:`repro.parallel.remote` hosts shards behind a length-prefixed,
  CRC-framed TCP daemon (``repro shard-worker``) the ``remote`` backend
  scatters to (DESIGN.md Section 12).

The headline invariant: **results are bit-identical for any worker count,
any shard count, and any transport** — reports, sink events, histories,
and checkpoints (checkpoints use the serial layout, merged across
shards), proven by ``tests/test_parallel_shard_invariance.py`` and
``tests/test_distributed_transport.py``.
"""

from repro.parallel.frontend import PendingQuantum, ShardedAkgFrontend
from repro.parallel.pool import WorkerPool, default_backend, make_pool
from repro.parallel.remote import ShardWorkerServer, serve_shard_worker
from repro.parallel.router import ShardRouter
from repro.parallel.shard_state import ShardParams, ShardState, ShardUpdate
from repro.parallel.stages import (
    ShardedAkgUpdateStage,
    ShardedExtractStage,
    sharded_front_stages,
)
from repro.parallel.transport import (
    ProcessShardTransport,
    RemoteShardTransport,
    SerialShardTransport,
    ShardTransport,
    ThreadShardTransport,
    TransportError,
)

__all__ = [
    "PendingQuantum",
    "ProcessShardTransport",
    "RemoteShardTransport",
    "SerialShardTransport",
    "ShardParams",
    "ShardRouter",
    "ShardState",
    "ShardTransport",
    "ShardUpdate",
    "ShardWorkerServer",
    "ShardedAkgFrontend",
    "ShardedAkgUpdateStage",
    "ShardedExtractStage",
    "ThreadShardTransport",
    "TransportError",
    "WorkerPool",
    "default_backend",
    "make_pool",
    "serve_shard_worker",
    "sharded_front_stages",
]
