"""Sharded stage objects behind the :class:`repro.pipeline.stages.Stage`
protocol.

These are the drop-in replacements the session installs when
``config.sharded`` — same stage ``name``\\ s, same ``QuantumContext``
traffic, same timing slots, so everything downstream (maintain accounting,
propagate, rank, report, ``detect --timing``) is untouched.
"""

from __future__ import annotations

import time
from typing import List

from repro.extract.keyword import KeywordExtractor
from repro.interning import Interner
from repro.parallel.frontend import ShardedAkgFrontend
from repro.parallel.router import keyword_hash, shards_of_hashes
from repro.pipeline.stages import (
    AkgUpdateStage,
    ExtractStage,
    QuantumContext,
    Stage,
)


class ShardedExtractStage:
    """Stage 1 for sharded sessions: extract parent-side, route by shard.

    Builds the merged ``entity -> actors`` mapping in one tight loop and
    routes it from an interned keyword hash column: each keyword's 64-bit
    routing hash is computed once per vocabulary lifetime and the per-shard
    slices come from one vectorized :func:`~repro.parallel.router
    .shards_of_hashes` pass.  Set semantics make the merged mapping
    identical to the serial mapping stage's, and hash-range routing is a
    pure keyword function, so downstream shard state is bit-identical to a
    serial index restricted to the shard's range.

    The extractor never leaves the process, so custom (non-reconstructible)
    extractors are served too.  The per-shard slices ride ``ctx.scratch``
    to :class:`ShardedAkgUpdateStage`, which hands them to the front-end
    pre-partitioned.  ``ctx.actor_entities`` is not materialised — its only
    consumer is the CKG-stats tracker, and a session tracking those keeps
    the mapping :class:`~repro.pipeline.stages.ExtractStage` (the front-end
    then partitions the mapping itself).
    """

    name = "extract"

    # The routing interner memoises hashes for the whole stream; unlike the
    # window interners nothing ever releases its slots, so reset it outright
    # if an adversarially wide vocabulary ever grows it past this bound.
    _MAX_INTERNED = 1 << 20

    def __init__(
        self,
        frontend: ShardedAkgFrontend,
        extractor,
        max_entities_per_record: int,
    ) -> None:
        self.frontend = frontend
        self.extractor = extractor
        self.max_entities_per_record = max_entities_per_record
        self._ents = Interner(hash_fn=keyword_hash)
        self._keyword_fast = type(extractor) is KeywordExtractor

    def run(self, ctx: QuantumContext) -> None:
        t = time.perf_counter()
        extract = self.extractor.entities
        keyword_fast = self._keyword_fast
        cap = self.max_entities_per_record
        merged: dict = {}
        for message in ctx.messages:
            if keyword_fast:
                entities = message.tokens
                if entities is None:
                    entities = extract(message)
            else:
                entities = extract(message)
            if not entities:
                continue
            if cap is not None and len(entities) > cap:
                entities = entities[:cap]
            user = message.user_id
            for token in entities:
                users = merged.get(token)
                if users is None:
                    merged[token] = {user}
                else:
                    users.add(user)
        shard_count = self.frontend.router.shard_count
        if shard_count == 1:
            slices: List[dict] = [dict(merged)]
        else:
            ents = self._ents
            if ents.capacity > self._MAX_INTERNED:
                ents.clear()
            ids = ents.ids
            intern = ents.intern
            iids: List[int] = []
            for kw in merged:
                iid = ids.get(kw)
                if iid is None:
                    iid = intern(kw)
                iids.append(iid)
            # Gathered after the loop: interning may have regrown the column.
            hash_col = ents.hashes[iids]
            slices = [{} for _ in range(shard_count)]
            for (kw, users), shard in zip(
                merged.items(), shards_of_hashes(hash_col, shard_count)
            ):
                slices[shard][kw] = users
        ctx.entity_actors = merged
        ctx.actor_entities = None
        ctx.scratch["shard_slices"] = slices
        ctx.timings.extract = time.perf_counter() - t


class ShardedAkgUpdateStage(AkgUpdateStage):
    """Stages 2+3 over the sharded front-end.

    Inherits the fused-execution accounting of
    :class:`~repro.pipeline.stages.AkgUpdateStage`; additionally forwards
    the pre-partitioned shard slices the sharded extract stage left in
    ``ctx.scratch`` so the front-end skips re-routing the quantum's
    entities.

    The stage is split at the front-end's phase boundary —
    :meth:`scatter` fans the quantum out (graph-free), :meth:`complete`
    exchanges and merges — so the pipelined session can run quantum
    *q+1*'s scatter while quantum *q*'s tail still runs.  Plain ``run``
    is the two back to back; both paths report identical timing slots
    (``scatter``/``exchange`` are sub-spans of ``akg_update``, never
    added to the stage total twice).
    """

    def __init__(self, frontend: ShardedAkgFrontend, maintainer) -> None:
        super().__init__(frontend, maintainer)
        self.frontend = frontend

    def scatter(self, ctx: QuantumContext) -> None:
        """Phase one: fan the quantum out to the shard workers."""
        t = time.perf_counter()
        slices = ctx.scratch.pop("shard_slices", None)
        ctx.scratch["akg_pending"] = self.frontend.scatter(
            ctx.quantum, ctx.entity_actors, slices=slices
        )
        elapsed = time.perf_counter() - t
        ctx.timings.scatter = elapsed
        ctx.timings.akg_update = elapsed

    def complete(self, ctx: QuantumContext, exchange_done=None) -> None:
        """Phase two + merge; ``exchange_done`` fires at the last worker
        round trip of the quantum (the pipelined session's barrier)."""
        t = time.perf_counter()
        maintain_before = self.maintainer.clustering_seconds
        pending = ctx.scratch.pop("akg_pending")
        ctx.akg_stats = self.frontend.complete(
            pending, on_exchange_done=exchange_done
        )
        ctx.timings.exchange = self.frontend.last_exchange_seconds
        ctx.scratch["maintain_seconds"] = (
            self.maintainer.clustering_seconds - maintain_before
        )
        ctx.timings.akg_update += time.perf_counter() - t

    def run(self, ctx: QuantumContext) -> None:
        self.scatter(ctx)
        self.complete(ctx)


def sharded_front_stages(
    frontend: ShardedAkgFrontend,
    extractor,
    max_entities_per_record: int,
    ckg_stats=None,
) -> List[Stage]:
    """Stages 1-2 of a sharded session (``build_stages(front=...)``)."""
    if ckg_stats is not None:
        extract: Stage = ExtractStage(
            extractor, max_entities_per_record, ckg_stats
        )
    else:
        extract = ShardedExtractStage(
            frontend, extractor, max_entities_per_record
        )
    return [extract, ShardedAkgUpdateStage(frontend, frontend.maintainer)]


__all__ = [
    "ShardedAkgUpdateStage",
    "ShardedExtractStage",
    "sharded_front_stages",
]
