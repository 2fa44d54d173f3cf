"""Shard-local window state and the per-quantum shard update message.

A :class:`ShardState` owns, for one keyword hash range, exactly the window
index the serial :class:`~repro.akg.builder.AkgBuilder` owns globally: an
:class:`~repro.akg.idsets.IdSetIndex` (whose actor interner holds each
live user's MinHash base hash, so a shard hashes a user once per window
residency).  Because the index is keyed by keyword and keywords never move
between shards, running the same slice sequence through a shard produces
byte-for-byte the state the serial index would hold restricted to that
range — which is what makes the merged checkpoint identical to a serial
one.

A shard serves two phases per quantum.  Phase one (:meth:`ShardState.
ingest`) is the *keyword-local* work — the id-set slide, the ``count >=
theta`` burst test, the bursty keywords' sketches — shipping a
:class:`ShardUpdate` up to the merge: its slice of the
:class:`~repro.akg.idsets.SlideDelta` plus its bursty keywords with their
window sketches.  Phase two (:meth:`ShardState.exchange`) answers the
merge's EC requests once the parent has classified the quantum's candidate
and refresh pairs against the graph: pairs whose *both* members live on
this shard are answered as finished exact ECs (computed here, against the
local window id sets, with the very jaccard the merge would run), and only
the id sets of keywords in *cross-shard* pairs ride the wire — the
long-tail vocabulary never travels at all.  Everything cross-keyword —
candidate pairing, EC thresholds, graph mutation, cluster maintenance —
happens in the deterministic merge (:mod:`repro.parallel.frontend`), never
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from repro.akg.idsets import IdSetIndex
from repro.akg.minhash import Sketch

Keyword = str
UserId = Hashable


@dataclass(frozen=True)
class ShardParams:
    """Constructor bundle shipped to workers at pool start (picklable)."""

    window_quanta: int
    minhash_size: int
    seed: int
    theta: int
    use_minhash: bool


@dataclass
class ShardUpdate:
    """One shard's contribution to one quantum's merge (picklable).

    ``support_deltas``/``emptied`` are the part of the shard's slice of
    the global ``SlideDelta`` the merge consumes (keyword-disjoint across
    shards, so the merged delta is their plain union).  ``bursty`` are the
    slice keywords that cleared theta this quantum; ``sketches`` their
    window sketches.  Id sets ship in phase two
    (:meth:`ShardState.exchange`).
    """

    shard: int
    emptied: FrozenSet[Keyword] = frozenset()
    support_deltas: Dict[Keyword, Tuple[int, int]] = field(default_factory=dict)
    bursty: FrozenSet[Keyword] = frozenset()
    sketches: Dict[Keyword, Sketch] = field(default_factory=dict)


class ShardState:
    """The window state of one keyword hash range."""

    def __init__(self, shard: int, params: ShardParams) -> None:
        self.shard = shard
        self.params = params
        self.idsets = IdSetIndex(params.window_quanta, seed=params.seed)

    def ingest(
        self,
        quantum: int,
        keyword_users: Mapping[Keyword, Set[UserId]],
    ) -> ShardUpdate:
        """Phase one: apply a quantum's shard slice, report the window delta.

        Pure window slide plus the burst test — graph-independent, so the
        parent can scatter it before (or while) the previous quantum's
        serial tail is still running.  No id sets ship here: which sets the
        merge actually needs depends on the graph, and the phase-two
        :meth:`exchange` answers exactly that request.
        """
        params = self.params
        idsets = self.idsets
        columns = idsets.intern_quantum(quantum, keyword_users)
        delta = idsets.add_columns(quantum, columns)
        bursty = frozenset(
            kw
            for kw, (_, lo, hi) in zip(columns.ent_strings, columns.segments)
            if hi - lo >= params.theta
        )
        sketches: Dict[Keyword, Sketch] = {}
        if params.use_minhash:
            sketches = idsets.sketch_many(sorted(bursty), params.minhash_size)
        return ShardUpdate(
            shard=self.shard,
            emptied=delta.emptied,
            support_deltas=dict(delta.support_deltas),
            bursty=bursty,
            sketches=sketches,
        )

    def exchange(
        self,
        pairs: Sequence[Tuple[Keyword, Keyword]],
        want_ids: Iterable[Keyword],
    ) -> Tuple[int, Dict[Tuple[Keyword, Keyword], float], Dict[Keyword, FrozenSet[UserId]]]:
        """Phase two: answer the merge's EC requests for this quantum.

        ``pairs`` are candidate/refresh pairs whose members *both* live on
        this shard — their exact ECs are computed here, by the local
        index's own ``jaccard_many`` kernel: integer cardinalities in, one
        division out, exactly as the merge's closure over gathered id sets
        does it, so the parent-applied edge weights are bit-for-bit what a
        serial builder computes.  ``want_ids`` are the keywords (routed to
        this shard) appearing in cross-shard pairs; their window id sets
        ship back for the parent to evaluate.  Empty id sets are elided,
        matching the merge closure's ``.get``-miss semantics.
        """
        ecs = dict(zip(pairs, self.idsets.jaccard_many(pairs)))
        id_sets: Dict[Keyword, FrozenSet[UserId]] = {}
        for kw in want_ids:
            users = self.idsets.id_set(kw)
            if users:
                id_sets[kw] = users
        return (self.shard, ecs, id_sets)

    # ---------------------------------------------------------- persistence

    def export_state(self) -> Tuple[int, dict]:
        """``(shard, idsets_state)`` — this shard's slice of the serial
        checkpoint layout (already in sorted keyword order)."""
        return (self.shard, self.idsets.to_state())

    def export_edit(self, quantum: int) -> Tuple[int, tuple]:
        """``(shard, idsets_edit)`` — this shard's slice of what the slide
        to ``quantum`` did to the serialized window."""
        return (self.shard, self.idsets.window_edit(quantum))

    def load_state(self, idsets_state: dict) -> None:
        self.idsets.from_state(idsets_state)


__all__ = ["ShardParams", "ShardState", "ShardUpdate"]
