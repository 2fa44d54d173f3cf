"""Shared golden-fingerprint machinery for seed-pinned parity tests.

The extractor refactor (PR 5) promises that the default keyword path stays
*bit-identical* to the pre-refactor pipeline: same reports, same sink
events, same event histories, same checkpoint contents.  The hashes pinned
in ``tests/test_extractor_parity.py`` were generated against the
pre-refactor tree with exactly the canonicalization below, so any semantic
drift in the keyword path — ranks, filter verdicts, lifecycle transitions,
window state — flips a fingerprint and fails the golden test.

Everything here must therefore be **deterministic and layout-agnostic**:

* floats go through ``repr`` (shortest-roundtrip — exact);
* sets / frozensets / dicts are canonically sorted (no iteration-order or
  hash-randomization leakage);
* checkpoint state is normalized: wall-clock timings are zeroed, the
  keys whose *shape* legitimately changed with the extractor refactor
  (extractor identity, the custom-extractor flag) are dropped, and the
  referee-mode flags, CKG-counter keys, sketch settings and report-rule
  settings checkpoints no longer carry are put back as the constants they
  always were on these runs, as is every event record's ``gaps`` list
  (always empty), and the notified state they no longer carry is rebuilt
  from the restored report index, so the same stream position
  fingerprints identically before and after each layout change.
"""

from __future__ import annotations

import hashlib
import json
import random

from oracles import MinHasher
from repro.akg.minhash import HASH_SEED
from repro.api import QueueSink, open_session
from repro.api.checkpoint import load_checkpoint
from repro.config import DetectorConfig

# ---------------------------------------------------------- stream regimes
#
# The three regimes of the AKG property tests (bursty / uniform / window
# re-entry), self-contained here so the golden streams can never drift with
# another test module's edits.


def bursty_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"k{i}" for i in range(6)]
    return [
        (f"u{rng.randrange(20)}", tuple(rng.sample(keywords, rng.randint(2, 4))))
        for _ in range(n)
    ]


def uniform_stream(seed, n):
    rng = random.Random(seed)
    keywords = [f"w{i}" for i in range(40)]
    return [
        (f"u{rng.randrange(60)}", tuple(rng.sample(keywords, rng.randint(1, 3))))
        for _ in range(n)
    ]


def reentry_stream(seed, n, period):
    rng = random.Random(seed)
    group_a = [f"a{i}" for i in range(4)]
    group_b = [f"b{i}" for i in range(4)]
    return [
        (
            f"u{rng.randrange(15)}",
            tuple(
                rng.sample(
                    group_a if (i // period) % 2 == 0 else group_b,
                    rng.randint(2, 3),
                )
            ),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------- canonical form


def canonical(obj):
    """Recursively convert ``obj`` into a JSON-stable canonical structure."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, (list, tuple)):
        return ["l", [canonical(x) for x in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(x) for x in obj]
        return ["s", sorted(items, key=lambda i: json.dumps(i, sort_keys=True))]
    if isinstance(obj, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return [
            "d",
            sorted(pairs, key=lambda p: json.dumps(p[0], sort_keys=True)),
        ]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def fingerprint(structure) -> str:
    """sha256 over the canonical JSON rendering of ``structure``."""
    blob = json.dumps(
        canonical(structure), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- records


def report_record(report) -> dict:
    """Everything consumer-visible in one QuantumReport (no wall clocks)."""
    stats = report.akg_stats
    return {
        "quantum": report.quantum,
        "messages": report.messages_processed,
        "reported": sorted(
            [
                e.event_id,
                sorted(e.keywords),
                e.rank,
                e.support,
                e.size,
                e.num_edges,
                e.born_quantum,
            ]
            for e in report.reported
        ),
        "suppressed": sorted(
            [e.event_id, sorted(e.keywords), e.rank, e.support]
            for e in report.suppressed
        ),
        "new": sorted(report.new_event_ids),
        "dead": sorted(report.dead_event_ids),
        "changes": report.changes,
        "dirty": report.dirty_clusters,
        "ranked": report.ranked_clusters,
        "cache_hits": report.rank_cache_hits,
        "akg": None
        if stats is None
        else [
            stats.bursty_keywords,
            stats.nodes_added,
            stats.nodes_removed_stale,
            stats.nodes_removed_lazy,
            stats.edges_added,
            stats.edges_removed,
            stats.edges_refreshed,
            stats.node_weight_deltas,
            stats.candidate_pairs,
            stats.ec_computations,
            stats.removal_candidates,
            stats.akg_nodes,
            stats.akg_edges,
        ],
    }


def note_record(event) -> list:
    return [
        event.kind.value,
        event.quantum,
        event.event_id,
        sorted(event.keywords),
        event.rank,
        event.size,
        event.previous_rank,
        event.previous_size,
    ]


def history_record(record) -> list:
    """One event history; ``[]`` stands where the retired ``gaps`` list
    (always empty) was when the fingerprints were pinned."""
    return [
        record.event_id,
        record.born_quantum,
        record.died_quantum,
        record.absorbed_into,
        [],
        [
            [s.quantum, sorted(s.keywords), s.rank, s.support, s.num_edges]
            for s in record.snapshots
        ],
    ]


def per_keyword(window) -> list:
    """A queue-of-quanta window ``[[q, [[kw, v], ...]], ...]`` transposed
    back to the per-keyword layout ``[[kw, [[q, v], ...]], ...]`` the
    pinned fingerprints were generated against."""
    by_kw = {}
    for q, block in window:
        for kw, value in block:
            by_kw.setdefault(kw, []).append([q, value])
    return [[kw, entries] for kw, entries in sorted(by_kw.items())]


def with_empty_gaps(state) -> dict:
    """``state`` with the ``gaps: []`` each event record carried before
    checkpoint version 10 put back."""
    tracker = state["tracker"]
    return {
        **state,
        "tracker": {
            **tracker,
            "records": [{**r, "gaps": []} for r in tracker["records"]],
        },
    }


def normalized_checkpoint_state(path) -> dict:
    """Checkpoint state with wall clocks zeroed and refactor-variant keys
    dropped (extractor identity is *new* state; the timings breakdown is
    wall-clock noise whose slot names changed with the stage rename), and
    the window subtrees back in the per-keyword layout of checkpoint
    versions <= 3 — same content, so no pinned constant moves with the
    v4 layout change.  The per-quantum mini-sketches those versions stored
    (dropped in v5) are a function of the id-set window — the bottom-p
    hashes of every block entry's users — and are derived from it here.
    The five referee-mode flags (dropped in v6: two top-level, two config
    entries, the builder's) were ``False`` on every pinned run and are
    re-inserted as such, as are the CKG-counter keys dropped in v7
    (``ckg_stats`` was ``None``, config ``track_ckg_stats`` ``False``) and
    the sketch settings dropped in v8 (config ``minhash_size`` was
    ``None``, ``seed`` the constant salt) and the report-rule settings
    dropped in v9 (config ``min_cluster_size`` was 3,
    ``rank_threshold_scale`` 1.0) and the records' ``gaps`` lists dropped
    in v10 (always empty).  The notified state v9 dropped —
    ``[id, rank, size, sorted keywords]`` per reported event, by id — was
    the report index's reported entries at the snapshot, so it is listed
    from a session restored from ``path``: the pinned fingerprints check
    that the restored index is what the notifications were diffed
    against."""
    state = with_empty_gaps(load_checkpoint(path))
    reported = open_session(resume=path).report_index.reported()
    state["notified"] = [
        [e.event_id, e.rank, e.size, sorted(e.keywords)]
        for e in sorted(reported, key=lambda e: e.event_id)
    ]
    builder = state["builder"] = dict(state["builder"])
    idsets = builder["idsets"]
    builder["idsets"] = {
        "last_quantum": idsets["last_quantum"],
        "entries": per_keyword(idsets["window"]),
    }
    cfg = DetectorConfig.from_dict(state["config"])
    minis = []
    if cfg.use_minhash_filter:
        sketch = MinHasher(cfg.effective_minhash_size, HASH_SEED).sketch
        minis = [
            [q, [[kw, list(sketch(users))] for kw, users in block]]
            for q, block in idsets["window"]
        ]
    builder["sketches"] = {"minis": per_keyword(minis)}
    builder["oracle"] = False
    state.pop("custom_tokenizer", None)
    state.pop("custom_extractor", None)
    state.pop("extractor", None)
    state["total_seconds"] = 0.0
    state["timings"] = None
    maintainer = dict(state["maintainer"])
    maintainer["clustering_seconds"] = 0.0
    state["maintainer"] = maintainer
    config = dict(state["config"])
    config.pop("extractor", None)
    config.pop("extractor_options", None)
    for mode in ("oracle_akg", "oracle_ranking"):
        state[mode] = config[mode] = False
    state["ckg_stats"] = None
    config["track_ckg_stats"] = False
    config["minhash_size"] = None
    config["seed"] = HASH_SEED
    config["min_cluster_size"] = 3
    config["rank_threshold_scale"] = 1.0
    state["config"] = config
    return state


def run_structure(messages, config, ckpt_path=None, opener=open_session):
    """One full session pass over ``messages``: the golden structure.

    ``messages`` are ``(user_id, tokens)`` pairs (the regime builders'
    output), materialized here so the builders stay Message-class agnostic.
    ``opener(config)`` opens the session (``oracles.oracle_session`` for a
    referee run); the normalized checkpoint is part of the structure when
    ``ckpt_path`` is given.
    """
    from repro.stream.messages import Message

    session = opener(config)
    inbox = QueueSink()
    session.subscribe(inbox)
    reports = list(
        session.ingest_many(Message(u, tokens=t) for u, t in messages)
    )
    structure = {
        "reports": [report_record(r) for r in reports],
        "notes": [note_record(e) for e in inbox.drain()],
        "histories": sorted(history_record(r) for r in session.events()),
    }
    if ckpt_path is not None:
        session.snapshot(ckpt_path)
        structure["checkpoint"] = normalized_checkpoint_state(ckpt_path)
    session.close()
    return structure
