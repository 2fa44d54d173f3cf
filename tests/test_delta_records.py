"""Delta-log records come from the layers; the tree differ is their oracle.

The writer no longer diffs state trees — each stateful layer reports its
own edit op for the quantum it just processed (``window_edit`` on the
window index, ``quantum_op`` on the builder and the event tracker) and
``DetectorSession._quantum_op`` composes the record.
That is only sound if, at every quantum boundary,

    patch_tree(tree[q-1], record[q]) == tree[q]

byte for byte through the canonical codec.
This suite drives the golden stream regimes quantum by quantum and checks
exactly that against the session's own ``_state_tree()``, and pins the
layer ops' size against the exhaustive differ (``tests/tree_diff.py``): a
layer that knows its edit must never emit more bytes than a from-scratch
diff of the same two subtrees finds.
"""

import json

import pytest

from repro.api import deltalog, open_session
from repro.api.deltalog import decode_op, encode_op, patch_tree
from repro.stream.messages import Message

from test_extractor_parity import regime
from tree_diff import canon, diff_trees, wire_bytes

# "batched" is the default serial session: the row has run the column
# engine under that id since before it was the only engine.
MODES = {
    "batched": {},
}


def over_the_wire(op):
    """The op as a follower receives it: framed JSON, decoded."""
    return decode_op(json.loads(json.dumps(encode_op(op))))


def quantum_boundaries(messages, config, **session_kwargs):
    """Yield ``(previous tree, record op, current tree)`` per quantum."""
    with open_session(config, **session_kwargs) as session:
        previous = session._state_tree()
        size = config.quantum_size
        for start in range(0, len(messages) - size + 1, size):
            batch = [Message(u, tokens=t) for u, t in messages[start : start + size]]
            assert len(list(session.ingest_many(batch))) == 1
            op = session._quantum_op()
            current = session._state_tree()
            yield previous, op, current
            previous = current


def sub_op(op, *path):
    """The nested dict-op entry at ``path`` (None when the key is unset)."""
    for key in path:
        assert op[0] == "d" and op[2] == []
        op = dict((k, sub) for k, sub in op[1]).get(key)
        if op is None:
            return None
    return op


@pytest.mark.parametrize("name", ["bursty", "uniform", "reentry"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_record_patches_previous_tree_into_current(name, mode):
    messages, config = regime(name)
    quanta = 0
    for previous, op, current in quantum_boundaries(
        messages, config, **MODES[mode]
    ):
        assert canon(patch_tree(previous, over_the_wire(op))) == canon(current)
        quanta += 1
    assert quanta == len(messages) // config.quantum_size


@pytest.mark.parametrize("name", ["bursty", "uniform", "reentry"])
@pytest.mark.parametrize("mode", ["batched"])
def test_layer_ops_are_no_larger_than_the_differ_finds(name, mode):
    """Per layer: the shipped-whole volatile subtrees are exempt by design
    (diffing them costs more than it saves); the layers that compute an op
    are held to the differ's size."""
    messages, config = regime(name)
    for previous, op, current in quantum_boundaries(
        messages, config, **MODES[mode]
    ):
        for path in (("builder", "idsets"), ("tracker",)):
            a, b = previous, current
            for key in path:
                a, b = a[key], b[key]
            oracle = diff_trees(a, b)
            emitted = sub_op(op, *path)
            if oracle is None:
                assert emitted is None or canon(patch_tree(a, emitted)) == canon(a)
                continue
            assert emitted is not None, path
            assert wire_bytes(emitted) <= wire_bytes(oracle), (
                path,
                current["quantum"],
            )


def test_window_edit_is_drop_heads_insert_one():
    """The tentpole's shape claim, literally: a full window's slide is
    ``x`` (heads), ``k`` (the rest), ``i`` (one block)."""
    messages, config = regime("uniform")
    seen_steady = 0
    for previous, op, current in quantum_boundaries(messages, config):
        splice = sub_op(op, "builder", "idsets", "window")
        kinds = [edit[0] for edit in splice[1]]
        if len(previous["builder"]["idsets"]["window"]) == config.window_quanta:
            assert kinds == ["x", "k", "i"]
            assert splice[1][0][1] == 1 and len(splice[1][2][1]) == 1
            seen_steady += 1
        else:
            assert kinds in (["i"], ["k", "i"])
        # the id-set window is the one window layer a record carries
        assert sub_op(op, "builder", "sketches") is None
    assert seen_steady > 20


def test_record_bytes_do_not_grow_with_stream_length(tmp_path, monkeypatch):
    """A stationary stream's record at quantum 400 costs what it cost at
    quantum 100: histories pile up, the per-quantum edit to them does not
    (the differ-era writer rebuilt and re-walked every history each
    quantum)."""
    from golden import reentry_stream
    from test_extractor_parity import make_config

    config = make_config(quantum_size=40, window_quanta=4)
    # Two keyword groups alternating every window: events keep being born,
    # evolving and dying at a steady rate for as long as the stream runs.
    period = config.quantum_size * config.window_quanta
    messages = [
        Message(u, tokens=t)
        for u, t in reentry_stream(23, 410 * config.quantum_size, period)
    ]
    sizes = []
    monkeypatch.setattr(deltalog, "COMPACT_RATIO", 1e12)  # one generation
    with open_session(config, delta_log=tmp_path / "d") as session:
        writer = session.delta_writer
        logged = writer.log_bytes
        for _ in session.ingest_many(messages):
            sizes.append(writer.log_bytes - logged)
            logged = writer.log_bytes
        histories = session.events()
    assert len(sizes) == 410
    # the tracker state did grow: ~100 histories, ~500 change points
    assert len(histories) > 50
    assert sum(len(r.snapshots) for r in histories) > 300
    early = sum(sizes[90:110]) / 20
    late = sum(sizes[390:410]) / 20
    assert late <= 1.5 * early, (early, late)


# ------------------------------------------------- layer-level corner cases


def test_window_edit_survives_gaps_jumps_and_empty_quanta():
    """Quantum counters that jump expire several blocks in one slide, and
    a quantum nobody spoke in contributes no block — the builder's window
    splice must track both."""
    from repro.akg.builder import AkgBuilder
    from repro.config import DetectorConfig
    from repro.core.maintenance import ClusterMaintainer

    builder = AkgBuilder(DetectorConfig(window_quanta=3), ClusterMaintainer())
    feed = [
        (0, {"a": {"u1", "u2"}, "b": {"u1"}}),
        (1, {"a": {"u3"}}),
        (2, {}),
        (3, {"c": {"u1", "u4"}}),
        (7, {"a": {"u5"}}),  # jump: quanta 1 and 3 expire together
        (8, {}),
        (20, {}),  # everything expires, nothing enters
        (21, {"b": {"u9"}}),
    ]
    previous = builder.to_state()
    for quantum, keyword_users in feed:
        builder.process_quantum(quantum, keyword_users)
        op = over_the_wire(builder.quantum_op(quantum))
        current = builder.to_state()
        assert canon(patch_tree(previous, op)) == canon(current), quantum
        previous = current


def test_tracker_op_covers_birth_change_death_and_reopen():
    """Hand-driven lifecycle, including the reopen of a record that died
    *absorbed* — the one transition whose previous value the record no
    longer shows."""
    from repro.core.changelog import ClusterMerged
    from repro.core.clusters import Cluster
    from repro.core.events import EventTracker

    def cluster(cid, *nodes):
        edges = {tuple(sorted(p)) for p in zip(nodes, nodes[1:])}
        return Cluster(cluster_id=cid, nodes=set(nodes), edges=edges)

    tracker = EventTracker()
    script = [
        # (live (cluster, rank, support) triples, change events)
        ([(cluster(1, "a", "b", "c"), 2.0, 3.0)], []),
        ([(cluster(1, "a", "b", "c"), 2.0, 3.0)], []),  # unchanged
        (
            [
                (cluster(1, "a", "b", "c", "d"), 2.5, 4.0),
                (cluster(2, "x", "y", "z"), 1.0, 3.0),
            ],
            [],
        ),
        (
            [(cluster(2, "x", "y", "z"), 0.5, 3.0)],
            [ClusterMerged(survivor=2, absorbed=(1,))],
        ),
        ([], []),
        (
            [
                (cluster(1, "a", "b", "c"), 1.5, 3.0),
                (cluster(2, "x", "y", "z"), 0.5, 3.0),
                (cluster(3, "p", "q", "r"), 0.1, 3.0),
            ],
            [],
        ),
    ]
    previous = tracker.to_state()
    for quantum, (ranked, changes) in enumerate(script):
        before_alive = {r.event_id for r in tracker.alive_events()}
        tracker.observe_quantum(quantum, ranked, changes)
        touched = before_alive | {c.cluster_id for c, _, _ in ranked}
        op = over_the_wire(tracker.quantum_op(quantum, touched))
        current = tracker.to_state()
        assert canon(patch_tree(previous, op)) == canon(current), quantum
        previous = current
    reopened = tracker.get(1)
    assert reopened.gaps == [(3, 5)] and reopened.absorbed_into is None
