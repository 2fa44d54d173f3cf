"""Delta checkpoints: patch exactness, framing, writer, directory reader.

``patch_tree`` is the whole of the reader's logic, so it is exercised over
every op shape the vocabulary has — generated by the exhaustive differ
kept as a test oracle (``tests/tree_diff.py``): ``patch_tree(a,
diff_trees(a, b)) == b`` at the *byte* level of the canonical checkpoint
codec, on deterministic corner cases and a seeded structural fuzzer.  (That
the ops the *layers* emit patch exactly is ``test_delta_records.py``.)
Framing is tested the way crashes tear it: truncation at every byte offset
of a real log must yield a consistent prefix, never an exception and never
a wrong record.
"""

import json
import random
import struct

import pytest

from repro.api import deltalog, open_session
from repro.api.checkpoint import load_checkpoint, save_checkpoint
from repro.api.deltalog import (
    _LOG_MAGIC,
    DeltaCheckpointWriter,
    FileTailTransport,
    apply_record,
    decode_frames,
    encode_frame,
    patch_tree,
    read_manifest,
)
from repro.errors import CheckpointError

from test_api_checkpoint import bursty_stream, make_config
from tree_diff import TreeSource, canon, diff_trees


def roundtrip(a, b):
    """Assert diff/patch reproduces ``b`` exactly, bytes included."""
    op = diff_trees(a, b)
    patched = patch_tree(a, op)
    assert canon(patched) == canon(b)
    return op


# ---------------------------------------------------------------- diff/patch


class TestDiffPatch:
    def test_identical_trees_diff_to_none(self):
        tree = {"a": [1, 2, {3}], "b": (1.5, "x")}
        assert diff_trees(tree, {"a": [1, 2, {3}], "b": (1.5, "x")}) is None

    def test_patch_none_is_identity(self):
        tree = {"a": 1}
        assert patch_tree(tree, None) is tree

    def test_scalar_replacement(self):
        roundtrip(1, 2)
        roundtrip("a", "b")
        roundtrip(None, 0)

    def test_type_switch_is_replacement(self):
        # 1 == 1.0 and True == 1 under ==, but they serialize differently;
        # the diff must not treat them as equal.
        for a, b in [(1, 1.0), (1.0, 1), (True, 1), (0, False)]:
            op = diff_trees(a, b)
            assert op is not None
            assert canon(patch_tree(a, op)) == canon(b)

    def test_negative_zero_is_a_change(self):
        assert diff_trees(0.0, -0.0) is not None
        roundtrip(0.0, -0.0)
        roundtrip([0.0], [-0.0])

    def test_dict_set_delete_nested(self):
        a = {"keep": 1, "drop": 2, "edit": {"x": [1, 2]}}
        b = {"keep": 1, "new": 3, "edit": {"x": [1, 2, 3]}}
        roundtrip(a, b)

    def test_set_add_remove(self):
        roundtrip({1, 2, 3}, {2, 3, 4})
        roundtrip(frozenset({("a", 1)}), frozenset({("a", 1), ("b", 2)}))

    def test_list_head_expiry_tail_append(self):
        # the sliding-window shape: drop from the head, append at the tail
        a = list(range(100))
        b = list(range(10, 110))
        op = roundtrip(a, b)
        # the edit script must be splice-sized, not a wholesale replace:
        # only the 10 appended elements ride the op
        assert op[0] == "l"
        inserted = sum(
            len(edit[1]) for edit in op[1] if edit[0] == "i"
        )
        assert inserted == 10

    def test_list_single_element_edit_is_small(self):
        a = [["k%d" % i, [i, i + 1]] for i in range(200)]
        b = [list(pair) for pair in a]
        b[77] = ["k77", [77, 999]]
        op = roundtrip(a, b)
        assert len(canon(op)) < len(canon(b)) / 10

    def test_tuple_preserved_through_patch(self):
        a = {"t": (1, 2, 3)}
        b = {"t": (1, 2, 4)}
        patched = patch_tree(a, diff_trees(a, b))
        assert isinstance(patched["t"], tuple)

    def test_frozenset_preserved_through_patch(self):
        a = frozenset({1})
        patched = patch_tree(a, diff_trees(a, frozenset({1, 2})))
        assert isinstance(patched, frozenset)

    def test_patch_does_not_mutate_input(self):
        a = {"x": [1, 2], "s": {1}}
        snapshot = canon(a)
        patch_tree(a, diff_trees(a, {"x": [1, 2, 3], "s": {1, 2}}))
        assert canon(a) == snapshot

    def test_misapplied_patch_raises(self):
        # nested edit against a key the state does not have (the inner
        # dict is padded so the script beats plain replacement and stays
        # a nested edit instead of shrinking to a replace op)
        pad = {f"pad{i}": i for i in range(30)}
        op = diff_trees(
            {"a": {"x": 1, **pad}}, {"a": {"x": 2, **pad}}
        )
        with pytest.raises(CheckpointError):
            patch_tree({"b": {"x": 1, **pad}}, op)
        # deleting a key the state does not have
        op = diff_trees({"a": 1, **pad}, pad)
        with pytest.raises(CheckpointError):
            patch_tree(pad, op)
        # removing a set member the state does not have
        big = set(range(40))
        op = diff_trees(big | {99}, big)
        with pytest.raises(CheckpointError):
            patch_tree(big, op)
        # dict edit against a non-dict
        op = diff_trees(
            {"a": 1, **pad}, {"a": 2, **pad}
        )
        with pytest.raises(CheckpointError):
            patch_tree([1, 2], op)

    def test_malformed_op_raises(self):
        for bad in [[], ["nope", 1], ["l", [["?", 1]]], 42]:
            with pytest.raises(CheckpointError):
                patch_tree({"a": 1}, bad)

    def test_op_round_trips_through_the_wire_codec(self):
        from repro.api.deltalog import decode_op, encode_op

        a = {"m": {("u", 1): {1.5, 2.5}}, "l": [1, "x", None]}
        b = {"m": {("u", 1): {1.5, 3.5}, ("v", 2): {9.0}}, "l": [1, "y"]}
        op = diff_trees(a, b)
        revived = decode_op(
            json.loads(json.dumps(encode_op(op), sort_keys=True))
        )
        assert canon(patch_tree(a, revived)) == canon(b)

    def test_wire_codec_rejects_garbage(self):
        from repro.api.deltalog import decode_op

        for bad in [["?", 1], 42, ["l", [["?", 1]]]]:
            with pytest.raises(CheckpointError):
                decode_op(bad)


def random_tree(rng, depth=0):
    kind = rng.randrange(8 if depth < 3 else 5)
    if kind == 0:
        return rng.randrange(-50, 50)
    if kind == 1:
        return rng.choice([None, True, False])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, 2.25, -3.125, 1e300])
    if kind == 3:
        return "s%d" % rng.randrange(30)
    if kind == 4:
        return frozenset(rng.sample(range(20), rng.randrange(4)))
    if kind == 5:
        return [random_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return tuple(
            random_tree(rng, depth + 1) for _ in range(rng.randrange(4))
        )
    return {
        "k%d" % i: random_tree(rng, depth + 1)
        for i in range(rng.randrange(4))
    }


def mutate_tree(rng, tree, depth=0):
    """A structurally similar tree: edit some substructure in place."""
    if rng.random() < 0.25 or not isinstance(tree, (list, tuple, dict)):
        return random_tree(rng, depth)
    if isinstance(tree, dict):
        out = dict(tree)
        for key in list(out):
            roll = rng.random()
            if roll < 0.15:
                del out[key]
            elif roll < 0.5:
                out[key] = mutate_tree(rng, out[key], depth + 1)
        if rng.random() < 0.4:
            out["k%d" % rng.randrange(8)] = random_tree(rng, depth + 1)
        return out
    items = [
        mutate_tree(rng, x, depth + 1) if rng.random() < 0.4 else x
        for x in tree
    ]
    if rng.random() < 0.4 and items:
        del items[rng.randrange(len(items))]
    if rng.random() < 0.4:
        items.insert(
            rng.randrange(len(items) + 1), random_tree(rng, depth + 1)
        )
    return tuple(items) if isinstance(tree, tuple) else items


class TestDiffPatchFuzz:
    @pytest.mark.parametrize("seed", range(30))
    def test_patch_of_diff_is_exact_on_random_trees(self, seed):
        rng = random.Random(seed)
        a = random_tree(rng)
        b = mutate_tree(rng, a)
        roundtrip(a, b)
        roundtrip(b, a)

    def test_chained_patches_track_a_drifting_tree(self):
        rng = random.Random(99)
        current = random_tree(rng)
        follower = current
        for _ in range(40):
            nxt = mutate_tree(rng, current)
            follower = patch_tree(follower, diff_trees(current, nxt))
            current = nxt
        assert canon(follower) == canon(current)


# ------------------------------------------------------------------ framing


class TestFraming:
    def records(self):
        return [
            {"q": 1, "op": {"t": "dict", "v": []}},
            {"q": 2, "op": None},
            {"q": 3, "op": {"t": "list", "v": [1, 2, "x"]}},
        ]

    def test_round_trip(self):
        data = b"".join(encode_frame(r) for r in self.records())
        out, end = decode_frames(data)
        assert out == self.records()
        assert end == len(data)

    def test_truncation_at_every_byte_yields_consistent_prefix(self):
        frames = [encode_frame(r) for r in self.records()]
        data = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(data) + 1):
            out, end = decode_frames(data[:cut])
            complete = max(i for i, b in enumerate(boundaries) if b <= cut)
            assert out == self.records()[:complete]
            assert end == boundaries[complete]

    def test_corrupt_payload_byte_stops_at_crc(self):
        data = b"".join(encode_frame(r) for r in self.records())
        header = struct.Struct(">II").size
        corrupt = bytearray(data)
        corrupt[header + 2] ^= 0xFF  # inside the first payload
        out, end = decode_frames(bytes(corrupt))
        assert out == []
        assert end == 0

    def test_crc_valid_garbage_json_raises(self):
        import zlib

        payload = b"not json {"
        frame = struct.Struct(">II").pack(
            len(payload), zlib.crc32(payload)
        ) + payload
        with pytest.raises(CheckpointError, match="not valid JSON"):
            decode_frames(frame)

    def test_absurd_length_is_a_torn_tail(self):
        frame = struct.Struct(">II").pack(1 << 31, 0) + b"x"
        out, end = decode_frames(frame)
        assert out == [] and end == 0


# ------------------------------------------------ writer + directory reader


def session_states(n_quanta, config=None, seed=3, messages=None):
    """State trees of a real session at consecutive quantum boundaries."""
    config = config or make_config()
    if messages is None:
        messages = bursty_stream(seed, n_quanta * config.quantum_size)
    session = open_session(config)
    states = []
    for i in range(n_quanta):
        list(
            session.ingest_many(
                messages[
                    i * config.quantum_size : (i + 1) * config.quantum_size
                ]
            )
        )
        states.append(session._state_tree())
    return states


def logged_record_sizes(tmp_path, config, messages):
    """Frame size of every record a real session logs over ``messages``;
    leaves a monolithic snapshot of the final state at ``full.ckpt``."""
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deltalog, "COMPACT_RATIO", 1e12)  # one generation
        with open_session(config, delta_log=tmp_path / "d") as session:
            writer = session.delta_writer
            logged = writer.log_bytes
            for _ in session.ingest_many(messages):
                sizes.append(writer.log_bytes - logged)
                logged = writer.log_bytes
            session.snapshot(tmp_path / "full.ckpt")
    return sizes


class TestWriterAndReader:
    def test_replay_equals_monolithic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deltalog, "COMPACT_RATIO", 1e9)
        states = session_states(8)
        writer = DeltaCheckpointWriter(tmp_path / "d")
        source = TreeSource(states[0])
        writer.start(source)
        for state in states[1:]:
            writer.append(source.advance(state))
        writer.close()
        save_checkpoint(tmp_path / "mono.ckpt", states[-1])
        assert canon(load_checkpoint(tmp_path / "d")) == canon(
            load_checkpoint(tmp_path / "mono.ckpt")
        )

    def test_compaction_rolls_generation_and_truncates(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(deltalog, "COMPACT_RATIO", 0.5)
        states = session_states(8)
        writer = DeltaCheckpointWriter(tmp_path / "d")
        source = TreeSource(states[0])
        writer.start(source)
        for state in states[1:]:
            writer.append(source.advance(state))
        assert writer.compactions > 0
        manifest = read_manifest(tmp_path / "d")
        assert manifest["generation"] == writer.generation > 0
        # old-generation files are gone, current ones exist
        names = {p.name for p in (tmp_path / "d").iterdir()}
        assert manifest["base"] in names and manifest["log"] in names
        assert not any(
            n.startswith(("base-0", "deltas-0")) for n in names
        )
        writer.close()
        assert canon(load_checkpoint(tmp_path / "d")) == canon(states[-1])

    def test_attach_starts_a_fresh_generation(self, tmp_path):
        states = session_states(6)
        source = TreeSource(states[0])
        first = DeltaCheckpointWriter(tmp_path / "d")
        first.start(source)
        first.append(source.advance(states[1]))
        first.close()
        second = DeltaCheckpointWriter(tmp_path / "d")
        second.start(source)
        assert second.generation == first.generation + 1
        second.append(source.advance(states[2]))
        second.close()
        assert canon(load_checkpoint(tmp_path / "d")) == canon(states[2])

    def test_append_before_start_raises(self, tmp_path):
        writer = DeltaCheckpointWriter(tmp_path / "d")
        with pytest.raises(CheckpointError, match="not started"):
            writer.append(TreeSource({"quantum": 0}))

    def test_delta_records_are_small(self, tmp_path):
        # A quantum that touches a small fraction of a wide window — the
        # regime delta checkpoints exist for.  (The bursty fixture churns
        # its whole 6-keyword state every quantum, so it exercises
        # correctness, not size.)  Each quantum uses one of 20 rotating
        # keyword groups over a 12-quantum window.  At full scale the
        # e2e benchmark's api.deltalog.delta_ratio tracks the same size.
        from repro.stream.messages import Message

        rng = random.Random(5)
        config = make_config(quantum_size=40, window_quanta=12)
        n_quanta = 30
        groups = [
            [f"g{g}k{i}" for i in range(8)] for g in range(20)
        ]
        messages = []
        for q in range(n_quanta):
            group = groups[q % 20]
            for _ in range(config.quantum_size):
                messages.append(
                    Message(
                        f"u{rng.randrange(200)}",
                        tokens=tuple(rng.sample(group, 2)),
                    )
                )
        sizes = logged_record_sizes(tmp_path, config, messages)
        # compare steady-state deltas to a full snapshot at the same
        # stream position (the gen-0 base predates the full window)
        full = (tmp_path / "full.ckpt").stat().st_size
        assert max(sizes[12:]) < full / 2

    def test_delta_record_never_larger_than_a_snapshot(self, tmp_path):
        # worst case — a tiny window that churns completely every few
        # quanta: a record is a window block plus the small subtrees
        # whole, never more than the state it moves
        config = make_config()
        sizes = logged_record_sizes(
            tmp_path, config, bursty_stream(3, 6 * config.quantum_size)
        )
        assert max(sizes) < (tmp_path / "full.ckpt").stat().st_size

    def test_discontinuous_record_raises(self):
        state = {"quantum": 5}
        with pytest.raises(CheckpointError, match="discontinuous"):
            apply_record(state, {"q": 7, "op": None})
        with pytest.raises(CheckpointError, match="malformed"):
            apply_record(state, {"op": None})

    def test_transport_rejects_bad_magic(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "deltas-0.log").write_bytes(b"XXXX")
        transport = FileTailTransport(d)
        with pytest.raises(CheckpointError, match="bad magic"):
            transport.read_records(
                {"log": "deltas-0.log", "base": "x", "generation": 0},
                0,
            )
        assert (d / "deltas-0.log").read_bytes()[:4] != _LOG_MAGIC[:3] + b"?"


class TestSessionIntegration:
    def test_session_delta_log_equals_session_snapshot(self, tmp_path):
        config = make_config()
        messages = bursty_stream(11, 600)
        with open_session(config, delta_log=tmp_path / "d") as session:
            list(session.ingest_many(messages))
            session.snapshot(tmp_path / "mono.ckpt")
        assert canon(load_checkpoint(tmp_path / "d")) == canon(
            load_checkpoint(tmp_path / "mono.ckpt")
        )

    def test_resume_from_delta_directory_is_bit_identical(self, tmp_path):
        from test_api_checkpoint import report_key

        config = make_config()
        messages = bursty_stream(13, 900)
        whole = open_session(config)
        expected = [report_key(r) for r in whole.ingest_many(messages)]

        with open_session(config, delta_log=tmp_path / "d") as leader:
            got = [report_key(r) for r in leader.ingest_many(messages[:600])]
        resumed = open_session(resume=tmp_path / "d")
        got += [report_key(r) for r in resumed.ingest_many(messages[600:])]
        assert got == expected

    def test_enable_delta_log_twice_raises(self, tmp_path):
        with open_session(make_config(), delta_log=tmp_path / "d") as s:
            with pytest.raises(CheckpointError):
                s.enable_delta_log(tmp_path / "d2")
