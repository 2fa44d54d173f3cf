"""Checkpoint/restore: codec round trips and the resume differential.

The headline guarantee (DESIGN.md Section 6): a session resumed from a
mid-stream snapshot emits *bit-identical* ``QuantumReport``s, sink
notifications and event histories to a session that never stopped.  The
differential harness below checks that across the three stream regimes of
the AKG property tests — bursty, uniform, and adversarial window-boundary
re-entry — with snapshot points deliberately not aligned to quantum
boundaries so the buffered partial quantum is exercised too.
"""

import json
import random
from pathlib import Path

import pytest

from helpers import check_decomposition
from oracles import verify_ranker
from repro.api import (
    CHECKPOINT_VERSION,
    QueueSink,
    decode_state,
    encode_state,
    open_session,
)
from repro.api.checkpoint import CHECKPOINT_FORMAT
from repro.config import DetectorConfig
from repro.errors import CheckpointError
from repro.stream.messages import Message


def make_config(**overrides):
    base = dict(
        quantum_size=20,
        window_quanta=3,
        high_state_threshold=3,
        ec_threshold=0.2,
        node_grace_quanta=1,
        require_noun=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


# ----------------------------------------------------------- stream regimes


def bursty_stream(seed, n):
    """Few keywords, heavy user overlap: dense graphs, merge/split churn."""
    rng = random.Random(seed)
    keywords = [f"k{i}" for i in range(6)]
    return [
        Message(
            f"u{rng.randrange(20)}",
            tokens=tuple(rng.sample(keywords, rng.randint(2, 4))),
        )
        for _ in range(n)
    ]


def uniform_stream(seed, n):
    """Wide shallow vocabulary: staleness expiry and lazy drops dominate."""
    rng = random.Random(seed)
    keywords = [f"w{i}" for i in range(40)]
    return [
        Message(
            f"u{rng.randrange(60)}",
            tokens=tuple(rng.sample(keywords, rng.randint(1, 3))),
        )
        for _ in range(n)
    ]


def reentry_stream(seed, n, config):
    """Keyword groups fall silent for exactly the window length and re-enter
    in the quantum their last entries expire — the boundary where stale
    window state would surface after a restore."""
    rng = random.Random(seed)
    group_a = [f"a{i}" for i in range(4)]
    group_b = [f"b{i}" for i in range(4)]
    period = config.quantum_size * config.window_quanta
    out = []
    for i in range(n):
        group = group_a if (i // period) % 2 == 0 else group_b
        out.append(
            Message(
                f"u{rng.randrange(15)}",
                tokens=tuple(rng.sample(group, rng.randint(2, 3))),
            )
        )
    return out


REGIMES = ["bursty", "uniform", "reentry"]


def regime_stream(regime, seed, n, config):
    if regime == "bursty":
        return bursty_stream(seed, n)
    if regime == "uniform":
        return uniform_stream(seed, n)
    return reentry_stream(seed, n, config)


# ------------------------------------------------------------- comparators


def report_key(report):
    return (
        report.quantum,
        report.messages_processed,
        [
            (e.event_id, e.keywords, e.rank, e.support, e.size,
             e.num_edges, e.born_quantum)
            for e in report.reported
        ],
        [
            (e.event_id, e.keywords, e.rank, e.support)
            for e in report.suppressed
        ],
        report.new_event_ids,
        report.dead_event_ids,
        report.changes,
        report.dirty_clusters,
        report.ranked_clusters,
    )


def notification_key(event):
    return (
        event.kind,
        event.quantum,
        event.event_id,
        event.keywords,
        event.rank,
        event.size,
        event.previous_rank,
        event.previous_size,
    )


def history_key(record):
    return (
        record.event_id,
        record.born_quantum,
        record.died_quantum,
        record.absorbed_into,
        [
            (s.quantum, s.keywords, s.rank, s.support, s.num_edges)
            for s in record.snapshots
        ],
    )


def run_with_restart(config, messages, split, tmp_path):
    """(reports, notifications, final session) with a snapshot at ``split``."""
    path = tmp_path / "mid.ckpt"
    first = open_session(config)
    sink1 = QueueSink()
    first.subscribe(sink1)
    reports = [report_key(r) for r in first.ingest_many(messages[:split])]
    notes = [notification_key(e) for e in sink1.drain()]
    first.snapshot(path)
    resumed = open_session(resume=path)
    sink2 = QueueSink()
    resumed.subscribe(sink2)
    reports += [report_key(r) for r in resumed.ingest_many(messages[split:])]
    notes += [notification_key(e) for e in sink2.drain()]
    return reports, notes, resumed


class TestResumeDifferential:
    """snapshot → restore → continue == uninterrupted, bit for bit."""

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_resumed_run_is_bit_identical(self, regime, seed, tmp_path):
        config = make_config()
        messages = regime_stream(regime, seed, 900, config)
        # split mid-quantum on purpose: the buffered partial quantum must
        # survive the checkpoint
        split = 437
        assert split % config.quantum_size != 0

        whole = open_session(config)
        sink = QueueSink()
        whole.subscribe(sink)
        expected_reports = [report_key(r) for r in whole.ingest_many(messages)]
        expected_notes = [notification_key(e) for e in sink.drain()]

        reports, notes, resumed = run_with_restart(
            config, messages, split, tmp_path
        )
        assert reports == expected_reports
        assert notes == expected_notes
        assert [history_key(r) for r in resumed.events()] == [
            history_key(r) for r in whole.events()
        ]
        assert resumed.total_messages == whole.total_messages

    def test_double_restart(self, tmp_path):
        """Checkpointing composes: stop/resume twice along one stream."""
        config = make_config()
        messages = bursty_stream(5, 900)
        whole = open_session(config)
        expected = [report_key(r) for r in whole.ingest_many(messages)]

        actual = []
        session = open_session(config)
        for lo, hi in ((0, 301), (301, 650), (650, 900)):
            actual += [
                report_key(r) for r in session.ingest_many(messages[lo:hi])
            ]
            if hi < len(messages):
                path = tmp_path / f"ck{hi}.ckpt"
                session.snapshot(path)
                session = open_session(resume=path)
        assert actual == expected

    def test_restored_invariants_hold(self, tmp_path):
        """The restored world passes the same oracle checks as a live one."""
        config = make_config()
        messages = bursty_stream(13, 700)
        session = open_session(config)
        list(session.ingest_many(messages[:500]))
        path = tmp_path / "inv.ckpt"
        session.snapshot(path)
        resumed = open_session(resume=path)
        resumed.registry.check_integrity()
        check_decomposition(resumed.maintainer)
        verify_ranker(resumed.ranker)
        list(resumed.ingest_many(messages[500:]))
        check_decomposition(resumed.maintainer)
        verify_ranker(resumed.ranker)


class TestCheckpointFile:
    def test_config_round_trips_through_checkpoint(self, tmp_path):
        config = make_config(
            quantum_size=33, ec_threshold=0.17, max_tokens_per_message=17
        )
        session = open_session(config)
        path = tmp_path / "cfg.ckpt"
        session.snapshot(path)
        assert open_session(resume=path).config == config

    def test_snapshot_before_first_quantum(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        open_session(make_config()).snapshot(path)
        resumed = open_session(resume=path)
        assert resumed.current_quantum == -1
        assert resumed.total_messages == 0

    def test_snapshot_write_is_atomic(self, tmp_path):
        """A failed snapshot must never clobber the previous checkpoint."""
        path = tmp_path / "atomic.ckpt"
        session = open_session(make_config())
        list(session.ingest_many(bursty_stream(1, 200)))
        session.snapshot(path)
        good = path.read_bytes()
        bad = open_session(make_config())
        bad.tracker._records = {0: object()}  # unserializable state
        with pytest.raises(Exception):
            bad.snapshot(path)
        assert path.read_bytes() == good
        assert not (tmp_path / "atomic.ckpt.tmp").exists()

    def test_custom_tagger_mismatch_rejected(self, tmp_path):
        from repro.text.pos import NounTagger

        tagger = NounTagger({"quake": "noun"})
        session = open_session(make_config(), noun_tagger=tagger)
        path = tmp_path / "tagger.ckpt"
        session.snapshot(path)
        with pytest.raises(CheckpointError, match="noun_tagger"):
            open_session(resume=path)
        resumed = open_session(resume=path, noun_tagger=tagger)
        assert resumed.noun_tagger is tagger
        # and the inverse direction: default recorded, custom offered
        plain = open_session(make_config())
        plain.snapshot(path)
        with pytest.raises(CheckpointError, match="noun_tagger"):
            open_session(resume=path, noun_tagger=tagger)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(CheckpointError):
            open_session(resume=path)

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_text(
            json.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": CHECKPOINT_VERSION + 1,
                    "state": None,
                }
            )
        )
        with pytest.raises(CheckpointError, match="version"):
            open_session(resume=path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_text("not json")
        with pytest.raises(CheckpointError):
            open_session(resume=path)
        with pytest.raises(CheckpointError):
            open_session(resume=tmp_path / "missing.ckpt")

    def test_unknown_config_field_rejected(self, tmp_path):
        """A checkpoint from a build with extra config knobs fails loudly."""
        session = open_session(make_config())
        path = tmp_path / "cfg2.ckpt"
        session.snapshot(path)
        document = json.loads(path.read_text())
        state = decode_state(document["state"])
        state["config"]["hyperdrive"] = True
        document["state"] = encode_state(state)
        path.write_text(json.dumps(document))
        with pytest.raises(Exception, match="hyperdrive"):
            open_session(resume=path)


class TestVersionMigration:
    """Older checkpoints (v2 to v9) load through one upgrade step to the
    v10 layout; truly unknown versions fail with an error naming what *is*
    readable.

    ``tests/data/checkpoint_v2.ckpt`` was written by the pre-extractor
    tree (PR 4 head), ``checkpoint_v3.ckpt`` by the last tree with
    per-keyword window layouts (PR 12 head), ``checkpoint_v4.ckpt`` by
    the last tree that kept a sketch window (PR 18 head) and
    ``checkpoint_v5.ckpt`` by the last tree with a sharded front-end (PR
    21 head: its timings carry the ``scatter`` / ``exchange`` /
    ``overlap_saved`` slots since deleted) and ``checkpoint_v6.ckpt`` by
    the last tree with CKG counters on the session (PR 25 head: a null
    ``ckg_stats`` subtree and a ``track_ckg_stats`` config entry) and
    ``checkpoint_v7.ckpt`` by the last tree whose config carried the
    MinHash sketch-size override and salt (at their defaults) and
    ``checkpoint_v8.ckpt`` by the last tree that stored the notified state
    and whose config carried the cluster-size minimum and rank-floor scale
    (at their defaults) and ``checkpoint_v9.ckpt`` by the last tree whose
    event records carried a ``gaps`` list (always empty), all at
    message 250 of the same seed-pinned stream, mid-quantum; the
    continuation fingerprint below is what each of those trees produced
    for messages 250..300 — the migrated resume must reproduce it bit for
    bit.  ``delta_v6/`` is the PR 21 tree's delta log of the same stream: a
    base at message 160 and the four records up to message 240.  Its
    records are state edits, which delta-log version 7 (records are the
    quanta's input) no longer applies: the directory is refused by manifest
    version, and its base still loads as a checkpoint.  ``delta_v7/`` is
    the last version-7 tree's log of the same positions and config: its
    records are input, but its base carries the whole window and it has no
    window file, so version 8 refuses it by number as well; its base
    resumes like any checkpoint.  ``delta_v8/`` is the last version-8
    tree's log of the same positions and config, rolled at every quantum
    up to the base so its window file holds quanta 5..7: its manifest does
    not say how many buffered messages its base carries, so version 9
    refuses it by number; given that count (0) it continues bit for bit.
    """

    VERSIONS = (2, 3, 4, 5, 6, 7, 8, 9)
    DELTA_DIR = Path(__file__).parent / "data" / "delta_v6"
    DELTA_V7_DIR = Path(__file__).parent / "data" / "delta_v7"
    DELTA_V8_DIR = Path(__file__).parent / "data" / "delta_v8"
    ASSETS = {
        version: Path(__file__).parent / "data" / f"checkpoint_v{version}.ckpt"
        for version in VERSIONS
    }
    CONTINUATION = (
        "9764eedd3c2267c7348051c7f2e08deca80f364eb43daa5f576646b0cfcd6664"
    )

    def stream(self):
        from golden import bursty_stream

        return [Message(u, tokens=t) for u, t in bursty_stream(5, 300)]

    @pytest.mark.parametrize("version", VERSIONS)
    def test_asset_is_the_version_it_says(self, version):
        document = json.loads(self.ASSETS[version].read_text())
        assert document["version"] == version
        assert CHECKPOINT_VERSION == 10

    def test_migrated_state_has_extractor_identity(self):
        from repro.api.checkpoint import load_checkpoint

        state = load_checkpoint(self.ASSETS[2])
        assert state["extractor"] == {"name": "keyword", "options": {}}
        assert state["custom_extractor"] is False
        assert "custom_tokenizer" not in state
        assert "extract" in state["timings"]
        assert "tokenize" not in state["timings"]

    @pytest.mark.parametrize("version", [2, 3])
    def test_migrated_windows_are_queues_of_quanta(self, version):
        from repro.api.checkpoint import load_checkpoint

        document = json.loads(self.ASSETS[version].read_text())
        old = decode_state(document["state"])["builder"]
        new = load_checkpoint(self.ASSETS[version])["builder"]
        assert "sketches" not in new
        assert "entries" not in new["idsets"]
        window = new["idsets"]["window"]
        quanta = [q for q, _ in window]
        assert quanta == sorted(set(quanta))
        for _, block in window:
            assert [kw for kw, _ in block] == sorted(kw for kw, _ in block)
        # the transposition moves every (keyword, quantum) cell, once
        assert sorted(
            (kw, q, value) for q, block in window for kw, value in block
        ) == sorted(
            (kw, q, value)
            for kw, entries in old["idsets"]["entries"]
            for q, value in entries
        )

    def test_v5_asset_carries_the_deleted_timing_slots(self):
        """Written by the parent tree; restore drops the slots it no longer
        has instead of raising on them."""
        from repro.api.checkpoint import load_checkpoint
        from repro.pipeline.reports import StageTimings

        stored = load_checkpoint(self.ASSETS[5])["timings"]
        assert {"scatter", "exchange", "overlap_saved"} <= set(stored)
        session = open_session(resume=self.ASSETS[5])
        assert session.total_timings == StageTimings.from_dict(stored)
        assert session.total_timings.akg_update == stored["akg_update"] > 0.0

    def test_parent_written_delta_directory_continues_bit_identically(self):
        """The v6 records are refused, but its base resumes and — re-fed
        the input those records logged, which is what a version-7 record
        holds — continues bit-identically."""
        from golden import fingerprint, note_record, report_record

        with pytest.raises(CheckpointError, match="version 6"):
            open_session(resume=self.DELTA_DIR)
        session = open_session(resume=self.DELTA_DIR / "base-0.ckpt")
        assert session.current_quantum == 7
        assert session.batcher.pending == 0
        list(session.ingest_many(self.stream()[160:240]))
        assert session.current_quantum == 11
        inbox = QueueSink()
        session.subscribe(inbox)
        reports = list(session.ingest_many(self.stream()[240:]))
        structure = {
            "reports": [report_record(r) for r in reports],
            "notes": [note_record(e) for e in inbox.drain()],
        }
        assert fingerprint(structure) == self.CONTINUATION

    def test_v6_delta_directory_is_refused_by_manifest_version(self):
        from repro.api.checkpoint import load_checkpoint
        from repro.api.deltalog import DELTA_VERSION

        assert DELTA_VERSION == 9
        for load in (load_checkpoint, lambda p: open_session(resume=p)):
            with pytest.raises(
                CheckpointError,
                match="delta-checkpoint version 6; this build reads "
                "version 9",
            ):
                load(self.DELTA_DIR)
        base = load_checkpoint(self.DELTA_DIR / "base-0.ckpt")
        assert base["quantum"] == 7 and "notified" not in base

    def test_v7_delta_directory_is_refused_by_manifest_version(self):
        from repro.api.checkpoint import load_checkpoint

        for load in (load_checkpoint, lambda p: open_session(resume=p)):
            with pytest.raises(
                CheckpointError,
                match="delta-checkpoint version 7; this build reads "
                "version 9",
            ):
                load(self.DELTA_V7_DIR)
        base = load_checkpoint(self.DELTA_V7_DIR / "base-0.ckpt")
        assert base["quantum"] == 7 and "window_from" not in base
        assert len(base["builder"]["idsets"]["window"]) == 3

    def test_v7_delta_base_continues_bit_identically(self):
        """The v7 base holds its whole window: it resumes on its own and,
        re-fed the input its four records logged, continues bit for bit."""
        from golden import fingerprint, note_record, report_record

        from repro.api.deltalog import FileTailTransport
        from repro.stream.sources import message_from_record

        transport = FileTailTransport(self.DELTA_V7_DIR)
        records, _ = transport.read_records({"log": "deltas-0.log"}, 0)
        logged = [message_from_record(m) for r in records for m in r["in"]]
        assert [r["q"] for r in records] == [8, 9, 10, 11]
        assert logged == self.stream()[160:240]
        session = open_session(resume=self.DELTA_V7_DIR / "base-0.ckpt")
        assert session.current_quantum == 7
        list(session.ingest_many(logged))
        inbox = QueueSink()
        session.subscribe(inbox)
        reports = list(session.ingest_many(self.stream()[240:]))
        structure = {
            "reports": [report_record(r) for r in reports],
            "notes": [note_record(e) for e in inbox.drain()],
        }
        assert fingerprint(structure) == self.CONTINUATION

    def test_v8_delta_directory_is_refused_by_manifest_version(self):
        from repro.api.checkpoint import load_checkpoint

        manifest = json.loads(
            (self.DELTA_V8_DIR / "MANIFEST.json").read_text()
        )
        assert manifest["window_from"] == 5 and "pending" not in manifest
        for load in (load_checkpoint, lambda p: open_session(resume=p)):
            with pytest.raises(
                CheckpointError,
                match="delta-checkpoint version 8; this build reads "
                "version 9",
            ):
                load(self.DELTA_V8_DIR)

    def test_v8_delta_directory_given_its_pending_count_continues(
        self, tmp_path
    ):
        """Version 9 adds only the manifest's ``pending``: the v8 tree,
        told its base buffers nothing, replays its window file and log and
        continues bit for bit."""
        import shutil

        from golden import fingerprint, note_record, report_record

        delta = tmp_path / "delta"
        shutil.copytree(self.DELTA_V8_DIR, delta)
        manifest = json.loads((delta / "MANIFEST.json").read_text())
        manifest.update(version=9, pending=0)
        (delta / "MANIFEST.json").write_text(json.dumps(manifest))
        session = open_session(resume=delta)
        assert session.current_quantum == 11
        assert session.batcher.pending == 0
        inbox = QueueSink()
        session.subscribe(inbox)
        reports = list(session.ingest_many(self.stream()[240:]))
        structure = {
            "reports": [report_record(r) for r in reports],
            "notes": [note_record(e) for e in inbox.drain()],
        }
        assert fingerprint(structure) == self.CONTINUATION

    # ``fingerprint(encode_state(load_checkpoint(asset)))`` as the retired
    # one-step-per-version migration chain (v2 -> v3 -> ... -> v7) produced
    # it, minus the config's ``minhash_size`` and ``seed`` that v8 drops and
    # the config's ``min_cluster_size`` and ``rank_threshold_scale`` and the
    # top-level ``notified`` that v9 drops, and with the records' empty
    # ``gaps`` that v10 drops put back: the single upgrade step must land
    # on the very same trees.  The v9 asset's entry is its tree as the
    # version-9 tree loaded it.
    UPGRADED = {
        "checkpoint_v2.ckpt": (
            "b067029a0fc7c53b00a8b51039d76f1827692d876431a7251fb241357dc7cac9"
        ),
        "checkpoint_v3.ckpt": (
            "e6eedc9f667b2e79fb836391e8012395b6b5c00b7b0654108dbc2663f77149a5"
        ),
        "checkpoint_v4.ckpt": (
            "74f33244494c6c988c54b05e6e7aa0b1d591f139347400e13159f364408971f6"
        ),
        "checkpoint_v5.ckpt": (
            "03dd2b04cb30203594992df534dd6b406b583bb9d890eb4ec97a308c516a5cbd"
        ),
        "checkpoint_v6.ckpt": (
            "05f31ecfa36e6df3d2bb2c0dbc3a69710fccfbc9c94c066ab548011a650a5d08"
        ),
        "checkpoint_v7.ckpt": (
            "c69f35cfff8a50b962e2e2bc0fd100c82081796a4843d94879f9e2e6fedef4ef"
        ),
        "checkpoint_v8.ckpt": (
            "a097486c74451a34e15005bc451b3c5636f1796f675bec2b9ad127d77f595558"
        ),
        "checkpoint_v9.ckpt": (
            "9c1a6ef17a5b729eed099293575148599c01bb11ed6b813f6a57267e70b448b4"
        ),
    }

    @pytest.mark.parametrize("asset", sorted(UPGRADED))
    def test_upgrade_reproduces_the_migration_chain(self, asset):
        from golden import fingerprint, with_empty_gaps
        from repro.api.checkpoint import load_checkpoint

        state = load_checkpoint(Path(__file__).parent / "data" / asset)
        assert all(
            "gaps" not in record for record in state["tracker"]["records"]
        )
        assert fingerprint(
            encode_state(with_empty_gaps(state))
        ) == self.UPGRADED[asset]

    @pytest.mark.parametrize("version", VERSIONS)
    def test_v6_migration_drops_the_referee_flags(self, version):
        from repro.api.checkpoint import load_checkpoint

        state = load_checkpoint(self.ASSETS[version])
        modes = {"oracle_akg", "oracle_ranking"}
        assert not modes & set(state)
        assert not modes & set(state["config"])
        assert "oracle" not in state["builder"]

    @pytest.mark.parametrize("version", VERSIONS)
    def test_v7_migration_drops_the_ckg_counters(self, version):
        from repro.api.checkpoint import load_checkpoint

        state = load_checkpoint(self.ASSETS[version])
        assert "ckg_stats" not in state
        assert "track_ckg_stats" not in state["config"]

    @pytest.mark.parametrize("version", VERSIONS)
    def test_v8_migration_drops_the_sketch_settings(self, version):
        from repro.api.checkpoint import load_checkpoint

        config = load_checkpoint(self.ASSETS[version])["config"]
        assert not {"minhash_size", "seed"} & set(config)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_v9_migration_drops_the_report_rule(self, version):
        """... and the notified state, which the restored index replaces."""
        from repro.api.checkpoint import load_checkpoint

        state = load_checkpoint(self.ASSETS[version])
        assert "notified" not in state
        assert not {"min_cluster_size", "rank_threshold_scale"} & set(
            state["config"]
        )

    @pytest.mark.parametrize("key,value", [("minhash_size", 7), ("seed", 1)])
    def test_overridden_sketch_setting_is_refused_by_name(
        self, key, value, tmp_path
    ):
        """A v6 checkpoint whose config set the sketch size or salt was
        built from sketches no session computes any more."""
        document = json.loads(self.ASSETS[6].read_text())
        state = decode_state(document["state"])
        state["config"][key] = value
        document["state"] = encode_state(state)
        path = tmp_path / f"{key}.ckpt"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match=f"{key}={value}"):
            open_session(resume=path)

    @pytest.mark.parametrize(
        "key,value", [("min_cluster_size", 5), ("rank_threshold_scale", 2.0)]
    )
    def test_overridden_report_rule_is_refused_by_name(
        self, key, value, tmp_path
    ):
        """A v8 checkpoint whose config set the cluster-size minimum or the
        rank-floor scale reported under a rule no session runs any more."""
        document = json.loads(self.ASSETS[8].read_text())
        state = decode_state(document["state"])
        state["config"][key] = value
        document["state"] = encode_state(state)
        path = tmp_path / f"{key}.ckpt"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match=f"{key}={value}"):
            open_session(resume=path)

    def test_tracked_ckg_counters_still_resume(self, tmp_path):
        """A v6 checkpoint taken with ``track_ckg_stats=True`` resumes: the
        counters never fed detection, so dropping them changes nothing."""
        from golden import fingerprint, note_record, report_record

        document = json.loads(self.ASSETS[6].read_text())
        state = decode_state(document["state"])
        assert state["ckg_stats"] is None
        state["config"]["track_ckg_stats"] = True
        state["ckg_stats"] = {
            "truncated_users": 0,
            "pair_window": [[11, [[["k0", "k1"], 3]]]],
            "node_window": [[11, ["k0", "k1"]]],
        }
        document["state"] = encode_state(state)
        path = tmp_path / "tracked.ckpt"
        path.write_text(json.dumps(document))
        session = open_session(resume=path)
        inbox = QueueSink()
        session.subscribe(inbox)
        reports = [r for m in self.stream()[250:] if (r := session.ingest(m))]
        structure = {
            "reports": [report_record(r) for r in reports],
            "notes": [note_record(e) for e in inbox.drain()],
        }
        assert fingerprint(structure) == self.CONTINUATION

    def test_reopened_event_record_is_refused_by_name(self, tmp_path):
        """A record with a non-empty ``gaps`` list says an event died and
        came back, which no session tracks any more."""
        document = json.loads(self.ASSETS[9].read_text())
        state = decode_state(document["state"])
        state["tracker"]["records"][0]["gaps"] = [[2, 4]]
        document["state"] = encode_state(state)
        path = tmp_path / "reopened.ckpt"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match=r"gaps=\[\[2, 4\]\]"):
            open_session(resume=path)

    def with_referee_mode(self, source, target, mode):
        """``source`` (a v5 checkpoint file) rewritten as if taken under
        ``mode``, the way a session of that version recorded it: the
        top-level flag, the config entry, and the builder's for the AKG."""
        document = json.loads(source.read_text())
        state = decode_state(document["state"])
        state[mode] = state["config"][mode] = True
        if mode == "oracle_akg":
            state["builder"]["oracle"] = True
        document["state"] = encode_state(state)
        target.write_text(json.dumps(document))

    @pytest.mark.parametrize("mode", ["oracle_akg", "oracle_ranking"])
    def test_referee_mode_checkpoint_is_refused_by_name(self, mode, tmp_path):
        path = tmp_path / "referee.ckpt"
        self.with_referee_mode(self.ASSETS[5], path, mode)
        with pytest.raises(CheckpointError, match=f"{mode}=True"):
            open_session(resume=path)

    def test_referee_mode_delta_base_is_refused_by_name(self, tmp_path):
        """A current-version directory over the v6 asset's base (a v5
        snapshot) rewritten as a referee-mode one, with an empty log."""
        import shutil

        from repro.api.deltalog import _LOG_MAGIC, DELTA_VERSION

        delta = tmp_path / "delta"
        shutil.copytree(self.DELTA_DIR, delta)
        base = delta / "base-0.ckpt"
        self.with_referee_mode(base, base, "oracle_akg")
        (delta / "deltas-0.log").write_bytes(_LOG_MAGIC)
        (delta / "window-0.log").write_bytes(_LOG_MAGIC)
        manifest = json.loads((delta / "MANIFEST.json").read_text())
        manifest["version"] = DELTA_VERSION
        manifest["window"] = "window-0.log"
        manifest["window_from"] = manifest["base_quantum"] + 1
        manifest["pending"] = 0
        (delta / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="oracle_akg=True"):
            open_session(resume=delta)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_old_resume_continues_bit_identically(self, version):
        from golden import fingerprint, note_record, report_record

        messages = self.stream()
        session = open_session(resume=self.ASSETS[version])
        assert session.extractor.name == "keyword"
        inbox = QueueSink()
        session.subscribe(inbox)
        reports = [r for m in messages[250:] if (r := session.ingest(m))]
        structure = {
            "reports": [report_record(r) for r in reports],
            "notes": [note_record(e) for e in inbox.drain()],
        }
        assert fingerprint(structure) == self.CONTINUATION

    @pytest.mark.parametrize("version", VERSIONS)
    def test_old_resume_snapshots_as_current(self, tmp_path, version):
        from golden import fingerprint, normalized_checkpoint_state

        session = open_session(resume=self.ASSETS[version])
        path = tmp_path / "upgraded.ckpt"
        session.snapshot(path)
        document = json.loads(path.read_text())
        assert document["version"] == CHECKPOINT_VERSION
        # the migrated tree is exactly what the live layers serialize
        assert fingerprint(normalized_checkpoint_state(path)) == fingerprint(
            normalized_checkpoint_state(self.ASSETS[version])
        )
        # and the upgraded checkpoint resumes normally (250 messages =
        # 12 complete quanta of 20 -> 0-based index 11, 10 buffered)
        resumed = open_session(resume=path)
        assert resumed.current_quantum == 11
        assert resumed.batcher.pending == 10

    def test_unmigratable_version_names_the_readable_set(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_text(
            json.dumps(
                {"format": CHECKPOINT_FORMAT, "version": 1, "state": None}
            )
        )
        with pytest.raises(
            CheckpointError, match="migrate versions 2, 3, 4, 5, 6, 7, 8, 9$"
        ):
            open_session(resume=path)


def _case_id(value):
    # a set's repr follows hash order, which for str members changes with
    # PYTHONHASHSEED; sort the members so the test id is the same every run
    if isinstance(value, (set, frozenset)):
        body = "{" + ", ".join(sorted(map(repr, value))) + "}"
        return body if type(value) is set else f"frozenset({body})"
    return repr(value)


class TestStateCodec:
    CASES = [
        None,
        True,
        0,
        -17,
        3.141592653589793,
        "keyword",
        "",
        [1, "two", None],
        (1, 2),
        {"a": 1, 2: "b", (3, 4): [5]},
        {1, 2, 3},
        frozenset({"x", "y"}),
        {"nested": [{"deep": ({"set": frozenset({(1, 2)})},)}]},
        {},
        [],
        (),
    ]

    @pytest.mark.parametrize("value", CASES, ids=_case_id)
    def test_round_trip(self, value):
        encoded = encode_state(value)
        json.dumps(encoded)  # must be JSON-serializable as-is
        decoded = decode_state(encoded)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_float_exactness(self):
        values = [0.1 + 0.2, 1e-300, 61.94370613618281]
        decoded = decode_state(json.loads(json.dumps(encode_state(values))))
        for original, restored in zip(values, decoded):
            assert original == restored
            assert original.hex() == restored.hex()

    def test_unencodable_type_rejected(self):
        with pytest.raises(CheckpointError):
            encode_state(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(CheckpointError):
            decode_state({"t": "lambda", "v": []})
        with pytest.raises(CheckpointError):
            decode_state([1, 2])  # raw JSON array is never valid state
