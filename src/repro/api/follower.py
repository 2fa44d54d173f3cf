"""Hot-standby follower: tail a delta log, stay warm, promote on demand.

A :class:`FollowerSession` holds the leader's *serialized state tree* and
keeps it current by applying delta-log records (:mod:`repro.api.deltalog`)
— it never runs the detection pipeline, so staying warm costs patch
application only, no tokenization/AKG/ranking work.  When the leader dies,
``promote()`` rebuilds a live :class:`~repro.api.session.DetectorSession`
from the tree, and the resume guarantee (DESIGN.md Section 6) makes the
promoted session bit-identical to the uninterrupted run from the last
logged quantum onward.

The follower reads through :class:`~repro.api.deltalog.FileTailTransport`,
which tails a delta-checkpoint directory on a shared filesystem.
``catch_up()`` handles leader compaction transparently: on a generation
flip it fast-forwards (keeps its state and restarts the tail) when its
position matches the new base, otherwise it reloads the fresh base.

Data-loss window: the leader logs one record per *completed* quantum, so a
crash loses at most the partially ingested quantum in the leader's pending
buffer.  A failover harness re-feeds the stream from the last logged
quantum boundary (``current_quantum``) to continue exactly.
"""

from __future__ import annotations

import copy
import time

from repro.api.checkpoint import save_checkpoint
from repro.api.deltalog import FileTailTransport, apply_record
from repro.errors import CheckpointError


class FollowerSession:
    """Warm standby over a leader's delta checkpoint.

    ``path`` names the delta-checkpoint directory.  Construction loads the
    current base and replays the log; ``catch_up()`` applies anything
    appended since; ``promote()`` turns the follower into a live session.
    A promoted follower is spent: further ``catch_up`` / ``promote`` calls
    raise :class:`CheckpointError`, because the live session now owns the
    state and the tree handed over is no longer tracking the log.
    """

    def __init__(self, path) -> None:
        self._transport = FileTailTransport(path)
        self._promoted = False
        self.records_applied = 0
        self.generations_seen = 0
        self._load_generation(self._transport.manifest())

    # ------------------------------------------------------------ tailing

    def _load_generation(self, manifest: dict) -> None:
        """Load a generation's base and replay its whole log."""
        state = self._transport.load_base(manifest)
        if state.get("quantum") != manifest["base_quantum"]:
            raise CheckpointError(
                f"delta checkpoint base is at quantum "
                f"{state.get('quantum')!r} but the manifest says "
                f"{manifest['base_quantum']!r}"
            )
        self._manifest = manifest
        self._state = state
        self._offset = 0
        self.generations_seen += 1
        self._apply_new_records()

    def _apply_new_records(self) -> int:
        records, self._offset = self._transport.read_records(
            self._manifest, self._offset
        )
        for record in records:
            self._state = apply_record(self._state, record)
            self.records_applied += 1
        return len(records)

    def catch_up(self) -> int:
        """Apply every record the leader has logged since the last call.

        Returns the number of quanta applied.  Handles a leader compaction
        (generation flip) transparently: if the new base is exactly where
        the follower already stands, only the tail position resets
        (fast-forward — no base reload); otherwise the fresh base is
        loaded.  A log that vanishes mid-read because the leader compacted
        between the manifest poll and the log read is retried once against
        the new manifest.
        """
        if self._promoted:
            raise CheckpointError(
                "this follower was promoted; the live session owns the "
                "state now — open a new FollowerSession to keep tailing"
            )
        applied = 0
        manifest = self._transport.manifest()
        if manifest["generation"] != self._manifest["generation"]:
            if manifest["base_quantum"] == self._state["quantum"]:
                # Compaction snapshotted exactly our position: keep the
                # warm state, just tail the new log from its start.
                before = self.records_applied
                self._manifest = manifest
                self._offset = 0
                self.generations_seen += 1
                self._apply_new_records()
                return self.records_applied - before
            before = self.records_applied
            self._load_generation(manifest)
            return self.records_applied - before
        try:
            applied = self._apply_new_records()
        except CheckpointError:
            # The leader may have compacted between our manifest poll and
            # the log read, unlinking the log we were tailing.  Retry once
            # against the fresh manifest; a genuine error recurs.
            fresh = self._transport.manifest()
            if fresh["generation"] == self._manifest["generation"]:
                raise
            before = self.records_applied
            self._load_generation(fresh)
            return self.records_applied - before
        return applied

    def wait_for_quantum(
        self, quantum: int, *, timeout: float = 30.0, poll: float = 0.05
    ) -> None:
        """Poll ``catch_up`` until the state reaches ``quantum``.

        Test/benchmark convenience for file-transport followers; raises
        :class:`CheckpointError` on timeout so a stuck leader surfaces as
        a readable failure instead of a hang.
        """
        deadline = time.monotonic() + timeout
        while self._state["quantum"] < quantum:
            self.catch_up()
            if self._state["quantum"] >= quantum:
                break
            if time.monotonic() >= deadline:
                raise CheckpointError(
                    f"follower timed out waiting for quantum {quantum}; "
                    f"still at quantum {self._state['quantum']}"
                )
            time.sleep(poll)

    # ------------------------------------------------------------ promote

    def promote(self, *, noun_tagger=None, extractor=None):
        """Turn the warm state into a live :class:`DetectorSession`.

        The promote contract (DESIGN.md Section 10): the returned session
        continues from the last logged quantum with an empty pending
        buffer, and — fed the stream from that quantum boundary on — emits
        reports, sink events, histories, and checkpoints bit-identical to
        the uninterrupted run.  Custom extractors/taggers must be
        re-supplied, exactly as with ``open_session(resume=...)``.
        """
        if self._promoted:
            raise CheckpointError("this follower was already promoted")
        from repro.api.session import DetectorSession

        session = DetectorSession._from_state_tree(
            copy.deepcopy(self._state),
            noun_tagger=noun_tagger,
            extractor=extractor,
        )
        self._promoted = True
        return session

    def snapshot(self, path) -> None:
        """Write the follower's current state as a monolithic checkpoint.

        Useful for off-leader snapshotting: the follower pays the full
        serialization cost so the leader never has to.
        """
        save_checkpoint(path, self._state)

    # ------------------------------------------------------------ introspection

    @property
    def current_quantum(self) -> int:
        """Quantum index of the last applied record (or the base)."""
        return self._state["quantum"]

    @property
    def generation(self) -> int:
        """Delta-checkpoint generation currently being tailed."""
        return self._manifest["generation"]

    @property
    def promoted(self) -> bool:
        return self._promoted


__all__ = ["FollowerSession"]
