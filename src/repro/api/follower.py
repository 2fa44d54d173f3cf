"""Hot-standby follower: a replica that replays a leader's input log.

A :class:`FollowerSession` holds a live
:class:`~repro.api.session.DetectorSession` restored from the leader's
base snapshot and keeps it current by feeding every logged quantum's input
through the pipeline (:mod:`repro.api.deltalog`) — it runs the same
detection work the leader did, one quantum behind at most.  When the
leader dies, ``promote()`` hands that session over as it stands, in O(1),
and the resume guarantee (DESIGN.md Section 6) makes it bit-identical to
the uninterrupted run from the last logged quantum onward.

The follower reads through :class:`~repro.api.deltalog.FileTailTransport`,
which tails a delta-checkpoint directory on a shared filesystem.
``catch_up()`` handles leader compaction transparently: on a generation
flip it fast-forwards (keeps its session and restarts the tail) when its
position matches the new base, otherwise it restores the fresh base.

Data-loss window: the leader logs one record per *completed* quantum, so a
crash loses at most the partially ingested quantum in the leader's pending
buffer.  A failover harness re-feeds the stream from the last logged
quantum boundary (``current_quantum``) to continue exactly.
"""

from __future__ import annotations

import time

from repro.api.deltalog import FileTailTransport, base_session, replay
from repro.errors import CheckpointError


class FollowerSession:
    """Warm standby over a leader's delta checkpoint.

    ``path`` names the delta-checkpoint directory.  ``noun_tagger`` and
    ``extractor`` are the function-valued state a restore cannot read off
    the base — pass the leader's, exactly as with
    ``open_session(resume=...)``.  Construction restores the current base
    and replays the log; ``catch_up()`` replays anything appended since;
    ``promote()`` hands the live session over.  A promoted follower is
    spent: further ``catch_up`` / ``promote`` / ``snapshot`` calls raise
    :class:`CheckpointError`, because the caller now owns the session.
    """

    def __init__(self, path, *, noun_tagger=None, extractor=None) -> None:
        self._transport = FileTailTransport(path)
        self._overrides = {"noun_tagger": noun_tagger, "extractor": extractor}
        self._session = None
        self.records_applied = 0
        self.generations_seen = 0
        self._load_generation(self._transport.manifest())

    # ------------------------------------------------------------ tailing

    def _load_generation(self, manifest: dict) -> None:
        """Restore a generation's base and replay its whole log."""
        self._session = base_session(
            self._transport, manifest, **self._overrides
        )
        self._tail_generation(manifest)

    def _tail_generation(self, manifest: dict) -> None:
        self._manifest = manifest
        self._offset = 0
        self.generations_seen += 1
        self._apply_new_records()

    def _apply_new_records(self) -> int:
        records, self._offset = self._transport.read_records(
            self._manifest, self._offset
        )
        replay(self._session, records)
        self.records_applied += len(records)
        self._quantum = self._session.current_quantum
        return len(records)

    def _live(self):
        if self._session is None:
            raise CheckpointError(
                "this follower was promoted; the live session owns the "
                "state now — open a new FollowerSession to keep tailing"
            )
        return self._session

    def catch_up(self) -> int:
        """Replay every record the leader has logged since the last call.

        Returns the number of quanta replayed.  Handles a leader compaction
        (generation flip) transparently: if the new base is exactly where
        the follower already stands, only the tail position resets
        (fast-forward — no restore); otherwise the fresh base is restored.
        A log that vanishes mid-read because the leader compacted between
        the manifest poll and the log read is retried once against the new
        manifest.
        """
        session = self._live()
        before = self.records_applied
        manifest = self._transport.manifest()
        if manifest["generation"] != self._manifest["generation"]:
            if manifest["base_quantum"] == session.current_quantum:
                # Compaction snapshotted exactly our position: keep the
                # warm session, just tail the new log from its start.
                self._tail_generation(manifest)
            else:
                self._load_generation(manifest)
            return self.records_applied - before
        try:
            self._apply_new_records()
        except CheckpointError:
            # The leader may have compacted between our manifest poll and
            # the log read, unlinking the log we were tailing.  Retry once
            # against the fresh manifest; a genuine error recurs.
            fresh = self._transport.manifest()
            if fresh["generation"] == self._manifest["generation"]:
                raise
            self._load_generation(fresh)
        return self.records_applied - before

    def wait_for_quantum(
        self, quantum: int, *, timeout: float = 30.0, poll: float = 0.05
    ) -> None:
        """Poll ``catch_up`` until the replica reaches ``quantum``.

        Test/benchmark convenience for file-transport followers; raises
        :class:`CheckpointError` on timeout so a stuck leader surfaces as
        a readable failure instead of a hang.
        """
        deadline = time.monotonic() + timeout
        while self._quantum < quantum:
            self.catch_up()
            if self._quantum >= quantum:
                break
            if time.monotonic() >= deadline:
                raise CheckpointError(
                    f"follower timed out waiting for quantum {quantum}; "
                    f"still at quantum {self._quantum}"
                )
            time.sleep(poll)

    # ------------------------------------------------------------ promote

    def promote(self):
        """Hand the replica over as a live :class:`DetectorSession`.

        The promote contract (DESIGN.md Section 10): the returned session
        continues from the last logged quantum with an empty pending
        buffer, and — fed the stream from that quantum boundary on — emits
        reports, sink events, histories, and checkpoints bit-identical to
        the uninterrupted run.
        """
        if self._session is None:
            raise CheckpointError("this follower was already promoted")
        session, self._session = self._session, None
        return session

    def snapshot(self, path) -> None:
        """Write the replica's current state as a monolithic checkpoint.

        Useful for off-leader snapshotting: the follower pays the full
        serialization cost so the leader never has to.
        """
        self._live().snapshot(path)

    # ------------------------------------------------------------ introspection

    @property
    def current_quantum(self) -> int:
        """Quantum index of the last replayed record (or the base); after
        promotion, the quantum the session was handed over at."""
        return self._quantum

    @property
    def generation(self) -> int:
        """Delta-checkpoint generation currently being tailed."""
        return self._manifest["generation"]

    @property
    def promoted(self) -> bool:
        return self._session is None


__all__ = ["FollowerSession"]
