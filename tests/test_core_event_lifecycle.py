"""A dead event stays dead: a cluster id the ranker retired never returns.

:class:`~repro.core.events.EventTracker` has no reopen path — a touch on a
dead record raises — so it rests on this property of the layers under it:
once an id has been in ``ranker.last_removed`` it is never again in a
``last_recomputed`` (of the same quantum or a later one) nor in the
registry.  Cluster ids come from the registry's monotonic cursor, a merge or
dissolve retires an id for good, and a split keeps its id alive.

Whole sessions are driven over the three golden regimes and the long-tailed
churn stream, with snapshot -> restore cycles at drawn positions (mid-quantum
for the golden regimes), and the property is checked after every quantum.
The removed ids are carried across each restore, so a restore that rewound
the id cursor would show up too.  Every event record then dies at most once.
"""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from golden import bursty_stream, reentry_stream, uniform_stream
from repro.api import open_session
from repro.config import DetectorConfig
from repro.stream.messages import Message
from test_akg_incremental_properties import long_tailed_churn_stream

REGIMES = {
    "bursty": lambda seed: bursty_stream(seed, 400),
    "uniform": lambda seed: uniform_stream(seed, 400),
    "reentry": lambda seed: reentry_stream(seed, 400, 60),
}


def churn_messages(churn):
    """The long-tailed churn stream as messages: one per user per round,
    carrying the user's keywords.  Every round has the same number of
    messages, which is the quantum size."""
    rounds = []
    for content in long_tailed_churn_stream(churn):
        by_user = {}
        for keyword, users in sorted(content.items()):
            for user in users:
                by_user.setdefault(user, []).append(keyword)
        rounds.append(
            [
                Message(f"u{user}", tokens=tuple(keywords))
                for user, keywords in sorted(by_user.items())
            ]
        )
    assert len({len(r) for r in rounds}) == 1
    return len(rounds[0]), [m for r in rounds for m in r]


def chunks(messages, size):
    return [messages[i : i + size] for i in range(0, len(messages), size)]


def assert_no_id_returns(config, messages, restarts, chunk):
    """Feed ``messages`` ``chunk`` at a time, snapshotting and resuming
    before each chunk index in ``restarts``."""
    removed = set()
    quanta = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ckpt"
        session = open_session(config)
        for i, batch in enumerate(chunks(messages, chunk)):
            if i in restarts:
                session.snapshot(path)
                session.close()
                session = open_session(resume=path)
            for report in session.ingest_many(batch):
                quanta += 1
                ranker = session.ranker
                removed |= ranker.last_removed
                live = {c.cluster_id for c in session.registry}
                assert not removed & ranker.last_recomputed, report.quantum
                assert not removed & live, report.quantum
        records = session.tracker.all_events()
        session.close()
    assert quanta == len(messages) // config.quantum_size
    assert {r.event_id for r in records if not r.alive} == removed
    return records


@given(
    regime=st.sampled_from(sorted(REGIMES)),
    seed=st.integers(0, 2**16),
    theta=st.integers(2, 4),
    grace=st.integers(0, 2),
    restarts=st.sets(st.integers(1, 56), max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_golden_regimes_never_revive_a_removed_id(
    regime, seed, theta, grace, restarts
):
    config = DetectorConfig(
        quantum_size=20,
        window_quanta=3,
        high_state_threshold=theta,
        ec_threshold=0.2,
        node_grace_quanta=grace,
    )
    messages = [Message(u, tokens=t) for u, t in REGIMES[regime](seed)]
    assert_no_id_returns(config, messages, restarts, chunk=7)


@given(
    # a window shorter than a group's return period, so clusters dissolve
    churn_window=st.sampled_from([(0.05, 4), (0.5, 1)]),
    grace=st.integers(0, 2),
    restarts=st.sets(st.integers(1, 20), max_size=3),
)
@settings(max_examples=10, deadline=None)
def test_churn_stream_never_revives_a_removed_id(
    churn_window, grace, restarts
):
    churn, window = churn_window
    size, messages = churn_messages(churn)
    config = DetectorConfig(
        quantum_size=size,
        window_quanta=window,
        high_state_threshold=3,
        ec_threshold=0.3,
        node_grace_quanta=grace,
        use_minhash_filter=False,
    )
    records = assert_no_id_returns(config, messages, restarts, chunk=size)
    assert any(not r.alive for r in records), "the stream must retire ids"
