"""The exactness arguments behind the hot path's two shortcuts.

* **Edge addition reads its span by set algebra.**  The nodes and edges of
  every short cycle through a new edge come straight from neighbour-set
  intersections (``maintenance._short_cycle_span``); no atom is listed.
  Over random small graphs that span equals the union of
  ``atoms_containing_edge``'s atoms, and it is empty exactly when that list
  is.
* **One EC pass per quantum.**  ``AkgBuilder._update_graph`` hands the
  kernel the new-edge candidates followed by the existing edges incident to
  the quantum's active and bursty nodes, in one call.  EC reads only the
  window, which graph edits do not touch, so each new edge's EC doubles as
  its refreshed value.  A counting referee checks the call shape, and the
  maintainer's insert / refresh / remove sequence on the golden regimes is
  pinned to the digest the two-pass update (one kernel call for candidates,
  a second for the refresh) produced.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from golden import bursty_stream, fingerprint, reentry_stream, uniform_stream
from repro.api import open_session
from repro.config import DetectorConfig
from repro.core.atoms import atoms_containing_edge
from repro.core.maintenance import _short_cycle_span
from repro.graph.dynamic_graph import DynamicGraph
from repro.stream.messages import Message

# ------------------------------------------------------------------------
# Edge addition: the set-algebra span against the atom enumeration.

STRING_NODES = [f"n{i:02d}" for i in range(12)]
MIXED_NODES = [i if i % 2 else f"n{i}" for i in range(12)]


@pytest.mark.parametrize(
    "pool", [STRING_NODES, MIXED_NODES], ids=["string-nodes", "mixed-nodes"]
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_short_cycle_span_is_the_union_of_the_atoms(pool, data):
    nodes = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    possible = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    chosen = (
        data.draw(st.lists(st.sampled_from(possible), unique=True))
        if possible
        else []
    )
    graph = DynamicGraph()
    for node in nodes:
        graph.add_node(node)
    for u, v in chosen:
        graph.add_edge(u, v)
    for u, v in chosen:
        for a, b in ((u, v), (v, u)):
            atoms = atoms_containing_edge(graph, a, b)
            span = _short_cycle_span(graph, a, b)
            if not atoms:
                assert span is None
                continue
            assert span is not None
            assert span[0] == set().union(*(atom.nodes for atom in atoms))
            assert span[1] == set().union(*(atom.edges for atom in atoms))


# ------------------------------------------------------------------------
# One EC pass: the counting referee and the pinned update sequence.

BASE = dict(
    quantum_size=20,
    window_quanta=3,
    high_state_threshold=3,
    ec_threshold=0.2,
    node_grace_quanta=1,
)

REGIMES = {
    "bursty": lambda: bursty_stream(11, 600),
    "uniform": lambda: uniform_stream(13, 600),
    "reentry": lambda: reentry_stream(17, 600, 120),
}

# sha256 (``golden.fingerprint``) of the maintainer calls the builder made
# on each regime — ``add_edge``, ``set_edge_weight``, ``remove_edges`` and
# ``remove_nodes`` with their arguments, ECs included — recorded from the
# two-pass update the one-pass update replaced.  (``add_node`` follows the
# bursty set's iteration order, which the hash seed moves.)
UPDATE_SEQUENCE = {
    "bursty": "496d3348b104886ea32c851550c5e0ea024f25a98c25981a95700f8ca400ff6e",
    "uniform": "f0f4edfaeaf6b0bfa6aeecc7558c1fd3affd43c54433f0a8a696406c183083ab",
    "reentry": "32f8290c392486348da47586965f8ebf11b3e56bd0f2bc88891797908a41d3b8",
}

_MAINTAINER_CALLS = (
    "add_edge",
    "set_edge_weight",
    "remove_edges",
    "remove_nodes",
)


def _recorded_session(config):
    """A session whose builder logs every ``_ec_of`` call (with the graph's
    edges at that moment) and every maintainer call, per quantum."""
    session = open_session(config)
    builder, maintainer = session.builder, session.maintainer
    log = []

    def record(name, method):
        def wrapper(*args):
            log.append((name, [list(a) if isinstance(a, list) else a
                               for a in args]))
            return method(*args)

        return wrapper

    for name in _MAINTAINER_CALLS:
        setattr(maintainer, name, record(name, getattr(maintainer, name)))
    ec_of = builder._ec_of

    def counted_ec_of(pairs):
        edges = set(maintainer.graph.edge_keys())
        log.append(("ec", [list(pairs), edges]))
        return ec_of(pairs)

    builder._ec_of = counted_ec_of
    update_graph = builder._update_graph

    def marked_update_graph(quantum, *args):
        log.append(("quantum", [quantum]))
        return update_graph(quantum, *args)

    builder._update_graph = marked_update_graph
    return session, log


def _run(regime):
    session, log = _recorded_session(DetectorConfig(**BASE))
    messages = [Message(u, tokens=t) for u, t in REGIMES[regime]()]
    reports = list(session.ingest_many(messages))
    return reports, log


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_one_ec_kernel_call_per_quantum_candidates_first(regime):
    reports, log = _run(regime)
    quanta = [args[0] for name, args in log if name == "quantum"]
    assert len(quanta) == len(reports) > 0
    calls = {}
    quantum = None
    for name, args in log:
        if name == "quantum":
            quantum = args[0]
        elif name == "ec":
            calls.setdefault(quantum, []).append(args)
    assert sorted(calls) == quanta  # exactly one call in every quantum
    assert all(len(per_quantum) == 1 for per_quantum in calls.values())
    for report in reports:
        ((pairs, edges),) = calls[report.quantum]
        stats = report.akg_stats
        # Candidates (not yet edges) first, then the refresh edges (all
        # existing, sorted); every inserted edge is refreshed too, so the
        # work counter counts it twice, as the two-pass update did.
        split = next(
            (i for i, pair in enumerate(pairs) if pair in edges), len(pairs)
        )
        candidates, refresh = pairs[:split], pairs[split:]
        assert not any(pair in edges for pair in candidates)
        assert all(pair in edges for pair in refresh)
        assert refresh == sorted(set(refresh))
        assert candidates == sorted(set(candidates))
        assert stats.ec_computations == len(pairs) + stats.edges_added
        assert (
            stats.edges_refreshed + stats.edges_removed
            == len(refresh) + stats.edges_added
        )


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_update_sequence_equals_the_two_pass_update(regime):
    _, log = _run(regime)
    sequence = [entry for entry in log if entry[0] in _MAINTAINER_CALLS]
    assert fingerprint(sequence) == UPDATE_SEQUENCE[regime]
