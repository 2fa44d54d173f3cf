"""Shared test helpers (importable because conftest puts this dir on sys.path)."""

from __future__ import annotations

import numpy as np

from repro.akg.builder import AkgBuilder
from repro.akg.idsets import IdSetIndex
from repro.core.maintenance import decompose_graph
from repro.graph.dynamic_graph import DynamicGraph, edge_key
from repro.interning import Interner
from repro.stream.window import (
    QuantumColumns,
    quantum_columns,
    sorted_distinct,
)


def entity_actors(columns, ents, acts):
    """The ``entity -> actors`` mapping a quantum's pair columns encode
    (``ents``/``acts`` are the interners they were extracted over)."""
    aids = (columns.keys & 0xFFFFFFFF).tolist()
    out = {}
    lo = 0
    for eid, count in zip(columns.eids.tolist(), columns.counts.tolist()):
        out[ents.objs[eid]] = {acts.objs[a] for a in aids[lo : lo + count]}
        lo += count
    return out


def quantum_mappings(messages, extractor, max_entities_per_record=None):
    """``(actor -> entities, entity -> actors)`` of one quantum, decoded
    from the pair columns :func:`quantum_columns` extracts."""
    ents, acts = Interner(), Interner()
    columns = quantum_columns(
        messages, extractor, max_entities_per_record, ents, acts
    )
    by_entity = entity_actors(columns, ents, acts)
    by_actor = {}
    for entity, actors in by_entity.items():
        for actor in actors:
            by_actor.setdefault(actor, set()).add(entity)
    return by_actor, by_entity


def columns_from_mapping(keyword_users, ents, acts):
    """Intern an ``entity -> actors`` mapping into
    :class:`~repro.stream.window.QuantumColumns`; empty user sets are
    skipped — they carry no id-set information."""
    keys = [
        (ents.intern(kw) << 32) | acts.intern(user)
        for kw, users in keyword_users.items()
        if users
        for user in users
    ]
    return QuantumColumns(sorted_distinct(np.array(keys, dtype=np.int64)))


def intern_quantum(index, quantum, keyword_users):
    """One quantum's mapping as pair columns over ``index``'s interners.
    The quantum order is checked *before* interning, so a rejected quantum
    leaves the tables untouched."""
    index._check_order(quantum)
    return columns_from_mapping(keyword_users, index.ents, index.acts)


class MappingIdSetIndex(IdSetIndex):
    """The id-set index fed ``keyword -> users`` mappings, for tests that
    spell quanta out by hand."""

    __slots__ = ()

    def add_quantum(self, quantum, keyword_users):
        return self.add_columns(
            quantum, intern_quantum(self, quantum, keyword_users)
        )


def observed_slide(index, quantum, keyword_users, keywords):
    """Slide ``index`` by one quantum and report what moved, through public
    queries: ``(moved, emptied, vanished)`` — ``keyword -> (old, new)``
    support for each of ``keywords`` whose support moved, those of them
    whose support reached zero, and the users that left
    :meth:`window_users`.  The same for the production index and the
    from-scratch one."""
    before = {kw: index.support(kw) for kw in keywords}
    users = index.window_users()
    index.add_quantum(quantum, keyword_users)
    moved = {
        kw: (old, new)
        for kw, old in before.items()
        if (new := index.support(kw)) != old
    }
    emptied = frozenset(kw for kw, (_, new) in moved.items() if new == 0)
    return moved, emptied, users - index.window_users()


class MappingAkgBuilder(AkgBuilder):
    """The AKG builder fed ``keyword -> users`` mappings."""

    def process_quantum(self, quantum, keyword_users):
        return self.process_columns(
            quantum, intern_quantum(self.idsets, quantum, keyword_users)
        )


def check_decomposition(maintainer):
    """Assert the maintainer's registry equals the global decomposition of
    its graph (Theorem 3); raises AssertionError on mismatch."""
    expected = {
        frozenset(edges) for _, edges in decompose_graph(maintainer.graph)
    }
    actual = maintainer.registry.decomposition()
    assert actual == expected, (
        f"incremental clustering diverged from oracle:\n"
        f"  incremental: {sorted(map(sorted, actual))}\n"
        f"  oracle:      {sorted(map(sorted, expected))}"
    )


def graph_from_edges(edges, extra_nodes=()):
    """Build a DynamicGraph from an edge list (nodes auto-created)."""
    graph = DynamicGraph()
    for u, v in edges:
        graph.ensure_node(u)
        graph.ensure_node(v)
        graph.add_edge(u, v)
    for node in extra_nodes:
        graph.ensure_node(node)
    return graph


def to_nx(graph):
    """DynamicGraph -> networkx.Graph (for oracle comparisons)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from((u, v) for u, v, _ in graph.edges())
    return g


def brute_force_atoms(graph):
    """All 3-/4-cycle edge sets via networkx simple_cycles (length bound)."""
    import networkx as nx

    nxg = to_nx(graph)
    atoms = set()
    for cycle in nx.simple_cycles(nxg, length_bound=4):
        if len(cycle) in (3, 4):
            edges = frozenset(
                edge_key(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            )
            atoms.add(edges)
    return atoms


def brute_force_decomposition(graph):
    """Global SCP decomposition from brute-force atoms (test oracle of the
    test oracle): glue atoms sharing edges transitively, return the set of
    frozenset edge sets."""
    atoms = list(brute_force_atoms(graph))
    parent = list(range(len(atoms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for i, atom in enumerate(atoms):
        for e in atom:
            j = owner.setdefault(e, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i, atom in enumerate(atoms):
        groups.setdefault(find(i), set()).update(atom)
    return {frozenset(edges) for edges in groups.values()}
