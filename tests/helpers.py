"""Shared test helpers (importable because conftest puts this dir on sys.path)."""

from __future__ import annotations

from repro.graph.dynamic_graph import DynamicGraph, edge_key
from repro.interning import Interner
from repro.stream.window import quantum_columns


def entity_actors(columns, acts):
    """The ``entity -> actors`` mapping a quantum's pair columns encode
    (``acts`` is the actor interner they were extracted over)."""
    keys = columns.keys
    return {
        entity: {acts.objs[k] for k in (keys[lo:hi] & 0xFFFFFFFF).tolist()}
        for entity, (_, lo, hi) in zip(columns.ent_strings, columns.segments)
    }


def quantum_mappings(messages, extractor, max_entities_per_record=None):
    """``(actor -> entities, entity -> actors)`` of one quantum, decoded
    from the pair columns :func:`quantum_columns` extracts."""
    acts = Interner()
    columns = quantum_columns(
        messages, extractor, max_entities_per_record, Interner(), acts
    )
    by_entity = entity_actors(columns, acts)
    by_actor = {}
    for entity, actors in by_entity.items():
        for actor in actors:
            by_actor.setdefault(actor, set()).add(entity)
    return by_actor, by_entity


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
