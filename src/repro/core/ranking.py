"""Event ranking from local cluster properties (Section 6).

The rank of a cluster C = (V, E) with |V| = n is::

    rank(C) = (1/n) * W . C . 1

where ``W`` is the 1-by-n node-weight vector (w_i = number of user ids
associated with keyword i in the window), ``C`` the n-by-n edge-correlation
matrix with ``C_ii = 1``, ``C_ij = EC(i, j)`` for cluster edges and 0
otherwise, and ``1`` the all-ones column vector.  Expanding the product gives
the closed form used by :func:`cluster_rank`::

    rank(C) = ( sum_i w_i  +  sum_{(i,j) in E} EC(i,j) * (w_i + w_j) ) / n

which is computable in O(|V| + |E|) from purely local cluster state — the
point of the paper's design: no global information is needed, yet the ranking
is globally comparable.  Strong correlation, density and support each push
the rank up; the 1/n normalization stops rank from growing monotonically with
cluster size.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Tuple

import numpy as np

from repro.errors import ClusterError
from repro.graph.dynamic_graph import EdgeKey

Node = Hashable


def cluster_rank(
    nodes: Iterable[Node],
    edges: Iterable[EdgeKey],
    node_weights: Mapping[Node, float],
    edge_correlations: Mapping[EdgeKey, float],
) -> float:
    """Rank of one cluster from its local properties (closed form).

    Parameters
    ----------
    nodes, edges:
        The cluster's node set and canonical edge keys.
    node_weights:
        ``w_i``: number of user ids supporting each keyword in the window.
    edge_correlations:
        ``EC(i, j)`` per cluster edge (canonical key).

    Raises
    ------
    ClusterError
        If a node or edge has no weight/correlation entry — ranking a
        cluster with missing support data indicates an upstream bug.
    """
    return rank_and_support(nodes, edges, node_weights, edge_correlations)[0]


def rank_and_support(
    nodes: Iterable[Node],
    edges: Iterable[EdgeKey],
    node_weights: Mapping[Node, float],
    edge_correlations: Mapping[EdgeKey, float],
) -> Tuple[float, float]:
    """``(rank, support)`` of one cluster in a single pass.

    ``support`` is the plain weight sum ``sum_i w_i`` the detector reports
    next to the rank; computing both together halves the per-cluster work of
    the rank stage, which matters because this is the inner loop of the
    :class:`~repro.core.incremental.IncrementalRanker`.

    Both sums run through :func:`math.fsum`, whose exactly-rounded result is
    independent of summand order.  That makes the rank a pure function of
    the cluster's *content* rather than of set-iteration history — float
    addition is not associative in the last bit, and the checkpoint/restore
    guarantee (a resumed session ranks bit-identically, DESIGN.md
    Section 6) needs the same value on both sides, including across
    processes where hash randomization reorders set iteration.  Each edge
    term is itself order-safe: float addition and multiplication are
    commutative, only regrouping changes results.
    """
    node_list = list(nodes)
    if not node_list:
        raise ClusterError("cannot rank an empty cluster")
    try:
        support = math.fsum(node_weights[n] for n in node_list)
        total = math.fsum(
            edge_correlations[(u, v)] * (node_weights[u] + node_weights[v])
            for u, v in edges
        ) + support
    except KeyError as exc:
        raise ClusterError(f"missing weight/correlation for {exc.args[0]!r}") from exc
    return total / len(node_list), support


def rank_matrices(
    nodes: Iterable[Node],
    edges: Iterable[EdgeKey],
    node_weights: Mapping[Node, float],
    edge_correlations: Mapping[EdgeKey, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """The explicit (W, C) matrices of Section 6, in a fixed node order.

    Provided for inspection and for the test that the closed form equals
    ``(W @ C @ 1) / n``.
    """
    node_list = sorted(map(str, nodes))
    index = {n: i for i, n in enumerate(node_list)}
    n = len(node_list)
    weights = np.zeros((1, n))
    for node in nodes:
        weights[0, index[str(node)]] = node_weights[node]
    corr = np.eye(n)
    for u, v in edges:
        i, j = index[str(u)], index[str(v)]
        corr[i, j] = corr[j, i] = edge_correlations[(u, v)]
    return weights, corr


def rank_from_matrices(weights: np.ndarray, corr: np.ndarray) -> float:
    """``(W @ C @ 1) / n`` — the literal Section 6 formula."""
    n = weights.shape[1]
    if n == 0:
        raise ClusterError("cannot rank an empty cluster")
    ones = np.ones((n, 1))
    return float((weights @ corr @ ones)[0, 0]) / n


def minimum_rank(theta: int, gamma: float) -> float:
    """Lower bound on the rank of any reportable cluster.

    A cluster node needed >= ``theta`` user ids to enter the high state, and
    every SCP cluster on N nodes is biconnected and therefore has at least N
    edges, each with correlation >= ``gamma``.  Substituting these minima in
    the closed form gives ``theta * (1 + 2 * gamma)`` independent of N.  The
    spurious-event filter of Section 7.2.2 discards clusters ranked below
    this bound.
    """
    return theta * (1.0 + 2.0 * gamma)


__all__ = [
    "cluster_rank",
    "rank_and_support",
    "rank_matrices",
    "rank_from_matrices",
    "minimum_rank",
]
