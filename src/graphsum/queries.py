"""Triangle, Pagerank and shortest-path queries answered on a lossless
summary directly, without reconstructing the original graph.

Triangles come in three shapes: all three corners inside one clique
supernode (a), an edge inside a clique plus one outside corner (b), and
one corner in each of three mutually adjacent supernodes (c). Pagerank
runs on supernode totals (every member of a supernode provably holds the
same score). Shortest paths reduce to a level-synchronous BFS over the
supernode graph plus a constant-time same-supernode case split.

All three read the supernode graph that Summary.super_adjacency() builds
once per summary and caches: an ordinary immutable Graph over supernodes
whose edges are the cross superedges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator

import numpy as np

from .centrality import DEFAULT_DAMPING, DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank_iteration
from .errors import UnsupportedSummaryError
from .summary import Summary


def _require_lossless(s: Summary) -> None:
    if not s.is_lossless:
        raise UnsupportedSummaryError(
            "query needs a lossless summary with clique/IS kind tags"
        )


@dataclass(frozen=True)
class TriangleReport:
    count_a: int
    count_b: int
    count_c: int

    @property
    def total(self) -> int:
        return self.count_a + self.count_b + self.count_c


def _super_triangles(adj: list[list[int]]) -> Iterator[tuple[int, int, int]]:
    """Triangles of the supernode graph given as neighbor lists.

    Degree-ordered neighbor intersection; each super-triangle appears once,
    ordered by ascending rank.
    """
    k = len(adj)
    adj_sets = [set(row) for row in adj]
    rank = sorted(range(k), key=lambda x: (len(adj[x]), x))
    pos = [0] * k
    for i, x in enumerate(rank):
        pos[x] = i
    for x in range(k):
        for y in adj[x]:
            if pos[y] <= pos[x]:
                continue
            small, large = (
                (adj_sets[x], adj_sets[y])
                if len(adj_sets[x]) <= len(adj_sets[y])
                else (adj_sets[y], adj_sets[x])
            )
            for z in small:
                if pos[z] > pos[y] and z in large:
                    yield x, y, z


def count_triangles(s: Summary) -> TriangleReport:
    """Triangle totals per type; the grand total equals the original graph's."""
    _require_lossless(s)
    super_graph = s.super_adjacency()
    reach = super_graph.row_reduce(np.add, s.sizes[super_graph.targets], 0)  # neighbor members
    k = s.sizes[s.cliques].astype(object)  # Python ints: the products cannot overflow
    count_a = int((k * (k - 1) * (k - 2) // 6).sum())
    count_b = int((k * (k - 1) // 2 * reach[s.cliques]).sum())
    sizes = s.sizes.tolist()
    triples = _super_triangles(super_graph.adjacency_lists)
    count_c = sum(sizes[x] * sizes[y] * sizes[z] for x, y, z in triples)
    return TriangleReport(count_a, count_b, count_c)


def enumerate_triangles(
    s: Summary, sink: Callable[[tuple[int, int, int]], None]
) -> None:
    """Stream every triangle of the original graph exactly once.

    Triples are sorted ascending; emission order is type a, then b, then c,
    each generator in ascending canonical order, so output is reproducible.
    """
    _require_lossless(s)
    cliques = np.flatnonzero(s.cliques).tolist()
    adj = s.super_adjacency().adjacency_lists
    for x in cliques:
        for triple in combinations(s.members(x), 3):
            sink(triple)
    for x in cliques:
        for pair in combinations(s.members(x), 2):
            for y in adj[x]:
                for w in s.members(y):
                    sink(tuple(sorted((pair[0], pair[1], w))))
    for x, y, z in sorted(_super_triangles(adj)):
        for u in s.members(x):
            for v in s.members(y):
                for w in s.members(z):
                    sink(tuple(sorted((u, v, w))))


@dataclass(frozen=True)
class SummaryPagerank:
    """Pagerank totals per supernode and the implied per-node scores."""

    supernode_scores: np.ndarray = field(repr=False)
    node_scores: np.ndarray = field(repr=False)
    iterations: int = 0
    converged: bool = True


def pagerank_on_summary(
    s: Summary,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SummaryPagerank:
    """Power iteration over supernode totals.

    Every node inside supernode X has W(X) neighbors in the original graph:
    the members of X's neighbor supernodes, plus |X|-1 clique siblings.
    pagerank_iteration over the supernode graph, with sizes |X| and the
    clique tags, starts from P0(X) = |X|, and the node scores P(X)/|X|
    match the per-node recurrence on the original graph exactly,
    iteration by iteration.
    """
    _require_lossless(s)
    if s.n == 0:
        raise ValueError("pagerank of an empty summary is undefined")
    sizes = s.sizes.astype(np.float64)
    scores, iterations, converged = pagerank_iteration(
        s.super_adjacency(), sizes, s.cliques, damping, tol, max_iter
    )
    node_scores = (scores / sizes)[s.membership]
    return SummaryPagerank(scores, node_scores, iterations, converged)


def shortest_path_length(s: Summary, u: int, v: int) -> float:
    """Unweighted shortest-path length between original nodes u and v.

    Same supernode: 1 inside a clique; 2 inside an independent set that has
    at least one neighbor (any neighbor is shared), else unreachable.
    Different supernodes: their distance in the supernode graph, since a
    shortest path never revisits a supernode, found by a level-synchronous
    BFS that stops at the first level holding a neighbor of v's supernode.
    Returns an int, or math.inf when unreachable.
    """
    _require_lossless(s)
    if not (0 <= u < s.n and 0 <= v < s.n):
        raise IndexError(f"node pair ({u},{v}) out of range for n={s.n}")
    if u == v:
        return 0
    su, sv = s.supernode_of(u), s.supernode_of(v)
    sg = s.super_adjacency()
    if su == sv:
        if s.cliques[su]:
            return 1
        return 2 if sg.degrees[su] else math.inf
    last_hop = sg.neighbors(sv)
    seen = np.zeros(sg.n, dtype=bool)
    seen[su] = True
    frontier = np.array([su], dtype=np.int64)
    depth = 0
    while frontier.size:
        if seen[last_hop].any():
            return depth + 1
        depth += 1
        reached, _ = sg.rows(frontier)
        reached = reached[~seen[reached]]
        reached.sort()  # sort and mask: a flag-less np.unique hashes, far slower in numpy 2.4
        first = np.ones(reached.size, dtype=bool)
        first[1:] = reached[1:] != reached[:-1]
        frontier = reached[first]
        seen[frontier] = True
    return math.inf
