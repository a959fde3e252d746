"""Triangle, Pagerank and shortest-path queries answered on a lossless
summary directly, without reconstructing the original graph.

Triangles come in three shapes: all three corners inside one clique
supernode (a), an edge inside a clique plus one outside corner (b), and
one corner in each of three mutually adjacent supernodes (c). Type c
takes one oriented-wedge pass over the supernode graph: edges point up
the (degree, id) order, and each wedge's closing edge is a binary search
in one sorted key array; the member products sum in int64 while
C(n, 3) < 2**63 and in Python ints past it.

Pagerank runs on supernode totals (every member of a supernode provably
holds the same score). Shortest paths reduce to a level-synchronous BFS
over the supernode graph plus a constant-time same-supernode case split.

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
from .errors import EmptyGraphError, UnsupportedSummaryError
from .graph import Graph, stable_order
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


def _super_triangles(
    g: Graph, budget: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The triangles of g as id arrays (x, y, z), a chunk at a time; each
    triangle appears once, its corners ascending in rank by (degree, id).

    The forward scheme: each edge points from its lower- to its
    higher-ranked end, so each rank's out-row is an ascending slice of one
    sorted key array rank_lo * k + rank_hi. Edge x->y opens a wedge with
    every later slot x->z of its row; the wedge closes iff key y->z exists.
    A chunk takes whole edges, at least one, up to budget wedges in all.
    The default budget, one wedge per oriented edge, is never below one
    edge's wedges (out-degrees are at most sqrt(2m)), so memory stays O(m).
    """
    k = g.n
    order, _ = stable_order(g.degrees)
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    lo, hi = rank[g.sources], rank[g.targets]
    forward = lo < hi
    keys = np.sort(lo[forward] * k + hi[forward])
    lo, hi = np.divmod(keys, k)
    row_end = np.cumsum(np.bincount(lo, minlength=k))
    wedges = row_end[lo] - np.arange(len(keys)) - 1  # the later slots of each edge's row
    wedge_end = np.cumsum(wedges)
    budget = budget or len(keys)
    start = done = 0
    while start < len(keys):
        stop = max(int(np.searchsorted(wedge_end, done + budget, "right")), start + 1)
        total = int(wedge_end[stop - 1]) - done
        counts = wedges[start:stop]
        # wedge t of edge e pairs it with slot e + 1 + t of the same row
        first = np.arange(start + 1, stop + 1) - (wedge_end[start:stop] - counts - done)
        slot = np.arange(total) + np.repeat(first, counts)
        y = np.repeat(hi[start:stop], counts)
        close = y * k + hi[slot]
        found = keys.take(np.searchsorted(keys, close), mode="clip") == close
        slot = slot[found]
        yield order[lo[slot]], order[y[found]], order[hi[slot]]
        start, done = stop, done + total


def count_triangles(s: Summary) -> TriangleReport:
    """Triangle totals per type; the grand total equals the original graph's.

    Type c adds sizes[x] * sizes[y] * sizes[z] over the super-triangles of
    _super_triangles. It sums in int64 while C(n, 3) < 2**63: every
    partial sum counts distinct triangles of the original graph, so none
    can overflow. Past that bound it sums Python ints, as types a and b do.
    """
    _require_lossless(s)
    super_graph = s.super_adjacency()
    reach = super_graph.row_reduce(np.add, s.sizes[super_graph.targets], 0)  # neighbor members
    k = s.sizes[s.cliques].astype(object)  # Python ints: the products cannot overflow
    count_a = int((k * (k - 1) * (k - 2) // 6).sum())
    count_b = int((k * (k - 1) // 2 * reach[s.cliques]).sum())
    sizes = s.sizes.astype(np.int64 if math.comb(s.n, 3) < 2**63 else object)
    count_c = 0
    for x, y, z in _super_triangles(super_graph):
        count_c += int((sizes[x] * sizes[y] * sizes[z]).sum())
    return TriangleReport(count_a, count_b, count_c)


def enumerate_triangles(
    s: Summary, sink: Callable[[tuple[int, int, int]], None]
) -> None:
    """Stream every triangle of the original graph exactly once.

    Triples are sorted ascending; emission order is type a, then b, then c,
    each generator in ascending canonical order, so output is reproducible.
    Type c visits the super-triangles of _super_triangles sorted by their
    (x, y, z) ids.
    """
    _require_lossless(s)
    cliques = np.flatnonzero(s.cliques).tolist()
    super_graph = s.super_adjacency()
    for x in cliques:
        for triple in combinations(s.members(x), 3):
            sink(triple)
    for x in cliques:
        neighbors = super_graph.neighbors_list(x)
        for pair in combinations(s.members(x), 2):
            for y in neighbors:
                for w in s.members(y):
                    sink(tuple(sorted((pair[0], pair[1], w))))
    none = np.zeros(0, dtype=np.int64)  # an edgeless supernode graph yields no chunk
    chunks = zip((none, none, none), *_super_triangles(super_graph))
    x, y, z = (np.concatenate(ids) for ids in chunks)
    order = np.lexsort((z, y, x))
    for a, b, c in zip(x[order].tolist(), y[order].tolist(), z[order].tolist()):
        for u in s.members(a):
            for v in s.members(b):
                for w in s.members(c):
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
        raise EmptyGraphError("pagerank of an empty summary is undefined")
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
        # distinct ids only, by a sort and a mask: graph.number_keys would add
        # ranks the BFS never reads, and a flag-less np.unique hashes (slow)
        reached.sort()
        first = np.ones(reached.size, dtype=bool)
        first[1:] = reached[1:] != reached[:-1]
        frontier = reached[first]
        seen[frontier] = True
    return math.inf
