"""Independent brute-force oracles.

Each oracle takes a route through the problem that shares no code with the
implementation it checks: dense matrices instead of adjacency sweeps,
exhaustive enumeration instead of hashing, pairwise scans instead of
superpair accumulators, a per-edge dict loop instead of array grouping.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from graphsum import (
    CapExceededError,
    EdgeListParseError,
    EdgeWeightModel,
    Graph,
    LoadResult,
    MergePairList,
    NodeCentrality,
    Summary,
    from_edges,
)
from graphsum.evaluate import LosslessnessReport
from graphsum.graph import _simple_graph
from graphsum.lossless import _assemble
from graphsum.lossy import _star_pair_keys
from graphsum.summary import DEFAULT_RECONSTRUCT_CAP


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = 1
        a[v, u] = 1
    return a


def super_adjacency_lists(s: Summary) -> list[list[int]]:
    """Sorted cross-neighbor lists over supernodes, self-superedges
    excluded, by a loop over the superedge set."""
    adj: list[list[int]] = [[] for _ in range(s.num_supernodes)]
    for a, b in s.superedges:
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    for row in adj:
        row.sort()
    return adj


def two_hop_by_matrix_square(g: Graph, v: int) -> set[int]:
    """w shares a common neighbor with v iff (A @ A)[v, w] > 0."""
    a = adjacency_matrix(g)
    sq = a @ a
    out = {int(w) for w in np.nonzero(sq[v])[0]}
    out.discard(v)
    return out


def dense_pagerank(
    g: Graph, damping: float, tol: float = 1e-12, max_iter: int = 10_000
) -> np.ndarray:
    """Dense-matrix power iteration of the same recurrence."""
    a = adjacency_matrix(g).astype(np.float64)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(deg > 0, 1.0 / deg, 0.0)
    p = np.ones(g.n)
    for _ in range(max_iter):
        new = (1.0 - damping) + damping * (a @ (p * inv))
        if np.abs(new - p).sum() < tol:
            return new
        p = new
    return p


def loop_pagerank(
    g: Graph, damping: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int, bool]:
    """The per-node power iteration as a loop of its own, rebuilding the
    row index every round: (scores, iterations, converged)."""
    deg = g.degrees.astype(np.float64)
    inv_deg = np.zeros(g.n)
    np.divide(1.0, deg, out=inv_deg, where=deg > 0)
    scores = np.ones(g.n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
        pulled = np.bincount(src, weights=(scores * inv_deg)[g.targets], minlength=g.n)
        new = (1.0 - damping) + damping * pulled
        delta = float(np.abs(new - scores).sum())
        scores = new
        if delta < tol:
            converged = True
            break
    return scores, iterations, converged


def loop_summary_pagerank(
    s: Summary, damping: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The supernode-total power iteration as a loop of its own:
    (supernode scores, node scores, iterations, converged)."""
    k = s.num_supernodes
    sizes = s.sizes.astype(np.float64)
    clique = np.array([kind == "clique" for kind in s.kinds], dtype=bool)
    sg = s.super_adjacency()
    flat = sg.targets
    src = np.repeat(np.arange(k, dtype=np.int64), sg.degrees)

    w = np.zeros(k)
    if len(flat):
        w = np.bincount(src, weights=sizes[flat], minlength=k)
    w[clique] += sizes[clique] - 1.0

    inv_w = np.zeros(k)
    np.divide(1.0, w, out=inv_w, where=w > 0)

    scores = sizes.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        contrib = scores * inv_w
        pulled = (
            np.bincount(src, weights=contrib[flat], minlength=k)
            if len(flat)
            else np.zeros(k)
        )
        new = sizes * pulled
        new[clique] += (sizes[clique] - 1.0) * contrib[clique]
        new = (1.0 - damping) * sizes + damping * new
        delta = float(np.abs(new - scores).sum())
        scores = new
        if delta < tol:
            converged = True
            break
    return scores, (scores / sizes)[s.membership], iterations, converged


def bfs_distances(g: Graph, source: int) -> list[float]:
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors_list(u):
            if math.isinf(dist[w]):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brute_betweenness(g: Graph) -> list[float]:
    """Enumerate every shortest path explicitly (DFS over the BFS DAG) and
    count interior visits. Only usable for small n."""
    score = [0.0] * g.n
    for s in range(g.n):
        dist = bfs_distances(g, s)
        for t in range(s + 1, g.n):
            if math.isinf(dist[t]):
                continue
            paths: list[list[int]] = []
            stack = [[t]]
            while stack:
                partial = stack.pop()
                head = partial[-1]
                if head == s:
                    paths.append(partial)
                    continue
                for w in g.neighbors_list(head):
                    if dist[w] == dist[head] - 1:
                        stack.append(partial + [w])
            if not paths:
                continue
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / len(paths)
    return score


def neighborhood_class_partition(g: Graph) -> list[frozenset[int]]:
    """Optimal lossless partition straight from the two equality relations:
    equal closed neighborhoods form cliques, equal open neighborhoods form
    independent sets, everything else stays single."""
    closed: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        key = frozenset(g.neighbors_list(v)) | {v}
        closed.setdefault(key, []).append(v)
    grouped: set[int] = set()
    groups: list[frozenset[int]] = []
    for members in closed.values():
        if len(members) >= 2:
            groups.append(frozenset(members))
            grouped.update(members)
    open_nbrs: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        if v in grouped:
            continue
        open_nbrs.setdefault(frozenset(g.neighbors_list(v)), []).append(v)
    for members in open_nbrs.values():
        if len(members) >= 2:
            groups.append(frozenset(members))
            grouped.update(members)
    groups.extend(frozenset([v]) for v in range(g.n) if v not in grouped)
    return groups


def pivot_loop_groups(
    g: Graph, buckets: dict[int, list[int]], closed: bool, skip=frozenset()
) -> list[list[int]]:
    """filter_supernodes one bucket at a time: the smallest node left in
    the bucket takes every node whose (closed) neighbor tuple equals its
    own, until the bucket is empty; groups of two or more are kept."""
    groups: list[list[int]] = []
    for bucket in buckets.values():
        keys = {}
        for v in bucket:
            if v not in skip:
                row = set(g.neighbors_list(v)) | ({v} if closed else set())
                keys[v] = tuple(sorted(row))
        remaining = set(keys)
        while remaining:
            u = min(remaining)
            remaining.discard(u)
            group = [u] + [v for v in sorted(remaining) if keys[v] == keys[u]]
            if len(group) >= 2:
                remaining.difference_update(group)
                groups.append(sorted(group))
    return groups


def summarize_naive(g: Graph) -> Summary:
    """Quadratic reference summarizer: pairwise neighborhood comparison.

    For each unprocessed u, collects every v with N(u) = N(v) (independent
    set) or, when adjacent, N(u) minus v = N(v) minus u (clique). Optimal
    by the greedy argument: each group is the largest supernode its members
    can ever occupy.
    """
    nbr_sets = [frozenset(g.neighbors_list(v)) for v in range(g.n)]
    degrees = g.degrees.tolist()
    processed = [False] * g.n
    clique_groups: list[list[int]] = []
    is_groups: list[list[int]] = []
    for u in range(g.n):
        if processed[u]:
            continue
        processed[u] = True
        group = [u]
        is_clique = False
        nu = nbr_sets[u]
        for v in range(u + 1, g.n):
            if processed[v] or degrees[v] != degrees[u]:
                continue
            if nu == nbr_sets[v]:
                is_clique = False
            elif v in nu and nu - {v} == nbr_sets[v] - {u}:
                is_clique = True
            else:
                continue
            group.append(v)
            processed[v] = True
        if len(group) >= 2:
            (clique_groups if is_clique else is_groups).append(group)
    return _assemble(g, clique_groups, is_groups)


def partition_key(groups) -> set[frozenset[int]]:
    return {frozenset(grp) for grp in groups}


def triangle_count_matrix(g: Graph) -> int:
    a = adjacency_matrix(g)
    return int(np.trace(a @ a @ a)) // 6


def triangle_set_enumeration(g: Graph) -> set[tuple[int, int, int]]:
    out = set()
    for u, v in g.edges():
        common = set(g.neighbors_list(u)) & set(g.neighbors_list(v))
        for w in common:
            if w > v:
                out.add((u, v, w))
    return out


def pairwise_utility(g: Graph, model: EdgeWeightModel, labels) -> float:
    """Evaluate the utility definition over every node pair: group pairs by
    supernode pair, then charge each group min(spurious cost, actual cost)."""
    labels = list(labels)
    edge_set = set(g.edges())
    actual: dict[tuple[int, int], float] = {}
    spurious: dict[tuple[int, int], float] = {}
    for u, v in itertools.combinations(range(g.n), 2):
        a, b = labels[u], labels[v]
        key = (a, b) if a <= b else (b, a)
        if (u, v) in edge_set:
            actual[key] = actual.get(key, 0.0) + model.pair_weight(u, v)
        else:
            spurious[key] = spurious.get(key, 0.0) + model.spurious_weight
    loss = 0.0
    for key in set(actual) | set(spurious):
        add_cost = spurious.get(key, 0.0)
        drop_cost = actual.get(key, 0.0)
        loss += min(add_cost, drop_cost)
    return 1.0 - loss


def superpair_loop(g: Graph, model: EdgeWeightModel, labels) -> dict[tuple[int, int], list]:
    """Per pair of set labels (a <= b): [actual edge count, summed actual
    edge weight], one dict update per edge, in the order of g.edges(). The
    reference accumulation of the array pass."""
    scores = model.node_centrality.scores.tolist()
    z = model.actual_norm
    acc: dict[tuple[int, int], list] = {}
    for u, v in g.edges():
        a, b = labels[u], labels[v]
        pair = (a, b) if a <= b else (b, a)
        entry = acc.get(pair)
        weight = (scores[u] + scores[v]) / z
        if entry is None:
            acc[pair] = [1, weight]
        else:
            entry[0] += 1
            entry[1] += weight
    return acc


def _loop_costs(pair, count, wsum, size, w_s) -> tuple[float, float]:
    """(cost of adding the superedge, cost of dropping it); size counts
    the members of each label."""
    a, b = pair
    if a == b:
        spurious = size[a] * (size[a] - 1) // 2 - count
    else:
        spurious = size[a] * size[b] - count
    return spurious * w_s, wsum


def loop_utility(g: Graph, model: EdgeWeightModel, labels) -> float:
    """compute_utility by the per-edge loop over per-node set labels."""
    labels = [int(x) for x in labels]
    acc = superpair_loop(g, model, labels)
    size = Counter(labels)
    losses = [
        min(_loop_costs(pair, count, wsum, size, model.spurious_weight))
        for pair, (count, wsum) in sorted(acc.items())
    ]
    return min(1.0, max(0.0, 1.0 - math.fsum(losses)))


def loop_lossy_superedges(
    g: Graph, model: EdgeWeightModel, labels
) -> tuple[list[int], set[tuple[int, int]]]:
    """(membership, superedges) of build_superedges_lossy by the per-edge
    loop over per-node set labels: supernodes numbered by first
    appearance, superedge iff adding costs no more than dropping."""
    labels = [int(x) for x in labels]
    acc = superpair_loop(g, model, labels)
    size = Counter(labels)
    dense: dict[int, int] = {}
    for x in labels:
        dense.setdefault(x, len(dense))
    superedges = set()
    for pair, (count, wsum) in acc.items():
        sedge, nsedge = _loop_costs(pair, count, wsum, size, model.spurious_weight)
        if sedge <= nsedge:
            a, b = dense[pair[0]], dense[pair[1]]
            superedges.add((a, b) if a <= b else (b, a))
    return [dense[x] for x in labels], superedges


def loop_lossless_superedges(g: Graph, labels) -> set[tuple[int, int]]:
    """The superedge of each edge's two labels, one edge at a time."""
    out: set[tuple[int, int]] = set()
    for u, v in g.edges():
        a, b = labels[u], labels[v]
        out.add((a, b) if a <= b else (b, a))
    return out


def loop_reconstruct(s: Summary, max_edges: int = DEFAULT_RECONSTRUCT_CAP) -> Graph:
    """reconstruct by nested loops over member lists: each member pair of
    every superedge becomes one tuple for from_edges."""
    implied = s.implied_edge_count()
    if implied > max_edges:
        raise CapExceededError(
            f"reconstruction would materialize {implied} edges (cap {max_edges})"
        )
    edges: list[tuple[int, int]] = []
    for a, b in s.superedges:
        if a == b:
            members = s.members(a)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    edges.append((members[i], members[j]))
        else:
            for u in s.members(a):
                for v in s.members(b):
                    edges.append((u, v))
    return from_edges(s.n, edges)


def set_verify_lossless(
    g: Graph, s: Summary, max_edges: int = DEFAULT_RECONSTRUCT_CAP
) -> LosslessnessReport:
    """verify_lossless by Python sets of edge tuples, over loop_reconstruct."""
    if s.n != g.n:
        raise ValueError("summary and graph disagree on node count")
    original = set(g.edges())
    restored = set(loop_reconstruct(s, max_edges=max_edges).edges())
    if original == restored:
        return LosslessnessReport(True, [], [])
    missing = sorted(original - restored)[: LosslessnessReport.MAX_LISTED]
    spurious = sorted(restored - original)[: LosslessnessReport.MAX_LISTED]
    return LosslessnessReport(False, missing, spurious)


def loop_triangle_types_ab(s: Summary) -> tuple[int, int]:
    """count_triangles' types a and b by a loop over the clique supernodes
    and their cross neighbors."""
    adj = super_adjacency_lists(s)
    count_a = count_b = 0
    for x, kind in enumerate(s.kinds):
        if kind != "clique":
            continue
        k = s.size(x)
        count_a += k * (k - 1) * (k - 2) // 6
        count_b += k * (k - 1) // 2 * sum(s.size(y) for y in adj[x])
    return count_a, count_b


def set_super_triangles(adj: list[list[int]]) -> Iterator[tuple[int, int, int]]:
    """Triangles of the supernode graph given as neighbor lists, by
    degree-ordered intersection of Python sets; each super-triangle appears
    once, ordered by ascending rank (degree, then id)."""
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


def set_triangle_type_c(s: Summary) -> int:
    """count_triangles' type c: member products over set_super_triangles."""
    sizes = s.sizes.tolist()
    triples = set_super_triangles(super_adjacency_lists(s))
    return sum(sizes[x] * sizes[y] * sizes[z] for x, y, z in triples)


def loop_enumerate_triangles(s: Summary) -> list[tuple[int, int, int]]:
    """enumerate_triangles' sequence by loops over member and neighbor
    lists: types a, b, then c over sorted set_super_triangles."""
    adj = super_adjacency_lists(s)
    cliques = [x for x, kind in enumerate(s.kinds) if kind == "clique"]
    out: list[tuple[int, int, int]] = []
    for x in cliques:
        out.extend(itertools.combinations(s.members(x), 3))
    for x in cliques:
        for u, v in itertools.combinations(s.members(x), 2):
            for y in adj[x]:
                out.extend(tuple(sorted((u, v, w))) for w in s.members(y))
    for x, y, z in sorted(set_super_triangles(adj)):
        for u, v, w in itertools.product(s.members(x), s.members(y), s.members(z)):
            out.append(tuple(sorted((u, v, w))))
    return out


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """The splitmix64 finalizer on one Python int, wrapping at 64 bits."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def loop_candidate_buckets(
    g: Graph, seed: int
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """candidate_supernodes by a per-node loop over Python ints: each hash
    is the sum mod 2**64 of mix64(x ^ seed) over the closed, then the open
    neighborhood; nodes are grouped by a dict in ascending order."""
    salt = seed & _MASK64
    buckets: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for v in range(g.n):
        open_hash = 0
        for x in g.neighbors_list(v):
            open_hash = (open_hash + _mix64(x ^ salt)) & _MASK64
        closed_hash = (open_hash + _mix64(v ^ salt)) & _MASK64
        buckets[0].setdefault(closed_hash, []).append(v)
        buckets[1].setdefault(open_hash, []).append(v)
    closed, opened = ({h: vs for h, vs in b.items() if len(vs) >= 2} for b in buckets)
    return closed, opened


def loop_eigenvector(g: Graph, tol: float, max_iter: int) -> tuple[np.ndarray, int, bool]:
    """The eigenvector power iteration with every neighbor sum added one
    neighbor at a time, in ascending order, as Python floats:
    (scores, iterations, converged)."""
    if g.m == 0:
        return np.zeros(g.n), 0, True
    rows = [g.neighbors_list(u) for u in range(g.n)]
    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xs = x.tolist()
        sums = []
        for row in rows:
            total = 0.0
            for w in row:
                total += xs[w]
            sums.append(total)
        y = np.array(sums)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            x, converged = y, True
            break
        y /= norm
        if float(np.abs(y - x).sum()) < tol:
            x, converged = y, True
            break
        x = y
    return np.maximum(x, 0.0), iterations, converged


def replayed_prefix_labels(n: int, pairs) -> Iterator[list[int]]:
    """For t = 0..len(pairs), each node's smallest set-mate after merging
    the first t pairs: sets merge one pair at a time, every member of the
    set with the larger label taking the smaller one (no union-find)."""
    labels = list(range(n))
    yield labels
    for u, v in pairs:
        a, b = sorted((labels[u], labels[v]))
        if a != b:
            labels = [a if x == b else x for x in labels]
        yield labels


def union_find_min_labels(n: int, pairs) -> list[int]:
    """Per node 0..n-1, the smallest node of its component in the graph of
    pairs, by a union-find whose every root is its set's smallest node: of
    two roots, the larger joins the smaller."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for u, v in pairs:
        a, b = sorted((find(u), find(v)))
        parent[b] = a
    return [find(x) for x in range(n)]


def kruskal_star_forest(g: Graph, c: NodeCentrality) -> MergePairList:
    """two_hop_mst by Kruskal over the same sorted star pairs: one union
    pass over plain lists with path halving and union by size; the pairs
    and weights it keeps are read off the sorted arrays at the positions
    of the unions that join two sets. It shares _star_pair_keys with
    two_hop_mst; kruskal_over_full_list in the lossy tests checks those
    pairs against every 2-hop pair."""
    if len(c) != g.n:
        raise ValueError("centrality length does not match graph")
    n = g.n
    scores = np.asarray(c.scores, dtype=np.float64)
    keys = _star_pair_keys(g, scores)
    weights = scores[keys // n] + scores[keys % n]
    order = np.argsort(weights, kind="stable")  # ties keep keys ascending by (lo, hi)
    keys, weights = keys[order], weights[order]
    del order  # m-sized: freed before the loop's key list
    parent = list(range(n))
    size = [1] * n
    joined = []  # positions in keys of the unions that join two sets
    for i, key in enumerate(keys.tolist()):
        u, v = divmod(key, n)
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            joined.append(i)
    lo, hi = np.divmod(keys[joined], n)
    return MergePairList(list(zip(lo.tolist(), hi.tolist())), weights[joined].tolist())


def load_edge_lines(path: str | Path) -> LoadResult:
    """load_edge_list one line at a time, compacting ids through a dict."""
    remap: dict[int, int] = {}
    original_ids: list[int] = []
    endpoints: list[int] = []
    self_loops = 0
    edge_lines = 0

    def compact(x: int) -> int:
        new = remap.get(x)
        if new is None:
            new = len(original_ids)
            remap[x] = new
            original_ids.append(x)
        return new

    def strict_int(token: str) -> int:
        digits = token[1:] if token[0] in "+-" else token
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(token)
        return int(token)

    # latin-1 decodes every byte, so a non-ASCII line is named, not fatal to the read
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise EdgeListParseError("non-ASCII byte", lineno)
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"expected two integer tokens, got {len(tokens)}", lineno
                )
            try:
                a, b = strict_int(tokens[0]), strict_int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer token in {line!r}", lineno
                ) from None
            if a < 0 or b < 0:
                raise EdgeListParseError(f"negative node id in {line!r}", lineno)
            edge_lines += 1
            u, v = compact(a), compact(b)
            if u == v:
                self_loops += 1
                continue
            endpoints += (u, v)

    ends = np.array(endpoints, dtype=np.int64)
    graph = _simple_graph(len(original_ids), ends[0::2], ends[1::2])
    duplicates = edge_lines - self_loops - graph.m
    return LoadResult(graph, original_ids, duplicates, self_loops)
