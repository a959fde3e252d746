"""Lossy utility-threshold summarization.

The merge candidates are the edges of the 2-hop graph (pairs sharing at
least one common neighbor) weighted by C_u + C_v. Their minimum spanning
forest under (weight, min id, max id), Kruskal over the star pairs of each
neighborhood's lightest node (plus its near-ties, see two_hop_mst), is a
sufficient candidate list: it yields the same summaries as the full sorted
pair list. Utility is non-increasing as the sorted forest edges are merged
in order, so the largest merge prefix that keeps utility above the threshold
is found by binary search, recomputing the union-find partition from scratch
at every probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .centrality import EdgeWeightModel, NodeCentrality
from .errors import CapExceededError
from .graph import Graph
from .summary import Summary, partition_summary
from .unionfind import UnionFind

DEFAULT_PAIR_CAP = 5_000_000

TIE_BREAK_RULE = "weight,min-id,max-id"


@dataclass(frozen=True)
class MergePairList:
    """Candidate merge pairs in ascending weight order (ties by node ids)."""

    pairs: list[tuple[int, int]] = field(repr=False)
    weights: list[float] = field(repr=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def __post_init__(self):
        for i in range(1, len(self.weights)):
            if self.weights[i] < self.weights[i - 1]:
                raise ValueError("merge pair weights must be ascending")


def two_hop_mst(g: Graph, c: NodeCentrality) -> MergePairList:
    """The minimum spanning forest of the 2-hop graph under (C_u + C_v,
    min id, max id), in that order: Kruskal over star pairs. Each N(b) is a
    2-hop clique; with h(b) its lightest node by (C, id), a pair (y, x) of
    N(b) avoiding h(b) is the strict maximum of the triangle (h(b), y, x),
    so only the (at most 2m) star pairs (h(b), x) are sorted. Rounding can
    tie C_h + C_x with C_y + C_x when C_y is a few ulps above C_h: such a
    near-hub y keeps its own star pairs too."""
    if len(c) != g.n:
        raise ValueError("centrality length does not match graph")
    n = g.n
    scores = np.asarray(c.scores, dtype=np.float64)
    keys = _star_pair_keys(g, scores)
    weights = scores[keys // n] + scores[keys % n]
    keys = keys[np.argsort(weights, kind="stable")]  # keys ascend by (lo, hi)
    forest, pairs = UnionFind(n), []
    for key in keys.tolist():
        u, v = divmod(key, n)
        if forest.union(u, v):
            pairs.append((u, v))
    return MergePairList(pairs, [float(scores[u] + scores[v]) for u, v in pairs])


def _star_pair_keys(g: Graph, scores: np.ndarray) -> np.ndarray:
    """Distinct star pairs (u, v), u < v, of two_hop_mst as sorted keys u*n + v."""
    n, targets, deg = g.n, g.targets, g.degrees
    starts, counts = g.offsets[:-1][deg > 0], deg[deg > 0]
    by_score = np.lexsort((np.arange(n), scores))  # nodes ascending by (C, id)
    rank = np.empty(n, dtype=np.int64)
    rank[by_score] = np.arange(n)
    hub = by_score[np.minimum.reduceat(rank[targets], starts)]  # per row b
    c_x = scores[targets]
    scale = np.maximum.reduceat(np.abs(c_x), starts)
    limit = scores[hub] + 4 * np.finfo(np.float64).eps * scale
    row = np.repeat(np.arange(len(starts)), counts)
    near = (c_x > scores[hub][row]) & (c_x <= limit[row])
    centers = np.flatnonzero((targets == hub[row]) | near)
    # pair each star center with every node of its own N(b)
    row = row[centers]
    span = counts[row]
    first = np.repeat(starts[row] - np.cumsum(span) + span, span)
    a = np.repeat(targets[centers], span)
    b = targets[first + np.arange(span.sum())]
    return np.unique((np.minimum(a, b) * n + np.maximum(a, b))[a != b])


def full_candidate_list(
    g: Graph, c: NodeCentrality, max_pairs: int = DEFAULT_PAIR_CAP
) -> MergePairList:
    """All 2-hop pairs, sorted like two_hop_mst. Materializes the 2-hop
    graph, so it is guarded by a pair cap; intended for desk-scale
    verification against the MST route only.
    """
    if len(c) != g.n:
        raise ValueError("centrality length does not match graph")
    scores = c.scores.tolist()
    edges: list[tuple[float, int, int]] = []
    for v in range(g.n):
        for w in g.two_hop_neighbors(v):
            if w > v:
                edges.append((scores[v] + scores[w], v, w))
                if len(edges) > max_pairs:
                    raise CapExceededError(
                        f"2-hop pair list exceeds cap {max_pairs}"
                    )
    edges.sort()
    return MergePairList([(a, b) for _, a, b in edges], [w for w, _, _ in edges])


def merge_prefix(g: Graph, candidates: MergePairList, t: int) -> UnionFind:
    """Partition after processing the first t candidate pairs from singletons."""
    if not 0 <= t <= len(candidates):
        raise ValueError(f"prefix length {t} out of range 0..{len(candidates)}")
    uf = UnionFind(g.n)
    for u, v in candidates.pairs[:t]:
        uf.union(u, v)
    return uf


def _superpair_accumulate(
    g: Graph, model: EdgeWeightModel, uf: UnionFind
) -> dict[tuple[int, int], list]:
    """Per supernode pair: [actual edge count, summed actual edge weight]."""
    scores = model.node_centrality.scores.tolist()
    z = model.actual_norm
    find = uf.find
    acc: dict[tuple[int, int], list] = {}
    for u, v in g.edges():
        a, b = find(u), find(v)
        pair = (a, b) if a <= b else (b, a)
        entry = acc.get(pair)
        weight = (scores[u] + scores[v]) / z
        if entry is None:
            acc[pair] = [1, weight]
        else:
            entry[0] += 1
            entry[1] += weight
    return acc


def _pair_costs(
    pair: tuple[int, int], count: int, wsum: float, uf: UnionFind, w_s: float
) -> tuple[float, float]:
    """(cost of adding the superedge, cost of not adding it)."""
    a, b = pair
    if a == b:
        size = uf.size[a]
        spurious = size * (size - 1) // 2 - count
    else:
        spurious = uf.size[a] * uf.size[b] - count
    return spurious * w_s, wsum


def compute_utility(g: Graph, model: EdgeWeightModel, partition: UnionFind) -> float:
    """Utility of the summary induced by the partition, in [0, 1].

    One pass over E accumulates, per supernode pair, the actual edge count
    and weight; the pair then loses the cheaper of adding the superedge
    (spurious weight) or dropping it (actual weight). Pairs without actual
    edges cost nothing. Accumulation order is fixed for determinism.
    """
    acc = _superpair_accumulate(g, model, partition)
    w_s = model.spurious_weight
    losses = []
    for pair in sorted(acc):
        count, wsum = acc[pair]
        sedge, nsedge = _pair_costs(pair, count, wsum, partition, w_s)
        losses.append(min(sedge, nsedge))
    value = 1.0 - math.fsum(losses)
    return min(1.0, max(0.0, value))


def build_superedges_lossy(
    g: Graph, model: EdgeWeightModel, partition: UnionFind
) -> Summary:
    """Summary for a lossy partition: superedge iff adding costs no more
    than dropping (ties keep the superedge). No kind tags.
    """
    acc = _superpair_accumulate(g, model, partition)
    w_s = model.spurious_weight
    labels = partition.labels()
    root_to_label = {}
    for u in range(g.n):
        root_to_label[partition.find(u)] = labels[u]
    superedges: set[tuple[int, int]] = set()
    for pair, (count, wsum) in acc.items():
        sedge, nsedge = _pair_costs(pair, count, wsum, partition, w_s)
        if sedge <= nsedge:
            a, b = root_to_label[pair[0]], root_to_label[pair[1]]
            superedges.add((a, b) if a <= b else (b, a))
    return partition_summary(labels, superedges, kinds_by_group=None)


@dataclass(frozen=True)
class LossyResult:
    summary: Summary
    utility: float
    prefix_length: int  # merges taken from the head of the candidate list
    num_candidates: int  # size of the spanning forest


def summarize_lossy(
    g: Graph,
    model: EdgeWeightModel,
    tau: float,
    candidates: MergePairList | None = None,
) -> LossyResult:
    """Largest merge prefix whose utility stays >= tau, found by binary search.

    Utility is non-increasing along the sorted forest edges, so the probe
    at each midpoint (re-merged from scratch, then one utility sweep)
    decides the half to keep. The returned summary is re-derived at the
    final prefix. An explicit candidate list can replace the computed
    spanning forest.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    forest = candidates if candidates is not None else two_hop_mst(g, model.node_centrality)
    lo, hi = 0, len(forest)
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probe = compute_utility(g, model, merge_prefix(g, forest, mid))
        if probe >= tau:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    partition = merge_prefix(g, forest, best)
    utility = compute_utility(g, model, partition)
    summary = build_superedges_lossy(g, model, partition)
    return LossyResult(summary, utility, best, len(forest))
