"""Lossy utility-threshold summarization.

The merge candidates are the edges of the 2-hop graph (pairs sharing at
least one common neighbor) weighted by C_u + C_v. Their minimum spanning
forest under (weight, min id, max id), found by Boruvka rounds over the
star pairs of each neighborhood's lightest node (plus its near-ties, see
two_hop_mst), is a sufficient candidate list: it yields the same summaries
as the full sorted pair list. Utility is non-increasing as the sorted
forest edges are merged in order, so the largest merge prefix that keeps
utility above the threshold is found by binary search.

No partition replays the merges. The partition after a prefix is the
connected components of its pairs, each labelled by its smallest node:
merge_prefix computes it by graph.component_labels (min-label hooking
with pointer jumping) over the prefix of the ends array the list holds.
That per-node label array is the one partition form: compute_utility and
build_superedges_lossy take it. Each probe of the search is one
merge_prefix and one compute_utility call, and the best passing probe's
labels give the summary.

A probe's utility, and the superedges of the final summary, come from one
array pass over the edges: superpairs keyed lo*n + hi and grouped by
graph.group_keys, the library's one key-numbering kernel (one in-place
np.sort of each key packed with its edge's canonical index, or a stable
argsort where the packed key would pass 63 bits, as on graphs of millions
of nodes and edges), per-pair edge counts from the runs and weight sums
by np.bincount over the model's cached edge weights, and the nonzero
losses summed by math.fsum. A probe groups only the edges with an end in
a set of two or more nodes, as an edge between two singletons loses
exactly 0 (see compute_utility). The packed index keeps each pair's
edges in canonical edge order (that of Graph.edges()), so its weights
are summed in that order and the utility is the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import EdgeWeightModel, NodeCentrality
from .errors import CapExceededError
from .graph import Graph, component_labels, distinct_pair_keys, group_keys
from .graph import relabel_by_first_appearance
from .summary import PairSet, Summary, pair_capacity

DEFAULT_PAIR_CAP = 5_000_000

TIE_BREAK_RULE = "weight,min-id,max-id"


@dataclass(frozen=True, eq=False)
class MergePairList:
    """Candidate merge pairs, given as (u, v) integer pairs or an (L, 2)
    integer array, with ascending weights (ties by node ids); held as the
    read-only copies ends ((2, L) int64) and weights (float64)."""

    ends: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            ends = np.asarray(self.ends)
            paired = ends.ndim == 2 and ends.shape[1] == 2 and ends.dtype.kind in "iu"
            paired |= ends.shape == (0,)  # no pairs
        except ValueError:  # ragged pairs
            paired = False
        if not paired:
            raise ValueError("merge pairs must be pairs of integer node ids")
        ends = np.array(ends.reshape(-1, 2).T, dtype=np.int64, order="C")
        weights = np.asarray(self.weights)
        numbers = weights.ndim == 1 and weights.dtype.kind in "iuf" and not np.isnan(weights).any()
        if not (numbers and np.all(weights[1:] >= weights[:-1])):
            raise ValueError("merge pair weights must be a 1-d array of ascending numbers")
        if ends.shape[1] != len(weights):
            raise ValueError(f"{ends.shape[1]} merge pairs but {len(weights)} weights")
        if ends.min(initial=0) < 0:
            raise ValueError("merge pairs must name nodes 0 and up")
        for name, array in (("ends", ends), ("weights", np.array(weights, dtype=np.float64))):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The pairs as (u, v) tuples of Python ints, a new list each call."""
        return list(zip(*self.ends.tolist()))


def two_hop_mst(g: Graph, c: NodeCentrality) -> MergePairList:
    """The minimum spanning forest of the 2-hop graph under (C_u + C_v,
    min id, max id), in that order, over star pairs. Each N(b) is a 2-hop
    clique; with h(b) its lightest node by (C, id), a pair (y, x) of N(b)
    avoiding h(b) is the strict maximum of the triangle (h(b), y, x), so
    only the (at most 2m) star pairs (h(b), x) are sorted. Rounding can tie
    C_h + C_x with C_y + C_x when C_y is a few ulps above C_h: such a
    near-hub y keeps its own star pairs too. Stable-sorted by weight, the
    pairs' positions follow the strict order (weight, min id, max id), which
    has one minimum forest: each Boruvka round, every component picks its
    least position to another (np.minimum.at), graph.component_labels merges
    the picks, and the picked positions, ascending, are Kruskal's forest."""
    if len(c) != g.n:
        raise ValueError("centrality length does not match graph")
    n = g.n
    scores = np.asarray(c.scores, dtype=np.float64)
    keys = _star_pair_keys(g, scores)
    # a stable sort by weight keeps ties ascending by key, that is by (lo, hi)
    lo, hi = np.divmod(keys[np.argsort(scores[keys // n] + scores[keys % n], kind="stable")], n)
    del keys  # m-sized: freed before the rounds
    labels = np.arange(n, dtype=np.int64)  # each node's component, by its smallest node
    live = np.arange(len(lo))  # positions whose ends lie in two components
    picked = np.zeros(len(lo), dtype=bool)
    while len(live):
        lu, lv = labels[lo[live]], labels[hi[live]]
        least = np.full(n, len(lo))  # per component, its least live position
        np.minimum.at(least, lu, live)
        np.minimum.at(least, lv, live)
        pick = (least[lu] == live) | (least[lv] == live)
        picked[live[pick]] = True
        labels = component_labels(n, lu[pick], lv[pick])[labels]
        del lu, lv  # m-sized: freed before the next live positions
        live = live[labels[lo[live]] != labels[hi[live]]]
    lo, hi = lo[picked], hi[picked]
    return MergePairList(np.stack((lo, hi)).T, scores[lo] + scores[hi])


def _star_pair_keys(g: Graph, scores: np.ndarray) -> np.ndarray:
    """Distinct star pairs (u, v), u < v, of two_hop_mst as sorted keys u*n + v."""
    n, targets, row = g.n, g.targets, g.sources
    by_score = np.argsort(scores, kind="stable")  # nodes ascending by (C, id)
    rank = np.empty(n, dtype=np.int64)
    rank[by_score] = np.arange(n)
    hub = by_score[g.row_reduce(np.minimum, rank[targets], 0)]  # per node b
    c_x = scores[targets]
    scale = g.row_reduce(np.maximum, np.abs(c_x), 0.0)
    limit = scores[hub] + 4 * np.finfo(np.float64).eps * scale
    near = (c_x > scores[hub][row]) & (c_x <= limit[row])
    centers = np.flatnonzero((targets == hub[row]) | near)
    # pair each star center with every node of its own N(b)
    b, ends = g.rows(row[centers])
    a = np.repeat(targets[centers], np.diff(ends, prepend=0))
    apart = a != b
    return distinct_pair_keys(a[apart], b[apart], n)


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


def merge_prefix(g: Graph, candidates: MergePairList, t: int) -> np.ndarray:
    """Partition after merging the first t candidate pairs from singletons:
    per node, the smallest node of its set (int64), which is its connected
    component in the graph of those pairs (graph.component_labels over a
    prefix of candidates.ends). A list naming a node outside g raises ValueError."""
    if not 0 <= t <= len(candidates):
        raise ValueError(f"prefix length {t} out of range 0..{len(candidates)}")
    top = candidates.ends.max(initial=-1)
    if top >= g.n:
        raise ValueError(f"candidate node {top} out of range 0..{g.n - 1}")
    u, v = candidates.ends
    return component_labels(g.n, u[:t], v[:t])


def _checked_labels(g: Graph, labels: np.ndarray) -> np.ndarray:
    """labels as int64, or ValueError unless they are a 1-d integer array
    naming one set id in 0..n-1 per node of g; an id of n or more would let
    the superpair keys lo*n + hi of two different pairs collide."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or len(labels) != g.n:
        raise ValueError(f"partition labels must be a 1-d integer array of {g.n} node ids")
    if g.n and not (labels.min() >= 0 and labels.max() < g.n):
        raise ValueError(f"partition labels must lie in 0..{g.n - 1}")
    return labels.astype(np.int64, copy=False)


def _edge_weights(g: Graph, model: EdgeWeightModel) -> np.ndarray:
    """model.edge_weights, or ValueError unless the model was built on g
    (the same object, or else an equal graph)."""
    if g is not model.graph and g != model.graph:
        raise ValueError("the edge weight model was built on a different graph")
    return model.edge_weights


def _superpair_costs(
    g: Graph, model: EdgeWeightModel, labels: np.ndarray, sizes: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per supernode pair (a, b), a <= b, joined by at least one of the
    given edges, in ascending (a, b) order: a, b, the cost of adding the
    superedge (spurious weight) and of dropping it (actual weight). edges
    are ascending indices into the canonical edge order (that of
    Graph.edge_arrays); labels are any per-node int64 ids below n, and
    sizes the number of nodes of each id.

    The pairs are grouped by graph.group_keys over the keys lo*n + hi
    packed with the edge indices, so each pair's edges stay in canonical
    order and np.bincount adds its weights in that order, whichever edges
    are left out."""
    weights = _edge_weights(g, model)
    n = g.n
    u, v = g.edge_arrays
    lu, lv = u[edges], v[edges]
    # the ends' labels, gathered over the ends: take reads each index before
    # it writes that slot, and mode="clip" (no index is out of range) keeps
    # it from buffering out, so no further array is made
    labels.take(lu, out=lu, mode="clip")
    labels.take(lv, out=lv, mode="clip")
    keys = np.minimum(lu, lv)
    np.maximum(lu, lv, out=lv)
    keys *= n
    keys += lv
    del lu, lv  # freed before the sort adds its own
    order, pair, distinct, runs = group_keys(keys, edges)
    del keys  # each edge-sized array is freed once spent, before the per-pair ones
    count = np.diff(runs, append=len(order))
    wsum = np.bincount(pair, weights=weights[order])
    del order, pair
    a, b = np.divmod(distinct, n)
    possible = pair_capacity(sizes, a, b)
    return a, b, (possible - count) * model.spurious_weight, wsum


def compute_utility(g: Graph, model: EdgeWeightModel, labels: np.ndarray) -> float:
    """Utility of the summary induced by the partition, in [0, 1]. labels
    give each node a set id in 0..n-1, as merge_prefix does; anything else
    raises ValueError, as does a model built on another graph.

    One array pass over the edges that touch a set of two or more nodes
    groups them by supernode pair and sums, per pair, the actual edge count
    and weight (np.bincount, in canonical edge order); the pair then loses
    the cheaper of adding the superedge (spurious weight) or dropping it
    (actual weight). An edge between two singletons is a pair of its own,
    of capacity 1 and count 1: adding it costs 0 spurious weights, which is
    exactly 0 as the spurious weight is finite, and dropping it costs its
    weight, which is >= 0 as the scores are nonnegative and the normalizer
    positive. Its loss is exactly 0, so such edges are not grouped at all,
    and pairs without actual edges cost nothing either. The nonzero losses
    are summed by math.fsum, which is correctly rounded, so the result does
    not depend on how the pairs are numbered; it equals the sum over every
    edge to the bit.
    """
    labels = _checked_labels(g, labels)
    sizes = np.bincount(labels, minlength=g.n)
    merged = (sizes > 1)[labels]  # per node: in a set of two or more
    u, v = g.edge_arrays
    edges = np.flatnonzero(merged[u] | merged[v])
    _, _, sedge, nsedge = _superpair_costs(g, model, labels, sizes, edges)
    losses = np.minimum(sedge, nsedge)
    # losses are >= 0, and exact zeros do not change a correctly rounded sum
    value = 1.0 - math.fsum(losses[losses != 0].tolist())
    return min(1.0, max(0.0, value))


def build_superedges_lossy(g: Graph, model: EdgeWeightModel, labels: np.ndarray) -> Summary:
    """Summary for a lossy partition, given as compute_utility takes it:
    superedge iff adding costs no more than dropping (ties keep the
    superedge). Supernodes are numbered by first appearance. No kind tags.
    """
    labels = relabel_by_first_appearance(_checked_labels(g, labels))
    edges = np.arange(g.m)  # all: an edge between singletons is a superedge too
    a, b, sedge, nsedge = _superpair_costs(g, model, labels, np.bincount(labels), edges)
    keep = sedge <= nsedge
    return Summary(labels, PairSet(a[keep], b[keep]))


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
    at each midpoint decides the half to keep. A probe is merge_prefix,
    the connected components of the prefix's pairs, then compute_utility
    over the model's cached edge weights. The longest passing probe's
    labels and utility are the result's; build_superedges_lossy derives
    the summary from those labels. Prefix 0 (all singletons) has utility
    exactly 1.0, so the search always ends on a prefix it probed. An
    explicit candidate list can replace the computed spanning forest.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    forest = candidates if candidates is not None else two_hop_mst(g, model.node_centrality)
    lo, hi = 0, len(forest)
    while lo <= hi:
        mid = (lo + hi) // 2
        labels = merge_prefix(g, forest, mid)
        utility = compute_utility(g, model, labels)
        if utility >= tau:
            best = mid, labels, utility
            lo = mid + 1
        else:
            hi = mid - 1
    prefix, labels, utility = best
    summary = build_superedges_lossy(g, model, labels)
    return LossyResult(summary, utility, prefix, len(forest))
