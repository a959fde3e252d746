"""Lossless optimal summarization by clique / independent-set decomposition.

Two nodes can share a supernode in a lossless summary only if they have
identical neighborhoods (independent set) or identical closed neighborhoods
(clique; equivalently they are adjacent and agree on all other neighbors).
`summarize` groups every node with all nodes it can share a supernode with:
hash every (closed) neighborhood into 64-bit buckets, filter false positives
by exact comparison, mop up singletons and build superedges in one edge
sweep.

The neighborhood hash is additive: the sum, wrapping in uint64, of a mixed
value per member. It ignores order, so one row sum over the adjacency
(Graph.row_reduce) hashes every open neighborhood, and adding the node's
own mixed value gives its closed one. Every bucket is then split into exact
classes by rounds of one gathered pass over the neighbor rows, each node
compared with the smallest node of its group; a bucket holding no false
positive takes one round.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import Graph, distinct_pair_keys, number_keys, stable_order
from .graph import relabel_by_first_appearance
from .summary import KIND_CLIQUE, KIND_INDEPENDENT_SET, PairSet, Summary

DEFAULT_SEED = 42

_MASK64 = (1 << 64) - 1


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on a uint64 array (wrapping)."""
    x = x ^ (x >> np.uint64(30))
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _neighbor_rows(g: Graph, nodes: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor rows of nodes, concatenated, plus each row's end offset.

    Each row ascends; a closed row also holds the node itself, merged into
    place by one lexsort.
    """
    flat, ends = g.rows(nodes)
    if closed:
        values = np.concatenate([flat, nodes])
        index = np.arange(len(nodes))
        row = np.concatenate([np.repeat(index, g.degrees[nodes]), index])
        flat = values[np.lexsort((values, row))]
        ends = ends + index + 1
    return flat.astype(np.int64, copy=False), ends


def candidate_supernodes(
    g: Graph, seed: int = DEFAULT_SEED
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Bucket nodes by hashed closed neighborhood (clique candidates) and by
    hashed open neighborhood (independent-set candidates); only buckets of
    two or more nodes are returned, each listing its nodes ascending.

    The hash is additive, so it needs no sorted order: the open hash of v
    is the wrapping uint64 sum of mix64(x ^ seed) over x in N(v), one row
    sum over the adjacency, and the closed hash adds
    mix64(v ^ seed). Hash collisions can put unrelated nodes in one bucket
    (false positives, removed later) but two nodes eligible for the same
    supernode always share a bucket (no false negatives).
    """
    salt = np.uint64(seed & _MASK64)
    mixed = _mix64_array(np.arange(g.n, dtype=np.uint64) ^ salt)
    open_hash = g.row_reduce(np.add, mixed[g.targets], 0)
    closed_hash = open_hash + mixed
    return _buckets(closed_hash), _buckets(open_hash)


def _buckets(hashes: np.ndarray) -> dict[int, list[int]]:
    """{hash: nodes ascending} for each hash shared by two or more nodes,
    in the order of each bucket's smallest node."""
    order, ordered = stable_order(hashes)
    new = np.ones(len(order), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(order))
    starts, sizes = starts[sizes >= 2], sizes[sizes >= 2]
    by_first, _ = stable_order(order[starts])
    starts, sizes = starts[by_first], sizes[by_first]
    flat = order.tolist()
    return {
        h: flat[start : start + size]
        for h, start, size in zip(ordered[starts].tolist(), starts.tolist(), sizes.tolist())
    }


def filter_supernodes(g: Graph, buckets: dict[int, list[int]], kind: str) -> list[list[int]]:
    """Exact-match each bucket into true supernodes of size >= 2.

    The minimum-id node u left in the bucket is the pivot, and every other
    node left whose exact (closed) neighborhood matches u's joins its group;
    the groups do not depend on the bucket's order. Nodes left alone fall
    out and become singletons later. Groups come bucket by bucket, in the
    order of their smallest node, each ascending.

    All buckets are split at once, in rounds: each node carries a group
    label, at first its bucket, and one gathered comparison of neighbor
    rows flags the nodes whose row differs from their group's pivot, which
    split off into a group of their own. A bucket without a false positive
    takes one round; a bucket of c exact classes takes c.
    """
    if kind not in (KIND_CLIQUE, KIND_INDEPENDENT_SET):
        raise ValueError(f"unknown filter kind {kind!r}")
    nodes, first = _pending(buckets)
    flat, ends = _neighbor_rows(g, nodes, kind == KIND_CLIQUE)
    group = np.cumsum(first) - 1
    while True:
        # a group's first position holds its smallest node: _pending lists
        # each bucket ascending
        group, _, pivot = number_keys(group)
        differ = _rows_differ(flat, ends, pivot[group])
        if not differ.any():
            break
        group = 2 * group + differ
    grouped = np.bincount(group)[group] >= 2
    nodes, at = nodes[grouped], pivot[group][grouped]
    order, at = stable_order(at)
    nodes = nodes[order].tolist()
    starts = np.flatnonzero(np.diff(at, prepend=-1) != 0).tolist()
    return [nodes[lo:hi] for lo, hi in zip(starts, [*starts[1:], len(nodes)])]


def _pending(buckets: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of every bucket with two or more nodes, bucket by bucket,
    each ascending, and a mask of each bucket's first node."""
    kept = [bucket for bucket in buckets.values() if len(bucket) >= 2]
    sizes = [len(bucket) for bucket in kept]
    nodes = np.fromiter(itertools.chain.from_iterable(kept), np.int64, sum(sizes))
    bucket = np.repeat(np.arange(len(sizes)), sizes)
    return nodes[np.lexsort((nodes, bucket))], np.diff(bucket, prepend=-1) != 0


def _rows_differ(flat: np.ndarray, ends: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """Whether row i differs from row pivot[i], row i being flat[ends[i-1]:ends[i]]."""
    lengths = np.diff(ends, prepend=0)
    row_starts = ends - lengths
    differ = lengths != lengths[pivot]
    owner = np.repeat(np.arange(len(ends)), lengths)
    compared = np.flatnonzero(~differ[owner])
    row = owner[compared]
    at_pivot = row_starts[pivot[row]] + compared - row_starts[row]
    differ[row[flat[compared] != flat[at_pivot]]] = True
    return differ


def build_superedges_lossless(g: Graph, membership) -> PairSet:
    """One pass over E: a superedge exists iff some original edge crosses it.

    Intra-supernode edges (clique members) yield the self superedge.
    Superpairs are the distinct_pair_keys of the edges' labels.
    """
    labels = np.asarray(membership, dtype=np.int64)
    k = int(labels.max(initial=0)) + 1
    u, v = g.edge_arrays
    return PairSet(*np.divmod(distinct_pair_keys(labels[u], labels[v], k), k))


def _assemble(g: Graph, clique_groups, is_groups) -> Summary:
    """Lossless summary of disjoint groups, every other node a singleton.
    The kinds follow from the superedges: clique groups get self-superedges."""
    groups = clique_groups + is_groups
    raw = np.arange(len(groups), len(groups) + g.n)  # singletons by default
    grouped = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64)
    raw[grouped] = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])
    labels = relabel_by_first_appearance(raw)
    return Summary(labels, build_superedges_lossless(g, labels), is_lossless=True)


def summarize(g: Graph, seed: int = DEFAULT_SEED) -> Summary:
    """Scalable lossless summarizer: hash, filter, mop up, build superedges.

    O(E log E) time (sorts) and O(E) working space. The partition is the
    optimal one whatever the seed; only bucket layout depends on it. The
    two filter passes give disjoint groups: no node u has both a true twin
    v and a false twin w, as v in N(u) = N(w) puts w in N[v] = N[u].
    """
    map_clique, map_is = candidate_supernodes(g, seed=seed)
    clique_groups = filter_supernodes(g, map_clique, KIND_CLIQUE)
    is_groups = filter_supernodes(g, map_is, KIND_INDEPENDENT_SET)
    return _assemble(g, clique_groups, is_groups)

