"""Lossless optimal summarization by clique / independent-set decomposition.

Two nodes can share a supernode in a lossless summary only if they have
identical neighborhoods (independent set) or identical closed neighborhoods
(clique; equivalently they are adjacent and agree on all other neighbors).
`summarize_naive` applies the quadratic greedy grouping directly and serves
as the optimality oracle. `summarize` is the scalable pipeline: hash every
(closed) neighborhood into 64-bit buckets, filter false positives by exact
comparison, mop up singletons and build superedges in one edge sweep.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

from .graph import Graph
from .summary import (
    KIND_CLIQUE,
    KIND_INDEPENDENT_SET,
    Summary,
    relabel_by_first_appearance,
)

DEFAULT_SEED = 42

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sequence_hash(seq: Iterable[int], seed: int = DEFAULT_SEED) -> int:
    """Deterministic 64-bit hash of an ordered integer sequence."""
    h = _mix64(seed ^ _GOLDEN)
    for x in seq:
        h = _mix64(h ^ ((x + _GOLDEN) & _MASK64))
    return h


def _closed_neighborhood_hash(nbrs: list[int], v: int, seed: int) -> int:
    # hash of sorted(N(v) + {v}) without building the merged list
    h = _mix64(seed ^ _GOLDEN)
    emitted = False
    for x in nbrs:
        if not emitted and v < x:
            h = _mix64(h ^ ((v + _GOLDEN) & _MASK64))
            emitted = True
        h = _mix64(h ^ ((x + _GOLDEN) & _MASK64))
    if not emitted:
        h = _mix64(h ^ ((v + _GOLDEN) & _MASK64))
    return h


def _closed_tuple(nbrs: list[int], v: int) -> tuple[int, ...]:
    for i, x in enumerate(nbrs):
        if v < x:
            return tuple(nbrs[:i]) + (v,) + tuple(nbrs[i:])
    return tuple(nbrs) + (v,)


def candidate_supernodes(
    g: Graph,
    hash_fn: Callable[[tuple[int, ...]], int] | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Bucket nodes by hashed closed neighborhood (clique candidates) and by
    hashed open neighborhood (independent-set candidates).

    Hash collisions can put unrelated nodes in one bucket (false positives,
    removed later) but two nodes eligible for the same supernode always
    share a bucket (no false negatives). Any deterministic sequence-to-int
    hash may replace the built-in seeded one.
    """
    map_clique: dict[int, list[int]] = {}
    map_is: dict[int, list[int]] = {}
    for v in range(g.n):
        nbrs = g.neighbors_list(v)
        if hash_fn is None:
            hc = _closed_neighborhood_hash(nbrs, v, seed)
            hi = sequence_hash(nbrs, seed)
        else:
            hc = hash_fn(_closed_tuple(nbrs, v))
            hi = hash_fn(tuple(nbrs))
        map_clique.setdefault(hc, []).append(v)
        map_is.setdefault(hi, []).append(v)
    return map_clique, map_is


def filter_supernodes(
    g: Graph,
    buckets: dict[int, list[int]],
    kind: str,
    skip: set[int] | None = None,
) -> list[list[int]]:
    """Exact-match each bucket into true supernodes of size >= 2.

    The minimum-id node u left in the bucket is the pivot, and every other
    node left whose exact (closed) neighborhood matches u's joins its group;
    the groups do not depend on the bucket's order. Nodes left alone fall
    out and become singletons later. `skip` drops nodes already claimed by
    an earlier filtering pass.
    """
    if kind not in (KIND_CLIQUE, KIND_INDEPENDENT_SET):
        raise ValueError(f"unknown filter kind {kind!r}")
    use_closed = kind == KIND_CLIQUE
    groups: list[list[int]] = []
    for bucket in buckets.values():
        pending = [v for v in bucket if not skip or v not in skip]
        if len(pending) < 2:
            continue
        keys: dict[int, tuple[int, ...]] = {}
        for v in pending:
            nbrs = g.neighbors_list(v)
            keys[v] = _closed_tuple(nbrs, v) if use_closed else tuple(nbrs)
        remaining = set(pending)
        while remaining:
            u = min(remaining)
            remaining.discard(u)
            group = [u] + [v for v in sorted(remaining) if keys[v] == keys[u]]
            if len(group) >= 2:
                remaining.difference_update(group)
                groups.append(sorted(group))
    return groups


def build_superedges_lossless(g: Graph, membership) -> set[tuple[int, int]]:
    """One pass over E: a superedge exists iff some original edge crosses it.

    Intra-supernode edges (clique members) yield the self superedge.
    Superpairs are keyed lo*k + hi and made distinct by one sort (a plain
    np.unique takes a far slower hashing path on int64 in numpy 2.4).
    """
    labels = np.asarray(membership, dtype=np.int64)
    k = int(labels.max(initial=0)) + 1
    u, v = g.edge_arrays
    lu, lv = labels[u], labels[v]
    keys = np.sort(np.minimum(lu, lv) * k + np.maximum(lu, lv))
    a, b = np.divmod(keys[np.diff(keys, prepend=-1) != 0], k)
    return set(zip(a.tolist(), b.tolist()))


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

    Expected O(E) time and O(V) working space. The partition is identical
    to summarize_naive; only bucket layout depends on the seed.
    """
    map_clique, map_is = candidate_supernodes(g, seed=seed)
    clique_groups = filter_supernodes(g, map_clique, KIND_CLIQUE)
    claimed = {v for grp in clique_groups for v in grp}
    is_groups = filter_supernodes(g, map_is, KIND_INDEPENDENT_SET, skip=claimed)
    return _assemble(g, clique_groups, is_groups)


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
