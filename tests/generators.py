"""Deterministic random-graph generators for the test suite.

Kept dependency-free so every frozen expected value in the tests pins to
exactly the same graph on every run.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from graphsum import Graph, from_edges


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) by one coin flip per pair, pairs in
    lexicographic order, from random.Random(seed)."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def er_graph_np(n: int, p: float, seed: int) -> Graph:
    """Vectorized G(n, p) for sizes where the pair loop is too slow."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return from_edges(n, zip(iu[mask].tolist(), iv[mask].tolist()))


def ba_graph(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert preferential attachment: each new node attaches to
    m distinct existing nodes sampled proportionally to degree."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(m))
    for source in range(m, n):
        for t in targets:
            edges.append((source, t))
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[rng.randrange(len(repeated))])
        targets = sorted(chosen)
    return from_edges(n, edges)


def twin_rich_graph(seed: int) -> Graph:
    """Two components, each a random tree of blocks plus extra block pairs,
    then two isolated nodes. Blocks alternate between cliques and
    independent sets of 1 to 4 nodes and join their neighbor blocks
    completely, so the nodes of one block are twins."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(2):
        blocks: list[range] = []
        for b in range(rng.randint(3, 6)):
            block = range(n, n + rng.randint(1, 4))
            n = block.stop
            if b % 2 == 0:
                edges.extend(itertools.combinations(block, 2))
            parent = rng.randrange(len(blocks)) if blocks else -1
            for i, other in enumerate(blocks):
                if i == parent or rng.random() < 0.25:
                    edges.extend(itertools.product(block, other))
            blocks.append(block)
    return from_edges(n + 2, edges)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at node 0."""
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spread_graph(g: Graph) -> Graph:
    """g with node u renamed 2u + 1 among 2n + 1 nodes: every even id is a
    degree-0 node, the first and the last one included, so an empty row
    sits before, between and after the rows of g."""
    return from_edges(2 * g.n + 1, [(2 * u + 1, 2 * v + 1) for u, v in g.edges()])


WORKED_EXAMPLE_EDGES = [
    (0, 1),
    (0, 2),
    (0, 3),
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (0, 7),
    (3, 8),
    (0, 9),
    (3, 9),
    (3, 10),
    (8, 10),
    (9, 10),
]
# 11-node, 14-edge worked example: 0 and 3 are the two hubs, 1-2 are
# degree-1 leaves of 0, 4-6 are degree-1 leaves of 3, 7 touches both hubs,
# 8 and 10 and 9 close the right-hand triangle structure.


def worked_example_graph() -> Graph:
    return from_edges(11, WORKED_EXAMPLE_EDGES)
