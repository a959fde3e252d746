"""Seeded input graphs for the benchmark, written as edge-list files.

Runs in a process of its own (``python3 perfbench/gen.py WORKLOAD SEED OUT``)
so that the generator's memory never counts towards the program's peak RSS.
It imports nothing from ``graphsum``: the inputs do not depend on the code
under test.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def ba_edges(n: int, k: int, seed: int) -> np.ndarray:
    """Barabasi-Albert preferential attachment, edge for edge the same
    graph as ``ba_graph(n, k, seed)`` in ``tests/generators.py``."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(k))
    for source in range(k, n):
        for t in targets:
            edges.append((t, source))
        repeated.extend(targets)
        repeated.extend([source] * k)
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(repeated[rng.randrange(len(repeated))])
        targets = sorted(chosen)
    return canonical(np.array(edges, dtype=np.int64))


def gnm_edges(n: int, m: int, seed: int) -> np.ndarray:
    """G(n, m): m distinct uniform pairs, drawn in batches and deduplicated,
    so memory stays O(m) instead of O(n^2)."""
    return canonical(add_random_pairs(n, m, np.random.default_rng(seed), np.zeros(0, np.int64)))


def add_random_pairs(n: int, m: int, rng: np.random.Generator, keys: np.ndarray) -> np.ndarray:
    """Extends the distinct pair keys u*n+v (u < v) with uniform random
    pairs until there are m, keeping the first draws."""
    if m > n * (n - 1) // 2:
        raise ValueError("more edges than node pairs")
    while len(keys) < m:
        u = rng.integers(0, n, size=2 * (m - len(keys)) + 16)
        v = rng.integers(0, n, size=len(u))
        drawn = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        pool = np.concatenate([keys, drawn])
        _, first = np.unique(pool, return_index=True)
        keys = pool[np.sort(first)]
    keys = keys[:m]
    return np.stack([keys // n, keys % n], axis=1)


def twin_blowup_edges(base_n: int, base_m: int, max_twins: int, seed: int) -> np.ndarray:
    """Blow-up of a sparse connected base graph (a random Hamiltonian cycle
    plus random chords, base_m edges in all). Each base node becomes a
    clique or an independent set of 1..max_twins twins; each base edge
    becomes a complete bipartite block between the two groups. Every size
    occurs equally often, half of each size as cliques, so n is fixed and
    m varies little from seed to seed."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(base_n)
    cycle = np.stack([order, np.roll(order, -1)], axis=1)
    keys = np.unique(np.minimum(cycle[:, 0], cycle[:, 1]) * base_n + np.maximum(cycle[:, 0], cycle[:, 1]))
    base = add_random_pairs(base_n, base_m, rng, keys)
    label = rng.permutation(base_n)
    sizes = label % max_twins + 1
    is_clique = (label // max_twins) % 2 == 0
    start = np.concatenate([[0], np.cumsum(sizes)])
    parts = []
    for g in np.flatnonzero(is_clique & (sizes >= 2)):
        iu, iv = np.triu_indices(int(sizes[g]), k=1)
        parts.append(np.stack([iu, iv], axis=1) + start[g])
    for a, b in base.tolist():
        ua = np.arange(start[a], start[a + 1])
        vb = np.arange(start[b], start[b + 1])
        parts.append(np.stack(np.meshgrid(ua, vb, indexing="ij"), axis=-1).reshape(-1, 2))
    return canonical(np.concatenate(parts))


def canonical(edges: np.ndarray) -> np.ndarray:
    """Rows (u, v) with u < v, sorted, without duplicates or self-loops."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs.astype(np.int64)


def make_edges(workload: str, seed: int) -> np.ndarray:
    spec = WORKLOADS[workload]
    family, params = spec["family"], spec["params"]
    graph_seed = spec.get("fixed_graph_seed", seed)
    if family == "ba":
        return ba_edges(params["n"], params["k"], graph_seed)
    if family == "gnm":
        return gnm_edges(params["n"], params["m"], graph_seed)
    if family == "twin":
        return twin_blowup_edges(
            params["base_n"], params["base_m"], params["max_twins"], graph_seed
        )
    raise ValueError(f"unknown graph family {family!r}")


def describe(edges: np.ndarray) -> dict:
    """Make-up of an input: n, m, sum of squared degrees over m, and the
    share of nodes that have a twin (same open or closed neighbourhood)."""
    n = int(edges.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=n)
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        rows[u].append(v)
        rows[v].append(u)
    classes: dict[tuple, int] = {}
    present = [(u, row) for u, row in enumerate(rows) if row]
    for u, row in present:
        for key in (("open", *sorted(row)), ("closed", *sorted(row + [u]))):
            classes[key] = classes.get(key, 0) + 1
    twinned = sum(c for c in classes.values() if c >= 2)
    return {
        "n": len(present),
        "m": len(edges),
        "sum_deg2_over_m": float((deg.astype(np.float64) ** 2).sum() / len(edges)),
        "twin_share": twinned / len(present),
    }


def write_edge_list(edges: np.ndarray, path: Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    edges = make_edges(workload, seed)
    write_edge_list(edges, out)
    print(json.dumps(describe(edges)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
