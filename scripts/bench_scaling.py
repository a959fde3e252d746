#!/usr/bin/env python3
"""Wall-clock scaling check: summarizer, utility and lossy search vs edge
count, plus summary-side vs original-side query times.

Prints one aligned table. Doubling the edge count at fixed density should
roughly double the linear passes (summarize, compute_utility) and the
summary-side Pagerank should touch far fewer units than the original.
`utility` is the median compute_utility time on a label array that puts
each node in one of 50 seeded groups, built outside the timer; the
model caches its edge weights on the first call, so later runs reuse them.
`forest_s` is the median two_hop_mst time. `lossy_s` is summarize_lossy
at tau 0.8 given that forest, so the time includes neither the forest
(with its ends array, cached when the list is built) nor the model's
edge weights.
`sum_sp_ms` is the median of 50 seeded summary-side shortest_path_length
calls on one summary, in milliseconds. `tri_s` is the median
count_triangles time; each run gets a fresh copy of the summary, so the
time includes building the copy's supernode graph.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphsum as gs


def er_np(n: int, p: float, seed: int) -> gs.Graph:
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return gs.from_edges(n, zip(iu[mask].tolist(), iv[mask].tolist()))


SP_CALLS = 50


def median_time(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-n", type=int, default=3000)
    parser.add_argument("--p", type=float, default=0.01)
    parser.add_argument("--doublings", type=int, default=3)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args()

    print(
        f"{'n':>7} {'m':>9} {'summarize':>10} {'utility':>9} {'forest_s':>8} {'lossy_s':>8}"
        f" {'sum_pr':>8} {'orig_pr':>8} {'sum_sp_ms':>9} {'tri_s':>8}"
    )
    n = args.base_n
    for _ in range(args.doublings):
        g = er_np(n, args.p, args.seed)
        g.edge_arrays  # build the cached edge arrays outside the timers
        model = gs.build_weight_model(g, gs.uniform_centrality(g))
        rng = random.Random(3)
        labels = np.array([rng.randrange(50) for _ in range(g.n)])
        s = gs.summarize(g)
        t_sum = median_time(lambda: gs.summarize(g), args.runs)
        t_util = median_time(lambda: gs.compute_utility(g, model, labels), args.runs)
        t_forest = median_time(lambda: gs.two_hop_mst(g, model.node_centrality), args.runs)
        forest = gs.two_hop_mst(g, model.node_centrality)
        t_lossy = median_time(
            lambda: gs.summarize_lossy(g, model, 0.8, candidates=forest), args.runs
        )
        t_spr = median_time(lambda: gs.pagerank_on_summary(s, 0.85), args.runs)
        t_opr = median_time(lambda: gs.pagerank(g, 0.85), args.runs)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(SP_CALLS)]
        t_ssp = statistics.median(
            median_time(lambda: gs.shortest_path_length(s, u, v), 1) for u, v in pairs
        )
        fresh = iter(
            [gs.Summary(s.membership, s.superedges, is_lossless=True) for _ in range(args.runs)]
        )
        t_tri = median_time(lambda: gs.count_triangles(next(fresh)), args.runs)
        print(
            f"{g.n:>7} {g.m:>9} {t_sum:>10.4f} {t_util:>9.4f} {t_forest:>8.4f} {t_lossy:>8.4f}"
            f" {t_spr:>8.4f} {t_opr:>8.4f} {1e3 * t_ssp:>9.3f} {t_tri:>8.4f}"
        )
        n = round(n * 2 ** 0.5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
