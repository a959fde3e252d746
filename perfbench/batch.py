"""The two library batches of a benchmark round, each in a process of its own.

    python3 perfbench/batch.py sssp SUMMARY_DIR PAIRS_JSON OUT_JSON
    python3 perfbench/batch.py sweep EDGE_LIST CENTRALITY OUT_JSON

``sssp`` loads a lossless summary once, then times one
``shortest_path_length`` call per node pair. ``sweep`` loads the graph and
its centrality once, builds the 2-hop forest once, then runs
``summarize_lossy`` and ``app_utility`` at each threshold, as the paper's
threshold sweep does. Set-up, timings and results go to OUT_JSON; the
checks run elsewhere, so nothing here adds to this process's peak RSS.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import graphsum as gs

from workloads import SWEEP_TAUS

TOP_PERCENT = 20.0


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_sssp(summary_dir: str, pairs_path: str) -> dict:
    with open(pairs_path, encoding="ascii") as fh:
        pairs = json.load(fh)
    t0 = time.perf_counter()
    s = gs.load_summary(summary_dir)
    setup_s = time.perf_counter() - t0
    call_s = []
    results = []
    for u, v in pairs:
        t0 = time.perf_counter()
        d = gs.shortest_path_length(s, u, v)
        call_s.append(time.perf_counter() - t0)
        results.append(d)
    rss = peak_rss_kb()
    queries = [
        [u, v, "inf" if math.isinf(d) else int(d)] for (u, v), d in zip(pairs, results)
    ]
    return {"setup_s": setup_s, "call_s": call_s, "peak_rss_kb": rss, "queries": queries}


def centrality(g: gs.Graph, kind: str) -> gs.NodeCentrality:
    if kind == "pagerank":
        return gs.pagerank(g)
    if kind == "degree":
        return gs.degree_centrality(g)
    raise ValueError(f"unsupported centrality {kind!r}")


def run_sweep(edge_list: str, kind: str) -> dict:
    t0 = time.perf_counter()
    loaded = gs.load_edge_list(edge_list)
    g = loaded.graph
    c = centrality(g, kind)
    model = gs.build_weight_model(g, c)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    forest = gs.two_hop_mst(g, c)
    forest_s = time.perf_counter() - t0
    results = []
    for tau in SWEEP_TAUS:
        t0 = time.perf_counter()
        res = gs.summarize_lossy(g, model, tau, candidates=forest)
        report = gs.app_utility(res.summary, c, TOP_PERCENT)
        results.append((tau, time.perf_counter() - t0, res, report))
    rss = peak_rss_kb()
    points = [
        {
            "tau": tau,
            "seconds": secs,
            "utility": res.utility,
            "prefix_length": res.prefix_length,
            "app_utility": report.app_utility,
            "membership": res.summary.membership.tolist(),
            "superedges": [x for pair in sorted(res.summary.superedges) for x in pair],
        }
        for tau, secs, res, report in results
    ]
    return {
        "setup_s": setup_s,
        "forest_s": forest_s,
        "forest_pairs": len(forest),
        "peak_rss_kb": rss,
        "original_ids": loaded.original_ids,
        "points": points,
    }


def main(argv: list[str]) -> int:
    mode, args, out = argv[0], argv[1:-1], argv[-1]
    if mode == "sssp":
        report = run_sssp(*args)
    elif mode == "sweep":
        report = run_sweep(*args)
    else:
        print(f"error: unknown batch {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w", encoding="ascii") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
