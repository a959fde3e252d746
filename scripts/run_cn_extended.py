#!/usr/bin/env python3
"""Extended run on the cnr-2000 web graph (~325K nodes, 3.2M edges).

Sweeps the utility threshold over 0.5..0.9, reports node reduction (RN)
against the published reference column, and the per-centrality app-utility
of the top-20% query. The dataset is not bundled; download the edge list
(one "src dst" pair per line) and pass its path.

The two-hop spanning forest is cheap: Kruskal over at most 2m star pairs,
never the sum of squared degrees of common-neighbor pairs. The wall time
goes to the sweep, whose binary searches recompute the utility of a
merged partition at every probe in pure Python.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphsum as gs

RN_REFERENCE = {0.5: 0.58, 0.6: 0.53, 0.7: 0.46, 0.8: 0.38, 0.9: 0.28}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("edgelist", help="path to the cnr-2000 edge list")
    parser.add_argument("--damping", type=float, default=0.85)
    parser.add_argument("--top-percent", type=float, default=20.0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    loaded = gs.load_edge_list(args.edgelist)
    g = loaded.graph
    print(f"loaded n={g.n} m={g.m} in {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    centrality = gs.pagerank(g, damping=args.damping)
    model = gs.build_weight_model(g, centrality)
    print(f"pagerank + weight model in {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    forest = gs.two_hop_mst(g, centrality)
    print(f"two-hop spanning forest ({len(forest)} pairs) in {time.perf_counter() - t0:.1f}s")

    print()
    print(f"{'tau':>5} {'rn':>7} {'rn_ref':>7} {'delta':>7} {'app_util':>9} {'secs':>7}")
    ok = True
    for tau, reference in RN_REFERENCE.items():
        t0 = time.perf_counter()
        result = gs.summarize_lossy(g, model, tau, candidates=forest)
        rn = gs.reduction_in_nodes(result.summary)
        report = gs.app_utility(result.summary, centrality, args.top_percent)
        delta = rn - reference
        ok = ok and abs(delta) <= 0.05
        print(
            f"{tau:>5.2f} {rn:>7.3f} {reference:>7.2f} {delta:>+7.3f} "
            f"{report.app_utility:>9.3f} {time.perf_counter() - t0:>7.1f}"
        )
    print()
    print("within +/-0.05 of the reference column" if ok else "outside the reference band")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
