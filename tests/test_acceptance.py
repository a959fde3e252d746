"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single "[acceptance] <id> <name>: PASS/FAIL" line
(visible with pytest -s or in the captured output of a failing run).
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graphsum as gs
from graphsum.cli import main as cli_main
from graphsum.graph import relabel_by_first_appearance
from graphsum.unionfind import UnionFind

from generators import ba_graph, er_graph, er_graph_np, worked_example_graph
from oracles import bfs_distances, summarize_naive, triangle_count_matrix


@contextmanager
def criterion(ident: str, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {ident} {name}: FAIL")
        raise
    print(f"[acceptance] {ident} {name}: PASS")


def suite_graphs():
    """The 200-graph battery: 170 ER (n 10..300, p 0.02..0.5) + 30 BA (m 1..5)."""
    graphs = []
    ns = [10, 20, 40, 60, 80, 100, 130, 160, 200, 240, 280, 300]
    ps = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5]
    for i in range(170):
        n = ns[i % len(ns)]
        p = ps[(i // len(ns)) % len(ps)]
        graphs.append(er_graph(n, p, 1000 + i))
    ba_ns = [20, 60, 100, 150, 200, 300]
    for j, n in enumerate(ba_ns):
        for m in range(1, 6):
            graphs.append(ba_graph(n, m, 2000 + 10 * j + m))
    assert len(graphs) == 200
    return graphs


@pytest.fixture(scope="module")
def battery():
    return suite_graphs()


def test_criterion_1_worked_example_golden():
    with criterion("1", "worked-example-utility-golden"):
        g = worked_example_graph()
        model = gs.build_weight_model(g, gs.uniform_centrality(g))
        uf = UnionFind(11)
        for a, b in [(1, 2), (4, 5), (4, 6), (1, 7), (4, 8)]:
            uf.union(a, b)
        value = gs.compute_utility(g, model, np.array(uf.labels()))
        assert abs(value - float(Fraction(505, 574))) <= 1e-12


def test_criterion_2_losslessness(battery):
    with criterion("2", "losslessness-200-graphs"):
        for g in battery:
            s = gs.summarize(g)
            assert gs.reconstruct(s) == g


def test_criterion_3_optimality(battery):
    with criterion("3", "optimality-vs-naive"):
        for g in battery:
            assert g.n <= 500
            assert gs.summarize(g).num_supernodes == summarize_naive(g).num_supernodes


def query_suite():
    graphs = []
    ns = [30, 60, 100, 150, 200, 250, 300]
    ps = [0.02, 0.05, 0.1, 0.2, 0.3]
    for i in range(50):
        n = ns[i % len(ns)]
        p = ps[(i // len(ns)) % len(ps)]
        graphs.append(er_graph(n, p, 3000 + i))
    return graphs


def test_criterion_4_query_equivalence():
    with criterion("4", "query-equivalence"):
        rng = random.Random(424242)
        for g in query_suite():
            s = gs.summarize(g)
            # (a) triangle totals against the dense-matrix count
            assert gs.count_triangles(s).total == triangle_count_matrix(g)
            # (b) Pagerank at both damping settings, L-inf < 1e-8
            for damping in (1.0, 0.85):
                ours = gs.pagerank_on_summary(s, damping, tol=1e-12, max_iter=300)
                ref = gs.pagerank(g, damping, tol=1e-12, max_iter=300)
                assert float(np.max(np.abs(ours.node_scores - ref.scores))) < 1e-8
            # (c) 100 random-pair distances, including unreachable pairs
            for _ in range(100):
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                assert gs.shortest_path_length(s, u, v) == bfs_distances(g, u)[v]


def _unique_weight_centrality(g, seed):
    rng = random.Random(seed)
    scores = gs.pagerank(g).scores + np.array(
        [rng.random() * 1e-6 for _ in range(g.n)]
    )
    return gs.NodeCentrality(scores, "pagerank")


def _labels_after_merges(n, pairs, k):
    uf = UnionFind(n)
    done = 0
    for u, v in pairs:
        if done == k:
            break
        if uf.union(u, v):
            done += 1
    return uf.labels()


def test_criterion_5_mst_sufficiency():
    with criterion("5", "mst-sufficiency"):
        rng = random.Random(5150)
        for i in range(30):
            n = 20 + (i % 5) * 10  # 20..60
            g = er_graph(n, 0.1 + 0.03 * (i % 4), 4000 + i)
            c = _unique_weight_centrality(g, 6000 + i)
            forest = gs.two_hop_mst(g, c)
            full = gs.full_candidate_list(g, c)
            assert len(set(full.weights)) == len(full.weights)  # unique weights
            final_h = relabel_by_first_appearance(gs.merge_prefix(g, forest, len(forest))).tolist()
            uf_l = UnionFind(g.n)
            for u, v in full.pairs:
                uf_l.union(u, v)
            assert final_h == uf_l.labels()
            for _ in range(5):
                k = rng.randint(1, max(len(forest), 1))
                assert _labels_after_merges(g.n, forest.pairs, k) == _labels_after_merges(
                    g.n, full.pairs, k
                )


def test_criterion_6_monotonicity():
    with criterion("6", "utility-monotone-along-forest"):
        for i in range(30):
            n = 30 + (i % 8) * 10  # 30..100
            g = er_graph(n, 0.05 + 0.04 * (i % 5), 7000 + i)
            model = gs.build_weight_model(g, gs.pagerank(g))
            forest = gs.two_hop_mst(g, model.node_centrality)
            prev = 1.0
            for t in range(len(forest) + 1):
                cur = gs.compute_utility(g, model, gs.merge_prefix(g, forest, t))
                assert cur <= prev + 1e-12
                prev = cur


def test_criterion_7_binary_search():
    with criterion("7", "binary-search-optimal-prefix"):
        for i in range(30):
            n = 20 + (i % 7) * 10  # 20..80
            g = er_graph(n, 0.08 + 0.04 * (i % 4), 8000 + i)
            model = gs.build_weight_model(g, gs.pagerank(g))
            forest = gs.two_hop_mst(g, model.node_centrality)
            values = [
                gs.compute_utility(g, model, gs.merge_prefix(g, forest, t))
                for t in range(len(forest) + 1)
            ]
            for tau in (0.6, 0.7, 0.8, 0.9):
                res = gs.summarize_lossy(g, model, tau)
                best = max(t for t in range(len(forest) + 1) if values[t] >= tau)
                assert res.prefix_length == best
                assert res.utility >= tau
                if best < len(forest):
                    assert values[best + 1] < tau


def _timed_sample(fn) -> float:
    # collect up front and keep the collector out of the timed region,
    # otherwise an unlucky full collection lands inside a 50 ms sample
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def test_criterion_8_complexity_smoke():
    with criterion("8", "near-linear-scaling"):
        sizes = (3000, 4243)  # second n is sqrt(2) larger: edge count doubles
        work = {}
        for n in sizes:
            g = er_graph_np(n, 0.01, 4242)
            g.edge_arrays  # build the cached edge arrays outside the timer
            model = gs.build_weight_model(g, gs.uniform_centrality(g))
            uf = UnionFind(g.n)
            rng = random.Random(3)
            for u in range(g.n):
                uf.union(u, rng.randrange(50))
            work[n] = (g, model, np.array(uf.labels()))
        samples: dict[tuple[int, str], list[float]] = {}
        for _ in range(7):  # interleave sizes so drift hits both equally
            for n in sizes:
                g, model, labels = work[n]
                samples.setdefault((n, "summarize"), []).append(
                    _timed_sample(lambda: gs.summarize(g))
                )
                samples.setdefault((n, "utility"), []).append(
                    _timed_sample(lambda: gs.compute_utility(g, model, labels))
                )
        m1, m2 = work[sizes[0]][0].m, work[sizes[1]][0].m
        assert 1.8 <= m2 / m1 <= 2.2  # the graphs really did double
        for op in ("summarize", "utility"):
            t1 = statistics.median(samples[(sizes[0], op)])
            t2 = statistics.median(samples[(sizes[1], op)])
            assert t2 / t1 <= 2.5, f"{op} scaled {t2 / t1:.2f}x"


TABLE_RN_TARGETS = {0.5: 0.58, 0.6: 0.53, 0.7: 0.46, 0.8: 0.38, 0.9: 0.28}


def test_criterion_9_cn_extended_optional():
    path = os.environ.get("CN_EDGELIST")
    if not path:
        print("[acceptance] 9 cn-extended-run: SKIPPED (set CN_EDGELIST to enable)")
        pytest.skip("optional extended run; set CN_EDGELIST to a cnr-2000 edge list")
    with criterion("9", "cn-extended-run"):
        g = gs.load_edge_list(path).graph
        model = gs.build_weight_model(g, gs.pagerank(g))
        forest = gs.two_hop_mst(g, model.node_centrality)  # the expensive step, once
        for tau, target in TABLE_RN_TARGETS.items():
            start = time.perf_counter()
            res = gs.summarize_lossy(g, model, tau, candidates=forest)
            rn = gs.reduction_in_nodes(res.summary)
            app = gs.app_utility(res.summary, model.node_centrality, 20.0).app_utility
            secs = time.perf_counter() - start
            print(f"  tau={tau}: rn={rn:.3f} target={target} app_utility={app:.3f} secs={secs:.1f}")
            assert abs(rn - target) <= 0.05


def _dir_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_cli_determinism(tmp_path):
    with criterion("10", "cli-byte-determinism"):
        g = er_graph(80, 0.1, 31)
        graph_file = tmp_path / "g.txt"
        gs.write_edge_list(g, graph_file)
        base = ["--input", str(graph_file)]

        def run_twice(args, out_kind="dir"):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{abs(hash(tuple(args)))}_{tag}"
                assert cli_main(args + ["--out", str(out)]) == 0
                outs.append(_dir_bytes(out))
            assert outs[0] == outs[1]
            return outs[0]

        run_twice(["lossless"] + base + ["--seed", "7"])
        run_twice(["lossy"] + base + ["--tau", "0.8", "--seed", "7"])

        lossless_dir = tmp_path / "summary"
        assert cli_main(["lossless"] + base + ["--out", str(lossless_dir)]) == 0
        run_twice(["query", "--summary", str(lossless_dir), "triangles"])
        run_twice(["query", "--summary", str(lossless_dir), "pagerank"])
        run_twice(["query", "--summary", str(lossless_dir), "sssp", "0", "5"])
        run_twice(["eval", "--summary", str(lossless_dir), "--metric", "rn"])
        run_twice(
            [
                "eval",
                "--summary",
                str(lossless_dir),
                "--metric",
                "app-utility",
                "--input",
                str(graph_file),
                "--top-percent",
                "25",
            ]
        )
        run_twice(
            [
                "eval",
                "--summary",
                str(lossless_dir),
                "--metric",
                "verify-lossless",
                "--input",
                str(graph_file),
            ]
        )
