from __future__ import annotations

import math
import random

import numpy as np
import pytest

from graphsum import (
    NodeCentrality,
    Summary,
    app_utility,
    build_weight_model,
    from_edges,
    pagerank,
    reduction_in_nodes,
    summarize,
    summarize_lossy,
    verify_lossless,
)
from graphsum.lossless import build_superedges_lossless

from generators import complete_graph, er_graph, star_graph


class TestReductionInNodes:
    def test_identity_summary(self):
        from generators import path_graph

        assert reduction_in_nodes(summarize(path_graph(20))) == 0.0

    def test_k4(self):
        assert reduction_in_nodes(summarize(complete_graph(4))) == 0.75

    def test_lossy_reduction_reported(self):
        g = er_graph(120, 0.08, 5)
        model = build_weight_model(g, pagerank(g))
        res = summarize_lossy(g, model, 0.8)
        rn = reduction_in_nodes(res.summary)
        assert 0.0 <= rn < 1.0
        assert rn == (g.n - res.summary.num_supernodes) / g.n


class TestAppUtility:
    def test_all_singletons_is_one(self):
        g = er_graph(30, 0.2, 1)
        s = summarize_lossy(g, build_weight_model(g, pagerank(g)), 1.0).summary
        if s.num_supernodes == g.n:
            report = app_utility(s, pagerank(g), 25.0)
            assert report.app_utility == 1.0

    def test_top_nodes_in_pairs_give_half(self):
        # ten nodes, top scorers all sit in 2-node supernodes
        g = from_edges(10, [(i, i + 1) for i in range(0, 10, 2)])
        labels = [i // 2 for i in range(10)]
        s = Summary(labels, set())
        c = NodeCentrality(np.arange(10, dtype=float), "degree")
        report = app_utility(s, c, 40.0)
        assert report.v_t_size == 4
        assert report.app_utility == 0.5

    def test_matches_direct_enumeration(self):
        g = er_graph(100, 0.08, 15)
        c = pagerank(g)
        s = summarize_lossy(g, build_weight_model(g, c), 0.9).summary
        report = app_utility(s, c, 20.0)
        k = math.ceil(0.2 * g.n)
        order = sorted(range(g.n), key=lambda u: (-c.scores[u], u))[:k]
        direct = math.fsum(
            1.0 / len(s.supernodes[s.supernode_of(v)]) for v in order
        ) / k
        assert report.v_t_size == k
        assert report.app_utility == pytest.approx(direct, abs=1e-15)

    def test_monotone_under_crowding(self):
        g = star_graph(6)
        c = NodeCentrality(np.array([10.0, 6, 5, 4, 3, 2, 1]), "degree")
        crowding = [
            [0, 1, 2, 3, 4, 5, 6],  # singletons
            [0, 1, 1, 3, 4, 5, 6],  # merge one top node
            [0, 1, 1, 1, 4, 5, 6],  # crowd it further
        ]
        values = []
        for labels in crowding:
            dense = {}
            out = []
            for lab in labels:
                dense.setdefault(lab, len(dense))
                out.append(dense[lab])
            values.append(app_utility(Summary(out, set()), c, 50.0).app_utility)
        assert values[0] >= values[1] >= values[2]
        assert values[0] > values[2]

    def test_t_percent_validation(self):
        g = star_graph(3)
        with pytest.raises(ValueError):
            app_utility(summarize(g), pagerank(g), 0.0)
        with pytest.raises(ValueError):
            app_utility(summarize(g), pagerank(g), 120.0)


class TestVerifyLossless:
    def test_identity_summary(self):
        g = er_graph(25, 0.15, 2)
        labels = list(range(g.n))
        s = Summary(labels, set(g.edges()))
        assert verify_lossless(g, s).lossless

    def test_lossless_summarizer_output(self):
        g = er_graph(80, 0.1, 4)
        assert verify_lossless(g, summarize(g)).lossless

    def test_corrupted_membership_reports_discrepancies(self):
        g = er_graph(30, 0.15, 6)
        s = summarize(g)
        labels = s.membership.tolist()
        labels[0], labels[-1] = labels[-1], labels[0]
        corrupted = Summary(labels, s.superedges)
        report = verify_lossless(g, corrupted)
        assert not report.lossless
        assert report.missing_edges or report.spurious_edges
        assert len(report.missing_edges) <= 10
        assert len(report.spurious_edges) <= 10


class TestOptimalRnDominance:
    def test_refinements_never_beat_the_optimal_summary(self):
        rng = random.Random(3)
        for seed in range(5):
            g = er_graph(60, 0.08, seed)
            best = summarize(g)
            # split some multi-node supernodes: refinements stay lossless
            groups = []
            for grp in best.supernodes:
                if len(grp) >= 2 and rng.random() < 0.7:
                    cut = rng.randrange(1, len(grp))
                    groups.extend([grp[:cut], grp[cut:]])
                else:
                    groups.append(grp)
            labels = [0] * g.n
            for gid, part in enumerate(groups):
                for u in part:
                    labels[u] = gid
            refined = Summary(
                labels, build_superedges_lossless(g, labels), is_lossless=True
            )
            assert verify_lossless(g, refined).lossless
            assert reduction_in_nodes(best) >= reduction_in_nodes(refined)
