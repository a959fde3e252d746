from __future__ import annotations

import math
import random
from functools import partial

import numpy as np
import pytest

from graphsum import (
    NodeCentrality,
    Summary,
    app_utility,
    build_weight_model,
    degree_centrality,
    from_edges,
    pagerank,
    reconstruct,
    reduction_in_nodes,
    summarize,
    summarize_lossy,
    uniform_centrality,
    verify_lossless,
)
from graphsum.errors import EmptyGraphError
from graphsum.evaluate import top_nodes
from graphsum.lossless import build_superedges_lossless

from generators import (
    ba_graph,
    complete_graph,
    er_graph,
    path_graph,
    star_graph,
    twin_rich_graph,
)
from oracles import loop_reconstruct, set_verify_lossless

# Graphs whose lossless summaries are corrupted below: twin-rich blow-ups
# (clique and independent-set supernodes), ER and BA (mostly singletons),
# and the edge cases of no edges and no nodes.
VERIFY_GRAPHS = {
    **{f"twins{seed}": partial(twin_rich_graph, seed) for seed in range(6)},
    **{f"er{seed}": partial(er_graph, 40, 0.1, seed) for seed in range(3)},
    **{f"ba{seed}": partial(ba_graph, 40, 3, seed) for seed in range(3)},
    "complete": partial(complete_graph, 6),
    "star": partial(star_graph, 7),
    "path": partial(path_graph, 9),
    "edgeless": partial(from_edges, 5, []),
    "empty": partial(from_edges, 0, []),
}


def corrupted_summaries(g, seed):
    """The lossless summary of g, then variants that each break it once:
    a dropped superedge, an added self and cross superedge, a moved member
    and the coarsest wrong summaries (no superedges; one clique)."""
    rng = random.Random(seed)
    s = summarize(g)
    yield "lossless", s
    pairs = sorted(s.superedges)
    k = s.num_supernodes
    if pairs:
        dropped = set(pairs) - {rng.choice(pairs)}
        yield "dropped", Summary(s.membership, dropped, is_lossless=True)
        yield "no-superedges", Summary(s.membership, set())
    absent = [(a, b) for a in range(k) for b in range(a, k) if (a, b) not in s.superedges]
    for name, loop in (("added-self", True), ("added-cross", False)):
        # a self superedge on a single node implies no edge, so it breaks nothing
        choices = [(a, b) for a, b in absent if (a == b) == loop and (a != b or s.sizes[a] > 1)]
        if choices:
            added = set(pairs) | {rng.choice(choices)}
            yield name, Summary(s.membership, added, is_lossless=True)
    if k > 1:
        # u joins another supernode; ids are renumbered densely and the
        # superedges of a supernode left empty are dropped
        labels = s.membership.tolist()
        u = rng.randrange(g.n)
        labels[u] = rng.choice([x for x in range(k) if x != labels[u]])
        dense: dict[int, int] = {}
        labels = [dense.setdefault(x, len(dense)) for x in labels]
        kept = {tuple(sorted((dense[a], dense[b]))) for a, b in pairs if a in dense and b in dense}
        yield "moved", Summary(labels, kept)
    if g.n:
        yield "one-clique", Summary([0] * g.n, {(0, 0)})


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

    def test_empty_summary_is_undefined(self):
        # the mean over no top nodes would divide by zero
        with pytest.raises(EmptyGraphError, match="empty summary"):
            app_utility(Summary([], set()), NodeCentrality(np.zeros(0), "degree"), 20.0)

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
        assert report.app_utility == direct  # exact: both sums are math.fsum

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


class TestArrayPassesMatchOracles:
    @pytest.mark.parametrize("name", sorted(VERIFY_GRAPHS))
    def test_reconstruct_and_report_match_loop_oracles(self, name):
        g = VERIFY_GRAPHS[name]()
        seen = set()
        for seed in range(3):
            for variant, s in corrupted_summaries(g, seed):
                seen.add(variant)
                assert reconstruct(s) == loop_reconstruct(s), variant
                report = verify_lossless(g, s)
                assert report == set_verify_lossless(g, s), variant
                if variant == "lossless":
                    assert report.lossless
                elif variant in ("dropped", "no-superedges", "added-self", "added-cross"):
                    assert not report.lossless, variant
                if variant == "no-superedges":  # every edge is missing; ten are listed
                    assert report.missing_edges == sorted(g.edges())[:10]
                listed = report.missing_edges + report.spurious_edges
                assert all(type(x) is int for pair in listed for x in pair)
        assert "lossless" in seen
        if g.m:
            assert {"dropped", "no-superedges", "one-clique"} <= seen
        if name.startswith(("twins", "er", "ba")):
            assert {"added-cross", "moved"} <= seen


class TestTopNodes:
    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality])
    @pytest.mark.parametrize("t_percent", [0.5, 10.0, 33.3, 100.0])
    def test_matches_sorted_order(self, centrality, t_percent):
        for g in (er_graph(50, 0.1, 1), ba_graph(60, 2, 4), twin_rich_graph(2)):
            c = centrality(g)
            k = math.ceil(t_percent / 100.0 * g.n)
            expected = sorted(range(g.n), key=lambda u: (-c.scores[u], u))[:k]
            got = top_nodes(c, t_percent)
            assert got == expected
            assert all(type(u) is int for u in got)


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
