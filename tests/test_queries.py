from __future__ import annotations

import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

from graphsum import (
    Summary,
    TriangleReport,
    UnsupportedSummaryError,
    build_weight_model,
    count_triangles,
    enumerate_triangles,
    from_edges,
    load_summary,
    pagerank,
    pagerank_on_summary,
    reconstruct,
    save_summary,
    shortest_path_length,
    summarize,
    summarize_lossy,
    uniform_centrality,
)
from graphsum.queries import _super_triangles

from conftest import random_graphs
from generators import (
    ba_graph,
    complete_graph,
    er_graph,
    path_graph,
    star_graph,
    twin_rich_graph,
)
from oracles import (
    bfs_distances,
    loop_enumerate_triangles,
    loop_pagerank,
    loop_summary_pagerank,
    loop_triangle_types_ab,
    set_super_triangles,
    set_triangle_type_c,
    super_adjacency_lists,
    triangle_count_matrix,
    triangle_set_enumeration,
)

# Small graphs on which every ordered node pair is checked: twin-rich
# blow-ups (clique and independent-set supernodes, isolated nodes, two
# components) and the plain generators.
SMALL_GRAPHS = {
    **{f"twins{seed}": partial(twin_rich_graph, seed) for seed in range(6)},
    **{f"er{seed}": partial(er_graph, 30, 0.08, seed) for seed in range(3)},
    **{f"ba{seed}": partial(ba_graph, 30, 2, seed) for seed in range(3)},
    "star": partial(star_graph, 7),
    "path": partial(path_graph, 12),
}


@pytest.fixture(params=sorted(SMALL_GRAPHS))
def small_graph(request):
    return SMALL_GRAPHS[request.param]()


def isolated_supernodes_summary() -> Summary:
    """Supernodes with no cross superedge first, in the middle and last:
    0 = {0, 1} independent set, 2 = {5}, 5 = {9, 10} clique and 6 = {11},
    a singleton with a self-superedge. Around them, the clique 1 = {2, 3, 4},
    the singleton 3 = {6} and the independent set 4 = {7, 8} form a
    super-triangle."""
    membership = [0, 0, 1, 1, 1, 2, 3, 4, 4, 5, 5, 6]
    superedges = {(1, 1), (1, 3), (1, 4), (3, 4), (5, 5), (6, 6)}
    return Summary(np.array(membership), superedges, is_lossless=True)


def test_cliques_mask_follows_the_kinds_rule():
    s = isolated_supernodes_summary()
    assert s.cliques.tolist() == [False, True, False, False, False, True, False]
    assert s.cliques.tolist() == [kind == "clique" for kind in s.kinds]
    assert not s.cliques.flags.writeable


@pytest.fixture
def lossy_summary(worked_example):
    model = build_weight_model(worked_example, uniform_centrality(worked_example))
    return summarize_lossy(worked_example, model, 0.85).summary


class TestTriangles:
    def test_k4(self):
        report = count_triangles(summarize(complete_graph(4)))
        assert (report.count_a, report.count_b, report.count_c) == (4, 0, 0)
        assert report.total == 4

    def test_two_clique_next_to_singleton(self):
        # a 2-node clique supernode adjacent to a singleton: one type-b triangle
        g = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        s = summarize(g)
        sizes = sorted(len(grp) for grp in s.supernodes)
        assert sizes == [1, 1, 2]
        report = count_triangles(s)
        assert (report.count_a, report.count_b, report.count_c) == (0, 1, 0)

    def test_er_total_frozen(self):
        g = er_graph(300, 0.05, 11)
        total = count_triangles(summarize(g)).total
        assert total == 596  # trace(A^3)/6 on this instance
        assert total == triangle_count_matrix(g)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=35))
    def test_count_matches_matrix_oracle(self, g):
        assert count_triangles(summarize(g)).total == triangle_count_matrix(g)

    def test_types_a_b_match_loop_oracle(self, small_graph, tmp_path):
        s = summarize(small_graph)
        save_summary(s, tmp_path)
        for summary in (s, load_summary(tmp_path)):
            report = count_triangles(summary)
            assert (report.count_a, report.count_b) == loop_triangle_types_ab(summary)
            assert report.total == triangle_count_matrix(small_graph)

    def test_isolated_supernodes(self):
        s = isolated_supernodes_summary()
        report = count_triangles(s)
        assert (report.count_a, report.count_b) == loop_triangle_types_ab(s) == (1, 9)
        assert report.count_c == 3 * 1 * 2
        assert report.total == triangle_count_matrix(reconstruct(s))

    def test_huge_clique_counts_exactly(self):
        # k * (k - 1) * (k - 2) exceeds int64 for k = 3,000,000
        k = 3_000_000
        s = Summary(np.r_[np.zeros(k, dtype=np.int64), 1], {(0, 0), (0, 1)}, is_lossless=True)
        report = count_triangles(s)
        assert (report.count_a, report.count_b, report.count_c) == (
            math.comb(k, 3),
            math.comb(k, 2),
            0,
        )

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=25, max_p=0.7))
    def test_enumeration_matches_brute_force(self, g):
        s = summarize(g)
        seen: list[tuple[int, int, int]] = []
        enumerate_triangles(s, seen.append)
        assert len(seen) == len(set(seen))  # no duplicates
        assert set(seen) == triangle_set_enumeration(g)
        for a, b, c in seen:
            assert a < b < c
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    def test_enumeration_order_deterministic(self):
        g = er_graph(40, 0.25, 17)
        s = summarize(g)
        first: list = []
        second: list = []
        enumerate_triangles(s, first.append)
        enumerate_triangles(s, second.append)
        assert first == second

    def test_lossy_summary_rejected(self, lossy_summary):
        with pytest.raises(UnsupportedSummaryError):
            count_triangles(lossy_summary)


# Inputs of the oriented-wedge pass: twin-rich blow-ups, the plain
# generators, graphs with no edge or no node, and summaries whose
# supernode graph has no edge or isolated supernodes.
WEDGE_SUMMARIES = {
    **{f"twins{seed}": partial(twin_rich_graph, seed) for seed in range(6)},
    **{f"er{seed}": partial(er_graph, 40, 0.2, seed) for seed in range(3)},
    **{f"ba{seed}": partial(ba_graph, 60, 4, seed) for seed in range(3)},
    "complete": partial(complete_graph, 6),
    "star": partial(star_graph, 7),
    "path": partial(path_graph, 9),
    "edgeless": partial(from_edges, 5, []),
    "empty": partial(from_edges, 0, []),
    "two-triangles": partial(
        from_edges, 7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    ),
}


def wedge_summary(name: str) -> Summary:
    if name == "isolated-supernodes":
        return isolated_supernodes_summary()
    return summarize(WEDGE_SUMMARIES[name]())


WEDGE_NAMES = [*WEDGE_SUMMARIES, "isolated-supernodes"]


class TestOrientedWedges:
    @pytest.mark.parametrize("name", WEDGE_NAMES)
    def test_report_matches_set_oracle(self, name):
        s = wedge_summary(name)
        expected = TriangleReport(*loop_triangle_types_ab(s), set_triangle_type_c(s))
        assert count_triangles(s) == expected

    @pytest.mark.parametrize("budget", [1, 2, 3, None])
    @pytest.mark.parametrize("name", WEDGE_NAMES)
    def test_every_wedge_budget_finds_each_triangle_once(self, name, budget):
        s = wedge_summary(name)
        triples = [
            triple
            for chunk in _super_triangles(s.super_adjacency(), budget)
            for triple in zip(*(ids.tolist() for ids in chunk))
        ]
        expected = list(set_super_triangles(super_adjacency_lists(s)))
        assert sorted(triples) == sorted(expected)

    def test_no_cross_superedge(self):
        s = wedge_summary("two-triangles")
        assert s.super_adjacency().m == 0
        assert count_triangles(s) == TriangleReport(2, 0, 0)

    def test_type_c_past_int64_counts_exactly(self):
        # three mutually adjacent independent sets: C(n, 3) >= 2**63 takes
        # the Python-int path, and the one product itself exceeds int64
        size = 2**21 + 1
        membership = np.repeat(np.arange(3), size)
        s = Summary(membership, {(0, 1), (0, 2), (1, 2)}, is_lossless=True)
        assert size**3 > np.iinfo(np.int64).max
        assert count_triangles(s) == TriangleReport(0, 0, size**3)

    @pytest.mark.parametrize(
        "name", [f"twins{seed}" for seed in range(6)] + ["er0", "er1", "er2", "ba0", "ba1", "ba2"]
    )
    def test_enumeration_order_matches_loop_oracle(self, name):
        s = wedge_summary(name)
        seen: list[tuple[int, int, int]] = []
        enumerate_triangles(s, seen.append)
        assert seen == loop_enumerate_triangles(s)


class TestSummaryPagerank:
    def test_k4_undamped_all_ones(self):
        pr = pagerank_on_summary(summarize(complete_graph(4)), damping=1.0)
        assert np.allclose(pr.node_scores, 1.0)

    def test_star_leaves_match_closed_form(self):
        # two-variable damped fixed point of the hub/leaf system
        pr = pagerank_on_summary(summarize(star_graph(4)), damping=0.85, tol=1e-14)
        center = 0.66 / 0.2775
        leaf = 0.15 + 0.2125 * center
        assert pr.node_scores[0] == pytest.approx(center, abs=1e-10)
        assert np.allclose(pr.node_scores[1:], leaf, atol=1e-10)

    @pytest.mark.parametrize("damping", [1.0, 0.85])
    def test_er_matches_original_graph(self, damping):
        g = er_graph(200, 0.08, 4)
        s = summarize(g)
        ours = pagerank_on_summary(s, damping=damping, tol=1e-12, max_iter=500)
        oracle = pagerank(g, damping=damping, tol=1e-12, max_iter=500)
        assert np.max(np.abs(ours.node_scores - oracle.scores)) < 1e-8

    def test_member_equality_and_supernode_sums(self):
        g = er_graph(120, 0.05, 21)
        s = summarize(g)
        pr = pagerank_on_summary(s, damping=0.85)
        for sid, grp in enumerate(s.supernodes):
            member_scores = pr.node_scores[grp]
            assert member_scores.max() == member_scores.min()  # exact by construction
            assert member_scores.sum() == pytest.approx(
                pr.supernode_scores[sid], rel=1e-12
            )

    def test_lossy_summary_rejected(self, lossy_summary):
        with pytest.raises(UnsupportedSummaryError):
            pagerank_on_summary(lossy_summary)

    @pytest.mark.parametrize("kwargs", [{"damping": 1.5}, {"damping": -0.1}, {"tol": 0}])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            pagerank_on_summary(summarize(star_graph(4)), **kwargs)


# Graph and summary Pagerank run one shared iteration; the loops they
# replaced are the oracles, and the results must match bit for bit.
PAGERANK_GRAPHS = {
    **{f"er{seed}": partial(er_graph, 80, 0.08, seed) for seed in range(2)},
    **{f"ba{seed}": partial(ba_graph, 120, 3, seed) for seed in range(2)},
    **{f"twins{seed}": partial(twin_rich_graph, seed) for seed in range(2)},
    "complete": partial(complete_graph, 5),
    "star": partial(star_graph, 6),
    "path": partial(path_graph, 7),
    "edgeless": partial(from_edges, 5, []),
}


def assert_pagerank_matches_loops(g, damping, tol=1e-10, max_iter=200):
    pr = pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
    scores, iterations, converged = loop_pagerank(g, damping, tol, max_iter)
    assert pr.scores.tobytes() == scores.tobytes()
    assert (pr.iterations, pr.converged) == (iterations, converged)
    s = summarize(g)
    ours = pagerank_on_summary(s, damping=damping, tol=tol, max_iter=max_iter)
    totals, node_scores, iterations, converged = loop_summary_pagerank(s, damping, tol, max_iter)
    assert ours.supernode_scores.tobytes() == totals.tobytes()
    assert ours.node_scores.tobytes() == node_scores.tobytes()
    assert (ours.iterations, ours.converged) == (iterations, converged)


@pytest.mark.parametrize("damping", [0.0, 0.5, 0.85, 1.0])
@pytest.mark.parametrize("name", list(PAGERANK_GRAPHS))
def test_pagerank_bitwise_equal_to_loop_oracles(name, damping):
    assert_pagerank_matches_loops(PAGERANK_GRAPHS[name](), damping)


def test_pagerank_at_max_iter_equal_to_loop_oracles():
    # the undamped iteration oscillates on a bipartite path
    assert not pagerank(path_graph(3), damping=1.0, max_iter=25).converged
    assert_pagerank_matches_loops(path_graph(3), 1.0, max_iter=25)


class TestShortestPaths:
    def test_k4_any_pair_is_one(self):
        s = summarize(complete_graph(4))
        for u in range(4):
            for v in range(4):
                expected = 0 if u == v else 1
                assert shortest_path_length(s, u, v) == expected

    def test_star_leaf_to_leaf_is_two(self):
        s = summarize(star_graph(4))
        assert shortest_path_length(s, 1, 2) == 2
        assert shortest_path_length(s, 0, 3) == 1

    def test_isolated_pair_unreachable(self):
        g = from_edges(2, [])
        s = summarize(g)
        # both isolated nodes share an IS supernode with no neighbors
        assert s.num_supernodes == 1
        assert shortest_path_length(s, 0, 1) == math.inf

    def test_isolated_supernodes_every_pair(self):
        s = isolated_supernodes_summary()
        g = reconstruct(s)
        for u in range(s.n):
            expected = bfs_distances(g, u)
            assert [shortest_path_length(s, u, v) for v in range(s.n)] == expected, u

    def test_er_random_pairs_match_bfs(self):
        g = er_graph(300, 0.03, 6)
        s = summarize(g)
        rng = random.Random(1234)
        for _ in range(100):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            assert shortest_path_length(s, u, v) == bfs_distances(g, u)[v]

    def test_rejects_bad_ids(self):
        s = summarize(star_graph(3))
        with pytest.raises(IndexError):
            shortest_path_length(s, 0, 99)

    def test_lossy_summary_rejected(self, lossy_summary):
        with pytest.raises(UnsupportedSummaryError):
            shortest_path_length(lossy_summary, 0, 1)

    def test_every_pair_matches_bfs(self, small_graph):
        g = small_graph
        s = summarize(g)
        for u in range(g.n):
            expected = bfs_distances(g, u)
            for v in range(g.n):
                d = shortest_path_length(s, u, v)
                assert d == expected[v], (u, v)
                assert type(d) is int or d == math.inf

    def test_twin_rich_graphs_cover_every_case(self):
        for seed in range(6):
            g = twin_rich_graph(seed)
            s = summarize(g)
            kinds = {kind for kind, members in zip(s.kinds, s.supernodes) if len(members) > 1}
            assert kinds == {"clique", "independent_set"}
            assert g.degree(g.n - 1) == g.degree(g.n - 2) == 0
            assert math.inf in bfs_distances(g, 0)[: g.n - 2]


class TestSupernodeGraph:
    def test_rows_match_loop_oracle(self, small_graph, tmp_path):
        s = summarize(small_graph)
        save_summary(s, tmp_path)
        loaded = load_summary(tmp_path)
        for summary in (s, loaded):
            sg = summary.super_adjacency()
            assert sg.n == summary.num_supernodes
            assert sg.adjacency_lists == super_adjacency_lists(summary)

    def test_cached_and_read_only(self):
        s = summarize(twin_rich_graph(0))
        sg = s.super_adjacency()
        assert s.super_adjacency() is sg
        assert not sg.offsets.flags.writeable
        assert not sg.targets.flags.writeable

    @pytest.mark.parametrize(
        "g",
        [complete_graph(4), from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])],
        ids=["k4", "two-triangles"],
    )
    def test_no_cross_superedge_gives_empty_graph(self, g):
        s = summarize(g)
        assert s.superedges and all(a == b for a, b in s.superedges)
        sg = s.super_adjacency()
        assert (sg.n, sg.m) == (s.num_supernodes, 0)
