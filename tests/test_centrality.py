from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from graphsum import (
    CapExceededError,
    DegenerateWeightsError,
    ModelUndefinedError,
    NodeCentrality,
    betweenness_centrality,
    build_weight_model,
    degree_centrality,
    edge_weight,
    eigenvector_centrality,
    from_edges,
    pagerank,
    pagerank_on_summary,
    summarize,
    uniform_centrality,
)
from graphsum.centrality import DEFAULT_TOL

from conftest import random_graphs
from generators import (
    ba_graph,
    complete_graph,
    cycle_graph,
    er_graph,
    path_graph,
    spread_graph,
    star_graph,
    twin_rich_graph,
)
from oracles import brute_betweenness, dense_pagerank, loop_eigenvector


class TestPagerank:
    def test_regular_graph_undamped_fixed_point(self):
        g = cycle_graph(5)  # 2-regular; odd cycle so the iteration settles
        pr = pagerank(g, damping=1.0)
        assert pr.converged
        assert np.allclose(pr.scores, 1.0)

    def test_single_edge_undamped(self):
        pr = pagerank(from_edges(2, [(0, 1)]), damping=1.0)
        assert pr.scores.tolist() == [1.0, 1.0]

    def test_er_matches_dense_oracle(self):
        g = er_graph(100, 0.05, 1)
        ours = pagerank(g, damping=0.85, tol=1e-12, max_iter=500)
        oracle = dense_pagerank(g, 0.85)
        assert np.max(np.abs(ours.scores - oracle)) < 1e-8

    def test_sum_is_n_without_dangling_nodes(self):
        g = er_graph(60, 0.2, 3)
        assert all(g.degree(u) > 0 for u in range(g.n))
        pr = pagerank(g)
        assert abs(pr.scores.sum() - g.n) < 1e-6

    def test_isolated_node_decays_to_one_minus_damping(self):
        g = from_edges(3, [(0, 1)])
        pr = pagerank(g, damping=0.85)
        assert pr.scores[2] == pytest.approx(0.15)

    def test_non_convergence_flagged(self):
        # undamped iteration oscillates on a bipartite path
        pr = pagerank(path_graph(3), damping=1.0, max_iter=25)
        assert not pr.converged
        assert pr.iterations == 25

    def test_undamped_residual_on_connected_nonbipartite(self):
        for seed in range(5):
            g = er_graph(30, 0.3, seed)
            oracle = dense_pagerank(g, 1.0, tol=1e-13)
            pr = pagerank(g, damping=1.0, tol=1e-12, max_iter=2000)
            if not pr.converged:
                continue  # bipartite or disconnected draw
            deg = g.degrees.astype(float)
            contrib = np.where(deg > 0, pr.scores / np.maximum(deg, 1), 0.0)
            residual = np.abs(
                np.array([contrib[g.neighbors(u)].sum() for u in range(g.n)])
                - pr.scores
            ).sum()
            assert residual < 1e-9

    def test_rejects_bad_parameters(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            pagerank(g, tol=0.0)
        with pytest.raises(ValueError):
            pagerank(g, damping=1.5)
        with pytest.raises(ValueError):
            pagerank(from_edges(0, []))


class TestOtherCentralities:
    def test_degree_path(self):
        assert degree_centrality(path_graph(3)).scores.tolist() == [1.0, 2.0, 1.0]

    def test_betweenness_path(self):
        assert betweenness_centrality(path_graph(3)).scores.tolist() == [0.0, 1.0, 0.0]

    def test_eigenvector_complete_graph_uniform(self):
        e = eigenvector_centrality(complete_graph(4))
        assert e.converged
        assert np.allclose(e.scores, 0.5, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_betweenness_matches_path_enumeration(self, seed):
        g = er_graph(34, 0.12, seed)  # karate-club sized
        ours = betweenness_centrality(g).scores
        oracle = brute_betweenness(g)
        assert np.allclose(ours, oracle, atol=1e-9)

    def test_betweenness_cap_refusal(self):
        g = path_graph(30)
        with pytest.raises(CapExceededError):
            betweenness_centrality(g, cap=10)

    def test_eigenvector_oscillation_flagged(self):
        e = eigenvector_centrality(star_graph(3), max_iter=60)
        assert not e.converged

    @pytest.mark.parametrize(
        "g, max_iter",
        [
            (er_graph(40, 0.1, 3), 1000),
            (spread_graph(er_graph(20, 0.2, 1)), 1000),
            (ba_graph(60, 2, 5), 1000),
            (twin_rich_graph(2), 1000),
            (star_graph(3), 60),  # oscillates: the iterate at max_iter
            (from_edges(3, []), 1000),
        ],
    )
    def test_eigenvector_bitwise_equal_to_loop_oracle(self, g, max_iter):
        e = eigenvector_centrality(g, max_iter=max_iter)
        scores, iterations, converged = loop_eigenvector(g, DEFAULT_TOL, max_iter)
        assert e.scores.tobytes() == scores.tobytes()
        assert (e.iterations, e.converged) == (iterations, converged)

    def test_eigenvector_concentrates_on_dominant_component(self):
        # K5 (spectral radius 4) next to a triangle (radius 2)
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(5, 6), (6, 7), (5, 7)]
        g = from_edges(8, edges)
        e = eigenvector_centrality(g, tol=1e-12, max_iter=5000)
        assert e.converged
        assert np.all(e.scores[5:] < 1e-6)
        assert np.all(e.scores[:5] > 0.1)


# one power iteration serves all three; each must refuse a tol that is
# never met (0, -1) or that would stop or run on silently (inf, nan)
TOL_USERS = {
    "pagerank": lambda tol: pagerank(ba_graph(200, 3, 1), tol=tol),
    "pagerank_on_summary": lambda tol: pagerank_on_summary(summarize(ba_graph(200, 3, 1)), tol=tol),
    "eigenvector": lambda tol: eigenvector_centrality(ba_graph(200, 3, 1), tol, 100),
    "eigenvector-edgeless": lambda tol: eigenvector_centrality(from_edges(4, []), tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("user", TOL_USERS)
def test_tol_must_be_positive_and_finite(user, tol):
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        TOL_USERS[user](tol)


class TestWeightModel:
    def test_worked_example_uniform(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        assert edge_weight(model, 0, 3) == pytest.approx(1 / 14, abs=1e-15)
        assert model.spurious_weight == pytest.approx(1 / 41, abs=1e-15)

    def test_triangle_with_isolated_node(self):
        g = from_edges(4, [(0, 1), (0, 2), (1, 2)])
        model = build_weight_model(g, uniform_centrality(g))
        for u, v in g.edges():
            assert edge_weight(model, u, v) == pytest.approx(1 / 3)
        # C(4,2) - 3 = 3 spurious pairs
        assert model.spurious_weight == pytest.approx(1 / 3)

    def test_er_pagerank_weights_sum_to_one(self):
        g = er_graph(60, 0.1, 3)
        model = build_weight_model(g, pagerank(g))
        total = math.fsum(model.pair_weight(u, v) for u, v in g.edges())
        assert abs(total - 1.0) < 1e-9
        non_edges = g.n * (g.n - 1) // 2 - g.m
        assert abs(model.spurious_weight * non_edges - 1.0) < 1e-12

    def test_complete_graph_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ModelUndefinedError):
            build_weight_model(g, uniform_centrality(g))

    def test_zero_centrality_rejected(self):
        g = path_graph(3)
        with pytest.raises(DegenerateWeightsError):
            build_weight_model(g, NodeCentrality(np.zeros(3), "degree"))

    def test_edge_weight_contract_violation(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        with pytest.raises(ValueError):
            edge_weight(model, 1, 2)  # not an edge

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(min_n=3, max_n=25))
    def test_merge_order_invariant_to_uniform_scaling(self, g):
        # scaling all node scores rescales every pair weight by the same
        # factor, so the candidate merge order (weight, then ids) is
        # unchanged. Exercised where float arithmetic scales exactly:
        # power-of-two factors for arbitrary scores, any dyadic-rational
        # factor for integer scores. (A non-dyadic factor on near-tied
        # real scores may lawfully re-break sum ties at the last ulp.)
        if g.m == 0 or g.n * (g.n - 1) // 2 == g.m:
            return
        from graphsum import full_candidate_list, two_hop_mst

        for base, factor in [
            (pagerank(g), 8.0),
            (degree_centrality(g), 7.5),
        ]:
            scaled = NodeCentrality(base.scores * factor, base.kind)
            assert (
                full_candidate_list(g, base).pairs
                == full_candidate_list(g, scaled).pairs
            )
            assert two_hop_mst(g, base).pairs == two_hop_mst(g, scaled).pairs
