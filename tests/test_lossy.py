from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings

from graphsum import (
    CapExceededError,
    MergePairList,
    NodeCentrality,
    build_superedges_lossy,
    build_weight_model,
    compute_utility,
    degree_centrality,
    from_edges,
    full_candidate_list,
    merge_prefix,
    pagerank,
    summarize_lossy,
    two_hop_mst,
    uniform_centrality,
)
from graphsum.unionfind import UnionFind

from conftest import random_graphs
from generators import ba_graph, er_graph, path_graph, star_graph
from oracles import pairwise_utility, two_hop_by_matrix_square


def perturbed_pagerank(g, seed=99, scale=1e-6):
    """Pagerank scores nudged so every pair weight is unique."""
    rng = random.Random(seed)
    scores = pagerank(g).scores + np.array([rng.random() * scale for _ in range(g.n)])
    return NodeCentrality(scores, "pagerank")


def kruskal_over_full_list(g, c):
    """Pairs and weights of the Kruskal forest over every 2-hop pair."""
    full = full_candidate_list(g, c)
    uf = UnionFind(g.n)
    kept = [(p, w) for p, w in zip(full.pairs, full.weights) if uf.union(*p)]
    return [p for p, _ in kept], [w for _, w in kept]


def small_graph(family, seed):
    rng = random.Random(seed)
    n = rng.randint(5, 40)
    if family == "er":
        return er_graph(n, rng.choice([0.05, 0.1, 0.2, 0.4]), seed)
    return ba_graph(n, rng.randint(1, 3), seed)


def explicit_mst_weight(g, c):
    """Total spanning-forest weight of the materialized 2-hop graph."""
    full = full_candidate_list(g, c)
    rows = [u for u, _ in full.pairs]
    cols = [v for _, v in full.pairs]
    m = sp.coo_matrix((full.weights, (rows, cols)), shape=(g.n, g.n))
    return float(csgraph.minimum_spanning_tree(m).sum())


class TestTwoHopMst:
    def test_path_single_pair(self):
        g = path_graph(3)
        forest = two_hop_mst(g, uniform_centrality(g))
        assert forest.pairs == [(0, 2)]
        assert forest.weights == [2.0]

    def test_star_spanning_tree_over_leaves(self):
        g = star_graph(4)
        forest = two_hop_mst(g, uniform_centrality(g))
        assert len(forest) == 3  # the 2-hop graph on the leaves is K4
        assert forest.weights == [2.0, 2.0, 2.0]
        uf = UnionFind(g.n)
        for u, v in forest.pairs:
            assert u != 0 and v != 0  # the center has no 2-hop partner
            assert uf.union(u, v)  # forest: no pair closes a cycle
        assert uf.find(1) == uf.find(2) == uf.find(3) == uf.find(4)

    def test_er_weight_sum_matches_explicit_mst(self):
        g = er_graph(80, 0.15, 8)
        c = perturbed_pagerank(g)
        forest = two_hop_mst(g, c)
        assert math.fsum(forest.weights) == pytest.approx(
            explicit_mst_weight(g, c), abs=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(min_n=2, max_n=30))
    def test_forest_shape_and_order(self, g):
        forest = two_hop_mst(g, uniform_centrality(g))
        assert len(forest) <= max(g.n - 1, 0)
        assert forest.weights == sorted(forest.weights)
        uf = UnionFind(g.n)
        for u, v in forest.pairs:
            assert v in g.two_hop_neighbors(u)
            assert uf.union(u, v)

    def test_deterministic(self):
        g = er_graph(60, 0.2, 5)
        c = pagerank(g)
        assert two_hop_mst(g, c).pairs == two_hop_mst(g, c).pairs


class TestFullCandidateList:
    def test_path(self):
        g = path_graph(3)
        assert full_candidate_list(g, uniform_centrality(g)).pairs == [(0, 2)]

    def test_star_leaf_pairs(self):
        g = star_graph(4)
        full = full_candidate_list(g, uniform_centrality(g))
        assert sorted(full.pairs) == [
            (u, v) for u in range(1, 5) for v in range(u + 1, 5)
        ]

    def test_er_matches_matrix_square(self):
        g = er_graph(50, 0.1, 12)
        full = full_candidate_list(g, uniform_centrality(g))
        expected = {
            (v, w)
            for v in range(g.n)
            for w in two_hop_by_matrix_square(g, v)
            if v < w
        }
        assert set(full.pairs) == expected

    def test_cap(self):
        g = er_graph(50, 0.3, 0)
        with pytest.raises(CapExceededError):
            full_candidate_list(g, uniform_centrality(g), max_pairs=10)


class TestMergePrefix:
    def test_zero_is_singletons(self):
        g = er_graph(20, 0.2, 1)
        forest = two_hop_mst(g, uniform_centrality(g))
        uf = merge_prefix(g, forest, 0)
        assert uf.num_sets() == g.n

    def test_full_prefix_gives_two_hop_components(self):
        g = er_graph(40, 0.1, 2)
        c = uniform_centrality(g)
        forest = two_hop_mst(g, c)
        uf = merge_prefix(g, forest, len(forest))
        full = full_candidate_list(g, c)
        components = UnionFind(g.n)
        for u, v in full.pairs:
            components.union(u, v)
        assert uf.labels() == components.labels()

    def test_prefix_matches_step_simulation(self):
        # unique weights make the restricted full list coincide with the forest
        g = er_graph(80, 0.15, 8)
        c = perturbed_pagerank(g)
        forest = two_hop_mst(g, c)
        restricted = [
            p for p in full_candidate_list(g, c).pairs if p in set(forest.pairs)
        ]
        for t in (1, 2, 3, 10):
            sim = UnionFind(g.n)
            for u, v in restricted[:t]:
                sim.union(u, v)
            assert merge_prefix(g, forest, t).labels() == sim.labels()

    def test_out_of_range(self):
        g = path_graph(3)
        forest = two_hop_mst(g, uniform_centrality(g))
        with pytest.raises(ValueError):
            merge_prefix(g, forest, len(forest) + 1)


class TestComputeUtility:
    def test_identity_partition_is_exactly_one(self):
        g = er_graph(30, 0.2, 3)
        model = build_weight_model(g, uniform_centrality(g))
        assert compute_utility(g, model, UnionFind(g.n)) == 1.0

    def test_worked_example_after_four_merges(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        uf = UnionFind(11)
        uf.union(1, 2)  # leaf pair of the left hub
        uf.union(4, 5)
        uf.union(4, 6)  # leaf triple of the right hub
        uf.union(1, 7)  # absorb the shared neighbor: two spurious pairs
        uf.union(4, 8)  # absorb the degree-2 node: drops one actual edge
        expected = float(Fraction(505, 574))
        assert compute_utility(worked_example, model, uf) == pytest.approx(
            expected, abs=1e-12
        )

    def test_er_random_partition_matches_pairwise_oracle(self):
        g = er_graph(60, 0.1, 3)
        model = build_weight_model(g, pagerank(g))
        rng = random.Random(7)
        uf = UnionFind(g.n)
        for u in range(g.n):
            uf.union(u, rng.randrange(10))  # ten blocks anchored at 0..9
        ours = compute_utility(g, model, uf)
        oracle = pairwise_utility(g, model, uf.labels())
        assert ours == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(min_n=3, max_n=25))
    def test_bounds_and_merge_idempotence(self, g):
        if g.m == 0 or g.n * (g.n - 1) // 2 == g.m:
            return
        model = build_weight_model(g, uniform_centrality(g))
        uf = UnionFind(g.n)
        uf.union(0, 1)
        before = compute_utility(g, model, uf)
        assert 0.0 <= before <= 1.0
        uf.union(0, 1)  # already merged
        assert compute_utility(g, model, uf) == before

    def test_monotone_along_forest(self):
        for seed in (0, 1, 2):
            g = er_graph(50, 0.12, seed)
            model = build_weight_model(g, pagerank(g))
            forest = two_hop_mst(g, model.node_centrality)
            values = [
                compute_utility(g, model, merge_prefix(g, forest, t))
                for t in range(len(forest) + 1)
            ]
            for prev, cur in zip(values, values[1:]):
                assert cur <= prev + 1e-12


class TestCostIdentities:
    def test_merge_additivity_of_superedge_costs(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        w_s = model.spurious_weight

        def costs(group_a, group_b):
            pairs = [(u, v) for u in group_a for v in group_b]
            count = sum(1 for u, v in pairs if worked_example.has_edge(u, v))
            sedge = (len(pairs) - count) * w_s
            nsedge = math.fsum(
                model.pair_weight(u, v) for u, v in pairs if worked_example.has_edge(u, v)
            )
            return sedge, nsedge

        part_u, part_v, other = [1, 2], [7], [3]
        su, nu = costs(part_u, other)
        sv, nv = costs(part_v, other)
        merged_s, merged_n = costs(part_u + part_v, other)
        assert merged_s == pytest.approx(su + sv, abs=1e-15)
        assert merged_n == pytest.approx(nu + nv, abs=1e-15)


class TestBuildSuperedgesLossy:
    def test_singleton_partition_reproduces_edges(self):
        g = er_graph(25, 0.2, 9)
        model = build_weight_model(g, uniform_centrality(g))
        s = build_superedges_lossy(g, model, UnionFind(g.n))
        assert s.kinds is None
        assert s.superedges == set(g.edges())

    def test_worked_example_superedge_decisions(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        uf = UnionFind(11)
        for a, b in [(1, 2), (1, 7), (4, 5), (4, 6), (4, 8)]:
            uf.union(a, b)
        s = build_superedges_lossy(worked_example, model, uf)
        labels = s.membership.tolist()
        left_group, right_group = labels[1], labels[4]
        left_hub, right_hub, orange = labels[0], labels[3], labels[10]
        # absorbing the shared neighbor keeps its hub edge: 2/41 < 1/14
        assert (min(left_group, right_hub), max(left_group, right_hub)) in s.superedges
        # the absorbed degree-2 node loses its other edge: 3/41 > 1/14
        assert (
            min(right_group, orange),
            max(right_group, orange),
        ) not in s.superedges
        assert (min(left_hub, left_group), max(left_hub, left_group)) in s.superedges

    def test_er_decisions_match_pairwise_rule(self):
        g = er_graph(60, 0.1, 3)
        model = build_weight_model(g, pagerank(g))
        rng = random.Random(11)
        uf = UnionFind(g.n)
        for u in range(g.n):
            uf.union(u, rng.randrange(8))
        s = build_superedges_lossy(g, model, uf)
        labels = uf.labels()
        groups: dict[int, list[int]] = {}
        for u, lab in enumerate(labels):
            groups.setdefault(lab, []).append(u)
        edge_set = set(g.edges())
        expected = set()
        for a in groups:
            for b in groups:
                if a > b:
                    continue
                if a == b:
                    pairs = [
                        (u, v) for u in groups[a] for v in groups[b] if u < v
                    ]
                else:
                    pairs = [(u, v) for u in groups[a] for v in groups[b]]
                actual = [p for p in pairs if (min(p), max(p)) in edge_set]
                if not actual:
                    continue
                sedge = (len(pairs) - len(actual)) * model.spurious_weight
                nsedge = math.fsum(model.pair_weight(u, v) for u, v in actual)
                if sedge <= nsedge:
                    expected.add((a, b))
        assert s.superedges == expected


class TestSummarizeLossy:
    def test_tau_one(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        res = summarize_lossy(worked_example, model, 1.0)
        assert res.utility == 1.0
        # the forest head happens to admit no zero-loss merge in sorted order
        u = compute_utility(
            worked_example, model, merge_prefix(worked_example, two_hop_mst(worked_example, model.node_centrality), res.prefix_length)
        )
        assert u == 1.0

    def test_zero_loss_head_merges_survive_high_tau(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        # candidate list pinned to start with the two zero-loss merges
        pinned = MergePairList(
            [(1, 2), (4, 5), (4, 6), (0, 3), (7, 9)],
            [2.0, 2.0, 2.0, 2.0, 2.0],
        )
        res = summarize_lossy(worked_example, model, 0.9, candidates=pinned)
        assert res.prefix_length >= 3
        assert res.utility >= 0.9
        labels = res.summary.membership.tolist()
        assert labels[1] == labels[2]
        assert labels[4] == labels[5] == labels[6]

    def test_er_frozen_instance(self):
        g = er_graph(80, 0.15, 8)
        model = build_weight_model(g, pagerank(g))
        res = summarize_lossy(g, model, 0.8)
        assert res.prefix_length == 15
        assert res.num_candidates == 79
        assert res.utility == pytest.approx(0.8160595800438615, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.6, 0.75, 0.9])
    def test_matches_exhaustive_prefix_scan(self, tau):
        g = er_graph(80, 0.15, 8)
        model = build_weight_model(g, pagerank(g))
        forest = two_hop_mst(g, model.node_centrality)
        values = [
            compute_utility(g, model, merge_prefix(g, forest, t))
            for t in range(len(forest) + 1)
        ]
        best = max(t for t in range(len(forest) + 1) if values[t] >= tau)
        res = summarize_lossy(g, model, tau)
        assert res.prefix_length == best
        assert res.utility >= tau
        if best < len(forest):
            assert values[best + 1] < tau

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5])
    def test_tau_out_of_range(self, tau, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        with pytest.raises(ValueError):
            summarize_lossy(worked_example, model, tau)


class TestMstSufficiency:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_final_partitions_agree(self, seed):
        g = er_graph(50, 0.15, seed)
        c = perturbed_pagerank(g, seed=seed + 100)
        forest = two_hop_mst(g, c)
        full = full_candidate_list(g, c)
        uf_h = merge_prefix(g, forest, len(forest))
        uf_l = UnionFind(g.n)
        for u, v in full.pairs:
            uf_l.union(u, v)
        assert uf_h.labels() == uf_l.labels()

    def test_matched_merge_counts_agree(self):
        g = er_graph(50, 0.15, 3)
        c = perturbed_pagerank(g, seed=55)
        forest = two_hop_mst(g, c)
        full = full_candidate_list(g, c)

        def labels_after(pairs, k):
            uf = UnionFind(g.n)
            done = 0
            for u, v in pairs:
                if done == k:
                    break
                if uf.union(u, v):
                    done += 1
            return uf.labels()

        for k in (1, 3, 7, 15, len(forest)):
            assert labels_after(forest.pairs, k) == labels_after(full.pairs, k)

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("family", ["er", "ba"])
    def test_forest_is_kruskal_over_full_list(self, family, centrality):
        # uniform and degree scores tie everywhere: the forest must still be
        # the one minimum forest under (weight, min id, max id)
        for seed in range(30):
            g = small_graph(family, seed)
            c = centrality(g)
            forest = two_hop_mst(g, c)
            assert (forest.pairs, forest.weights) == kruskal_over_full_list(g, c), seed

    def test_one_ulp_near_hub_star(self):
        # C_1 is one ulp above the hub's C_2; 1.5 + C_1 rounds to 1.5 + C_2,
        # so (0, 1) ties with the star pair (0, 2) and wins on ids
        g = from_edges(4, [(3, 0), (3, 1), (3, 2)])
        c = NodeCentrality(np.array([1.5, 1 + 2**-52, 1.0, 1.0]), "custom")
        forest = two_hop_mst(g, c)
        assert forest.pairs == [(1, 2), (0, 1)]
        assert (forest.pairs, forest.weights) == kruskal_over_full_list(g, c)

    @pytest.mark.parametrize("base", [1.0, 0.3, 1e-3, 7.0])
    def test_scores_one_ulp_apart(self, base):
        for seed in range(40):
            rng = random.Random(seed)
            g = er_graph(rng.randint(4, 20), rng.choice([0.2, 0.4, 0.6]), seed)
            step = np.spacing(base)
            c = NodeCentrality(
                np.array([base + rng.randint(0, 3) * step for _ in range(g.n)]), "custom"
            )
            forest = two_hop_mst(g, c)
            assert (forest.pairs, forest.weights) == kruskal_over_full_list(g, c), seed
