from __future__ import annotations

import functools
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
from graphsum import lossy
from graphsum.graph import group_keys, number_keys, relabel_by_first_appearance, stable_order
from graphsum.unionfind import UnionFind

from conftest import random_graphs
from generators import (
    ba_graph,
    cycle_graph,
    er_graph,
    path_graph,
    spread_graph,
    star_graph,
    twin_rich_graph,
)
from oracles import (
    kruskal_star_forest,
    loop_lossy_superedges,
    loop_utility,
    pairwise_utility,
    replayed_prefix_labels,
    two_hop_by_matrix_square,
)


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
    if family == "spread":  # degree-0 rows before, between and after the others
        return spread_graph(er_graph(n // 2, rng.choice([0.2, 0.4]), seed))
    return ba_graph(n, rng.randint(1, 3), seed)


def twin_or_small_graph(family, seed):
    return twin_rich_graph(seed) if family == "twin" else small_graph(family, seed)


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
        labels = merge_prefix(g, forest, 0)
        assert len(np.unique(labels)) == g.n

    def test_full_prefix_gives_two_hop_components(self):
        g = er_graph(40, 0.1, 2)
        c = uniform_centrality(g)
        forest = two_hop_mst(g, c)
        labels = merge_prefix(g, forest, len(forest))
        full = full_candidate_list(g, c)
        components = UnionFind(g.n)
        for u, v in full.pairs:
            components.union(u, v)
        assert relabel_by_first_appearance(labels).tolist() == components.labels()

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
            labels = merge_prefix(g, forest, t)
            assert relabel_by_first_appearance(labels).tolist() == sim.labels()

    def test_out_of_range(self):
        g = path_graph(3)
        forest = two_hop_mst(g, uniform_centrality(g))
        with pytest.raises(ValueError):
            merge_prefix(g, forest, len(forest) + 1)

    def test_candidate_node_outside_the_graph(self):
        g = path_graph(3)
        listed = MergePairList([(0, 2), (1, 3)], [1.0, 2.0])
        with pytest.raises(ValueError, match="candidate node 3 out of range 0..2"):
            merge_prefix(g, listed, 1)


class TestPartitionLabelsChecked:
    """compute_utility and build_superedges_lossy take one set id in
    0..n-1 per node; an id of n or more would let the superpair keys
    lo*n + hi of different pairs collide."""

    @pytest.mark.parametrize("build", [compute_utility, build_superedges_lossy])
    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0, 0, 1, 1, 2]), "1-d integer array of 6"),  # too short
            (np.array([0, 0, 1, 1, 2, 2, 2]), "1-d integer array of 6"),  # too long
            (np.array([[0, 0, 1], [1, 2, 2]]), "1-d integer array of 6"),
            (np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]), "1-d integer array of 6"),
            (UnionFind(9), "1-d integer array of 6"),
            (np.array([0, 0, 1, -1, 2, 2]), "lie in 0..5"),  # a negative id
            (np.array([0, 0, 1, 1, 6, 6]), "lie in 0..5"),  # id n
        ],
        ids=["short", "long", "2-d", "float", "union-find", "negative", "n"],
    )
    def test_malformed_labels_raise(self, build, labels, message):
        g = cycle_graph(6)
        model = build_weight_model(g, uniform_centrality(g))
        with pytest.raises(ValueError, match=message):
            build(g, model, labels)

    def test_any_ids_below_n_name_the_same_partition(self):
        g = cycle_graph(6)
        model = build_weight_model(g, degree_centrality(g))
        labels = np.array([0, 0, 3, 3, 4, 4])
        for same in (np.array([5, 5, 1, 1, 0, 0]), labels.astype(np.uint8), labels.tolist()):
            assert compute_utility(g, model, same) == compute_utility(g, model, labels)
            s = build_superedges_lossy(g, model, same)
            assert s.membership.tolist() == [0, 0, 1, 1, 2, 2]


class TestModelGraphGuard:
    """The edge weight model must be built on the graph it is used with:
    the same object, or an equal graph."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, model: compute_utility(g, model, np.arange(g.n)),
            lambda g, model: build_superedges_lossy(g, model, np.arange(g.n)),
            lambda g, model: summarize_lossy(g, model, 0.8),
        ],
        ids=["compute_utility", "build_superedges_lossy", "summarize_lossy"],
    )
    def test_model_of_another_graph_raises(self, call):
        g, other = cycle_graph(6), path_graph(6)
        model = build_weight_model(other, uniform_centrality(other))
        with pytest.raises(ValueError, match="built on a different graph"):
            call(g, model)

    def test_equal_graph_is_accepted(self):
        g = er_graph(40, 0.15, 5)
        equal = from_edges(g.n, list(g.edges()))
        assert equal is not g and equal == g
        model = build_weight_model(g, pagerank(g))
        labels = merge_prefix(g, two_hop_mst(g, model.node_centrality), 10)
        assert compute_utility(equal, model, labels) == compute_utility(g, model, labels)
        ours, theirs = summarize_lossy(equal, model, 0.8), summarize_lossy(g, model, 0.8)
        assert (ours.prefix_length, ours.utility) == (theirs.prefix_length, theirs.utility)
        assert ours.summary.membership.tolist() == theirs.summary.membership.tolist()
        assert ours.summary.superedges == theirs.summary.superedges


class TestComputeUtility:
    def test_identity_partition_is_exactly_one(self):
        g = er_graph(30, 0.2, 3)
        model = build_weight_model(g, uniform_centrality(g))
        assert compute_utility(g, model, np.arange(g.n)) == 1.0

    def test_worked_example_after_four_merges(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        uf = UnionFind(11)
        uf.union(1, 2)  # leaf pair of the left hub
        uf.union(4, 5)
        uf.union(4, 6)  # leaf triple of the right hub
        uf.union(1, 7)  # absorb the shared neighbor: two spurious pairs
        uf.union(4, 8)  # absorb the degree-2 node: drops one actual edge
        expected = float(Fraction(505, 574))
        assert compute_utility(worked_example, model, np.array(uf.labels())) == pytest.approx(
            expected, abs=1e-12
        )

    def test_er_random_partition_matches_pairwise_oracle(self):
        g = er_graph(60, 0.1, 3)
        model = build_weight_model(g, pagerank(g))
        rng = random.Random(7)
        uf = UnionFind(g.n)
        for u in range(g.n):
            uf.union(u, rng.randrange(10))  # ten blocks anchored at 0..9
        ours = compute_utility(g, model, np.array(uf.labels()))
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
        before = compute_utility(g, model, np.array(uf.labels()))
        assert 0.0 <= before <= 1.0
        uf.union(0, 1)  # already merged
        assert compute_utility(g, model, np.array(uf.labels())) == before

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
        s = build_superedges_lossy(g, model, np.arange(g.n))
        assert s.kinds is None
        assert s.superedges == set(g.edges())

    def test_worked_example_superedge_decisions(self, worked_example):
        model = build_weight_model(worked_example, uniform_centrality(worked_example))
        uf = UnionFind(11)
        for a, b in [(1, 2), (1, 7), (4, 5), (4, 6), (4, 8)]:
            uf.union(a, b)
        s = build_superedges_lossy(worked_example, model, np.array(uf.labels()))
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
        s = build_superedges_lossy(g, model, np.array(uf.labels()))
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

    @pytest.mark.parametrize("weights", [[1.0, 0.5], [1.0, 2.0, 2.0, 1.5]])
    def test_candidate_weights_must_ascend(self, weights):
        with pytest.raises(ValueError, match="ascending"):
            MergePairList([(0, i + 1) for i in range(len(weights))], weights)

    def test_candidate_weights_must_match_pairs(self):
        with pytest.raises(ValueError, match="2 merge pairs but 1 weights"):
            MergePairList([(0, 1), (1, 2)], [0.5])
        with pytest.raises(ValueError, match="1 merge pairs but 2 weights"):
            MergePairList([(0, 1)], [0.5, 0.5])

    def test_candidate_nodes_must_not_be_negative(self):
        # a negative id would index from the end of every per-node list
        with pytest.raises(ValueError, match="nodes 0 and up"):
            MergePairList([(0, 2), (-1, 2)], [1.0, 1.0])

    @pytest.mark.parametrize("pairs", [[(0.5, 2)], [(0, 1, 2)], [()]], ids=str)
    def test_candidate_pairs_must_be_integer_pairs(self, pairs):
        # a cast to int64 would merge node 0 where the list says 0.5
        with pytest.raises(ValueError, match="pairs of integer node ids"):
            MergePairList(pairs, [1.0])

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
        final_h = merge_prefix(g, forest, len(forest))
        uf_l = UnionFind(g.n)
        for u, v in full.pairs:
            uf_l.union(u, v)
        assert relabel_by_first_appearance(final_h).tolist() == uf_l.labels()

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
    @pytest.mark.parametrize("family", ["er", "ba", "spread", "twin"])
    def test_forest_is_kruskal_over_full_list(self, family, centrality):
        # uniform and degree scores tie everywhere: the forest must still be
        # the one minimum forest under (weight, min id, max id); twin graphs
        # add blocks of twins, two components and two isolated nodes
        for seed in range(30):
            g = twin_or_small_graph(family, seed)
            c = centrality(g)
            forest = two_hop_mst(g, c)
            pairs, weights = kruskal_over_full_list(g, c)
            assert forest.pairs == pairs, seed
            assert np.array(forest.weights).tobytes() == np.array(weights).tobytes(), seed

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


def disjoint_union(*graphs):
    """The graphs side by side, node ids shifted past the ones before."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return from_edges(offset, edges)


def ruler_path_scores(pairs):
    """Scores on path_graph(4 * pairs) that make each Boruvka round of
    two_hop_mst join the components of each 2-hop chain in pairs. Path node
    i is node i // 2 of a chain of 2 * pairs nodes, the even or the odd
    path nodes: E_q at chain node 2q rises, O_q at 2q + 1 falls, so round 1
    joins each chain node 2q to 2q + 1; the pairs between those pairs weigh
    O_q + E_(q+1), a constant plus the trailing zeros of q + 1, the ruler
    order, which keeps joining pairs round after round."""
    k = pairs.bit_length() + 1  # each rise of E outweighs any ruler step
    chain = []
    for q in range(pairs):
        rise = q * k + (q & -q).bit_length() - 1 if q else 0  # plus q's trailing zeros
        chain += [rise, (pairs + 1 - q) * k]
    return np.repeat(np.array(chain, dtype=np.float64), 2)


@functools.cache
def forest_graph(name):
    family, _, seed = name.partition("-")
    if family == "ba":
        return ba_graph(3000, 8, int(seed))
    if family == "twin":
        return twin_rich_graph(int(seed))
    if family == "path":
        return path_graph(2000)
    # several components of unlike shapes, then every even id isolated
    parts = (ba_graph(400, 3, 1), er_graph(150, 0.04, 2), star_graph(30), path_graph(40))
    return spread_graph(disjoint_union(*parts))


def assert_forest_is_kruskal_loop(g, c):
    forest = two_hop_mst(g, c)
    loop = kruskal_star_forest(g, c)
    assert forest.pairs == loop.pairs
    assert np.array(forest.weights).tobytes() == np.array(loop.weights).tobytes()


class TestForestMatchesKruskalLoop:
    """two_hop_mst against Kruskal's loop over the same star pairs, on
    graphs too large for full_candidate_list."""

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize(
        "name", ["ba-0", "ba-1", "ba-2", *(f"twin-{s}" for s in range(6)), "components", "path"]
    )
    def test_matches(self, name, centrality):
        g = forest_graph(name)
        assert_forest_is_kruskal_loop(g, centrality(g))

    def test_path_with_rising_scores(self):
        # every chain node's least pair is the one to its left: one round
        g = path_graph(2000)
        assert_forest_is_kruskal_loop(g, NodeCentrality(np.arange(2000.0), "custom"))

    def test_ruler_path_takes_a_round_per_halving(self, monkeypatch):
        # two chains of 1024 nodes: each round halves their component count
        scores = ruler_path_scores(512)
        g = path_graph(len(scores))
        rounds = []
        merge = lossy.component_labels
        monkeypatch.setattr(lossy, "component_labels", lambda *a: rounds.append(a) or merge(*a))
        assert_forest_is_kruskal_loop(g, NodeCentrality(scores, "custom"))
        assert len(rounds) == 10


def root_labels(uf):
    """Each node's union-find root as its set id, so the ids (and the
    superpair keys lo*n + hi) stay as large as the node ids."""
    return np.array([uf.find(u) for u in range(len(uf))])


def assert_matches_loop(g, model, labels):
    """The array pass equals the per-edge loop oracle exactly."""
    utility = compute_utility(g, model, labels)
    s = build_superedges_lossy(g, model, labels)
    assert utility == loop_utility(g, model, labels)  # exact, not approx
    membership, superedges = loop_lossy_superedges(g, model, labels)
    assert s.membership.tolist() == membership
    assert s.superedges == superedges


class TestArrayPassMatchesLoop:
    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("family", ["er", "ba"])
    def test_every_forest_prefix(self, family, centrality):
        # uniform and degree scores tie everywhere, so many pairs share weights
        for seed in range(60):
            g = small_graph(family, seed)
            if g.m == 0 or g.m == g.n * (g.n - 1) // 2:
                continue
            model = build_weight_model(g, centrality(g))
            forest = two_hop_mst(g, model.node_centrality)
            for t in range(len(forest) + 1):
                assert_matches_loop(g, model, merge_prefix(g, forest, t))

    @pytest.mark.parametrize("compress", [False, True], ids=["deep", "compressed"])
    def test_unions_in_random_order(self, compress):
        # the labels are union-find roots, not dense ids: any partition
        # labelling goes through compute_utility and build_superedges_lossy
        for seed in range(10):
            rng = random.Random(seed)
            g = er_graph(50, 0.12, seed)
            model = build_weight_model(g, pagerank(g))
            uf = UnionFind(g.n)
            for _ in range(rng.randint(5, 60)):
                uf.union(rng.randrange(g.n), rng.randrange(g.n))
                if compress:
                    uf.find(rng.randrange(g.n))
            assert_matches_loop(g, model, root_labels(uf))

    def test_isolated_nodes(self):
        g = from_edges(14, [(1, 3), (3, 5), (5, 1), (7, 9), (9, 11), (3, 9)])
        model = build_weight_model(g, uniform_centrality(g))
        for pairs in ([], [(0, 2)], [(0, 1), (4, 3)], [(1, 7), (13, 5), (2, 11), (6, 8)]):
            uf = UnionFind(g.n)
            for a, b in pairs:
                uf.union(a, b)
            assert_matches_loop(g, model, root_labels(uf))

    def test_pair_keys_beyond_int32(self):
        # lo*n + hi exceeds 2**31 once both supernodes sit above node 46341
        n = 50_000
        rng = random.Random(4)
        edges = [(rng.randrange(46_000, n), rng.randrange(46_000, n)) for _ in range(3000)]
        g = from_edges(n, edges)
        model = build_weight_model(g, degree_centrality(g))
        uf = UnionFind(n)
        for _ in range(1500):
            uf.union(rng.randrange(46_000, n), rng.randrange(46_000, n))
        assert_matches_loop(g, model, root_labels(uf))


class TestNumberKeys:
    """The probe's key numbering against numpy at the edge of the packed
    sort: the largest key's bit length plus that of the largest position
    (3 for 5 keys) is 63 (packed) or 64 (argsort). graph.number_keys packs
    each key's index; graph.group_keys, as a probe calls it, packs given
    ascending positions, the kept edges' places in the canonical order."""

    @pytest.mark.parametrize(
        "keys, packed",
        [
            ([2**60 - 1, 7, 2**59, 7, 0], True),
            ([2**60, 7, 2**59, 7, 0], False),
            ([2**63 - 1, 2**63 - 1, 0, 5, 5], False),
            ([9, 4, 9], True),
            ([3], True),
            ([], True),
        ],
    )
    def test_matches_unique(self, monkeypatch, keys, packed):
        keys = np.array(keys, dtype=np.int64)
        expected_keys, expected_ids = np.unique(keys, return_inverse=True)
        argsort, argsorted = np.argsort, []
        monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorted.append(1) or argsort(*a, **k))
        work = keys.copy()
        ids, distinct, _ = number_keys(work)
        assert ids.tolist() == expected_ids.tolist()
        assert distinct.tolist() == expected_keys.tolist()
        assert np.array_equal(work, keys)  # neither path writes the keys
        assert not argsorted if packed else argsorted

    def test_random_keys_with_repeats(self):
        rng = np.random.default_rng(5)
        for top in (10, 2**31, 2**52):
            keys = rng.integers(0, top, size=3000)
            keys[::3] = keys[1::3]
            expected_keys, expected_ids = np.unique(keys, return_inverse=True)
            ids, distinct, _ = number_keys(keys.copy())
            assert np.array_equal(ids, expected_ids)
            assert np.array_equal(distinct, expected_keys)


    @pytest.mark.parametrize(
        "keys, positions, packed",
        [
            ([9, 4, 9, 4], [3, 17, 2**20, 2**20 + 1], True),
            ([2**42 - 1, 5, 2**42 - 1], [3, 17, 2**20], True),  # 42 + 21 bits
            ([2**42, 5, 2**42], [3, 17, 2**20], False),  # 43 + 21 bits
            ([5, 2**61 - 1, 5], [0, 1, 2], True),  # 61 + 2 bits
            ([5, 2**61, 5], [0, 1, 2], False),  # 62 + 2 bits
            ([7], [2**40], True),
            ([], [], True),
        ],
    )
    def test_packs_given_positions(self, monkeypatch, keys, positions, packed):
        keys = np.array(keys, dtype=np.int64)
        positions = np.array(positions, dtype=np.int64)
        kept_keys, kept_positions = keys.copy(), positions.copy()
        stable = np.argsort(keys, kind="stable")
        values, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        argsort, argsorted = np.argsort, []
        monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorted.append(1) or argsort(*a, **k))
        order, ordered = stable_order(keys, positions)
        grouped, ids, distinct, runs = group_keys(keys, positions)
        monkeypatch.undo()
        assert order.tolist() == positions[stable].tolist()
        assert ordered.tolist() == keys[stable].tolist()
        assert grouped.tolist() == positions[stable].tolist()
        assert ids.tolist() == inverse[stable].tolist()
        assert distinct.tolist() == values.tolist()
        assert grouped[runs].tolist() == positions[first].tolist()
        assert np.array_equal(keys, kept_keys)  # neither path writes the keys
        assert np.array_equal(positions, kept_positions)
        assert not argsorted if packed else argsorted

    @pytest.mark.parametrize("top", [10, 2**31, 2**52])
    def test_random_keys_at_sparse_positions(self, top):
        rng = np.random.default_rng(top)
        positions = np.sort(rng.choice(20_000, size=3000, replace=False))
        keys = rng.integers(0, top, size=3000)
        keys[::3] = keys[1::3]
        stable = np.argsort(keys, kind="stable")
        values, inverse = np.unique(keys, return_inverse=True)
        order, ids, distinct, runs = group_keys(keys, positions)
        assert np.array_equal(order, positions[stable])
        assert np.array_equal(ids, inverse[stable])
        assert np.array_equal(distinct, values)
        assert np.array_equal(np.diff(runs, append=len(keys)), np.bincount(inverse))


# the pruned probe at scale: each pair's weights are summed over its kept
# edges in canonical order, so the utility equals the loop's bit for bit
PRUNED_PROBE_GRAPHS = {
    **{f"ba3000-{seed}": functools.partial(ba_graph, 3000, 8, seed) for seed in range(3)},
    **{f"twin{seed}": functools.partial(twin_rich_graph, seed) for seed in range(6)},
}


@functools.cache
def pruned_probe_case(name, centrality):
    g = PRUNED_PROBE_GRAPHS[name]()
    model = build_weight_model(g, centrality(g))
    return g, model, two_hop_mst(g, model.node_centrality)


def probe_prefixes(length):
    """The prefixes 0, 1, L/50, L/2, L-1 and L of a forest of length L."""
    return sorted({0, min(1, length), length // 50, length // 2, max(length - 1, 0), length})


class TestPrunedProbeMatchesLoop:
    """compute_utility groups only the edges with an end in a set of two or
    more nodes; the per-edge loop oracle groups them all."""

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("name", PRUNED_PROBE_GRAPHS)
    def test_probe_prefixes(self, name, centrality):
        g, model, forest = pruned_probe_case(name, centrality)
        for t in probe_prefixes(len(forest)):
            labels = merge_prefix(g, forest, t)
            assert compute_utility(g, model, labels) == loop_utility(g, model, labels), t

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("name", ["ba3000-0", "twin0", "twin3"])
    def test_singletons_labelled_by_other_nodes(self, name, centrality):
        # relabelled by a permutation of the ids, a singleton's label names
        # another node and a set's label need not name a member: only the
        # set sizes say which edges touch a merged set
        g, model, forest = pruned_probe_case(name, centrality)
        perm = np.random.default_rng(len(forest)).permutation(g.n)
        for t in probe_prefixes(len(forest)):
            labels = merge_prefix(g, forest, t)
            permuted = perm[labels]
            utility = compute_utility(g, model, permuted)
            assert utility == loop_utility(g, model, permuted), t
            assert utility == compute_utility(g, model, labels), t

    def test_swapped_singleton_and_set_labels(self):
        # nodes 0 and 1 are singletons labelled by each other; the set
        # {2, 3, 4} is labelled 5, and node 5 is a singleton labelled 2, so
        # a set size read by node id in place of label drops the edge (2, 3)
        g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5), (5, 6), (6, 7), (0, 7)])
        model = build_weight_model(g, degree_centrality(g))
        labels = np.array([1, 0, 5, 5, 5, 2, 6, 7])
        assert compute_utility(g, model, labels) == loop_utility(g, model, labels)
        assert compute_utility(g, model, labels) < 1.0


def assert_probes_match_replay(g, model, candidates):
    """At every prefix 0..len, the probe of summarize_lossy (merge_prefix,
    the components of the prefix's pairs) gives the replayed partition
    (each node labelled by its smallest set-mate), and compute_utility
    gives exactly the loop oracle's utility of it."""
    replayed = replayed_prefix_labels(g.n, candidates.pairs)
    for t, expected in enumerate(replayed):
        partition = merge_prefix(g, candidates, t)
        assert partition.tolist() == expected, t
        utility = compute_utility(g, model, partition)
        assert utility == loop_utility(g, model, partition), t  # exact, not approx
    assert t == len(candidates)


class TestPrefixLabelProbes:
    """The probe labels of merge_prefix: the connected components of each
    prefix, against the partitions replayed one merge at a time."""

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("family", ["er", "ba", "twin"])
    def test_every_forest_prefix(self, family, centrality):
        for seed in range(25):
            g = twin_or_small_graph(family, seed)
            if g.m == 0 or g.m == g.n * (g.n - 1) // 2:
                continue
            model = build_weight_model(g, centrality(g))
            assert_probes_match_replay(g, model, two_hop_mst(g, model.node_centrality))

    @pytest.mark.parametrize("centrality", [uniform_centrality, degree_centrality, pagerank])
    @pytest.mark.parametrize("family", ["er", "ba", "twin"])
    def test_full_candidate_list_with_redundant_pairs(self, family, centrality):
        for seed in range(6):
            g = twin_or_small_graph(family, seed)
            if g.m == 0 or g.m == g.n * (g.n - 1) // 2:
                continue
            model = build_weight_model(g, centrality(g))
            full = full_candidate_list(g, model.node_centrality)
            assert_probes_match_replay(g, model, full)

    def test_hand_made_list_with_redundant_pairs(self):
        g = er_graph(30, 0.15, 4)
        model = build_weight_model(g, pagerank(g))
        forest = two_hop_mst(g, model.node_centrality)
        pairs, weights = [], []
        for (u, v), w in zip(forest.pairs, forest.weights):
            pairs += [(u, v), (v, u), (u, v)]  # a pair, reversed, then again
            weights += [w, w, w]
        pairs.insert(5, pairs[0])  # a repeat well after the first merge
        weights.insert(5, weights[5])
        pairs.insert(2, (pairs[2][1], pairs[2][1]))  # a node paired with itself
        weights.insert(2, weights[2])
        assert_probes_match_replay(g, model, MergePairList(pairs, weights))

    def test_deep_chain_list(self):
        # the pairs (0, 1), (1, 2), ... in order join a caterpillar: every
        # merge grows the set of the one before, so node 0 is 30 merges deep
        g = er_graph(40, 0.15, 5)
        model = build_weight_model(g, degree_centrality(g))
        chain = MergePairList([(u, u + 1) for u in range(30)], [1.0] * 30)
        assert_probes_match_replay(g, model, chain)
        assert_matches_loop(g, model, merge_prefix(g, chain, 30))

    def test_random_lists_with_redundant_pairs(self):
        # random pairs join sets in random order; many close a cycle or
        # repeat a pair, and join nothing
        for seed in range(10):
            rng = random.Random(seed)
            g = er_graph(50, 0.12, seed)
            model = build_weight_model(g, pagerank(g))
            size = rng.randint(5, 60)
            pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(size)]
            candidates = MergePairList(pairs, sorted(rng.random() for _ in range(size)))
            assert_probes_match_replay(g, model, candidates)
            assert_matches_loop(g, model, merge_prefix(g, candidates, size))

    def test_nodes_beyond_the_list_stay_singletons(self):
        # the largest listed node is 7; nodes 8 and 9 are in no pair
        g = from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 7), (7, 8), (8, 9)])
        pinned = MergePairList([(0, 2), (1, 3), (2, 7)], [1.0, 1.0, 2.0])
        assert merge_prefix(g, pinned, 3).tolist() == [0, 1, 0, 1, 4, 5, 6, 0, 8, 9]
        assert_probes_match_replay(g, build_weight_model(g, degree_centrality(g)), pinned)
        with pytest.raises(ValueError, match="candidate node 7 out of range 0..6"):
            merge_prefix(path_graph(7), pinned, 0)

    def test_empty_list(self):
        g = path_graph(3)
        empty = MergePairList([], [])
        assert merge_prefix(g, empty, 0).tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="prefix length 1 out of range 0..0"):
            merge_prefix(g, empty, 1)
        model = build_weight_model(g, uniform_centrality(g))
        res = summarize_lossy(g, model, 0.5, candidates=empty)
        assert (res.prefix_length, res.utility) == (0, 1.0)

    def test_one_ends_array_serves_every_search(self):
        g = er_graph(80, 0.15, 8)
        model = build_weight_model(g, pagerank(g))
        forest = two_hop_mst(g, model.node_centrality)
        ends = forest.ends
        assert not ends.flags.writeable
        assert ends.tolist() == [[u for u, _ in forest.pairs], [v for _, v in forest.pairs]]
        for tau in (0.9, 0.6, 0.75):
            shared = summarize_lossy(g, model, tau, candidates=forest)
            copy = MergePairList(forest.pairs, forest.weights)
            fresh = summarize_lossy(g, model, tau, candidates=copy)
            assert (shared.prefix_length, shared.utility) == (fresh.prefix_length, fresh.utility)
            assert shared.summary.membership.tolist() == fresh.summary.membership.tolist()
            assert shared.summary.superedges == fresh.summary.superedges
            assert forest.ends is ends

    def test_probes_go_through_the_public_functions(self, monkeypatch):
        g = er_graph(80, 0.15, 8)
        model = build_weight_model(g, pagerank(g))
        forest = two_hop_mst(g, model.node_centrality)
        calls = []

        def recorded(name):
            real = getattr(lossy, name)

            def call(*args):
                result = real(*args)
                calls.append((name, args, result))
                return result

            return call

        for name in ("merge_prefix", "compute_utility", "build_superedges_lossy"):
            monkeypatch.setattr(lossy, name, recorded(name))
        res = summarize_lossy(g, model, 0.8, candidates=forest)
        *probes, (last, (_, _, final), summary) = calls
        assert last == "build_superedges_lossy"
        names = [name for name, _, _ in probes]
        assert names == ["merge_prefix", "compute_utility"] * (len(probes) // 2)
        reads, sums = probes[::2], probes[1::2]
        prefixes = [args[2] for _, args, _ in reads]
        assert len(set(prefixes)) == len(prefixes)  # no prefix probed twice
        assert 1 < len(prefixes) <= math.floor(math.log2(len(forest) + 1)) + 1
        for (_, _, labels), (_, (_, _, probed), _) in zip(reads, sums):
            assert probed is labels  # each utility is of the partition just read
        passing = [i for i, (_, _, utility) in enumerate(sums) if utility >= 0.8]
        best = max(passing, key=prefixes.__getitem__)
        assert res.prefix_length == prefixes[best] == 15
        assert res.utility == sums[best][2]
        assert final is reads[best][2]  # the summary is built from that probe's labels
        assert res.summary is summary
