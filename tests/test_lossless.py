from __future__ import annotations

import itertools
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsum import (
    CapExceededError,
    from_edges,
    reconstruct,
    summarize,
    verify_lossless,
)
from graphsum import lossless
from graphsum.lossless import (
    build_superedges_lossless,
    candidate_supernodes,
    filter_supernodes,
)
from graphsum.summary import KIND_CLIQUE, KIND_INDEPENDENT_SET, KIND_SINGLETON

from conftest import random_graphs
from generators import (
    ba_graph,
    complete_graph,
    er_graph,
    path_graph,
    spread_graph,
    star_graph,
    twin_rich_graph,
)
from oracles import (
    loop_candidate_buckets,
    loop_lossless_superedges,
    neighborhood_class_partition,
    partition_key,
    pivot_loop_groups,
    summarize_naive,
)

MIXERS = {
    "real": lossless._mix64_array,
    "mod7": lambda x: x % np.uint64(7),
    "zero": np.zeros_like,
}

FILTER_GRAPHS = [twin_rich_graph(seed) for seed in range(6)] + [
    er_graph(120, 0.05, 3),
    ba_graph(150, 2, 4),
    from_edges(40, list(er_graph(30, 0.1, 5).edges())),  # 10 isolated nodes
]


def groups_of(summary):
    return partition_key(summary.supernodes)


def record_rounds(monkeypatch) -> list:
    """Patch lossless._rows_differ to log one entry per filtering round."""
    rounds = []
    rows_differ = lossless._rows_differ
    monkeypatch.setattr(
        lossless, "_rows_differ", lambda *args: rounds.append(args) or rows_differ(*args)
    )
    return rounds


class TestNaive:
    def test_k4_single_clique(self):
        s = summarize_naive(complete_graph(4))
        assert s.num_supernodes == 1
        assert s.kinds == [KIND_CLIQUE]
        assert s.superedges == {(0, 0)}

    def test_star_center_plus_leaf_class(self):
        s = summarize_naive(star_graph(4))
        assert s.num_supernodes == 2
        assert sorted(s.kinds) == [KIND_INDEPENDENT_SET, KIND_SINGLETON]
        leaves = next(grp for grp in s.supernodes if len(grp) == 4)
        assert leaves == [1, 2, 3, 4]

    def test_er_matches_class_partition_oracle(self):
        g = er_graph(100, 0.3, 5)
        s = summarize_naive(g)
        oracle = neighborhood_class_partition(g)
        assert s.num_supernodes == len(oracle) == 100
        assert groups_of(s) == partition_key(oracle)

    @pytest.mark.parametrize("n,m,seed", [(40, 1, 0), (60, 2, 1), (80, 3, 2)])
    def test_ba_matches_class_partition_oracle(self, n, m, seed):
        g = ba_graph(n, m, seed)
        s = summarize_naive(g)
        assert groups_of(s) == partition_key(neighborhood_class_partition(g))


class TestCandidates:
    def test_star_leaves_share_is_bucket(self):
        g = star_graph(4)
        _, map_is = candidate_supernodes(g)
        bucket = next(b for b in map_is.values() if 1 in b)
        assert set(bucket) >= {1, 2, 3, 4}

    def test_k4_nodes_share_clique_bucket(self):
        map_clique, _ = candidate_supernodes(complete_graph(4))
        bucket = next(b for b in map_clique.values() if 0 in b)
        assert set(bucket) == {0, 1, 2, 3}

    def test_no_false_negatives_against_naive(self):
        g = er_graph(200, 0.1, 2)
        map_clique, map_is = candidate_supernodes(g)
        clique_bucket = {}
        is_bucket = {}
        for h, nodes in map_clique.items():
            for v in nodes:
                clique_bucket[v] = h
        for h, nodes in map_is.items():
            for v in nodes:
                is_bucket[v] = h
        s = summarize_naive(g)
        for sid, grp in enumerate(s.supernodes):
            if len(grp) < 2:
                continue
            table = clique_bucket if s.kinds[sid] == KIND_CLIQUE else is_bucket
            assert len({table[v] for v in grp}) == 1

    @pytest.mark.parametrize("seed", [42, 0, 2**64 - 1])
    @pytest.mark.parametrize("index", range(len(FILTER_GRAPHS) + 1))
    def test_buckets_match_loop_oracle(self, index, seed):
        g = (FILTER_GRAPHS + [spread_graph(complete_graph(4))])[index]
        ours = candidate_supernodes(g, seed=seed)
        oracle = loop_candidate_buckets(g, seed)
        for got, expected in zip(ours, oracle):
            assert list(got.items()) == list(expected.items())
            keys = [np.array(list(buckets), dtype=np.uint64) for buckets in (got, expected)]
            assert keys[0].tobytes() == keys[1].tobytes()

    def test_seed_changes_buckets_not_partition(self):
        g = er_graph(120, 0.08, 4)
        assert groups_of(summarize(g, seed=1)) == groups_of(summarize(g, seed=999))

    def test_degenerate_hash_still_filters_exactly(self, monkeypatch):
        # a constant hash throws every node into one bucket: maximal false
        # positives, yet filtering must recover the exact classes
        monkeypatch.setattr(lossless, "_mix64_array", MIXERS["zero"])
        g = er_graph(80, 0.1, 10)
        map_clique, map_is = candidate_supernodes(g)
        assert len(map_clique) == 1 and len(map_is) == 1
        clique_groups = filter_supernodes(g, map_clique, KIND_CLIQUE)
        is_groups = filter_supernodes(g, map_is, KIND_INDEPENDENT_SET)
        reference = summarize_naive(g)
        multi = {
            frozenset(grp) for grp in reference.supernodes if len(grp) >= 2
        }
        assert {frozenset(grp) for grp in clique_groups + is_groups} == multi


class TestWeakHash:
    """A mixer that collides on purpose: buckets then hold false positives,
    which the gathered row check must flag and split off."""

    @pytest.mark.parametrize("g", FILTER_GRAPHS)
    def test_colliding_mixer_still_matches_naive(self, monkeypatch, g):
        monkeypatch.setattr(lossless, "_mix64_array", MIXERS["mod7"])
        s, naive = summarize(g), summarize_naive(g)
        assert s.membership.tolist() == naive.membership.tolist()
        assert s.superedges == naive.superedges
        labels = naive.membership
        buckets = itertools.chain(*(m.values() for m in candidate_supernodes(g)))
        assert any(len(set(labels[b])) >= 2 for b in buckets), "no bucket held a false positive"

    @pytest.mark.parametrize("seed", range(6))
    def test_clean_buckets_group_without_pivot_loop(self, monkeypatch, seed):
        # the real mixer leaves no false positive here: every bucket is one
        # exact class, and one round of the gathered check forms every group
        g = twin_rich_graph(seed)
        map_clique, map_is = candidate_supernodes(g)
        for bucket in map_clique.values():
            assert len({frozenset(g.neighbors_list(v)) | {v} for v in bucket}) == 1
        for bucket in map_is.values():
            assert len({frozenset(g.neighbors_list(v)) for v in bucket}) == 1
        rounds = record_rounds(monkeypatch)
        s, naive = summarize(g), summarize_naive(g)
        assert s.membership.tolist() == naive.membership.tolist()
        assert s.superedges == naive.superedges
        assert len(rounds) == 2  # one per filter_supernodes call


class TestFilterMatchesPivotLoop:
    """filter_supernodes against the per-bucket pivot loop, order included,
    under mixers that collide never, often and always."""

    @pytest.mark.parametrize("mixer", sorted(MIXERS))
    @pytest.mark.parametrize("g", FILTER_GRAPHS)
    def test_same_groups_in_same_order(self, monkeypatch, g, mixer):
        monkeypatch.setattr(lossless, "_mix64_array", MIXERS[mixer])
        map_clique, map_is = candidate_supernodes(g)
        clique_groups = filter_supernodes(g, map_clique, KIND_CLIQUE)
        assert clique_groups == pivot_loop_groups(g, map_clique, closed=True)
        is_groups = filter_supernodes(g, map_is, KIND_INDEPENDENT_SET)
        assert is_groups == pivot_loop_groups(g, map_is, closed=False)

    def test_claimed_nodes_never_change_the_independent_set_groups(self):
        # no node has both a true twin v (N[v] = N[u]) and a false twin w
        # (N(w) = N(u)): v in N(u) = N(w) puts w in N[v] = N[u], yet w and u
        # are not adjacent. So leaving out the clique groups' nodes, as the
        # oracle's skip does, never changes the independent-set groups.
        battery = [twin_rich_graph(seed) for seed in range(6)]
        densities = (0.05, 0.3, 0.6, 0.9)
        battery += [er_graph(12 + seed % 20, densities[seed % 4], seed) for seed in range(300)]
        both = 0
        for g in battery:
            map_clique, map_is = candidate_supernodes(g)
            claimed = {v for grp in pivot_loop_groups(g, map_clique, closed=True) for v in grp}
            is_groups = pivot_loop_groups(g, map_is, closed=False)
            assert pivot_loop_groups(g, map_is, closed=False, skip=claimed) == is_groups
            both += bool(claimed) and bool(is_groups)
        assert both >= 20, "too few graphs with both kinds of groups"

    def test_bucket_of_three_classes_splits_in_rounds(self, monkeypatch):
        # leaves 3,4 | 5,6 | 7,8 share hub 0 | 1 | 2; the hubs stand alone
        g = from_edges(9, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)])
        bucket = {9: [8, 3, 0, 6, 1, 4, 7, 2, 5]}
        rounds = record_rounds(monkeypatch)
        out = filter_supernodes(g, bucket, KIND_INDEPENDENT_SET)
        assert out == pivot_loop_groups(g, bucket, closed=False) == [[3, 4], [5, 6], [7, 8]]
        assert len(rounds) >= 3


class TestFilter:
    def test_false_positive_filtered(self):
        g = path_graph(4)  # N(0)={1}, N(3)={2}: distinct IS classes
        fake_bucket = {123: [0, 3]}
        assert filter_supernodes(g, fake_bucket, KIND_INDEPENDENT_SET) == []

    def test_k4_bucket_kept_whole(self):
        g = complete_graph(4)
        out = filter_supernodes(g, {7: [0, 1, 2, 3]}, KIND_CLIQUE)
        assert out == [[0, 1, 2, 3]]

    def test_adversarial_bucket_pivot_order_invariant(self):
        # two distinct IS classes forced into one bucket, listed in every order
        g = from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)])
        mixed = [1, 2, 3, 5, 6]
        expected = {frozenset({1, 2, 3}), frozenset({5, 6})}
        for order in itertools.permutations(mixed):
            out = filter_supernodes(g, {1: list(order)}, KIND_INDEPENDENT_SET)
            assert {frozenset(grp) for grp in out} == expected


class TestScalable:
    def test_all_distinct_neighborhoods_all_singletons(self):
        g = path_graph(5)
        s = summarize(g)
        assert s.num_supernodes == 5
        assert set(s.kinds) == {KIND_SINGLETON}
        assert s.superedges == set(g.edges())

    def test_k4_and_star(self):
        assert summarize(complete_graph(4)).num_supernodes == 1
        s = summarize(star_graph(4))
        assert s.num_supernodes == 2
        assert s.superedges == {(0, 1)}

    def test_er_partition_equals_naive(self):
        g = er_graph(500, 0.05, 9)
        assert groups_of(summarize(g)) == groups_of(summarize_naive(g))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=40))
    def test_optimality_and_losslessness(self, g):
        s = summarize(g)
        assert s.num_supernodes == summarize_naive(g).num_supernodes
        assert reconstruct(s) == g

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(min_n=2, max_n=40))
    def test_kind_tags_are_stable_and_degrees_match(self, g):
        s = summarize(g)
        again = summarize(g, seed=7)
        for sid, grp in enumerate(s.supernodes):
            if len(grp) < 2:
                continue
            # same degree inside every supernode
            assert len({g.degree(u) for u in grp}) == 1
            # mutual exclusion across runs: the co-grouped kind never flips
            other_sid = again.supernode_of(grp[0])
            assert again.kinds[other_sid] == s.kinds[sid]

    @pytest.mark.parametrize(
        "g",
        [twin_rich_graph(seed) for seed in range(6)]
        + [er_graph(60, 0.05, 1), er_graph(12, 0.85, 2)],
    )
    def test_derived_kinds_match_filter(self, g):
        map_clique, map_is = candidate_supernodes(g)
        clique_groups = filter_supernodes(g, map_clique, KIND_CLIQUE)
        is_groups = filter_supernodes(g, map_is, KIND_INDEPENDENT_SET)
        s, naive = summarize(g), summarize_naive(g)
        tagged = [(grp, KIND_CLIQUE) for grp in clique_groups]
        tagged += [(grp, KIND_INDEPENDENT_SET) for grp in is_groups]
        for grp, kind in tagged:
            sid = s.supernode_of(grp[0])
            assert s.members(sid) == grp
            assert s.kinds[sid] == kind
        singletons = g.n - sum(len(grp) for grp in clique_groups + is_groups)
        assert s.kinds.count(KIND_SINGLETON) == singletons
        assert naive.kinds == s.kinds
        assert naive.membership.tolist() == s.membership.tolist()

    def test_kind_selfloop_consistency(self):
        g = er_graph(150, 0.06, 13)
        s = summarize(g)
        for sid, kind in enumerate(s.kinds):
            if kind == KIND_CLIQUE:
                assert s.size(sid) >= 2
                assert (sid, sid) in s.superedges
            else:
                assert (sid, sid) not in s.superedges


class TestSuperedges:
    def test_cross_edge_iff_original_edge_crosses(self):
        g = star_graph(4)
        s = summarize(g)
        labels = s.membership.tolist()
        rebuilt = build_superedges_lossless(g, labels)
        assert rebuilt == s.superedges

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=35), st.integers(1, 40), st.integers(0, 9999))
    def test_array_superedges_match_loop(self, g, span, seed):
        # any labels, dense or not, including labels above n
        labels = random.Random(seed).choices(range(span), k=g.n)
        assert build_superedges_lossless(g, labels) == loop_lossless_superedges(g, labels)

    def test_reconstruction_bipartite_expansion(self):
        # two 3-node supernodes joined by one superedge yield K_{3,3}
        g = from_edges(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
        s = summarize(g)
        assert s.num_supernodes == 2
        assert reconstruct(s) == g

    def test_reconstruction_selfloop_expansion(self):
        # a self superedge on a 3-node supernode yields a triangle
        g = complete_graph(3)
        s = summarize(g)
        assert s.num_supernodes == 1
        assert s.superedges == {(0, 0)}
        assert reconstruct(s) == g

    def test_reconstruction_cap(self):
        s = summarize(complete_graph(30))
        with pytest.raises(CapExceededError):
            reconstruct(s, max_edges=10)
        # the cap admits exactly the implied edge count, in verify_lossless too
        g = twin_rich_graph(0)
        s = summarize(g)
        implied = s.implied_edge_count()
        for check in (reconstruct, partial(verify_lossless, g)):
            with pytest.raises(CapExceededError):
                check(s, max_edges=implied - 1)
        assert reconstruct(s, max_edges=implied) == g
        assert verify_lossless(g, s, max_edges=implied).lossless

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=35))
    def test_round_trip_verifies_lossless(self, g):
        report = verify_lossless(g, summarize(g))
        assert report.lossless
