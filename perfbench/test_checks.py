"""Tests of the benchmark's checks and generators.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Every check must accept the program's right answer and reject a
deliberately wrong one.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import graphsum as gs  # noqa: E402
from graphsum.cli import main as cli_main  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
from check import CheckFailure  # noqa: E402

# Two triangles sharing node 2, a pendant path, and the open twins 6 and 7;
# ids written out of order so that loading has to compact them.
SMALL_EDGES = "10 11\n11 12\n10 12\n12 13\n13 14\n12 14\n14 15\n16 13\n16 14\n17 13\n17 14\n"

# Degree centrality on this 5-node graph ties everywhere. The Prim forest
# of two_hop_mst starts (0,3), (0,4), (1,3), (2,3): a minimum forest, but
# its first three pairs group {0,1,3,4}, where the minimum forest under
# (weight, min id, max id) starts (0,3), (0,4), (1,2) and groups {0,3,4}, {1,2}.
TIE_PRIM_PAIRS = [(0, 3), (0, 4), (1, 3), (2, 3)]
TIE_EDGES = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


@pytest.fixture
def small(tmp_path):
    graph = write(tmp_path, "g.txt", SMALL_EDGES)
    summary = tmp_path / "summary"
    assert cli_main(["lossless", "--input", str(graph), "--out", str(summary)]) == 0
    return check.Graph(graph), summary


def rewrite_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs), encoding="ascii")


# -- lossless ------------------------------------------------------------------


def test_lossless_accepts_program_summary(small):
    g, summary = small
    check.check_lossless(g, summary)


def test_lossless_rejects_dropped_superedge(small):
    g, summary = small
    pairs = check.read_pairs(summary / "superedges.txt").tolist()
    rewrite_pairs(summary / "superedges.txt", pairs[1:])
    with pytest.raises(CheckFailure, match="lack a superedge"):
        check.check_lossless(g, summary)


def test_lossless_rejects_merged_supernodes(small):
    g, summary = small
    membership = check.read_membership(summary / "membership.txt", g.n)
    a, b = int(membership[0]), int(membership[-1])
    assert a != b
    merged = np.where(membership == b, a, membership)
    merged = np.where(merged > b, merged - 1, merged)
    rewrite_pairs(summary / "membership.txt", enumerate(merged.tolist()))
    with pytest.raises(CheckFailure):
        check.check_lossless(g, summary)


def test_lossless_rejects_duplicate_membership_line(small):
    g, summary = small
    lines = (summary / "membership.txt").read_text().splitlines()
    lines[1] = lines[0]
    (summary / "membership.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailure, match="exactly once"):
        check.check_lossless(g, summary)


def test_lossless_rejects_unmerged_twins(small, tmp_path):
    g, summary = small
    singletons = tmp_path / "singletons"
    shutil.copytree(summary, singletons)
    rewrite_pairs(singletons / "membership.txt", ((u, u) for u in range(g.n)))
    edges = zip(g.eu.tolist(), g.ev.tolist())
    rewrite_pairs(singletons / "superedges.txt", edges)
    (singletons / "kinds.txt").write_text("".join(f"{u} singleton\n" for u in range(g.n)))
    with pytest.raises(CheckFailure, match="twin classes"):
        check.check_lossless(g, singletons)


def test_lossless_rejects_wrong_kind_tag(small):
    g, summary = small
    kinds = (summary / "kinds.txt").read_text().replace("independent_set", "clique", 1)
    (summary / "kinds.txt").write_text(kinds)
    with pytest.raises(CheckFailure, match="tagged"):
        check.check_lossless(g, summary)


def test_lossless_rejects_other_id_map(small):
    g, summary = small
    ids = check.read_pairs(summary / "node_ids.txt")
    ids[[0, 1], 1] = ids[[1, 0], 1]
    rewrite_pairs(summary / "node_ids.txt", ids.tolist())
    with pytest.raises(CheckFailure, match="compaction"):
        check.check_lossless(g, summary)


# -- queries ---------------------------------------------------------------------


def query(summary: Path, *args: str, tmp_path: Path, name: str) -> str:
    out = tmp_path / name
    assert cli_main(["query", "--summary", str(summary), *args, "--out", str(out)]) == 0
    return next(out.iterdir()).read_text()


def test_triangles(small, tmp_path):
    g, summary = small
    report = query(summary, "triangles", tmp_path=tmp_path, name="tri")
    check.check_triangles(g, report)
    a, b, c, total = map(int, report.split())
    assert total == 4
    with pytest.raises(CheckFailure):
        check.check_triangles(g, f"{a} {b} {c + 1} {total + 1}")


def test_pagerank(small, tmp_path):
    g, summary = small
    report = query(summary, "pagerank", tmp_path=tmp_path, name="pr")
    check.check_pagerank(g, report)
    lines = report.splitlines()
    node, score = lines[3].split()
    lines[3] = f"{node} {float(score) * (1 + 1e-6)!r}"
    with pytest.raises(CheckFailure, match="pagerank differs"):
        check.check_pagerank(g, "\n".join(lines))


def test_distances(small):
    g, summary = small
    s = gs.load_summary(summary)
    queries = [[u, v, int(gs.shortest_path_length(s, u, v))] for u in range(g.n) for v in range(g.n)]
    check.check_distances(g, queries)
    queries[9][2] += 1
    with pytest.raises(CheckFailure, match="BFS gives"):
        check.check_distances(g, queries)


def test_distances_unreachable(tmp_path):
    g = check.Graph(write(tmp_path, "two.txt", "0 1\n2 3\n"))
    check.check_distances(g, [[0, 2, "inf"], [0, 1, 1]])
    with pytest.raises(CheckFailure):
        check.check_distances(g, [[0, 2, 3]])


def test_verify_report():
    check.check_verify("lossless true\n")
    with pytest.raises(CheckFailure):
        check.check_verify("lossless false\nmissing 0 1\n")


# -- lossy ---------------------------------------------------------------------------


def lossy_inputs(path: Path, kind: str):
    loaded = gs.load_edge_list(path)
    g = loaded.graph
    c = gs.degree_centrality(g) if kind == "degree" else gs.pagerank(g)
    ours = check.Graph(path)
    scores = check.centrality(ours, kind)
    assert np.array_equal(scores, c.scores)
    return g, c, gs.build_weight_model(g, c), ours, check.UtilityModel(ours, scores), check.star_forest(ours, scores)


def lossy_check(ours, model, forest, tau, result) -> None:
    superedges = np.array(sorted(result.summary.superedges), dtype=np.int64).reshape(-1, 2)
    check.check_lossy(ours, model, forest, tau, result.summary.membership, superedges, result.utility)


def test_lossy_rejects_tie_order_of_prim_forest(tmp_path):
    g, c, model, ours, our_model, forest = lossy_inputs(write(tmp_path, "tie.txt", TIE_EDGES), "degree")
    assert forest[:3].tolist() == [[0, 3], [0, 4], [1, 2]]
    prim = gs.MergePairList(TIE_PRIM_PAIRS, [5.0, 5.0, 6.0, 6.0])
    tau = gs.compute_utility(g, model, gs.merge_prefix(g, prim, 3))
    result = gs.summarize_lossy(g, model, tau, candidates=prim)
    assert result.prefix_length == 3
    with pytest.raises(CheckFailure) as info:
        lossy_check(ours, our_model, forest, tau, result)
    assert info.value.kind == "forest-order"
    # the same threshold on the full sorted 2-hop pair list passes every check
    full = gs.summarize_lossy(g, model, tau, candidates=gs.full_candidate_list(g, c))
    lossy_check(ours, our_model, forest, tau, full)


def test_lossy_rejects_wrong_utility_and_early_stop(tmp_path):
    path = write(tmp_path, "g.txt", "".join(f"{u} {v}\n" for u, v in gen.gnm_edges(40, 120, 3).tolist()))
    g, c, model, ours, our_model, forest = lossy_inputs(path, "pagerank")
    result = gs.summarize_lossy(g, model, 0.7)
    lossy_check(ours, our_model, forest, 0.7, result)
    superedges = np.array(sorted(result.summary.superedges)).reshape(-1, 2)
    with pytest.raises(CheckFailure, match="reported utility"):
        check.check_lossy(ours, our_model, forest, 0.7, result.summary.membership, superedges[1:], result.utility)
    shorter = gs.summarize_lossy(g, model, 0.7, candidates=gs.MergePairList(
        [tuple(p) for p in forest[: result.prefix_length - 1].tolist()],
        [0.0] * (result.prefix_length - 1),
    ))
    with pytest.raises(CheckFailure, match="keeps utility"):
        lossy_check(ours, our_model, forest, 0.7, shorter)


@pytest.mark.parametrize("kind", ["degree", "pagerank"])
@pytest.mark.parametrize("seed", range(6))
def test_star_forest_is_kruskal_over_all_two_hop_pairs(tmp_path, kind, seed):
    edges = gen.gnm_edges(30, 70, seed) if seed % 2 else gen.ba_edges(30, 2, seed)
    path = write(tmp_path, "g.txt", "".join(f"{u} {v}\n" for u, v in edges.tolist()))
    g, c, _, ours, _, forest = lossy_inputs(path, kind)
    uf = gs.UnionFind(g.n)
    kruskal = [pair for pair in gs.full_candidate_list(g, c).pairs if uf.union(*pair)]
    assert [tuple(p) for p in forest.tolist()] == kruskal


# -- checker job and generators -------------------------------------------------------


def test_job_reports_each_operation(small, tmp_path):
    g, summary = small
    report = query(summary, "triangles", tmp_path=tmp_path, name="tri")
    job = {
        "graph": str(tmp_path / "g.txt"),
        "centrality": "pagerank",
        "tau": 0.8,
        "ops": {"lossless": str(summary), "query_triangles": str(tmp_path / "tri" / "triangles.txt")},
    }
    assert check.run_job(job) == {"lossless": {"ok": True}, "query_triangles": {"ok": True}}
    (tmp_path / "tri" / "triangles.txt").write_text(report.replace(" 3 4\n", " 4 5\n"))
    assert check.run_job(job)["query_triangles"]["kind"] == "wrong"


def test_graph_compaction_matches_program(tmp_path):
    path = write(tmp_path, "g.txt", "# comment\n7 3\n3 9\n9 7\n7 3\n4 4\n12 9\n")
    loaded = gs.load_edge_list(path)
    ours = check.Graph(path)
    assert ours.original_ids.tolist() == loaded.original_ids
    assert list(zip(ours.eu.tolist(), ours.ev.tolist())) == list(loaded.graph.edges())


def test_ba_edges_match_test_generator():
    sys.path.insert(0, str(HERE.parent / "tests"))
    from generators import ba_graph

    edges = gen.ba_edges(200, 4, 9)
    assert list(map(tuple, edges.tolist())) == list(ba_graph(200, 4, 9).edges())


def test_generators_are_seeded():
    for workload in ("hub-lossy", "twin-query", "flat-ties"):
        assert np.array_equal(gen.make_edges(workload, 5), gen.make_edges(workload, 5))
    assert not np.array_equal(gen.make_edges("hub-lossy", 5), gen.make_edges("hub-lossy", 6))
    # flat-ties keeps one graph for every seed: its known failures must not vary
    assert np.array_equal(gen.make_edges("flat-ties", 5), gen.make_edges("flat-ties", 6))


def test_gnm_edges_distinct_and_exact():
    edges = gen.gnm_edges(50, 600, 1)
    assert len(edges) == 600
    assert bool(np.all(edges[:, 0] < edges[:, 1]))
    assert len(np.unique(edges, axis=0)) == 600


def test_twin_blowup_has_twins(tmp_path):
    edges = gen.twin_blowup_edges(40, 60, 6, 2)
    shape = gen.describe(edges)
    assert shape["twin_share"] > 0.5
    path = write(tmp_path, "g.txt", "".join(f"{u} {v}\n" for u, v in edges.tolist()))
    summary = tmp_path / "s"
    assert cli_main(["lossless", "--input", str(path), "--out", str(summary)]) == 0
    check.check_lossless(check.Graph(path), summary)
