from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphsum import (
    build_weight_model,
    load_edge_list,
    pagerank,
    pagerank_on_summary,
    reduction_in_nodes,
    summarize,
    summarize_lossy,
)
from graphsum.cli import main
from graphsum.summary import read_meta

from generators import complete_graph, er_graph, star_graph


def write_graph_file(tmp_path, g, name="graph.txt"):
    from graphsum import write_edge_list

    path = tmp_path / name
    write_edge_list(g, path)
    return path


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def k4_file(tmp_path):
    return write_graph_file(tmp_path, complete_graph(4), "k4.txt")


@pytest.fixture
def star_file(tmp_path):
    return write_graph_file(tmp_path, star_graph(4), "star.txt")


@pytest.fixture
def er_file(tmp_path):
    return write_graph_file(tmp_path, er_graph(60, 0.12, 5), "er.txt")


class TestLossless:
    def test_k4(self, k4_file, tmp_path, capsys):
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(k4_file), "--out", str(out)]) == 0
        meta = read_meta(out / "meta.txt")
        assert meta["supernodes"] == "1"
        line = capsys.readouterr().out.strip()
        assert "supernodes=1" in line and line.startswith("n=4 m=6")

    def test_star(self, star_file, tmp_path):
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(star_file), "--out", str(out)]) == 0
        assert read_meta(out / "meta.txt")["supernodes"] == "2"

    def test_rn_matches_library(self, er_file, tmp_path):
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(er_file), "--out", str(out)]) == 0
        g = load_edge_list(er_file).graph
        expected = reduction_in_nodes(summarize(g))
        assert float(read_meta(out / "meta.txt")["rn"]) == expected

    def test_missing_input_is_internal_error(self, tmp_path):
        rc = main(
            ["lossless", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert rc == 1

    def test_id_map_persisted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 20\n20 30\n")
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
        assert (out / "node_ids.txt").read_text() == "0 10\n1 20\n2 30\n"


class TestLossy:
    def test_tau_one_reports_unit_utility(self, er_file, tmp_path):
        out = tmp_path / "sum"
        rc = main(["lossy", "--input", str(er_file), "--out", str(out), "--tau", "1.0"])
        assert rc == 0
        assert float(read_meta(out / "meta.txt")["utility"]) == 1.0

    def test_worked_example_at_085(self, worked_example_file, tmp_path):
        out = tmp_path / "sum"
        rc = main(
            ["lossy", "--input", str(worked_example_file), "--out", str(out), "--tau", "0.85"]
        )
        assert rc == 0
        meta = read_meta(out / "meta.txt")
        assert float(meta["utility"]) >= 0.85
        assert meta["centrality"] == "pagerank"

    def test_prefix_matches_library(self, er_file, tmp_path):
        out = tmp_path / "sum"
        rc = main(["lossy", "--input", str(er_file), "--out", str(out), "--tau", "0.8"])
        assert rc == 0
        g = load_edge_list(er_file).graph
        res = summarize_lossy(g, build_weight_model(g, pagerank(g)), 0.8)
        meta = read_meta(out / "meta.txt")
        assert int(meta["prefix_length"]) == res.prefix_length
        assert float(meta["utility"]) == res.utility

    def test_tau_out_of_range_usage_error(self, er_file, tmp_path):
        rc = main(
            ["lossy", "--input", str(er_file), "--out", str(tmp_path / "o"), "--tau", "1.5"]
        )
        assert rc == 2

    def test_complete_graph_refused(self, k4_file, tmp_path):
        rc = main(
            ["lossy", "--input", str(k4_file), "--out", str(tmp_path / "o"), "--tau", "0.9"]
        )
        assert rc == 3

    def test_betweenness_cap_exit(self, er_file, tmp_path):
        rc = main(
            [
                "lossy",
                "--input",
                str(er_file),
                "--out",
                str(tmp_path / "o"),
                "--tau",
                "0.9",
                "--centrality",
                "betweenness",
                "--cap-betweenness",
                "5",
            ]
        )
        assert rc == 4


@pytest.fixture
def k4_summary(k4_file, tmp_path):
    out = tmp_path / "k4sum"
    assert main(["lossless", "--input", str(k4_file), "--out", str(out)]) == 0
    return out


@pytest.fixture
def star_summary(star_file, tmp_path):
    out = tmp_path / "starsum"
    assert main(["lossless", "--input", str(star_file), "--out", str(out)]) == 0
    return out


@pytest.fixture
def lossy_dir(er_file, tmp_path):
    out = tmp_path / "lossysum"
    assert main(["lossy", "--input", str(er_file), "--out", str(out), "--tau", "0.8"]) == 0
    return out


class TestQuery:
    def test_triangles_k4(self, k4_summary, capsys):
        assert main(["query", "--summary", str(k4_summary), "triangles"]) == 0
        assert capsys.readouterr().out == "4 0 0 4\n"

    def test_sssp_star_leaves(self, star_summary, capsys):
        assert main(["query", "--summary", str(star_summary), "sssp", "1", "2"]) == 0
        assert capsys.readouterr().out == "1 2 2\n"

    def test_sssp_unreachable_prints_inf(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", "--summary", str(out), "sssp", "0", "3"]) == 0
        assert capsys.readouterr().out == "0 3 inf\n"

    def test_pagerank_matches_library(self, star_summary, star_file, capsys):
        assert main(["query", "--summary", str(star_summary), "pagerank"]) == 0
        lines = capsys.readouterr().out.splitlines()
        g = load_edge_list(star_file).graph
        expected = pagerank_on_summary(summarize(g)).node_scores
        got = np.array([float(line.split()[1]) for line in lines])
        assert np.array_equal(got, expected)

    def test_sssp_without_ids_usage_error(self, k4_summary):
        assert main(["query", "--summary", str(k4_summary), "sssp"]) == 2

    def test_lossy_summary_unsupported(self, lossy_dir):
        assert main(["query", "--summary", str(lossy_dir), "triangles"]) == 3
        assert main(["query", "--summary", str(lossy_dir), "pagerank"]) == 3
        assert main(["query", "--summary", str(lossy_dir), "sssp", "0", "1"]) == 3


@pytest.fixture
def cycle4_summary(tmp_path, capsys):
    """Lossless summary of the 4-cycle 0-1-2-3-0: supernodes {0,2} and {1,3}."""
    path = tmp_path / "c4.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    out = tmp_path / "c4sum"
    assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
    assert (out / "membership.txt").read_text() == "0 0\n1 1\n2 0\n3 1\n"
    assert (out / "kinds.txt").read_text() == "0 independent_set\n1 independent_set\n"
    capsys.readouterr()
    return out


class TestCorruptSummary:
    """Inconsistent summary directories exit 3 and name the file at fault."""

    @pytest.mark.parametrize(
        "membership",
        [
            "0 0\n1 1\n2 0\n1 1\n",  # node 1 twice, node 3 never
            "0 0\n1 1\n2 0\n",  # node 3 missing
            "0 0\n1 1\n2 0\n4 1\n",  # node id out of range
        ],
        ids=["duplicate", "missing", "out-of-range"],
    )
    def test_membership_not_a_permutation(self, cycle4_summary, capsys, membership):
        (cycle4_summary / "membership.txt").write_text(membership)
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "1", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "membership.txt" in captured.err

    def test_kind_contradicting_structure(self, cycle4_summary, capsys):
        # supernode 0 has no self-superedge, so it cannot be a clique
        (cycle4_summary / "kinds.txt").write_text("0 clique\n1 independent_set\n")
        assert main(["query", "--summary", str(cycle4_summary), "triangles"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kinds.txt" in captured.err

    @pytest.mark.parametrize(
        "extra",
        ["5 clique\n", "1\n", "1 independent_set extra\n", "1 blob\n", "x clique\n"],
        ids=["sid-out-of-range", "one-token", "three-tokens", "unknown-kind", "non-integer"],
    )
    def test_bad_kinds_line(self, cycle4_summary, capsys, extra):
        kinds = cycle4_summary / "kinds.txt"
        kinds.write_text(kinds.read_text() + extra)
        assert main(["query", "--summary", str(cycle4_summary), "triangles"]) == 3
        assert "kinds.txt" in capsys.readouterr().err

    def test_intact_summary_still_answers(self, cycle4_summary, capsys):
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "1", "3"]) == 0
        assert capsys.readouterr().out == "1 3 2\n"


class TestEval:
    def test_rn(self, k4_summary, capsys):
        assert main(["eval", "--summary", str(k4_summary), "--metric", "rn"]) == 0
        assert capsys.readouterr().out == "rn 0.75\n"

    def test_verify_lossless_ok(self, k4_summary, k4_file, capsys):
        rc = main(
            [
                "eval",
                "--summary",
                str(k4_summary),
                "--metric",
                "verify-lossless",
                "--input",
                str(k4_file),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "lossless true\n"

    def test_verify_lossless_mismatch_fails(self, k4_summary, star_file):
        rc = main(
            [
                "eval",
                "--summary",
                str(k4_summary),
                "--metric",
                "verify-lossless",
                "--input",
                str(star_file),
            ]
        )
        assert rc != 0

    def test_verify_cap_exit(self, k4_summary, k4_file):
        rc = main(
            [
                "eval",
                "--summary",
                str(k4_summary),
                "--metric",
                "verify-lossless",
                "--input",
                str(k4_file),
                "--cap-reconstruction",
                "1",
            ]
        )
        assert rc == 4

    def test_app_utility(self, lossy_dir, er_file, capsys):
        rc = main(
            [
                "eval",
                "--summary",
                str(lossy_dir),
                "--metric",
                "app-utility",
                "--input",
                str(er_file),
                "--top-percent",
                "20",
            ]
        )
        assert rc == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert out["centrality"] == "pagerank"
        assert 0.0 < float(out["app_utility"]) <= 1.0

    def test_missing_input_usage_error(self, lossy_dir):
        rc = main(["eval", "--summary", str(lossy_dir), "--metric", "app-utility"])
        assert rc == 2

    def test_top_percent_out_of_range_usage_error(self, lossy_dir, er_file):
        rc = main(
            [
                "eval",
                "--summary",
                str(lossy_dir),
                "--metric",
                "app-utility",
                "--input",
                str(er_file),
                "--top-percent",
                "150",
            ]
        )
        assert rc == 2


class TestDeterminism:
    def test_lossless_and_lossy_runs_are_byte_identical(self, er_file, tmp_path):
        for cmd in (
            ["lossless", "--input", str(er_file), "--seed", "7"],
            ["lossy", "--input", str(er_file), "--tau", "0.75", "--seed", "7"],
        ):
            a, b = tmp_path / f"{cmd[0]}_a", tmp_path / f"{cmd[0]}_b"
            assert main(cmd + ["--out", str(a)]) == 0
            assert main(cmd + ["--out", str(b)]) == 0
            assert dir_bytes(a) == dir_bytes(b)

    def test_query_reports_are_byte_identical(self, star_summary, tmp_path):
        a, b = tmp_path / "qa", tmp_path / "qb"
        for out in (a, b):
            assert (
                main(["query", "--summary", str(star_summary), "pagerank", "--out", str(out)])
                == 0
            )
        assert dir_bytes(a) == dir_bytes(b)


def test_console_entry_point_runs(k4_file, tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "graphsum",
            "lossless",
            "--input",
            str(k4_file),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "supernodes=1" in proc.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["lossy", "--tau", "0.5"])  # missing --input/--out
    assert err.value.code == 2
