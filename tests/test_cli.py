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
from graphsum.centrality import CENTRALITY_KINDS
from graphsum.cli import CENTRALITIES, main
from graphsum.summary import load_summary, read_meta

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

    def test_empty_edge_list_rn_agrees_with_eval(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
        assert "rn=0.0" in capsys.readouterr().out
        assert read_meta(out / "meta.txt")["rn"] == "0.0"
        assert main(["eval", "--summary", str(out), "--metric", "rn"]) == 0
        assert capsys.readouterr().out == "rn 0.0\n"

    def test_empty_edge_list_scores_exit_3(self, tmp_path, capsys):
        """Scores of an empty graph are undefined: unsupported input, with the
        library's message, not an internal error."""
        path = tmp_path / "empty.txt"
        path.write_text("")
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
        lossy = ["lossy", "--input", str(path), "--out", str(tmp_path / "lossy"), "--tau", "0.8"]
        app_utility = ["eval", "--summary", str(out), "--metric", "app-utility"]
        runs = [
            (lossy, "pagerank of an empty graph"),
            ([*lossy, "--centrality", "degree"], "degree centrality of an empty graph"),
            ([*app_utility, "--input", str(path)], "pagerank of an empty graph"),
            (["query", "--summary", str(out), "pagerank"], "pagerank of an empty summary"),
        ]
        capsys.readouterr()
        for argv, message in runs:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message} is undefined\n"
        assert not (tmp_path / "lossy").exists()

    @pytest.mark.parametrize("text", ["", "# header\n#\n"], ids=["empty", "comment-only"])
    def test_edge_list_without_pairs_writes_no_stderr(self, tmp_path, text):
        """In a fresh process, so a warning would reach stderr, not pytest's
        warning capture."""
        path = tmp_path / "g.txt"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "graphsum", "lossless", "--input", str(path)]
            + ["--out", str(tmp_path / "sum")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

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

    @pytest.mark.parametrize(
        "text, flags",
        [("1 1\n2 2\n3 3\n", []), ("0 1\n2 3\n", ["--centrality", "betweenness"])],
        ids=["no-edges", "zero-betweenness"],
    )
    def test_zero_edge_centralities_refused(self, tmp_path, capsys, text, flags):
        path = tmp_path / "g.txt"
        path.write_text(text)
        argv = ["lossy", "--input", str(path), "--out", str(tmp_path / "o"), "--tau", "0.9"]
        assert main([*argv, *flags]) == 3
        assert "sum of edge centralities is zero" in capsys.readouterr().err

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


class TestOverwrite:
    def test_lossy_over_lossless_loads_as_lossy(self, tmp_path, capsys):
        # an earlier summary's kinds.txt must not make a lossy one load as lossless
        from graphsum import load_summary, write_edge_list

        path = tmp_path / "er.txt"
        write_edge_list(er_graph(16, 0.25, 196), path)
        out = tmp_path / "sum"
        assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
        assert (out / "kinds.txt").exists()
        assert main(["lossy", "--input", str(path), "--out", str(out), "--tau", "0.97"]) == 0
        assert not (out / "kinds.txt").exists()
        assert not load_summary(out).is_lossless
        assert main(["query", "--summary", str(out), "triangles"]) == 3


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

    @pytest.mark.parametrize("u, v", [(5, 11), (0, 4), (4, 0)])
    def test_sssp_out_of_range_ids_usage_error(self, k4_summary, capsys, u, v):
        assert main(["query", "--summary", str(k4_summary), "sssp", str(u), str(v)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"node pair ({u},{v}) out of range for n=4" in captured.err

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

    @pytest.mark.parametrize(
        "superedges", ["", "0 1\n0 0\n"], ids=["dropped-line", "extra-line"]
    )
    def test_superedge_count_contradicting_meta(self, cycle4_summary, capsys, superedges):
        # meta.txt records superedges 1; the file has just the line "0 1"
        (cycle4_summary / "superedges.txt").write_text(superedges)
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "0", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "superedges.txt" in captured.err and "superedges=1" in captured.err

    def test_supernode_count_contradicting_meta(self, cycle4_summary, capsys):
        meta = cycle4_summary / "meta.txt"
        assert "supernodes 2\n" in meta.read_text()
        meta.write_text(meta.read_text().replace("supernodes 2\n", "supernodes 3\n"))
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "0", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "membership.txt" in captured.err and "supernodes=3" in captured.err

    @pytest.mark.parametrize(
        "name", ["membership.txt", "superedges.txt", "kinds.txt", "meta.txt"]
    )
    def test_non_ascii_byte(self, cycle4_summary, capsys, name):
        path = cycle4_summary / name
        path.write_bytes(b"\xe9" + path.read_bytes())
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "1", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and "non-ASCII" in captured.err

    def test_underscore_in_token(self, cycle4_summary, capsys):
        # int() would read 0_0 as 0 and answer as if the file were intact
        path = cycle4_summary / "membership.txt"
        path.write_text(path.read_text().replace("2 0\n", "2 0_0\n"))
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "0", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "membership.txt: line 3: non-integer token in '2 0_0'" in captured.err

    def test_comment_lines_and_crlf_load_as_the_clean_files(self, cycle4_summary):
        # the pair files take the edge-list token rule: '#' lines skipped, CRLF read
        clean = load_summary(cycle4_summary)
        for name in ("membership.txt", "superedges.txt"):
            path = cycle4_summary / name
            path.write_bytes(b"# c\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
        s = load_summary(cycle4_summary)
        assert np.array_equal(s.membership, clean.membership)
        assert s.superedges == clean.superedges and s.kinds == clean.kinds

    @pytest.mark.parametrize(
        "name, old, new, line",
        [
            ("membership.txt", "2 0\n", "2 -1\n", 3),
            ("superedges.txt", "0 1\n", "0 -1\n", 1),
        ],
        ids=["membership", "superedges"],
    )
    def test_negative_sid(self, cycle4_summary, capsys, name, old, new, line):
        path = cycle4_summary / name
        path.write_text(path.read_text().replace(old, new))
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "0", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        text = new.strip()
        assert f"{name}: line {line}: negative node id in '{text}'" in captured.err

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("membership.txt", "3 1\n", f"{2**64} 1\n"),
            ("membership.txt", "3 1\n", f"3 {2**64}\n"),
            ("superedges.txt", "0 1\n", f"0 {2**64}\n"),
        ],
        ids=["membership-node", "membership-sid", "superedges"],
    )
    def test_id_past_int64(self, cycle4_summary, capsys, name, old, new):
        # exact past int64 from the tokenizer, which no summary id can be
        path = cycle4_summary / name
        path.write_text(path.read_text().replace(old, new))
        assert main(["query", "--summary", str(cycle4_summary), "sssp", "0", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name}: id {2**64} does not fit in int64" in captured.err

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

    def test_verify_lossless_mismatch_fails(self, k4_summary, star_file, capsys):
        capsys.readouterr()
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
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: summary and graph disagree on node count\n"

    def test_app_utility_node_count_mismatch(self, lossy_dir, star_file, capsys):
        capsys.readouterr()
        argv = ["eval", "--summary", str(lossy_dir), "--metric", "app-utility"]
        assert main([*argv, "--input", str(star_file)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: summary and graph disagree on node count\n"

    def test_verify_lossless_edge_mismatch_report(self, star_summary, tmp_path, capsys):
        # the star summary against a 5-node graph that lacks a star edge and
        # adds two leaf edges: the report lists each side in (u, v) order
        path = tmp_path / "other.txt"
        path.write_text("0 1\n0 2\n0 3\n1 2\n3 4\n")
        capsys.readouterr()
        argv = ["eval", "--summary", str(star_summary), "--metric", "verify-lossless"]
        assert main([*argv, "--input", str(path)]) == 1
        expected = "lossless false\nmissing 1 2\nmissing 3 4\nspurious 0 4\n"
        assert capsys.readouterr().out == expected

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


class TestFlagRanges:
    """A numeric flag out of range exits 2 before any work is done."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--damping", "3"], "--damping must lie in [0, 1], got 3.0"),
            (["--damping", "-0.5"], "--damping must lie in [0, 1], got -0.5"),
            (["--tol", "0"], "--tol must be positive and finite, got 0.0"),
            (["--max-iter", "0"], "--max-iter must be at least 1, got 0"),
            (["--max-iter", "-3"], "--max-iter must be at least 1, got -3"),
            (["--tol", "inf"], "--tol must be positive and finite, got inf"),
            (
                ["--centrality", "betweenness", "--cap-betweenness", "-3"],
                "--cap-betweenness must be at least 0, got -3",
            ),
        ],
    )
    def test_lossy(self, er_file, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        argv = ["lossy", "--input", str(er_file), "--out", str(out), "--tau", "0.8"]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--damping", "3"], "--damping must lie in [0, 1], got 3.0"),
            (["--tol=-1e-9"], "--tol must be positive and finite, got -1e-09"),
            (["--max-iter", "-3"], "--max-iter must be at least 1, got -3"),
        ],
    )
    def test_query_pagerank(self, star_summary, capsys, flags, message):
        capsys.readouterr()
        assert main(["query", "--summary", str(star_summary), "pagerank", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_eval_top_percent(self, lossy_dir, er_file, capsys):
        capsys.readouterr()
        argv = ["eval", "--summary", str(lossy_dir), "--metric", "app-utility"]
        assert main([*argv, "--input", str(er_file), "--top-percent", "0"]) == 2
        assert capsys.readouterr().err == "error: --top-percent must lie in (0, 100], got 0.0\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--metric", "verify-lossless", "--cap-reconstruction", "-1"],
                "--cap-reconstruction must be at least 0, got -1",
            ),
            (
                ["--metric", "app-utility", "--centrality", "betweenness", "--cap-betweenness", "-3"],
                "--cap-betweenness must be at least 0, got -3",
            ),
            (["--metric", "app-utility", "--tol", "inf"], "--tol must be positive and finite, got inf"),
        ],
    )
    def test_eval(self, star_summary, star_file, tmp_path, capsys, flags, message):
        capsys.readouterr()
        out = tmp_path / "report"
        argv = ["eval", "--summary", str(star_summary), "--input", str(star_file), "--out", str(out)]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_bounds_accepted(self, star_summary, capsys):
        for damping in ("0", "1"):
            assert main(["query", "--summary", str(star_summary), "pagerank", "--damping", damping]) == 0
        assert main(["query", "--summary", str(star_summary), "pagerank", "--max-iter", "1"]) == 0


class TestMalformedEdgeList:
    """A malformed edge list is unsupported input (exit 3), named by line."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\nx 2\n", "line 2: non-integer token in 'x 2'"),
            ("0 1\n1 2 3\n", "line 2: expected two integer tokens, got 3"),
            ("# c\n0 -1\n", "line 2: negative node id in '0 -1'"),
            ("1_0 2\n", "line 1: non-integer token in '1_0 2'"),
            ("0 1\n1 \xe9\n", "line 2: non-ASCII byte in b'1 \\xe9'"),
        ],
    )
    @pytest.mark.parametrize("command", ["lossless", "lossy", "app-utility", "verify-lossless"])
    def test_exits_3(self, k4_summary, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        argv = {
            "lossless": ["lossless", "--out", str(out)],
            "lossy": ["lossy", "--out", str(out), "--tau", "0.8"],
        }.get(command, ["eval", "--summary", str(k4_summary), "--metric", command])
        capsys.readouterr()
        assert main([*argv, "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


@pytest.fixture
def path3_summary(tmp_path, capsys):
    path = tmp_path / "path3.txt"
    path.write_text("0 1\n1 2\n")
    out = tmp_path / "path3"
    assert main(["lossless", "--input", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    return path, out


class TestNonConvergence:
    """An iteration stopped by --max-iter is reported on stderr; stdout, the
    files written and the exit code are those of any other run."""

    def test_query_pagerank(self, path3_summary, tmp_path, capsys):
        _, summary = path3_summary
        argv = ["query", "--summary", str(summary), "pagerank", "--damping", "1"]
        assert main([*argv, "--max-iter", "5", "--out", str(tmp_path / "q")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0 0.5\n1 2.0\n2 0.5\n"  # the undamped iterate oscillates
        assert captured.err == "warning: pagerank did not converge in 5 iterations\n"
        assert (tmp_path / "q" / "pagerank.txt").read_text() == captured.out

    def test_converged_runs_stay_silent(self, path3_summary, capsys):
        graph, summary = path3_summary
        assert main(["query", "--summary", str(summary), "pagerank"]) == 0
        argv = ["eval", "--summary", str(summary), "--metric", "app-utility"]
        assert main([*argv, "--input", str(graph)]) == 0
        assert capsys.readouterr().err == ""

    def test_lossy_pagerank(self, path3_summary, tmp_path, capsys):
        graph, _ = path3_summary
        out = tmp_path / "lossy"
        argv = ["lossy", "--input", str(graph), "--out", str(out), "--tau", "0.5"]
        assert main([*argv, "--damping", "1", "--max-iter", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n=3 m=2 ")
        assert captured.err == "warning: pagerank did not converge in 5 iterations\n"
        assert read_meta(out / "meta.txt")["max_iter"] == "5"

    def test_eval_eigenvector(self, star_summary, star_file, capsys):
        # the uniform start oscillates on a bipartite star
        capsys.readouterr()
        argv = ["eval", "--summary", str(star_summary), "--metric", "app-utility"]
        assert main([*argv, "--input", str(star_file), "--centrality", "eigenvector"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("centrality eigenvector\n")
        # the --max-iter default, which eigenvector used to ignore for its own 1000
        assert captured.err == "warning: eigenvector did not converge in 200 iterations\n"

    def test_lossy_eigenvector_honours_max_iter(self, tmp_path, capsys):
        graph = tmp_path / "star.txt"
        graph.write_text("0 1\n0 2\n0 3\n0 4\n")
        out = tmp_path / "lossy"
        argv = ["lossy", "--input", str(graph), "--out", str(out), "--tau", "0.9"]
        assert main([*argv, "--centrality", "eigenvector", "--max-iter", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n=5 m=4 ")
        assert captured.err == "warning: eigenvector did not converge in 5 iterations\n"
        assert read_meta(out / "meta.txt")["max_iter"] == "5"


def test_every_centrality_kind_has_a_cli_entry():
    assert tuple(CENTRALITIES) == CENTRALITY_KINDS


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["lossy", "--tau", "0.5"])  # missing --input/--out
    assert err.value.code == 2
