from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsum import (
    Summary,
    build_weight_model,
    load_summary,
    pagerank,
    save_summary,
    summarize,
    summarize_lossy,
)
from graphsum.errors import UnsupportedSummaryError
from graphsum.summary import VALID_KINDS, PairSet, _check_kind_lines, read_meta

from conftest import MALFORMED_PAIRS
from generators import ba_graph, er_graph, twin_rich_graph
from oracles import summarize_naive


def summaries_equal(a: Summary, b: Summary) -> bool:
    return (
        np.array_equal(a.membership, b.membership)
        and a.supernodes == b.supernodes
        and a.superedges == b.superedges
        and a.kinds == b.kinds
    )


def test_lossless_round_trip(tmp_path):
    g = er_graph(60, 0.1, 3)
    s = summarize(g)
    save_summary(s, tmp_path / "out", {"algorithm": "lossless-clique-is", "n": g.n})
    loaded = load_summary(tmp_path / "out")
    assert summaries_equal(s, loaded)
    assert loaded.is_lossless


def test_lossy_round_trip_has_no_kinds_file(tmp_path):
    g = er_graph(60, 0.1, 3)
    res = summarize_lossy(g, build_weight_model(g, pagerank(g)), 0.8)
    save_summary(res.summary, tmp_path / "out")
    assert not (tmp_path / "out" / "kinds.txt").exists()
    loaded = load_summary(tmp_path / "out")
    assert summaries_equal(res.summary, loaded)
    assert not loaded.is_lossless


def test_saving_over_a_summary_replaces_its_files(tmp_path):
    g = er_graph(60, 0.1, 3)
    out = tmp_path / "out"
    save_summary(summarize(g), out, {"algorithm": "lossless-clique-is", "n": g.n})
    (out / "notes.txt").write_text("kept\n")
    lossy = summarize_lossy(g, build_weight_model(g, pagerank(g)), 0.8).summary
    save_summary(lossy, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "membership.txt",
        "notes.txt",
        "superedges.txt",
    ]
    assert summaries_equal(lossy, load_summary(out))


def test_meta_round_trip(tmp_path):
    g = er_graph(20, 0.2, 1)
    s = summarize(g)
    meta = {"algorithm": "lossless-clique-is", "n": g.n, "utility": 1.0, "seed": 42}
    save_summary(s, tmp_path / "out", meta)
    loaded = read_meta(tmp_path / "out" / "meta.txt")
    assert loaded["algorithm"] == "lossless-clique-is"
    assert int(loaded["n"]) == g.n
    assert float(loaded["utility"]) == 1.0


def test_repeated_and_reversed_superedge_lines_load_once(tmp_path):
    s = summarize(er_graph(40, 0.15, 2))
    save_summary(s, tmp_path / "out", {"superedges": s.num_superedges})
    path = tmp_path / "out" / "superedges.txt"
    lines = path.read_text().splitlines()
    flipped = [" ".join(reversed(line.split())) for line in lines]
    path.write_text("\n".join(lines[::-1] + flipped) + "\n")
    assert load_summary(tmp_path / "out").superedges == s.superedges


def test_validation_rejects_bad_membership():
    with pytest.raises(ValueError):
        Summary(np.array([0, 2]), set())


def test_validation_rejects_noncanonical_superedge():
    with pytest.raises(ValueError):
        Summary(np.array([0, 1]), {(1, 0)})


@pytest.mark.parametrize("superedges", [[(0, 1), (0, 1)], [(1, 1), (0, 1), (1, 1)]], ids=str)
def test_validation_rejects_repeated_superedge(superedges):
    # a list may repeat a pair a set cannot; the loader merges repeated lines
    first = superedges[0]
    with pytest.raises(ValueError, match=rf"^superedge \({first[0]},{first[1]}\) is repeated$"):
        Summary(np.array([0, 1]), superedges)


@pytest.mark.parametrize("superedges", [{(0.5, 1.2)}, {("0", "1")}], ids=str)
def test_validation_rejects_non_integer_superedge(superedges):
    # a cast would store {(0.5, 1.2)} as the superedge (0, 1)
    with pytest.raises(ValueError, match="superedge ids must be integers"):
        Summary(np.array([0, 1, 2]), superedges)


@pytest.mark.parametrize("container", [list, set])
@pytest.mark.parametrize("items", MALFORMED_PAIRS.values(), ids=list(MALFORMED_PAIRS))
def test_validation_rejects_superedges_that_are_not_one_pair(items, container):
    # a flat id stream stored {(0, 1, 2)} as the superedge (0, 1)
    with pytest.raises(ValueError, match="^superedge ids must be integers"):
        Summary(np.array([0, 1, 2, 3]), container(items))


@pytest.mark.parametrize("container", [list, set])
def test_empty_superedges_accepted(container):
    assert Summary(np.array([0, 1]), container()).superedges == set()


def test_superedges_of_numpy_integers_accepted():
    s = Summary(np.array([0, 1, 2]), {(np.int64(0), np.int32(1))})
    assert s.superedges == {(0, 1)}


def test_validation_rejects_unknown_kind():
    # kinds are derived from the superedges, so no tag can be passed in
    with pytest.raises(TypeError):
        Summary(np.array([0, 1]), set(), kinds=["blob", "singleton"])


@pytest.mark.parametrize(
    "labels",
    # a cast would store the float and bool arrays as [0 1] and [1 0 1]
    [[0, 2], [1], [-1, 0], [0, 0, 3], [[0, 1]]]
    + [np.array([0.7, 1.2]), np.array([True, False, True])],
    ids=str,
)
def test_non_dense_labels_rejected_at_construction(labels):
    with pytest.raises(ValueError):
        Summary(labels, set())


def test_empty_membership_list_accepted():
    s = Summary([], set())
    assert s.n == 0 and s.membership.dtype == np.int64


@st.composite
def random_summaries(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    membership = np.unique(raw, return_inverse=True)[1].reshape(-1)  # dense
    k = len(set(raw))
    sid = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(sid, sid), max_size=30)) if k else []
    superedges = {(min(a, b), max(a, b)) for a, b in pairs}
    return Summary(membership, superedges, is_lossless=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(random_summaries())
def test_any_summary_round_trips(s):
    with tempfile.TemporaryDirectory() as tmp:
        save_summary(s, Path(tmp) / "out")
        loaded = load_summary(Path(tmp) / "out")
    assert summaries_equal(s, loaded)
    assert loaded.is_lossless == s.is_lossless
    assert [len(members) for members in loaded.supernodes] == loaded.sizes.tolist()


def numbered_by_first_appearance(membership: np.ndarray) -> bool:
    top = -1
    for sid in membership.tolist():
        if sid > top + 1:
            return False
        top = max(top, sid)
    return True


@pytest.mark.parametrize(
    "g",
    [twin_rich_graph(seed) for seed in range(6)]
    + [er_graph(60, 0.1, 3), ba_graph(80, 2, 1)],
)
def test_builders_number_supernodes_by_first_appearance(g):
    model = build_weight_model(g, pagerank(g))
    lossy = [summarize_lossy(g, model, tau).summary for tau in (0.5, 0.8)]
    for s in [summarize(g), summarize_naive(g), *lossy]:
        assert numbered_by_first_appearance(s.membership)


class TestPairSet:
    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    def test_behaves_like_the_set_of_its_tuples(self, pairs):
        ordered = sorted(pairs)
        ps = PairSet([a for a, _ in ordered], [b for _, b in ordered])
        assert ps == pairs and pairs == ps and ps == PairSet(*ps.pairs)
        assert ps != pairs | {(10, 10)} and pairs | {(10, 10)} != ps
        assert list(ps) == ordered and len(ps) == len(pairs) and bool(ps) == bool(pairs)
        for a in range(-1, 11):
            for b in range(-1, 11):
                assert ((a, b) in ps) == ((a, b) in pairs)
        assert (1, 2, 3) not in ps and 5 not in ps
        assert (ps | {(10, 10)}) == pairs | {(10, 10)} and type(ps & pairs) is set

    @pytest.mark.parametrize(
        "a, b", [([0, 0], [1, 1]), ([1, 0], [0, 5]), ([0, 0], [2, 1]), ([0], [1, 2])]
    )
    def test_rejects_unsorted_or_repeated_pairs(self, a, b):
        with pytest.raises(ValueError):
            PairSet(a, b)

    def test_summary_keeps_any_set_as_pairset(self):
        s = Summary(np.array([0, 1, 2]), {(1, 2), (0, 2), (0, 0)})
        assert isinstance(s.superedges, PairSet)
        assert list(s.superedges) == [(0, 0), (0, 2), (1, 2)]


class TestKindsFile:
    """kinds.txt passes at once when it is the text save_summary writes;
    any other file is read line by line, so what loads and every message
    stay as the line pass has them."""

    @pytest.fixture
    def saved(self, tmp_path):
        s = summarize(twin_rich_graph(1))
        assert set(s.kinds) == {"singleton", "clique", "independent_set"}
        save_summary(s, tmp_path)
        return s, tmp_path / "kinds.txt"

    def lines(self, path):
        return path.read_text().splitlines(keepends=True)

    def test_other_valid_layouts_load(self, saved):
        s, path = saved
        lines = self.lines(path)
        for text in (
            "".join(reversed(lines)),
            "\n" + "\n".join(lines),  # blank lines
            "".join(line.replace(" ", "\t") for line in lines),
            "".join(line.replace("\n", "  \n") for line in lines),
            "".join(lines).rstrip("\n"),  # no final newline
            "".join("00" + line for line in lines),
        ):
            path.write_text(text)
            assert summaries_equal(load_summary(path.parent), s)

    def test_messages_match_the_line_pass(self, saved):
        s, path = saved
        lines = self.lines(path)
        k = len(lines)
        wrong = "independent_set" if s.kinds[0] != "independent_set" else "clique"
        for text in (
            "".join(lines[1:]),  # a supernode untagged
            "".join(lines + lines[:1]),  # tagged twice
            "".join(lines[:1] + lines[:-1]),  # tagged twice, as many lines as supernodes
            "".join(lines[:-1]) + f"{k} singleton\n",  # out of range
            "".join(lines[:-1]) + f"{10**17} singleton\n",
            "".join(lines[:-1]) + f"{10**19} singleton\n",
            f"0 {wrong}\n" + "".join(lines[1:]),  # contradicts the structure
            f"0 {VALID_KINDS.index(s.kinds[0])}\n" + "".join(lines[1:]),  # an index, not a word
            "0 blob\n" + "".join(lines[1:]),
            "+0 singleton\n" + "".join(lines[1:]),
            "".join(lines) + "7\n",
            "".join(lines) + "0 singleton 1\n",
            "".join(lines) + "0 singleton\n0 singleton\n",
        ):
            path.write_text(text)
            with pytest.raises(UnsupportedSummaryError) as by_line:
                _check_kind_lines(path, s.kinds)
            with pytest.raises(UnsupportedSummaryError) as loading:
                load_summary(path.parent)
            assert str(loading.value) == str(by_line.value)
