from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsum import (
    EdgeListParseError,
    LoadResult,
    from_edges,
    load_edge_list,
    save_summary,
    summarize,
    write_edge_list,
)
from graphsum import graph as graph_module
from graphsum.graph import (
    Graph,
    component_labels,
    number_keys,
    parse_int_pairs,
    relabel_by_first_appearance,
    stable_order,
    write_id_map,
)

from conftest import MALFORMED_PAIRS, random_graphs
from generators import er_graph, path_graph, spread_graph, star_graph, twin_rich_graph
from oracles import load_edge_lines, two_hop_by_matrix_square, union_find_min_labels


def write_lines(tmp_path, lines, name="g.txt"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return path


class TestLoad:
    def test_dedupe_direction_selfloop(self, tmp_path):
        path = write_lines(tmp_path, ["0 1", "1 0", "2 2", "1 2"])
        res = load_edge_list(path)
        assert res.graph.n == 3
        assert res.graph.m == 2
        assert set(res.graph.edges()) == {(0, 1), (1, 2)}
        assert res.duplicate_edges == 1
        assert res.self_loops == 1

    def test_empty_file(self, tmp_path):
        res = load_edge_list(write_lines(tmp_path, []))
        assert res.graph.n == 0
        assert res.graph.m == 0

    def test_worked_example_file_loads(self, worked_example_file, worked_example):
        res = load_edge_list(worked_example_file)
        assert res.graph.n == 11
        assert res.graph.m == 14
        assert res.graph == worked_example

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_lines(tmp_path, ["# header", "", "0 1", "  ", "# note", "1 2"])
        assert load_edge_list(path).graph.m == 2

    def test_first_appearance_compaction(self, tmp_path):
        res = load_edge_list(write_lines(tmp_path, ["7 3", "3 500"]))
        assert res.original_ids == [7, 3, 500]
        assert set(res.graph.edges()) == {(0, 1), (1, 2)}
        assert res.id_map == {7: 0, 3: 1, 500: 2}

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["0 1", "x 2"], 2),
            (["0 1", "1 2 3"], 2),
            (["-1 2"], 1),
            (["1"], 1),
        ],
    )
    def test_parse_errors_carry_line_number(self, tmp_path, lines, bad_line):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(write_lines(tmp_path, lines))
        assert err.value.line_number == bad_line

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "nope.txt")

    def test_duplicates_and_reversals_appended_are_noops(self, tmp_path):
        base = ["0 1", "0 2", "1 2", "2 3"]
        g1 = load_edge_list(write_lines(tmp_path, base, "a.txt")).graph
        noisy = base + ["1 0", "2 1", "0 2", "3 2"]
        res = load_edge_list(write_lines(tmp_path, noisy, "b.txt"))
        assert res.graph == g1
        assert res.duplicate_edges == 4


def load_outcome(load, path):
    """A load's LoadResult fields, or its exception type and line number.
    Original ids compare by repr: a float 2.0**63 equals the int 2**63."""
    try:
        res = load(path)
    except EdgeListParseError as exc:
        return type(exc), exc.line_number
    return res.graph, list(map(repr, res.original_ids)), res.duplicate_edges, res.self_loops


SNAP_HEADER = b"# Undirected graph: g.txt\n# Nodes: 3 Edges: 3\n# FromNodeId\tToNodeId\n"

# Bytes that separate, end, sign or spoil a token, or that the two parsers
# could read differently.
FUZZ_BYTES = [bytes([c]) for c in b"0123456789 \t#\r\n+-_.\x0b\x0c\x1c\x1d\x1e\x1f\x00\x85\xa0\xe9"]


@st.composite
def fuzzed_pair_lines(draw):
    """Lines of a pair "a b" with up to three FUZZ_BYTES inserted anywhere,
    each ended by LF or CRLF: random bytes, yet often a file that loads."""
    token = st.sampled_from([b"0", b"1", b"17", b"9" * 19])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        text = draw(token) + draw(st.sampled_from([b" ", b"\t"])) + draw(token)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(FUZZ_BYTES)) + text[at:]
        lines.append(text + draw(st.sampled_from([b"\n", b"\r\n"])))
    return b"".join(lines)


class TestArrayLoaderMatchesLineParser:
    """load_edge_list parses accepted files as one array and tokenizes the
    rest line by line; the line-by-line oracle must give the same result, or
    the same error, on every input."""

    @pytest.mark.parametrize(
        "data, array_parsed",
        [
            # the malformed fixtures of test_parse_errors_carry_line_number
            (b"0 1\nx 2\n", False),
            (b"0 1\n1 2 3\n", False),
            (b"-1 2\n", False),
            (b"1\n", False),
            (b"0 1 2 3\n", False),  # an even token count, four on one line
            (b"0 1 2\n3\n", False),
            (b"12345678901234567890 1\n1 2\n", False),  # over int64
            (b"9223372036854775808 1\n", False),  # 2**63, float64 if numpy infers it
            (b"1000000000000000000 1\n", True),  # 19 digits
            (b"999999999999999999 1\n", True),  # 18 digits
            (b"+5 1\n", True),
            (b"1_0 2\n", False),
            (b"0\t1\n1 \t 2\n\t3\t0\t\n", True),
            (b"0 1\r\n1 2\r\n", True),
            (b"0 1\n1 2", True),  # no final newline
            (b"", False),  # loadtxt warns on no pairs
            (b"\n  \n\t\n", False),  # blank-only
            (b"# comment\n#\n", False),  # comment-only
            (b"007 01\n1 0007\n", True),  # leading zeros
            (b"0 1\n1 \xe9\n", False),  # non-ASCII byte
            (b"5 5\n5 6\n6 5\n\n7 5\n5 7\n", True),
            (b"# c\r7 8\n", False),
            (b"0 1\n# c\r7 8\n", False),  # loadtxt would read the CR as comment text
            (b"1 2 # c\n", False),  # loadtxt would cut the comment
            (b"  # c\n1 2\n", False),
            (b"1.0 2\n", False),
            (b"1e3 2\n", False),
            (b"1 2 3\n", False),
            (b"# h\xe9\n1 2\n", False),
            (SNAP_HEADER + b"0\t1\n1\t2\n2\t0\n", True),
            (SNAP_HEADER.replace(b"\n", b"\r\n") + b"0\t1\r\n1\t2\r\n", True),
        ],
    )
    def test_fixture(self, tmp_path, data, array_parsed):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        assert (parse_int_pairs(data) is not None) == array_parsed
        assert load_outcome(load_edge_list, path) == load_outcome(load_edge_lines, path)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_pair_lines())
    def test_random_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "g.txt"
        path.write_bytes(data)
        assert load_outcome(load_edge_list, path) == load_outcome(load_edge_lines, path)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**62),
                st.integers(0, 2**62),
                st.sampled_from([" ", "\t", "  "]),
                st.booleans(),  # write the pair reversed as well
                st.booleans(),  # lift the first id by the file's offset
            ),
            max_size=40,
        ),
        st.sampled_from([0, 2**63, 2**64]),  # lifted ids in [2**63, 2**64) or past 2**64
        st.booleans(),  # a '#' comment line
        st.booleans(),  # CRLF line endings
        st.booleans(),  # a '+' sign on the first line
        st.data(),
    )
    def test_round_trip_random_edge_lists(
        self, tmp_path_factory, rows, offset, comment, crlf, plus, data
    ):
        lines = []
        for a, b, sep, reverse, lift in rows:
            a += offset * lift
            lines.append(f"{a}{sep}{b}")
            if reverse:
                lines.append(f"{b}{sep}{a}")
        if lines:  # a duplicate and a self-loop drawn from the ids used
            lines.append(data.draw(st.sampled_from(lines)))
            loop = data.draw(st.sampled_from(lines)).split()[0]
            lines.append(f"{loop} {loop}")
        pairs = [tuple(map(int, line.split())) for line in lines]
        ids = [x for pair in pairs for x in pair]
        if plus and lines:
            lines[0] = "+" + lines[0]
        if comment:
            lines.insert(data.draw(st.integers(0, len(lines))), "# a comment")
        eol = "\r\n" if crlf else "\n"
        text = "".join(line + eol for line in lines).encode("ascii")
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        path.write_bytes(text)
        line_path = not pairs or any(x >= 2**63 for x in ids)
        assert (parse_int_pairs(text) is None) == line_path
        res = load_edge_list(path)
        assert load_outcome(load_edge_list, path) == load_outcome(load_edge_lines, path)
        assert res.original_ids == list(dict.fromkeys(ids))
        orig = res.original_ids
        loaded = {tuple(sorted((orig[u], orig[v]))) for u, v in res.graph.edges()}
        assert loaded == {tuple(sorted(p)) for p in pairs if p[0] != p[1]}
        assert res.self_loops == sum(p[0] == p[1] for p in pairs)
        assert res.duplicate_edges == len(pairs) - res.self_loops - res.graph.m


class TestNeighbors:
    def test_path(self):
        g = path_graph(3)
        assert g.neighbors_list(1) == [0, 2]

    def test_isolated(self):
        g = from_edges(3, [(0, 1)])
        assert g.neighbors_list(2) == []

    def test_worked_example_bridge_node(self, worked_example):
        # the degree-3 node touching both hubs and the orange node
        assert worked_example.neighbors_list(9) == [0, 3, 10]

    def test_out_of_range(self, worked_example):
        with pytest.raises(IndexError):
            worked_example.neighbors(11)
        with pytest.raises(IndexError):
            worked_example.two_hop_neighbors(-1)


class TestTwoHop:
    def test_path_ends(self):
        g = path_graph(3)
        assert g.two_hop_neighbors(0) == {2}
        assert g.two_hop_neighbors(1) == set()

    def test_star_center_empty(self):
        g = star_graph(3)
        assert g.two_hop_neighbors(0) == set()
        assert g.two_hop_neighbors(1) == {2, 3}

    def test_er_frozen_instance(self):
        # matrix-square oracle output for this instance, frozen
        expected = set(range(50)) - {0, 20, 23}
        g = er_graph(50, 0.2, 7)
        assert g.two_hop_neighbors(0) == expected
        assert two_hop_by_matrix_square(g, 0) == expected

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=25))
    def test_matches_matrix_square(self, g):
        for v in range(g.n):
            assert g.two_hop_neighbors(v) == two_hop_by_matrix_square(g, v)

    def test_matches_matrix_square_at_two_hundred_nodes(self):
        import numpy as np

        from oracles import adjacency_matrix

        g = er_graph(200, 0.05, 3)
        sq = adjacency_matrix(g) @ adjacency_matrix(g)
        for v in range(g.n):
            expected = {int(w) for w in np.nonzero(sq[v])[0]} - {v}
            assert g.two_hop_neighbors(v) == expected


class TestWrite:
    def test_small(self, tmp_path):
        g = from_edges(3, [(1, 2), (0, 1)])
        path = tmp_path / "out.txt"
        write_edge_list(g, path)
        assert path.read_text() == "0 1\n1 2\n"

    def test_empty(self, tmp_path):
        path = tmp_path / "out.txt"
        write_edge_list(from_edges(0, []), path)
        assert path.read_text() == ""

    @pytest.mark.parametrize("block", [1, 3, 7, 65536])
    def test_blocks_match_one_shot_format(self, tmp_path, monkeypatch, block):
        """Every pair file reads as the whole file formatted at once, also when
        its length is a multiple of the block or ends inside one."""

        def one_shot(first, second) -> bytes:
            flat = tuple(itertools.chain.from_iterable(zip(first, second)))
            return ("%d %d\n" * len(first) % flat).encode("ascii")

        monkeypatch.setattr(graph_module, "_WRITE_BLOCK", block)
        g = twin_rich_graph(3)
        write_edge_list(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_bytes() == one_shot(*zip(*g.edges()))
        ids = [2**64 + 7, 5, 2**63, 2**63 - 1, 12345678901234567890, 0, 1]
        write_id_map(LoadResult(from_edges(len(ids), []), ids, 0, 0), tmp_path / "ids.txt")
        assert (tmp_path / "ids.txt").read_bytes() == one_shot(range(len(ids)), ids)
        s = summarize(g)
        save_summary(s, tmp_path / "sum")
        membership = (tmp_path / "sum" / "membership.txt").read_bytes()
        assert membership == one_shot(range(s.n), s.membership.tolist())
        superedges = (tmp_path / "sum" / "superedges.txt").read_bytes()
        assert superedges == one_shot(*zip(*sorted(s.superedges)))

    @pytest.mark.parametrize(
        "g",
        [
            path_graph(6),
            star_graph(4),
            from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]),
        ],
    )
    def test_round_trip_identity_on_canonical_labels(self, tmp_path, g):
        # canonical label order: sorted edges introduce ids ascending
        path = tmp_path / "rt.txt"
        write_edge_list(g, path)
        assert load_edge_list(path).graph == g

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(min_n=2, max_n=30))
    def test_round_trip_preserves_structure(self, tmp_path_factory, g):
        # compaction may relabel, but the reported remap recovers the graph
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        write_edge_list(g, path)
        res = load_edge_list(path)
        remap = res.id_map
        mapped = {
            (min(remap[u], remap[v]), max(remap[u], remap[v])) for u, v in g.edges()
        }
        assert mapped == set(res.graph.edges())


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_symmetry_sortedness_degree_sum(self, g):
        total = 0
        for u in range(g.n):
            row = g.neighbors_list(u)
            assert row == sorted(set(row))
            assert u not in row
            total += len(row)
            for v in row:
                assert u in g.neighbors_list(v)
        assert total == 2 * g.m

    def test_constructor_rejects_asymmetry(self):
        offsets = np.array([0, 1, 1], dtype=np.int64)
        targets = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            Graph(offsets, targets)

    def test_constructor_rejects_self_loop(self):
        offsets = np.array([0, 2, 3, 4], dtype=np.int64)
        targets = np.array([0, 1, 0, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            Graph(offsets, targets)

    @pytest.mark.parametrize(
        "offsets, targets",
        [([0, 1, 2], [True, False]), ([0.0, 1.0, 2.0], [1, 0])],
        ids=["bool-targets", "float-offsets"],
    )
    def test_constructor_rejects_non_integer_arrays(self, offsets, targets):
        # a bool CSR passes every structural check, then fails in summarize's reduceat
        with pytest.raises(ValueError, match="integer arrays"):
            Graph(np.array(offsets), np.array(targets))

    @pytest.mark.parametrize("n, dtype", [(30, np.uint8), (200, np.int16)])
    def test_constructor_takes_narrow_integer_arrays(self, n, dtype):
        # the symmetry keys targets * n + src used to wrap in the targets' dtype
        g = path_graph(n)
        narrow = Graph(g.offsets.astype(dtype), g.targets.astype(dtype))
        assert narrow == g
        assert narrow.offsets.dtype == narrow.targets.dtype == np.int64

    @pytest.mark.parametrize(
        "offsets, targets, message",
        [
            ([0, 1, 2, 2], [2, 0], "not symmetric"),  # 0-2 without 2-0
            ([0, 2, 3, 4], [2, 1, 0, 0], "strictly ascending"),  # row 0 is [2, 1]
            ([0, 3, 1, 2], [1, 0], "non-decreasing"),
        ],
        ids=["asymmetric", "descending-row", "falling-offsets"],
    )
    def test_constructor_rejects_narrow_invalid_arrays(self, offsets, targets, message):
        # in uint8, 1 - 2 is 255: differences must not wrap either
        with pytest.raises(ValueError, match=message):
            Graph(np.array(offsets, dtype=np.uint8), np.array(targets, dtype=np.uint8))

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 2)])

    @pytest.mark.parametrize(
        "edges", [[(0.7, 1.9)], [("1", "2")], [(0, 1), (np.float64(1.0), 2)]], ids=str
    )
    def test_from_edges_rejects_non_integer_ids(self, edges):
        # a cast would build [(0.7, 1.9)] as the edge (0, 1) and [("1", "2")] as (1, 2)
        with pytest.raises(ValueError, match="edge ids must be integers"):
            from_edges(3, edges)

    @pytest.mark.parametrize("container", [list, set])
    @pytest.mark.parametrize("items", MALFORMED_PAIRS.values(), ids=list(MALFORMED_PAIRS))
    def test_from_edges_rejects_items_that_are_not_one_pair(self, items, container):
        with pytest.raises(ValueError, match="^edge ids must be integers"):
            from_edges(4, container(items))

    @pytest.mark.parametrize("container", [list, set])
    def test_from_edges_takes_empty_input(self, container):
        g = from_edges(3, container())
        assert (g.n, g.m) == (3, 0)

    def test_from_edges_takes_numpy_integers(self):
        edges = [(np.int64(0), np.int32(1)), (np.uint8(2), 1)]
        assert from_edges(3, edges) == from_edges(3, [(0, 1), (1, 2)])


@st.composite
def loop_free_edge_arrays(draw):
    """(n, u, v): n in 0..12, and pairs of ids below n with no self-loop,
    drawn with repeats, so duplicates, reversed pairs and isolated nodes
    all occur."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n < 2:
        return n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=40))
    flat = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return n, flat[:, 0], flat[:, 1]


@settings(max_examples=200, deadline=None)
@given(loop_free_edge_arrays())
def test_simple_graph_output_passes_the_csr_check(case):
    # _simple_graph skips the constructor's _validate_csr; every CSR it
    # builds must pass it anyway and hold exactly the drawn pairs
    n, u, v = case
    g = graph_module._simple_graph(n, u, v)
    graph_module._validate_csr(g.offsets, g.targets)
    assert g.n == n
    assert set(g.edges()) == {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
    assert not g.offsets.flags.writeable and not g.targets.flags.writeable
    assert Graph(g.offsets.copy(), g.targets.copy()) == g


ROW_GRAPHS = {
    "spread_er": spread_graph(er_graph(20, 0.2, 1)),
    "spread_star": spread_graph(star_graph(4)),
    "spread_path": spread_graph(path_graph(5)),
    "twins": twin_rich_graph(3),
    "edgeless": from_edges(4, []),
    "empty": from_edges(0, []),
}


def loop_row_reduce(g, ufunc, values, empty) -> list:
    """row_reduce by a loop over the nodes, one ufunc.reduce per row's slots."""
    out, slot = [], 0
    for u in range(g.n):
        row = values[slot : slot + g.degree(u)]
        out.append(ufunc.reduce(row).item() if len(row) else empty)
        slot += len(row)
    return out


class TestRowViews:
    """sources, rows and row_reduce against loops over neighbors_list, on
    graphs with degree-0 nodes before, between and after nonempty rows."""

    @pytest.mark.parametrize("name", sorted(ROW_GRAPHS))
    def test_sources(self, name):
        g = ROW_GRAPHS[name]
        assert g.sources.tolist() == [u for u in range(g.n) for _ in g.neighbors_list(u)]
        assert g.sources.dtype == np.int64
        assert not g.sources.flags.writeable

    @pytest.mark.parametrize("name", sorted(ROW_GRAPHS))
    def test_rows(self, name):
        g = ROW_GRAPHS[name]
        rng = np.random.default_rng(0)
        picks = [np.arange(g.n), np.arange(g.n)[::-1], np.array([], dtype=np.int64)]
        if g.n:
            picks.append(rng.integers(0, g.n, 3 * g.n))  # repeats, any order
        for nodes in picks:
            flat, ends = g.rows(nodes)
            expected = [g.neighbors_list(u) for u in nodes.tolist()]
            assert flat.tolist() == list(itertools.chain.from_iterable(expected))
            assert ends.tolist() == list(itertools.accumulate(map(len, expected)))

    @pytest.mark.parametrize("name", sorted(ROW_GRAPHS))
    @pytest.mark.parametrize(
        "ufunc, dtype, empty",
        [
            (np.add, np.uint64, 0),  # wraps, as the lossless hash does
            (np.add, np.int64, 0),
            (np.minimum, np.int64, 7),
            (np.minimum, np.float64, 0.0),
            (np.maximum, np.float64, -1.5),
        ],
    )
    def test_row_reduce(self, name, ufunc, dtype, empty):
        g = ROW_GRAPHS[name]
        rng = np.random.default_rng(1)
        if dtype == np.float64:
            values = rng.standard_normal(len(g.targets))
        else:
            values = rng.integers(0, np.iinfo(dtype).max, len(g.targets), dtype=dtype)
        out = g.row_reduce(ufunc, values, empty)
        assert out.dtype == dtype
        assert out.tolist() == loop_row_reduce(g, ufunc, values, empty)


def kernel_against_numpy(monkeypatch, keys: np.ndarray) -> bool:
    """Check stable_order and number_keys on keys against np.argsort(kind=
    "stable") and np.unique(return_index, return_inverse), and that keys
    are left as they were; return whether the kernel fell back to argsort."""
    before = keys.copy()
    stable = np.argsort(keys, kind="stable")
    values, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    argsort, argsorted = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorted.append(1) or argsort(*a, **k))
    order, ordered = stable_order(keys)
    rank, distinct, first = number_keys(keys)
    monkeypatch.undo()
    assert order.tolist() == stable.tolist()
    assert ordered.tolist() == keys[stable].tolist()
    assert rank.tolist() == inverse.tolist()
    assert distinct.tolist() == values.tolist()
    assert first.tolist() == index.tolist()
    assert keys.dtype == before.dtype and np.array_equal(keys, before)
    return bool(argsorted)


class TestKeyKernel:
    """The one key-numbering kernel of the library against numpy: packed
    where every key and position fit in 63 bits, argsort otherwise."""

    @pytest.mark.parametrize("length", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("distinct", [1, 3, 1000])
    def test_ties(self, monkeypatch, length, distinct):
        keys = np.random.default_rng(length).integers(0, distinct, size=length)
        assert not kernel_against_numpy(monkeypatch, keys)

    @pytest.mark.parametrize("length", [3, 4, 5, 9, 17])
    def test_both_sides_of_63_bits(self, monkeypatch, length):
        # the packed key takes the largest key's bits plus the largest position's
        shift = (length - 1).bit_length()
        rng = np.random.default_rng(length)
        for bits, fallback in ((63 - shift, False), (64 - shift, True)):
            top = 2**bits - 1
            keys = top - rng.integers(0, 3, size=length)
            assert kernel_against_numpy(monkeypatch, keys) == fallback, bits

    @pytest.mark.parametrize("length", [3, 8, 100])
    def test_keys_near_2_62(self, monkeypatch, length):
        keys = 2**62 + np.random.default_rng(length).integers(-2, 2, size=length)
        assert kernel_against_numpy(monkeypatch, keys)

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([5, -1, 5, 0, -1, 3], dtype=np.int64),  # negative: argsort
            np.array([2**64 - 1, 2**63, 7, 2**64 - 1, 7], dtype=np.uint64),  # hashes
        ],
    )
    def test_keys_that_cannot_pack(self, monkeypatch, keys):
        assert kernel_against_numpy(monkeypatch, keys)

    @pytest.mark.parametrize("top", [10, 2**62])
    def test_read_only_keys(self, monkeypatch, top):
        keys = np.random.default_rng(3).integers(0, top, size=50)
        keys.setflags(write=False)
        assert kernel_against_numpy(monkeypatch, keys) == (top > 10)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-3, 40), max_size=60))
    def test_relabel_by_first_appearance(self, values):
        labels = np.array(values, dtype=np.int64)
        labels.setflags(write=False)
        seen: dict[int, int] = {}
        expected = [seen.setdefault(x, len(seen)) for x in values]
        assert relabel_by_first_appearance(labels).tolist() == expected
        assert labels.tolist() == values


def path_ids(order: str, n: int) -> np.ndarray:
    """The node ids 0..n-1 (n even) in the order a path visits them."""
    if order == "ascending":
        return np.arange(n)
    if order == "descending":
        return np.arange(n)[::-1]
    if order == "zigzag":  # 0, n-1, 1, n-2, ...
        return np.stack([np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)], axis=1).ravel()
    return np.random.default_rng(11).permutation(n)


class TestComponentLabels:
    """The one connected-components kernel against a union-find whose roots
    are their sets' smallest nodes."""

    @pytest.mark.parametrize("shuffled", [False, True], ids=["path-order", "shuffled"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "zigzag", "random"])
    def test_long_paths(self, order, shuffled):
        # random ids along a path take the most hooking rounds
        n = 20_000
        ids = path_ids(order, n)
        u, v = ids[:-1], ids[1:]
        if shuffled:
            at = np.random.default_rng(3).permutation(n - 1)
            u, v = u[at], v[at]
        u.setflags(write=False)
        v.setflags(write=False)
        assert not component_labels(n, u, v).any()  # one component, labelled 0
        for t in (1, n // 3, n - 2):
            expected = union_find_min_labels(n, zip(u[:t].tolist(), v[:t].tolist()))
            assert component_labels(n, u[:t], v[:t]).tolist() == expected, t

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_no_pairs(self, n):
        none = np.array([], dtype=np.int64)
        labels = component_labels(n, none, none)
        assert labels.dtype == np.int64
        assert labels.tolist() == list(range(n))

    def test_self_repeated_and_reversed_pairs(self):
        u, v = np.array([3, 2, 1, 1, 4, 3]), np.array([3, 1, 2, 1, 3, 4])
        assert component_labels(6, u, v).tolist() == [0, 1, 1, 3, 3, 5]
        assert component_labels(6, u[:1], v[:1]).tolist() == list(range(6))

    @settings(max_examples=100, deadline=None)
    @given(loop_free_edge_arrays())
    def test_random_pairs(self, case):
        n, u, v = case
        expected = union_find_min_labels(n, zip(u.tolist(), v.tolist()))
        assert component_labels(n, u, v).tolist() == expected


def grouping_calls(source: str) -> list[int]:
    """The lines of each call of a numpy unique* function in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr.startswith("unique")
    ]


def test_no_module_calls_np_unique():
    # integer keys are grouped by graph.stable_order and graph.number_keys;
    # np.unique sorts again, or hashes when called without flags
    assert grouping_calls("np.unique(x, return_index=True)") == [1]  # the walk finds one
    package = Path(graph_module.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in grouping_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def attribute_reads(wanted) -> dict[str, list[int]]:
    """Per package module, the lines of each attribute node that wanted
    accepts; modules with none are left out."""
    package = Path(graph_module.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and wanted(n)]
        if lines:
            found[path.name] = lines
    return found


def test_only_graph_reads_the_csr_layout():
    # other modules read a Graph through edge_arrays, sources, rows and
    # row_reduce, so its offsets layout can change in graph.py alone
    found = attribute_reads(lambda node: node.attr in ("offsets", "reduceat"))
    assert list(found) == ["graph.py"], found  # the walk does find graph.py's


def test_only_graph_calls_operator_index():
    # every integer-pair intake goes through graph._int_pairs, so the rule
    # "each item is one pair of integer ids" is written once
    def operator_index(node):
        owner = node.value
        return node.attr == "index" and isinstance(owner, ast.Name) and owner.id == "operator"

    assert list(attribute_reads(operator_index)) == ["graph.py"]


def test_the_forest_runs_no_python_for_loop():
    # two_hop_mst and its star pairs are array passes; the only Python
    # loop left is over Boruvka rounds, a while loop of at most log2 n.
    # The forest goes to MergePairList as arrays, never through a list.
    path = Path(graph_module.__file__).with_name("lossy.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    loops = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("two_hop_mst", "_star_pair_keys"):
            kinds = (ast.For, ast.AsyncFor, ast.comprehension)
            loops[node.name] = [n.lineno for n in ast.walk(node) if isinstance(n, kinds)]
            loops[node.name] += [
                n.lineno for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "tolist"
            ]
    assert loops == {"two_hop_mst": [], "_star_pair_keys": []}


def test_only_the_package_root_imports_unionfind():
    # the lossy partitions are label arrays from graph.component_labels;
    # the union-find class stays exported, but no library module runs it
    package = Path(graph_module.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(name.split(".")[-1] == "unionfind" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert [read.split(":")[0] for read in importers] == ["__init__.py"], importers
