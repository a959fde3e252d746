"""Undirected simple graphs in a compressed sorted-adjacency layout.

This module owns the plain-text pair format of the edge lists every
command reads, which the summary files membership.txt and superedges.txt
share (read_int_pairs reads them all):

    ASCII text, one pair per LF or CRLF line, two integers of any size
    separated by whitespace, each ASCII digits with an optional sign and
    not negative; lines starting with '#' and blank lines are skipped.

Loading drops edge directions, merges duplicate edges, discards self-loops
and compacts node ids to 0..n-1 in order of first appearance. The id
remapping is reported so external ids survive the round trip.
"""

from __future__ import annotations

import io
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import EdgeListParseError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    Nodes are 0..n-1. The adjacency of node u is the slice
    targets[offsets[u]:offsets[u+1]], strictly ascending. Construction
    validates symmetry, sortedness and the absence of self-loops (the
    builders of this module make valid rows and skip the check) and holds
    both arrays as int64, in which no pair key lo*n + hi wraps; after that
    the graph is safe for unlimited concurrent readers.
    """

    offsets: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        offsets, targets = _validate_csr(self.offsets, self.targets)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        offsets.setflags(write=False)
        targets.setflags(write=False)

    @classmethod
    def _from_valid_csr(cls, offsets: np.ndarray, targets: np.ndarray) -> Graph:
        """A Graph over a CSR that is valid by construction, skipping the
        re-check of __post_init__: for builders such as _simple_graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "offsets", offsets)
        object.__setattr__(g, "targets", targets)
        offsets.setflags(write=False)
        targets.setflags(write=False)
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @property
    def m(self) -> int:
        return len(self.targets) // 2

    def degree(self, u: int) -> int:
        self._check_node(u)
        return int(self.offsets[u + 1] - self.offsets[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of u (read-only view, no copy)."""
        self._check_node(u)
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def neighbors_list(self, u: int) -> list[int]:
        return self.neighbors(u).tolist()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def two_hop_neighbors(self, v: int) -> set[int]:
        """All w != v sharing at least one common neighbor with v.

        Computed on the fly; the 2-hop graph is never materialized.
        """
        self._check_node(v)
        out: set[int] = set()
        for b in self.neighbors_list(v):
            out.update(self.neighbors_list(b))
        out.discard(v)
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """Canonical edges (u, v) with u < v, ascending lexicographic."""
        u, v = self.edge_arrays
        return zip(u.tolist(), v.tolist())

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges of edges() as two read-only int64 arrays."""
        forward = self.sources < self.targets
        u, v = self.sources[forward], self.targets[forward]
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    @cached_property
    def sources(self) -> np.ndarray:
        """The node whose row holds each targets slot (read-only int64)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        src.setflags(write=False)
        return src

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ascending neighbor rows of nodes, concatenated, and each row's end in them."""
        deg = self.degrees[nodes]
        ends = np.cumsum(deg)
        slots = np.repeat(self.offsets[nodes] - ends + deg, deg)
        return self.targets[slots + np.arange(len(slots))], ends

    def row_reduce(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """Per node, ufunc reduced over its row's slots of values (one value per
        targets slot), or empty for a degree-0 node, which reduceat cannot give."""
        nonempty = self.degrees > 0
        out = np.full(self.n, empty, dtype=values.dtype)
        out[nonempty] = ufunc.reduceat(values, self.offsets[:-1][nonempty])
        return out

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        """Per-node neighbor lists as Python ints, for tight loops."""
        flat = self.targets.tolist()
        offs = self.offsets.tolist()
        return [flat[offs[u] : offs[u + 1]] for u in range(self.n)]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.targets, other.targets
        )

    def __hash__(self):
        return hash((self.n, len(self.targets)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise IndexError(f"node id {u} out of range for n={self.n}")


def _validate_csr(offsets: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """offsets and targets as int64 arrays, or ValueError unless they are a
    valid CSR. Narrower ints would wrap in the differences and keys below."""
    if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in (offsets, targets)):
        raise ValueError("offsets and targets must be 1-d integer arrays")
    offsets, targets = (a.astype(np.int64, copy=False) for a in (offsets, targets))
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(targets):
        raise ValueError("offset array does not index the target array")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    if len(targets) % 2 != 0:
        raise ValueError("degree sum must be even for an undirected graph")
    n = len(offsets) - 1
    if len(targets) and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("neighbor id out of range")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    if np.any(src == targets):
        raise ValueError("self-loop in adjacency")
    same_row = src[1:] == src[:-1]
    if np.any(np.diff(targets)[same_row] <= 0):
        raise ValueError("neighbor lists must be strictly ascending")
    forward = np.sort(src * n + targets)
    backward = np.sort(targets * n + src)
    if not np.array_equal(forward, backward):
        raise ValueError("adjacency is not symmetric")
    return offsets, targets


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from (u, v) pairs.

    Pairs are canonicalized, duplicates merged and self-loops discarded.
    Each item must be one pair of integer ids in 0..n-1; n may exceed them.
    """
    u, v = _int_pairs(edges, "edge")
    loop = u == v
    bad = ((np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)) & ~loop
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"edge ({u[i]},{v[i]}) out of bounds for n={n}")
    return _simple_graph(n, u[~loop], v[~loop])


def _int_pairs(items: Iterable, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of items as two int64 arrays; ValueError unless each item is
    one pair of ids operator.index takes (np.fromiter alone casts 0.7 to 0)."""
    try:
        ids = (i for x, y in items for i in (operator.index(x), operator.index(y)))
        flat = np.fromiter(ids, np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} ids must be integers, one pair per item") from None
    return flat[0::2], flat[1::2]


def _simple_graph(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on nodes 0..n-1 whose edges are the pairs (u[i], v[i]), none
    a self-loop; directions and duplicates are merged by distinct_pair_keys.

    The rows come out of one sort of both directions' keys, so the CSR is
    symmetric, ascending and loop-free by construction and skips the
    Graph constructor's re-check, which would sort the same keys twice."""
    keys = distinct_pair_keys(u, v, n)
    lo, hi = np.divmod(keys, n)
    src, dst = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return Graph._from_valid_csr(offsets, dst)


def distinct_pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The distinct unordered pairs {u[i], v[i]} of ids in 0..n-1 as keys
    lo*n + hi, lo <= hi, ascending. Deduped by one sort and a diff mask: a
    flag-less np.unique takes a far slower hashing path on int64 in numpy 2.4."""
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    return keys[np.diff(keys, prepend=-1) != 0]


@dataclass(frozen=True)
class LoadResult:
    """A loaded graph plus the ingestion report."""

    graph: Graph
    original_ids: list[int]  # new id -> id used in the input file
    duplicate_edges: int  # parallel/reversed duplicates collapsed
    self_loops: int  # self-loop lines discarded

    @property
    def id_map(self) -> dict[int, int]:
        """Original file id -> compact id."""
        return {orig: new for new, orig in enumerate(self.original_ids)}


def load_edge_list(path: str | Path) -> LoadResult:
    """Load an undirected simple graph from an edge-list text file.

    The pairs come from read_int_pairs, which raises EdgeListParseError
    (with the offending line number) on a non-ASCII byte, a non-integer
    token, a wrong token count or a negative id.
    """
    pairs = read_int_pairs(Path(path).read_bytes())
    ids = pairs.reshape(-1)
    compact, starts = _first_appearance(ids)
    original_ids = ids[starts]
    u, v = compact[0::2], compact[1::2]
    loop = u == v
    graph = _simple_graph(len(original_ids), u[~loop], v[~loop])
    self_loops = int(loop.sum())
    duplicates = len(pairs) - self_loops - graph.m
    return LoadResult(graph, original_ids.tolist(), duplicates, self_loops)


def relabel_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Per-node labels renumbered 0..k-1 in order of first appearance over
    nodes 0..n-1; nodes keep sharing a label exactly when they shared one."""
    return _first_appearance(labels)[0]


def _first_appearance(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """relabel_by_first_appearance(labels), and each new label's first node."""
    rank, _, first = number_keys(labels)
    dense, starts, _ = number_keys(first)  # first positions are distinct
    return dense[rank], starts


def stable_order(
    keys: np.ndarray, positions: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(keys, kind="stable") for integer keys, and the keys in
    that order; given positions, one ascending int64 position per key (such
    as where the keys stood in a longer array), positions in that order in
    place of the argsort. keys is never written to, so it may be read-only.

    One in-place np.sort of a copy packed as key << s | position, s the
    bit length of the largest position, gives the order by a mask and the
    sorted keys by a shift. Negative keys, or keys the positions would push
    past 63 bits (such as 64-bit hashes), take the stable argsort."""
    top = len(keys) - 1 if positions is None else int(positions.max(initial=0))
    shift = top.bit_length()
    if keys.min(initial=0) < 0 or int(keys.max(initial=0)).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        return order if positions is None else positions[order], keys[order]
    packed = np.left_shift(keys, shift, dtype=np.int64)  # a new array, used up by the sort
    packed |= np.arange(len(packed)) if positions is None else positions
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per node 0..n-1, the smallest node of its connected component in the
    graph whose edges are the pairs (u[i], v[i]) of ids in 0..n-1 (int64).

    Min-label hooking with pointer jumping (FastSV, after Shiloach and
    Vishkin): each round hooks every pair's two labels to the smaller one
    by np.minimum.at, then jumps pointers to a fixed point, and drops the
    pairs whose ends now share a label. Labels only fall and always name a
    node of the same component, so its smallest node keeps its own label;
    it ends when no pair is left, the round after which none would change."""
    labels = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lu, lv = u, v  # the labels of the ends, so far the ends themselves
    while True:
        apart = lu != lv
        if not apart.any():
            return labels
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        low = np.minimum(lu, lv)
        np.minimum.at(labels, lu, low)
        np.minimum.at(labels, lv, low)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        lu, lv = labels[u], labels[v]


def group_keys(
    keys: np.ndarray, positions: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The order of stable_order(keys, positions); per key in that order,
    the rank of its value among the distinct values; those values
    ascending; and where each value's run of keys starts in that order."""
    order, ordered = stable_order(keys, positions)
    first = np.empty(len(keys), dtype=bool)  # each value's first key in sorted order
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    runs = np.flatnonzero(first)
    distinct = ordered[runs]
    ids = np.cumsum(first, out=ordered)  # ordered is stable_order's own array, now spent
    ids -= 1
    return order, ids, distinct, runs


def number_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per key, the rank of its value among the distinct values; those values
    ascending; and each value's first position: np.unique(keys,
    return_index=True, return_inverse=True) reordered, off one group_keys."""
    order, ids, distinct, runs = group_keys(keys)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = ids
    return rank, distinct, order[runs]


def parse_int_pairs(data: bytes) -> np.ndarray | None:
    """The pairs of data as one np.loadtxt parse, an (r, 2) int64 array; or
    None unless data is ASCII, each '#' starts a line and each CR is in a
    CRLF (loadtxt cuts a comment from mid-line, and reads a lone CR in a
    comment as comment text), loadtxt neither fails nor warns (ids past
    int64, no pairs, a float token numpy 1.x reads as an integer), and the
    result has two columns and no negative id. To turn its warnings into
    errors, the call changes the process's warning filters while it runs."""
    if not data.isascii() or data.count(b"\r") != data.count(b"\r\n"):
        return None
    if data.count(b"#") != data.count(b"\n#") + data.startswith(b"#"):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pairs = np.loadtxt(io.BytesIO(data), np.int64, comments="#", ndmin=2)
        except (ValueError, Warning):
            return None
    if pairs.shape[1] != 2 or np.any(pairs < 0):
        return None
    return pairs


def read_int_pairs(data: bytes) -> np.ndarray:
    """The pairs of any pair file (an edge list, membership.txt,
    superedges.txt) as the (r, 2) array of parse_int_pairs. Data it refuses
    is tokenized line by line into the same array, raising
    EdgeListParseError at the first line at fault. Ids past int64 make it
    dtype=object, of exact ints: numpy infers [2**63, 1] as float64."""
    pairs = parse_int_pairs(data)
    if pairs is not None:
        return pairs
    ids: list[int] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        if not raw.isascii():
            raise EdgeListParseError(f"non-ASCII byte in {raw.strip()!r}", lineno)
        line = raw.decode().strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected two integer tokens, got {len(tokens)}", lineno)
        try:
            if "_" in line:  # int() takes [+-]?[0-9]+, but also 1_0 as 10
                raise ValueError
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {line!r}", lineno) from None
        if a < 0 or b < 0:
            raise EdgeListParseError(f"negative node id in {line!r}", lineno)
        ids += (a, b)
    dtype = np.int64 if max(ids, default=0) < 2**63 else object
    return np.array(ids, dtype=dtype).reshape(-1, 2)


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write each canonical edge (u < v) once as "u v\\n", ascending order."""
    write_int_pairs(path, *g.edge_arrays)


def write_id_map(result: LoadResult, path: str | Path) -> None:
    """Persist the compact-id -> original-id mapping ("new original" lines)."""
    ids = np.array(result.original_ids, dtype=object)  # exact past int64
    write_int_pairs(path, np.arange(len(ids)), ids)


_WRITE_BLOCK = 65536  # pairs formatted per write, so no whole-file text is held


def write_int_pairs(path: str | Path, first: np.ndarray, second: np.ndarray) -> None:
    """Write "first[i] second[i]\\n" for each i, formatted with "%d %d\\n"
    over Python ints (tolist() keeps object ids past int64 exact)."""
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, len(first), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            flat = np.stack((first[block], second[block]), axis=1).ravel().tolist()
            fh.write("%d %d\n" * (len(flat) // 2) % tuple(flat))
