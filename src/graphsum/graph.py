"""Undirected simple graphs in a compressed sorted-adjacency layout.

This module owns the plain-text edge-list interchange format used by every
command in the toolkit:

    one edge per line, two base-10 integers separated by whitespace;
    lines starting with '#' and blank lines are skipped; no header.

Loading drops edge directions, merges duplicate edges, discards self-loops
and compacts node ids to 0..n-1 in order of first appearance. The id
remapping is reported so external ids survive the round trip.
"""

from __future__ import annotations

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
    validates symmetry, sortedness and the absence of self-loops; after
    that the graph is safe for unlimited concurrent readers.
    """

    offsets: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        _validate_csr(self.offsets, self.targets)
        self.offsets.setflags(write=False)
        self.targets.setflags(write=False)

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
        self._check_node(u)
        return self.targets[self.offsets[u] : self.offsets[u + 1]].tolist()

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
        u_list, v_list = self._edge_lists
        return zip(u_list, v_list)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges of edges() as two read-only int64 arrays."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))
        forward = src < self.targets
        u, v = src[forward], self.targets[forward].astype(np.int64, copy=False)
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    @cached_property
    def _edge_lists(self) -> tuple[list[int], list[int]]:
        u, v = self.edge_arrays
        return u.tolist(), v.tolist()

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


def _validate_csr(offsets: np.ndarray, targets: np.ndarray) -> None:
    if offsets.ndim != 1 or targets.ndim != 1:
        raise ValueError("offsets and targets must be 1-d arrays")
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


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from (u, v) pairs.

    Pairs are canonicalized, duplicates merged and self-loops discarded.
    Ids must lie in 0..n-1; n may exceed the ids used (isolated nodes).
    """
    canon = {(u, v) if u < v else (v, u) for u, v in edges if u != v}
    for u, v in canon:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of bounds for n={n}")
    if not canon:
        return Graph(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    eu = np.fromiter((e[0] for e in canon), dtype=np.int64, count=len(canon))
    ev = np.fromiter((e[1] for e in canon), dtype=np.int64, count=len(canon))
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return Graph(offsets, dst)


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

    Raises EdgeListParseError (with the offending line number) on a
    non-integer token, a wrong token count or a negative id.
    """
    remap: dict[int, int] = {}
    original_ids: list[int] = []
    canon: set[tuple[int, int]] = set()
    self_loops = 0
    edge_lines = 0

    def compact(x: int) -> int:
        new = remap.get(x)
        if new is None:
            new = len(original_ids)
            remap[x] = new
            original_ids.append(x)
        return new

    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"expected two integer tokens, got {len(tokens)}", lineno
                )
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer token in {line!r}", lineno
                ) from None
            if a < 0 or b < 0:
                raise EdgeListParseError(f"negative node id in {line!r}", lineno)
            edge_lines += 1
            u, v = compact(a), compact(b)
            if u == v:
                self_loops += 1
                continue
            canon.add((u, v) if u < v else (v, u))

    graph = from_edges(len(original_ids), canon)
    duplicates = edge_lines - self_loops - len(canon)
    return LoadResult(graph, original_ids, duplicates, self_loops)


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write each canonical edge (u < v) once as "u v\\n", ascending order."""
    with open(path, "w", encoding="ascii") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def write_id_map(result: LoadResult, path: str | Path) -> None:
    """Persist the compact-id -> original-id mapping ("new original" lines)."""
    with open(path, "w", encoding="ascii") as fh:
        for new, orig in enumerate(result.original_ids):
            fh.write(f"{new} {orig}\n")
