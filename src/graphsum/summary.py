"""Summary graphs: supernode partitions plus superedges, and their disk format.

A summary directory holds:

    membership.txt   "node_id supernode_id" per node
    superedges.txt   "sid sid" canonical pairs, self-pairs allowed
    kinds.txt        "sid kind" (lossless summaries only)
    meta.txt         "key value" records (algorithm, parameters, stats)

Reconstruction expands each cross superedge to a complete bipartite graph
and each self superedge to a clique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import graph as graphmod
from .errors import CapExceededError, UnsupportedSummaryError
from .graph import Graph

KIND_SINGLETON = "singleton"
KIND_CLIQUE = "clique"
KIND_INDEPENDENT_SET = "independent_set"
VALID_KINDS = (KIND_SINGLETON, KIND_CLIQUE, KIND_INDEPENDENT_SET)

DEFAULT_RECONSTRUCT_CAP = 50_000_000


@dataclass(eq=False)
class Summary:
    """Partition of the nodes into supernodes plus a superedge set.

    membership[u] is the supernode id of node u; ids are dense, numbered
    by first appearance over nodes 0..n-1. kinds is present only for
    lossless summaries (one tag per supernode). Treat instances as
    immutable once built: queries never mutate them and share them freely.
    The supernode graph of super_adjacency() is built on first use; two
    concurrent readers may both build it, and get equal immutable graphs.
    """

    membership: np.ndarray = field(repr=False)
    supernodes: list[list[int]] = field(repr=False)
    superedges: set[tuple[int, int]] = field(repr=False)
    kinds: list[str] | None = None
    _super_graph: Graph | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=np.int64)
        k = len(self.supernodes)
        if self.membership.size and (
            self.membership.min() < 0 or self.membership.max() >= k
        ):
            raise ValueError("membership refers to an unknown supernode")
        if sum(len(s) for s in self.supernodes) != len(self.membership):
            raise ValueError("supernodes do not partition the node set")
        for a, b in self.superedges:
            if not (0 <= a <= b < k):
                raise ValueError(f"superedge ({a},{b}) is not canonical")
        if self.kinds is not None:
            if len(self.kinds) != k:
                raise ValueError("one kind tag per supernode required")
            for kind in self.kinds:
                if kind not in VALID_KINDS:
                    raise ValueError(f"unknown supernode kind {kind!r}")

    @property
    def n(self) -> int:
        return len(self.membership)

    @property
    def num_supernodes(self) -> int:
        return len(self.supernodes)

    @property
    def num_superedges(self) -> int:
        return len(self.superedges)

    @property
    def is_lossless(self) -> bool:
        return self.kinds is not None

    def size(self, sid: int) -> int:
        return len(self.supernodes[sid])

    def members(self, sid: int) -> list[int]:
        return self.supernodes[sid]

    def supernode_of(self, u: int) -> int:
        return int(self.membership[u])

    def has_self_loop(self, sid: int) -> bool:
        return (sid, sid) in self.superedges

    def super_adjacency(self) -> Graph:
        """The graph over supernodes whose edges are the cross superedges.

        Self-superedges are left out. Built on the first call and cached on
        the instance; like every Graph it is immutable.
        """
        if self._super_graph is None:
            self._super_graph = _supernode_graph(self.num_supernodes, self.superedges)
        return self._super_graph

    def implied_edge_count(self) -> int:
        """Number of edges a reconstruction would materialize."""
        total = 0
        for a, b in self.superedges:
            if a == b:
                k = self.size(a)
                total += k * (k - 1) // 2
            else:
                total += self.size(a) * self.size(b)
        return total


def _supernode_graph(k: int, superedges: set[tuple[int, int]]) -> Graph:
    """CSR over k supernodes from the cross pairs of a canonical pair set."""
    flat = np.fromiter(
        itertools.chain.from_iterable(superedges), dtype=np.int64, count=2 * len(superedges)
    )
    a, b = flat[0::2], flat[1::2]
    cross = a != b
    src = np.concatenate([a[cross], b[cross]])
    dst = np.concatenate([b[cross], a[cross]])
    order = np.argsort(src * k + dst)
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=offsets[1:])
    return Graph(offsets, dst[order])


def partition_summary(
    labels: Sequence[int],
    superedges: set[tuple[int, int]],
    kinds_by_group: dict[int, str] | None = None,
) -> Summary:
    """Build a Summary from raw per-node labels, renumbering supernodes densely.

    Labels are renumbered by first appearance over nodes 0..n-1; superedges
    and kind tags must already refer to the dense numbering produced by
    `dense_labels` (use that helper first when starting from a UnionFind).
    """
    membership = np.asarray(labels, dtype=np.int64)
    k = int(membership.max()) + 1 if membership.size else 0
    supernodes: list[list[int]] = [[] for _ in range(k)]
    for u, sid in enumerate(membership.tolist()):
        supernodes[sid].append(u)
    kinds = None
    if kinds_by_group is not None:
        kinds = [kinds_by_group[sid] for sid in range(k)]
    return Summary(membership, supernodes, superedges, kinds)


def dense_labels(groups: Iterable[Sequence[int]], n: int) -> list[int]:
    """Per-node dense labels from disjoint groups, numbered by first appearance."""
    raw = [-1] * n
    for gid, members in enumerate(groups):
        for u in members:
            if raw[u] != -1:
                raise ValueError(f"node {u} assigned to two supernodes")
            raw[u] = gid
    if any(x == -1 for x in raw):
        raise ValueError("groups do not cover every node")
    relabel: dict[int, int] = {}
    out = []
    for u in range(n):
        r = raw[u]
        if r not in relabel:
            relabel[r] = len(relabel)
        out.append(relabel[r])
    return out


def reconstruct(s: Summary, max_edges: int = DEFAULT_RECONSTRUCT_CAP) -> Graph:
    """Expand a summary back into a concrete Graph.

    Refuses when the implied edge count exceeds max_edges.
    """
    implied = s.implied_edge_count()
    if implied > max_edges:
        raise CapExceededError(
            f"reconstruction would materialize {implied} edges (cap {max_edges})"
        )
    edges: list[tuple[int, int]] = []
    for a, b in s.superedges:
        if a == b:
            members = s.members(a)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    edges.append((members[i], members[j]))
        else:
            for u in s.members(a):
                for v in s.members(b):
                    edges.append((u, v))
    return graphmod.from_edges(s.n, edges)


# -- directory round trip ---------------------------------------------------


def save_summary(s: Summary, outdir: str | Path, meta: dict[str, object] | None = None) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "membership.txt", "w", encoding="ascii") as fh:
        for u, sid in enumerate(s.membership.tolist()):
            fh.write(f"{u} {sid}\n")
    with open(out / "superedges.txt", "w", encoding="ascii") as fh:
        for a, b in sorted(s.superedges):
            fh.write(f"{a} {b}\n")
    if s.kinds is not None:
        with open(out / "kinds.txt", "w", encoding="ascii") as fh:
            for sid, kind in enumerate(s.kinds):
                fh.write(f"{sid} {kind}\n")
    if meta is not None:
        write_meta(meta, out / "meta.txt")


def load_summary(indir: str | Path) -> Summary:
    """Read a summary directory, refusing one whose files disagree.

    membership.txt must list each node 0..n-1 exactly once with dense
    supernode ids, and every superedge must join known supernodes. The
    counts n, supernodes and superedges in meta.txt, where recorded, must
    match the files. Kinds follow from the structure:
    a supernode of size 1 is a singleton, one with a self-superedge a
    clique, any other an independent set; kinds.txt, when present, must
    tag every supernode once with exactly that kind. Any violation raises
    UnsupportedSummaryError naming the offending file.
    """
    src = Path(indir)
    path = src / "membership.txt"
    pairs = _read_pairs(path)
    nodes, n = pairs[:, 0], len(pairs)
    meta_path = src / "meta.txt"
    meta = read_meta(meta_path) if meta_path.exists() else {}
    _check_count(path, meta, "n", n, "nodes")
    bad = nodes[(nodes < 0) | (nodes >= n)]
    if bad.size:
        raise _corrupt(path, f"node id {bad[0]} out of range 0..{n - 1}")
    repeated = np.flatnonzero(np.bincount(nodes, minlength=n) > 1)
    if repeated.size:
        raise _corrupt(path, f"node {repeated[0]} listed more than once")
    membership = np.empty(n, dtype=np.int64)
    membership[nodes] = pairs[:, 1]
    if n and membership.min() < 0:
        raise _corrupt(path, f"negative supernode id {membership.min()}")
    sizes = np.bincount(membership)
    if np.any(sizes == 0):
        raise _corrupt(path, f"supernode id {np.argmin(sizes)} is unused")
    k = len(sizes)
    _check_count(path, meta, "supernodes", k, "supernodes")
    path = src / "superedges.txt"
    pairs = _read_pairs(path)
    unknown = pairs[((pairs < 0) | (pairs >= k)).any(axis=1)]
    if unknown.size:
        a, b = unknown[0].tolist()
        raise _corrupt(path, f"superedge ({a},{b}) names an unknown supernode")
    superedges = set(zip(pairs.min(axis=1).tolist(), pairs.max(axis=1).tolist()))
    _check_count(path, meta, "superedges", len(superedges), "distinct superedges")
    kinds = None
    path = src / "kinds.txt"
    if path.exists():
        kinds = [
            KIND_SINGLETON if size == 1
            else KIND_CLIQUE if (sid, sid) in superedges
            else KIND_INDEPENDENT_SET
            for sid, size in enumerate(sizes.tolist())
        ]
        _check_kinds(path, kinds)
    supernodes: list[list[int]] = [[] for _ in range(k)]
    for u, sid in enumerate(membership.tolist()):
        supernodes[sid].append(u)
    return Summary(membership, supernodes, superedges, kinds)


def _check_count(path: Path, meta: dict[str, str], key: str, count: int, what: str) -> None:
    """A count meta.txt records must equal the one the file gives."""
    recorded = meta.get(key)
    if recorded is not None and recorded != str(count):
        raise _corrupt(path, f"{count} {what} listed, meta.txt records {key}={recorded}")


def _check_kinds(path: Path, kinds: list[str]) -> None:
    """kinds.txt must tag each supernode once, with its structural kind."""
    tagged: set[int] = set()
    lines = path.read_text(encoding="ascii").splitlines()
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        if not tokens:
            continue
        if len(tokens) != 2 or not tokens[0].isdigit():
            raise _corrupt(path, f"expected 'sid kind', got {' '.join(tokens)!r}", lineno)
        sid, kind = int(tokens[0]), tokens[1]
        if kind not in VALID_KINDS:
            raise _corrupt(path, f"unknown kind {kind!r}", lineno)
        if not 0 <= sid < len(kinds):
            raise _corrupt(path, f"supernode {sid} out of range 0..{len(kinds) - 1}", lineno)
        if sid in tagged:
            raise _corrupt(path, f"supernode {sid} tagged twice", lineno)
        if kind != kinds[sid]:
            fact = f"its structure makes it {kinds[sid]}"
            raise _corrupt(path, f"supernode {sid} tagged {kind}, but {fact}", lineno)
        tagged.add(sid)
    if len(tagged) != len(kinds):
        raise _corrupt(path, "does not tag every supernode")


def write_meta(meta: dict[str, object], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, value in meta.items():
            if isinstance(value, float):
                value = repr(value)
            fh.write(f"{key} {value}\n")


def read_meta(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(" ")
            out[key] = value
    return out


def _read_pairs(path: Path) -> np.ndarray:
    """The two integers on each non-blank line, as an (r, 2) int64 array."""
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    try:
        pairs = np.array(rows, dtype=np.int64)
        if pairs.shape[1:] == (2,) or not rows:
            return pairs.reshape(-1, 2)
    except (ValueError, OverflowError):
        pass
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        try:
            if tokens:
                np.array(tokens, dtype=np.int64).reshape(2)
        except (ValueError, OverflowError):
            got = " ".join(tokens)
            raise _corrupt(path, f"expected two integers, got {got!r}", lineno) from None
    raise _corrupt(path, "expected two integers per line")


def _corrupt(path: Path, message: str, lineno: int | None = None) -> UnsupportedSummaryError:
    where = f"{path}: line {lineno}" if lineno is not None else str(path)
    return UnsupportedSummaryError(f"{where}: {message}")
