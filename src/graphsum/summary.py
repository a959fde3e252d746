"""Summary graphs: supernode partitions plus superedges, and their disk format.

A summary directory holds:

    membership.txt   "node_id supernode_id" per node
    superedges.txt   "sid sid" canonical pairs, self-pairs allowed
    kinds.txt        "sid kind" (lossless summaries only)
    meta.txt         "key value" records (algorithm, parameters, stats)

membership.txt and superedges.txt are read as edge lists are, by
graph.read_int_pairs, under one token rule: ASCII digits with an optional
sign, no negative id, '#' and blank lines skipped. load_summary refuses
a file that breaks it, naming the line, and one holding an id past int64.

Reconstruction expands each cross superedge to a complete bipartite graph
and each self superedge to a clique, as one array pass whose memory is
O(implied edges); max_edges (the CLI's --cap-reconstruction) bounds it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import graph as graphmod
from .errors import CapExceededError, EdgeListParseError, UnsupportedSummaryError
from .graph import Graph

KIND_SINGLETON = "singleton"
KIND_CLIQUE = "clique"
KIND_INDEPENDENT_SET = "independent_set"
VALID_KINDS = (KIND_SINGLETON, KIND_CLIQUE, KIND_INDEPENDENT_SET)

DEFAULT_RECONSTRUCT_CAP = 50_000_000


class PairSet(AbstractSet):
    """An immutable set of integer pairs held as two int64 arrays that
    ascend by (a, b) without repeats, in place of one Python tuple per pair.

    It iterates in that order, tests membership and compares equal like the
    set of the same (a, b) tuples; set operators return plain sets. Python
    sets of tuples grow slower than linearly with their size (cache
    misses), so builders hand their pair arrays over in this form.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        step_a, step_b = a[1:] - a[:-1], b[1:] - b[:-1]
        if len(a) != len(b) or np.any((step_a < 0) | ((step_a == 0) & (step_b <= 0))):
            raise ValueError("pairs must ascend by (a, b) without repeats")
        a.setflags(write=False)
        b.setflags(write=False)
        self.pairs = (a, b)

    @classmethod
    def _from_iterable(cls, it: Iterable) -> set:
        return set(it)

    def __len__(self) -> int:
        return len(self.pairs[0])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        a, b = self.pairs
        return zip(a.tolist(), b.tolist())

    def __contains__(self, pair: object) -> bool:
        try:
            x, y = pair  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        a, b = self.pairs
        lo, hi = np.searchsorted(a, x, "left"), np.searchsorted(a, x, "right")
        i = lo + np.searchsorted(b[lo:hi], y)
        return bool(i < hi and b[i] == y)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairSet):
            return all(map(np.array_equal, self.pairs, other.pairs))
        return super().__eq__(other)

    __hash__ = None  # like set: equal to mutable sets, so not hashable

    def __repr__(self) -> str:
        return repr(set(self))


@dataclass(eq=False)
class Summary:
    """Partition of the nodes into supernodes plus a superedge set.

    Stored: membership[u], the supernode id of node u; superedges, canonical
    pairs (a, b) with a <= b, a self-pair meaning the supernode's members
    are all joined, given as any set of pairs and kept as a PairSet; and
    is_lossless. The constructor enforces what load_summary enforces on
    disk: supernode ids are dense integers (none negative, none unused),
    and each superedge is one integer pair with 0 <= a <= b < k. The
    builders number supernodes by first appearance over nodes 0..n-1.

    Derived: sizes (np.bincount of membership) at construction, since
    validation needs them; supernodes (member lists, ascending), the
    cliques mask, kinds and the supernode graph of super_adjacency() on
    first use. Kinds exist only for lossless summaries and follow from the
    structure: size 1 is a singleton, a self-superedge makes a clique,
    anything else is an independent set. Treat instances as immutable once
    built: queries never mutate them and share them freely. Two concurrent
    first uses may both derive a value, and get equal results.
    """

    membership: np.ndarray = field(repr=False)
    superedges: AbstractSet[tuple[int, int]] = field(repr=False)
    is_lossless: bool = False
    sizes: np.ndarray = field(init=False, repr=False)
    _super_graph: Graph | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        membership = np.asarray(self.membership)  # [] is float64, and empty
        if membership.ndim != 1 or (membership.dtype.kind not in "iu" and membership.size):
            raise ValueError("membership must be a 1-d integer array, one supernode id per node")
        self.membership = membership.astype(np.int64, copy=False)
        self.sizes = _supernode_sizes(self.membership)
        if isinstance(self.superedges, PairSet):
            a, b = self.superedges.pairs
        else:
            a, b = graphmod._int_pairs(self.superedges, "superedge")
        bad = (a < 0) | (a > b) | (b >= len(self.sizes))
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(f"superedge ({a[i]},{b[i]}) is not canonical")
        if not isinstance(self.superedges, PairSet):
            order, keys = graphmod.stable_order(a * len(self.sizes) + b)
            repeat = np.flatnonzero(keys[1:] == keys[:-1])
            if repeat.size:
                i = order[repeat[0]]
                raise ValueError(f"superedge ({a[i]},{b[i]}) is repeated")
            self.superedges = PairSet(a[order], b[order])

    @property
    def n(self) -> int:
        return len(self.membership)

    @property
    def num_supernodes(self) -> int:
        return len(self.sizes)

    @property
    def num_superedges(self) -> int:
        return len(self.superedges)

    @cached_property
    def supernodes(self) -> list[list[int]]:
        """Member lists per supernode id, each ascending."""
        flat = graphmod.stable_order(self.membership)[0].tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [flat[end - size : end] for end, size in zip(ends, self.sizes.tolist())]

    @cached_property
    def cliques(self) -> np.ndarray:
        """Read-only mask of the clique supernodes: a self-superedge and two
        or more members, the rule kinds applies."""
        a, b = self.superedges.pairs
        clique = np.zeros(self.num_supernodes, dtype=bool)
        clique[a[a == b]] = True
        clique &= self.sizes >= 2
        clique.setflags(write=False)
        return clique

    @cached_property
    def kinds(self) -> list[str] | None:
        """One kind tag per supernode for lossless summaries, else None."""
        if not self.is_lossless:
            return None
        kinds = np.where(self.cliques, KIND_CLIQUE, KIND_INDEPENDENT_SET)
        kinds[self.sizes == 1] = KIND_SINGLETON
        return kinds.tolist()

    def size(self, sid: int) -> int:
        return int(self.sizes[sid])

    def members(self, sid: int) -> list[int]:
        return self.supernodes[sid]

    def supernode_of(self, u: int) -> int:
        return int(self.membership[u])

    def super_adjacency(self) -> Graph:
        """The graph over supernodes whose edges are the cross superedges.

        Self-superedges are left out. Built on the first call and cached on
        the instance; like every Graph it is immutable.
        """
        if self._super_graph is None:
            a, b = self.superedges.pairs
            cross = a != b
            self._super_graph = graphmod._simple_graph(self.num_supernodes, a[cross], b[cross])
        return self._super_graph

    def implied_edge_count(self) -> int:
        """Number of edges a reconstruction would materialize."""
        return int(pair_capacity(self.sizes, *self.superedges.pairs).sum())


def pair_capacity(sizes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The node pairs each superpair (a[i], b[i]) spans, for supernodes of
    the given sizes: C(size, 2) for a self-pair, size_a * size_b otherwise."""
    sa, sb = sizes[a], sizes[b]
    return np.where(a == b, sa * (sa - 1) // 2, sa * sb)


def _supernode_sizes(membership: np.ndarray) -> np.ndarray:
    """Members per supernode id; ValueError unless the ids are 0..k-1, all used."""
    if membership.size and membership.min() < 0:
        raise ValueError(f"negative supernode id {membership.min()}")
    sizes = np.bincount(membership)
    if np.any(sizes == 0):
        raise ValueError(f"supernode id {np.argmin(sizes)} is unused")
    return sizes


def reconstruct(s: Summary, max_edges: int = DEFAULT_RECONSTRUCT_CAP) -> Graph:
    """Expand a summary back into a concrete Graph in one array pass, refusing
    before any allocation when the implied edge count exceeds max_edges. Memory
    stays under twice the implied edges: a self superedge fills both orders."""
    implied = s.implied_edge_count()
    if implied > max_edges:
        raise CapExceededError(
            f"reconstruction would materialize {implied} edges (cap {max_edges})"
        )
    members, _ = graphmod.stable_order(s.membership)  # grouped by supernode, ascending
    first = np.cumsum(s.sizes) - s.sizes  # where each supernode's members start
    a, b = s.superedges.pairs
    slots = s.sizes[a] * s.sizes[b]
    edge = np.repeat(np.arange(len(a)), slots)  # slot i * sizes[b] + j: members i of a, j of b
    i, j = np.divmod(np.arange(len(edge)) - (np.cumsum(slots) - slots)[edge], s.sizes[b][edge])
    u, v = members[first[a][edge] + i], members[first[b][edge] + j]
    keep = u != v
    return graphmod._simple_graph(s.n, u[keep], v[keep])


# -- directory round trip ---------------------------------------------------


def save_summary(s: Summary, outdir: str | Path, meta: dict[str, object] | None = None) -> None:
    """Write s into outdir, removing an earlier kinds.txt or meta.txt it lacks."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, written in (("kinds.txt", s.is_lossless), ("meta.txt", meta is not None)):
        if not written:
            (out / name).unlink(missing_ok=True)
    graphmod.write_int_pairs(out / "membership.txt", np.arange(s.n), s.membership)
    graphmod.write_int_pairs(out / "superedges.txt", *s.superedges.pairs)  # ascending (a, b)
    if s.is_lossless:
        (out / "kinds.txt").write_bytes(_kinds_text(s.kinds))
    if meta is not None:
        write_meta(meta, out / "meta.txt")


def load_summary(indir: str | Path) -> Summary:
    """Read a summary directory, refusing one whose files disagree.

    membership.txt must list each node 0..n-1 exactly once with dense
    supernode ids, and every superedge must join known supernodes. The
    counts n, supernodes and superedges in meta.txt, where recorded, must
    match the files. kinds.txt, when present, must tag every supernode
    once with exactly the kind its structure gives (see Summary). Any
    violation raises UnsupportedSummaryError naming the offending file.
    """
    src = Path(indir)
    path = src / "membership.txt"
    pairs = _read_pairs(path)
    nodes, n = pairs[:, 0], len(pairs)
    meta_path = src / "meta.txt"
    meta = read_meta(meta_path) if meta_path.exists() else {}
    _check_count(path, meta, "n", n, "nodes")
    bad = nodes[nodes >= n]
    if bad.size:
        raise _corrupt(path, f"node id {bad[0]} out of range 0..{n - 1}")
    repeated = np.flatnonzero(np.bincount(nodes, minlength=n) > 1)
    if repeated.size:
        raise _corrupt(path, f"node {repeated[0]} listed more than once")
    membership = np.empty(n, dtype=np.int64)
    membership[nodes] = pairs[:, 1]
    try:
        k = len(_supernode_sizes(membership))
    except ValueError as exc:
        raise _corrupt(path, str(exc)) from None
    _check_count(path, meta, "supernodes", k, "supernodes")
    path = src / "superedges.txt"
    pairs = _read_pairs(path)
    unknown = pairs[(pairs >= k).any(axis=1)]
    if unknown.size:
        a, b = unknown[0].tolist()
        raise _corrupt(path, f"superedge ({a},{b}) names an unknown supernode")
    span = max(k, 1)  # k is 0 for an empty summary, which has no superedges
    keys = graphmod.distinct_pair_keys(pairs[:, 0], pairs[:, 1], span)
    _check_count(path, meta, "superedges", len(keys), "distinct superedges")
    path = src / "kinds.txt"
    s = Summary(membership, PairSet(*np.divmod(keys, span)), is_lossless=path.exists())
    if s.is_lossless:
        _check_kinds(path, s.kinds)
    return s


def _check_count(path: Path, meta: dict[str, str], key: str, count: int, what: str) -> None:
    """A count meta.txt records must equal the one the file gives."""
    recorded = meta.get(key)
    if recorded is not None and recorded != str(count):
        raise _corrupt(path, f"{count} {what} listed, meta.txt records {key}={recorded}")


def _kinds_text(kinds: list[str]) -> bytes:
    """kinds.txt as save_summary writes it: one "sid kind" line per supernode."""
    return "".join(f"{sid} {kind}\n" for sid, kind in enumerate(kinds)).encode("ascii")


def _check_kinds(path: Path, kinds: list[str]) -> None:
    """kinds.txt must tag each supernode once, with its structural kind.

    The text save_summary writes passes at once; any other file is read
    line by line, which accepts another valid layout and names the first
    line at fault.
    """
    if path.read_bytes() != _kinds_text(kinds):
        _check_kind_lines(path, kinds)


def _check_kind_lines(path: Path, kinds: list[str]) -> None:
    """_check_kinds one line at a time, raising at the first line at fault."""
    tagged: set[int] = set()
    lines = _read_text(path).splitlines()
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
    for line in _read_text(Path(path)).splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _read_pairs(path: Path) -> np.ndarray:
    """The pairs of membership.txt or superedges.txt as an (r, 2) int64
    array, read by graph.read_int_pairs under the edge-list token rule."""
    try:
        pairs = graphmod.read_int_pairs(path.read_bytes())
    except EdgeListParseError as exc:
        raise _corrupt(path, str(exc)) from None
    if pairs.dtype == object:  # exact ids past int64, which no summary holds
        raise _corrupt(path, f"id {pairs.max()} does not fit in int64")
    return pairs


def _read_text(path: Path) -> str:
    """A summary file as text; every summary file is ASCII."""
    try:
        return path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise _corrupt(path, f"non-ASCII byte at offset {exc.start}") from None


def _corrupt(path: Path, message: str, lineno: int | None = None) -> UnsupportedSummaryError:
    where = f"{path}: line {lineno}" if lineno is not None else str(path)
    return UnsupportedSummaryError(f"{where}: {message}")
