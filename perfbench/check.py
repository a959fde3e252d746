"""Correctness checks of the program's outputs, computed apart from it.

Nothing here imports ``graphsum``: every expected value comes from the
edge list through this file's own numpy code.

    python3 perfbench/check.py JOB.json

reads a job written by ``run.py`` (the input graph and every output of one
round) and prints one JSON object: for each operation, ``"ok"``, or the
kind of failure with its reason. A failure is ``"forest-order"`` when a
lossy summary meets its threshold with the realised utility it reports but
merges other pairs than the minimum 2-hop forest under the documented
(weight, min id, max id) order; every other failure is ``"wrong"``.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

DAMPING = 0.85
TOL = 1e-10
MAX_ITER = 200
PAGERANK_RTOL = 1e-9
UTILITY_ATOL = 1e-9


class CheckFailure(Exception):
    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind
        self.reason = reason


def require(condition: bool, reason: str, kind: str = "wrong") -> None:
    if not condition:
        raise CheckFailure(kind, reason)


# -- the graph, as the program must see it -----------------------------------


class Graph:
    """Graph of an edge-list file, ids compacted in order of first
    appearance (the program's documented rule), with a sorted CSR."""

    def __init__(self, path: str | Path):
        raw = np.loadtxt(path, dtype=np.int64, ndmin=2, comments="#")
        flat = raw.ravel()
        uniq, first = np.unique(flat, return_index=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        compact = rank[np.searchsorted(uniq, flat)].reshape(-1, 2)
        self.original_ids = uniq[order]
        self.n = len(uniq)
        lo = np.minimum(compact[:, 0], compact[:, 1])
        hi = np.maximum(compact[:, 0], compact[:, 1])
        keys = np.unique((lo * self.n + hi)[lo != hi])
        self.eu, self.ev = keys // self.n, keys % self.n
        self.m = len(keys)
        src = np.concatenate([self.eu, self.ev])
        dst = np.concatenate([self.ev, self.eu])
        order = np.lexsort((dst, src))
        self.src, self.targets = src[order], dst[order]
        self.degrees = np.bincount(self.src, minlength=self.n)
        self.offsets = np.concatenate([[0], np.cumsum(self.degrees)])

    def neighbor_sets(self) -> list[set[int]]:
        flat = self.targets.tolist()
        offs = self.offsets.tolist()
        return [set(flat[offs[u] : offs[u + 1]]) for u in range(self.n)]


def pagerank(g: Graph) -> np.ndarray:
    """P(u) <- (1-d) + d * sum_{w in N(u)} P(w)/deg(w) from P0 = 1, stopped
    when the L1 change drops below TOL (the program's documented rule)."""
    inv_deg = np.zeros(g.n)
    np.divide(1.0, g.degrees.astype(np.float64), out=inv_deg, where=g.degrees > 0)
    scores = np.ones(g.n)
    for _ in range(MAX_ITER):
        pulled = np.bincount(g.src, weights=(scores * inv_deg)[g.targets], minlength=g.n)
        new = (1.0 - DAMPING) + DAMPING * pulled
        delta = float(np.abs(new - scores).sum())
        scores = new
        if delta < TOL:
            break
    return scores


def centrality(g: Graph, kind: str) -> np.ndarray:
    if kind == "pagerank":
        return pagerank(g)
    if kind == "degree":
        return g.degrees.astype(np.float64)
    raise ValueError(f"no independent check for centrality {kind!r}")


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distance from source to every node; -1 where unreachable."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    level = 0
    while len(frontier):
        level += 1
        starts, ends = g.offsets[frontier], g.offsets[frontier + 1]
        lengths = ends - starts
        idx = np.repeat(ends - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
        nxt = np.unique(g.targets[idx])
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    return dist


def twin_class_excess(g: Graph) -> int:
    """Sum of (class size - 1) over the open-neighbourhood and the
    closed-neighbourhood twin classes."""
    flat = g.targets.tolist()
    offs = g.offsets.tolist()
    open_classes: dict[tuple[int, ...], int] = {}
    closed_classes: dict[tuple[int, ...], int] = {}
    for u in range(g.n):
        row = flat[offs[u] : offs[u + 1]]
        key = tuple(row)
        open_classes[key] = open_classes.get(key, 0) + 1
        key = tuple(sorted(row + [u]))
        closed_classes[key] = closed_classes.get(key, 0) + 1
    return sum(c - 1 for c in open_classes.values()) + sum(
        c - 1 for c in closed_classes.values()
    )


def triangle_total(g: Graph) -> int:
    """Sum over edges of |N(u) & N(v)|, divided by 3."""
    sets = g.neighbor_sets()
    total = sum(len(sets[u] & sets[v]) for u, v in zip(g.eu.tolist(), g.ev.tolist()))
    require(total % 3 == 0, "common-neighbour sum is not a multiple of 3")
    return total // 3


# -- summaries on disk ---------------------------------------------------------


def read_pairs(path: Path) -> np.ndarray:
    text = path.read_text(encoding="ascii")
    return np.array(text.split(), dtype=np.int64).reshape(-1, 2)


def read_membership(path: Path, n: int) -> np.ndarray:
    """membership.txt as an array; it must name every node exactly once."""
    pairs = read_pairs(path)
    require(len(pairs) == n, f"membership lists {len(pairs)} nodes, graph has {n}")
    require(
        np.array_equal(np.sort(pairs[:, 0]), np.arange(n)),
        "membership does not name every node exactly once",
    )
    membership = np.empty(n, dtype=np.int64)
    membership[pairs[:, 0]] = pairs[:, 1]
    k = int(membership.max()) + 1 if n else 0
    require(
        bool(np.all(np.bincount(membership, minlength=k) > 0)),
        "supernode ids are not dense",
    )
    return membership


def read_meta(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check_id_map(g: Graph, summary_dir: Path) -> None:
    ids = read_pairs(summary_dir / "node_ids.txt")
    require(
        np.array_equal(ids[:, 0], np.arange(g.n))
        and np.array_equal(ids[:, 1], g.original_ids),
        "node_ids.txt is not the first-appearance compaction of the input",
    )


def superedge_keys(superedges: np.ndarray, k: int) -> np.ndarray:
    lo = np.minimum(superedges[:, 0], superedges[:, 1])
    hi = np.maximum(superedges[:, 0], superedges[:, 1])
    return np.unique(lo * k + hi)


def implied_pairs(sizes: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Node pairs a superedge implies: a clique for a self-pair, else the
    complete bipartite block."""
    lo, hi = keys // k, keys % k
    return np.where(lo == hi, sizes[lo] * (sizes[lo] - 1) // 2, sizes[lo] * sizes[hi])


def check_lossless(g: Graph, summary_dir: Path) -> None:
    check_id_map(g, summary_dir)
    membership = read_membership(summary_dir / "membership.txt", g.n)
    k = int(membership.max()) + 1
    sizes = np.bincount(membership, minlength=k)
    keys = superedge_keys(read_pairs(summary_dir / "superedges.txt"), k)
    a, b = membership[g.eu], membership[g.ev]
    covered = np.isin(np.minimum(a, b) * k + np.maximum(a, b), keys)
    require(bool(covered.all()), f"{int((~covered).sum())} edges lack a superedge")
    implied = int(implied_pairs(sizes, keys, k).sum())
    require(implied == g.m, f"summary implies {implied} edges, graph has {g.m}")
    expected = g.n - twin_class_excess(g)
    require(k == expected, f"{k} supernodes, the twin classes give {expected}")
    self_loop = np.zeros(k, dtype=bool)
    self_loop[(keys // k)[keys // k == keys % k]] = True
    kinds = dict(
        line.split() for line in (summary_dir / "kinds.txt").read_text().splitlines()
    )
    for sid in range(k):
        want = (
            "singleton" if sizes[sid] == 1
            else "clique" if self_loop[sid] else "independent_set"
        )
        require(kinds.get(str(sid)) == want, f"supernode {sid} is tagged {kinds.get(str(sid))}, not {want}")


def check_triangles(g: Graph, report: str) -> None:
    fields = report.split()
    require(len(fields) == 4, f"triangle report {report!r} is not 'a b c total'")
    a, b, c, total = map(int, fields)
    require(a + b + c == total, "triangle types do not add up to the total")
    expected = triangle_total(g)
    require(total == expected, f"{total} triangles, the graph has {expected}")


def check_pagerank(g: Graph, report: str) -> None:
    pairs = report.split()
    require(len(pairs) == 2 * g.n, "pagerank report does not list every node once")
    nodes = np.array(pairs[0::2], dtype=np.int64)
    scores = np.array(pairs[1::2], dtype=np.float64)
    require(np.array_equal(nodes, np.arange(g.n)), "pagerank report is not in node order")
    expected = pagerank(g)
    worst = float(np.max(np.abs(scores - expected) / expected))
    require(worst <= PAGERANK_RTOL, f"pagerank differs by {worst:.3g} (relative)")


def check_distances(g: Graph, queries: list[list]) -> None:
    by_source: dict[int, np.ndarray] = {}
    for u, v, d in queries:
        if u not in by_source:
            by_source[u] = bfs_distances(g, u)
        want = int(by_source[u][v])
        got = -1 if d == "inf" else int(d)
        require(got == want, f"distance {u}-{v} is {d}, BFS gives {want if want >= 0 else 'inf'}")


def check_verify(report: str) -> None:
    require(report.splitlines()[:1] == ["lossless true"], f"verify-lossless said {report[:40]!r}")


# -- lossy summaries ------------------------------------------------------------


class UtilityModel:
    """Edge weights (C_u + C_v) / Z and the uniform spurious weight."""

    def __init__(self, g: Graph, scores: np.ndarray):
        self.g = g
        self.scores = scores
        z = float(np.dot(g.degrees.astype(np.float64), scores))
        self.edge_weight = (scores[g.eu] + scores[g.ev]) / z
        self.w_s = 1.0 / (g.n * (g.n - 1) // 2 - g.m)

    def _pairs(self, labels: np.ndarray):
        k = int(labels.max()) + 1
        sizes = np.bincount(labels, minlength=k)
        a, b = labels[self.g.eu], labels[self.g.ev]
        keys, inverse = np.unique(np.minimum(a, b) * k + np.maximum(a, b), return_inverse=True)
        count = np.bincount(inverse)
        wsum = np.bincount(inverse, weights=self.edge_weight)
        spurious = (implied_pairs(sizes, keys, k) - count) * self.w_s
        return k, keys, spurious, wsum, sizes

    def best_utility(self, labels: np.ndarray) -> float:
        """Utility of a partition with every superedge chosen optimally."""
        _, _, spurious, wsum, _ = self._pairs(labels)
        return clamp(1.0 - math.fsum(np.minimum(spurious, wsum).tolist()))

    def realised_utility(self, labels: np.ndarray, superedges: np.ndarray) -> float:
        """Utility of a summary: its partition with its own superedges."""
        k, keys, spurious, wsum, sizes = self._pairs(labels)
        chosen = superedge_keys(superedges, k)
        extra = chosen[~np.isin(chosen, keys)]  # superedges over no actual edge
        losses = np.concatenate([
            np.where(np.isin(keys, chosen), spurious, wsum),
            implied_pairs(sizes, extra, k) * self.w_s,
        ])
        return clamp(1.0 - math.fsum(losses.tolist()))


def clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def star_forest(g: Graph, scores: np.ndarray) -> np.ndarray:
    """The minimum spanning forest of the 2-hop graph under
    (C_u + C_v, min id, max id), as pairs in that order.

    Kruskal over the star pairs (h(b), x), x in N(b), where h(b) is the
    lightest node of N(b) by (C, id). Every other pair inside N(b) is the
    heaviest edge of a triangle through h(b), so it is in no minimum forest.
    """
    order = np.lexsort((g.targets, scores[g.targets], g.src))
    hub = np.full(g.n, -1, dtype=np.int64)
    has_nbr = g.degrees > 0
    hub[has_nbr] = g.targets[order[g.offsets[:-1][has_nbr]]]
    h = hub[g.src]
    keep = (g.targets != h) & (g.degrees[g.src] >= 2)
    x, h = g.targets[keep], h[keep]
    lo, hi = np.minimum(x, h), np.maximum(x, h)
    keys = np.unique(lo * g.n + hi)
    lo, hi = keys // g.n, keys % g.n
    order = np.lexsort((hi, lo, scores[lo] + scores[hi]))
    sets = DisjointSets(g.n)
    forest = [(a, b) for a, b in zip(lo[order].tolist(), hi[order].tolist()) if sets.union(a, b)]
    return np.array(forest, dtype=np.int64).reshape(-1, 2)


class DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def prefix_labels(n: int, forest: np.ndarray, t: int) -> np.ndarray:
    """Supernode labels after merging the first t forest pairs, numbered by
    first appearance over nodes 0..n-1."""
    sets = DisjointSets(n)
    for a, b in forest[:t].tolist():
        sets.union(a, b)
    return first_appearance(np.array([sets.find(u) for u in range(n)]))


def first_appearance(labels: np.ndarray) -> np.ndarray:
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse]


def check_lossy(
    g: Graph,
    model: UtilityModel,
    forest: np.ndarray,
    tau: float,
    membership: np.ndarray,
    superedges: np.ndarray,
    reported_utility: float,
) -> None:
    """The three lossy checks: realised utility, partition, maximality."""
    realised = model.realised_utility(membership, superedges)
    require(
        abs(realised - reported_utility) <= UTILITY_ATOL,
        f"reported utility {reported_utility!r}, the summary realises {realised!r}",
    )
    require(realised >= tau, f"utility {realised!r} is below tau={tau}")
    t = g.n - (int(membership.max()) + 1)
    require(
        np.array_equal(first_appearance(membership), prefix_labels(g.n, forest, t)),
        f"partition is not the first {t} merges of the minimum 2-hop forest",
        kind="forest-order",
    )
    if t < len(forest):
        after = model.best_utility(prefix_labels(g.n, forest, t + 1))
        require(after < tau, f"merging forest pair {t + 1} keeps utility {after!r} >= tau")


# -- one round's job ----------------------------------------------------------------


class Expected:
    """What the outputs are checked against, computed on first use."""

    def __init__(self, job: dict):
        self.g = Graph(job["graph"])
        self.kind = job["centrality"]

    @cached_property
    def model(self) -> UtilityModel:
        return UtilityModel(self.g, centrality(self.g, self.kind))

    @cached_property
    def forest(self) -> np.ndarray:
        return star_forest(self.g, self.model.scores)

    def lossy_dir(self, out: str, tau: float) -> None:
        out_dir = Path(out)
        check_id_map(self.g, out_dir)
        meta = read_meta(out_dir / "meta.txt")
        require(meta.get("tie_break") == "weight,min-id,max-id", "meta.txt names another tie-break rule")
        check_lossy(
            self.g, self.model, self.forest, tau,
            read_membership(out_dir / "membership.txt", self.g.n),
            read_pairs(out_dir / "superedges.txt"),
            float(meta["utility"]),
        )

    def sweep_point(self, point: dict, original_ids: list[int]) -> None:
        require(np.array_equal(np.array(original_ids), self.g.original_ids), "the batch loaded other ids")
        membership = np.array(point["membership"], dtype=np.int64)
        require(len(membership) == self.g.n, "sweep partition does not cover the graph")
        check_lossy(
            self.g, self.model, self.forest, point["tau"], membership,
            np.array(point["superedges"], dtype=np.int64).reshape(-1, 2),
            point["utility"],
        )


def run_job(job: dict) -> dict[str, dict]:
    """Verdict per operation on the outputs a job names."""
    expected = Expected(job)
    g = expected.g
    verdicts: dict[str, dict] = {}

    def attempt(name: str, check, *args) -> None:
        try:
            check(*args)
            verdicts[name] = {"ok": True}
        except CheckFailure as exc:
            verdicts[name] = {"ok": False, "kind": exc.kind, "reason": exc.reason}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdicts[name] = {"ok": False, "kind": "wrong", "reason": f"unreadable output: {exc}"}

    def text(path: str) -> str:
        return Path(path).read_text(encoding="ascii")

    ops = job["ops"]
    if "lossless" in ops:
        attempt("lossless", check_lossless, g, Path(ops["lossless"]))
    if "query_triangles" in ops:
        attempt("query_triangles", lambda: check_triangles(g, text(ops["query_triangles"])))
    if "query_pagerank" in ops:
        attempt("query_pagerank", lambda: check_pagerank(g, text(ops["query_pagerank"])))
    if "verify" in ops:
        attempt("verify", lambda: check_verify(text(ops["verify"])))
    if "lossy" in ops:
        attempt("lossy", expected.lossy_dir, ops["lossy"], job["tau"])
    if "sssp" in ops:
        attempt("sssp", lambda: check_distances(g, json.loads(text(ops["sssp"]))["queries"]))
    if "sweep" in ops:
        sweep = json.loads(text(ops["sweep"]))
        for point in sweep["points"]:
            attempt(f"sweep_{point['tau']}", expected.sweep_point, point, sweep["original_ids"])
    return verdicts


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
