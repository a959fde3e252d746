"""Node centralities and the edge-weight model behind the utility measure.

Four centralities back the top-t% evaluation queries: pagerank, degree,
eigenvector and betweenness. Any nonnegative score vector (including a
uniform one) can feed the weight model, which assigns each actual edge
the normalized weight (C_u + C_v) / Z and every spurious pair the uniform
weight 1 / (n*(n-1)/2 - m).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapExceededError, DegenerateWeightsError, EmptyGraphError, ModelUndefinedError
from .graph import Graph

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_BETWEENNESS_CAP = 20_000

CENTRALITY_KINDS = ("pagerank", "degree", "eigenvector", "betweenness")


@dataclass(frozen=True)
class NodeCentrality:
    """Per-node nonnegative scores, tagged with how they were produced."""

    scores: np.ndarray = field(repr=False)
    kind: str
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)  # private copy
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise ValueError("centrality scores must be finite and nonnegative")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.scores)


def _neighbor_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """sums[u] = sum of values[w] over w in N(u)."""
    return np.bincount(g.sources, weights=values[g.targets], minlength=g.n)


def _check_tol(tol: float) -> None:
    """ValueError unless tol is positive and finite: a tol of 0 or less is
    never met, and an infinite one (or NaN) would stop or run on silently."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def _power_iteration(step, x, tol: float, max_iter: int) -> tuple[np.ndarray, int, bool]:
    """x <- step(x) until the L1 change drops below tol, or for max_iter rounds.
    Returns the last iterate, the rounds run and whether the change did drop.
    tol must be positive and finite, or ValueError."""
    _check_tol(tol)
    for iterations in range(1, max_iter + 1):
        new = step(x)
        delta = float(np.abs(new - x).sum())
        x = new
        if delta < tol:
            return x, iterations, True
    return x, max(max_iter, 0), False


def pagerank_iteration(
    g: Graph,
    sizes: np.ndarray,
    clique: np.ndarray,
    damping: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, bool]:
    """Power iteration of Pagerank totals over nodes of float size |x|,
    some of them cliques of |x| members:

        P(x) <- (1-d)|x| + d (|x| sum_{y in N(x)} P(y)/W(y) + [x clique] (|x|-1) P(x)/W(x))

    from P0(x) = |x|, where W(x) = sum_{y in N(x)} |y| + [x clique] (|x|-1)
    is the degree each member of x has; _power_iteration runs the rounds. Nodes
    with W = 0 contribute nothing; the division by zero is never evaluated.
    Returns the totals, the rounds run and whether the iteration converged.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError("damping must lie in [0, 1]")
    w = _neighbor_sums(g, sizes).astype(np.float64)  # float even with no edges
    w[clique] += sizes[clique] - 1.0
    inv_w = np.zeros(g.n)
    np.divide(1.0, w, out=inv_w, where=w > 0)

    def step(scores: np.ndarray) -> np.ndarray:
        contrib = scores * inv_w
        new = sizes * _neighbor_sums(g, contrib)
        new[clique] += (sizes[clique] - 1.0) * contrib[clique]
        return (1.0 - damping) * sizes + damping * new

    return _power_iteration(step, sizes.copy(), tol, max_iter)


def pagerank(
    g: Graph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> NodeCentrality:
    """Power iteration P(u) <- (1-d) + d * sum_{w in N(u)} P(w)/|N(w)|.

    Starts from P0(u) = 1 and stops when the L1 change drops below tol.
    damping=1 is the plain undamped recurrence. Degree-0 nodes settle at
    (1 - damping). If max_iter is hit first, the last iterate is returned
    flagged as non-converged. This is pagerank_iteration with every size
    1 and no cliques.
    """
    if g.n == 0:
        raise EmptyGraphError("pagerank of an empty graph is undefined")
    scores, iterations, converged = pagerank_iteration(
        g, np.ones(g.n), np.zeros(g.n, dtype=bool), damping, tol, max_iter
    )
    return NodeCentrality(scores, "pagerank", converged, iterations)


def degree_centrality(g: Graph) -> NodeCentrality:
    if g.n == 0:
        raise EmptyGraphError("degree centrality of an empty graph is undefined")
    return NodeCentrality(g.degrees.astype(np.float64), "degree")


def eigenvector_centrality(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = 1000
) -> NodeCentrality:
    """Principal adjacency eigenvector by power iteration, L2-normalized.

    The start vector is uniform positive, so the iteration converges to
    the Perron vector whenever the principal eigenvalue dominates (it may
    oscillate on bipartite graphs, in which case the result is flagged).
    With m > 0 no norm is 0: a largest entry of each iterate has a neighbor.
    """
    if g.n == 0:
        raise EmptyGraphError("eigenvector centrality of an empty graph is undefined")
    if g.m == 0:
        _check_tol(tol)  # refused as _power_iteration would, though no round runs
        return NodeCentrality(np.zeros(g.n), "eigenvector", True, 0)

    def step(x: np.ndarray) -> np.ndarray:
        y = _neighbor_sums(g, x)
        return y / np.linalg.norm(y)

    start = np.full(g.n, 1.0 / np.sqrt(g.n))
    x, iterations, converged = _power_iteration(step, start, tol, max_iter)
    return NodeCentrality(x, "eigenvector", converged, iterations)


def betweenness_centrality(
    g: Graph, cap: int = DEFAULT_BETWEENNESS_CAP
) -> NodeCentrality:
    """Exact shortest-path betweenness (Brandes), unweighted, undirected.

    Each unordered node pair contributes sigma_st(v)/sigma_st; no further
    normalization. Refuses graphs above the cap: this is the exact
    algorithm and approximate variants are out of scope.
    """
    if g.n == 0:
        raise EmptyGraphError("betweenness of an empty graph is undefined")
    if g.n > cap:
        raise CapExceededError(
            f"exact betweenness capped at n={cap} nodes (got {g.n}); "
            "sampling-based approximation is out of scope"
        )
    adj = g.adjacency_lists
    bc = [0.0] * g.n
    for s in range(g.n):
        sigma = [0] * g.n
        dist = [-1] * g.n
        preds: list[list[int]] = [[] for _ in range(g.n)]
        sigma[s] = 1
        dist[s] = 0
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * g.n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += coeff * sigma[v]
            if w != s:
                bc[w] += delta[w]
    # every unordered pair was counted from both endpoints
    scores = np.array(bc) / 2.0
    return NodeCentrality(scores, "betweenness")


def uniform_centrality(g: Graph) -> NodeCentrality:
    """Constant scores: every actual edge gets weight 1/m in the model."""
    if g.n == 0:
        raise EmptyGraphError("uniform centrality of an empty graph is undefined")
    return NodeCentrality(np.ones(g.n), "uniform")


@dataclass(frozen=True)
class EdgeWeightModel:
    """Normalized actual-edge weights plus the uniform spurious weight.

    C(u, v) = (C_u + C_v) / actual_norm sums to 1 over the edge set;
    spurious_weight times the number of non-edges is exactly 1.
    """

    graph: Graph
    node_centrality: NodeCentrality
    actual_norm: float
    spurious_weight: float

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """C(u, v) of every edge of graph, in canonical edge order (that of
        graph.edge_arrays), computed on first use; read-only."""
        u, v = self.graph.edge_arrays
        scores = self.node_centrality.scores
        weights = (scores[u] + scores[v]) / self.actual_norm
        weights.setflags(write=False)
        return weights

    def pair_weight(self, u: int, v: int) -> float:
        """(C_u + C_v) / Z for an arbitrary node pair (edge or not); the
        scalar form of edge_weights."""
        s = self.node_centrality.scores
        return (float(s[u]) + float(s[v])) / self.actual_norm


def build_weight_model(g: Graph, c: NodeCentrality) -> EdgeWeightModel:
    if len(c) != g.n:
        raise ValueError("centrality length does not match graph")
    possible = g.n * (g.n - 1) // 2
    if possible <= g.m:
        raise ModelUndefinedError(
            "graph has no spurious pair (complete graph); "
            "the spurious weight 1/(C(n,2)-m) is undefined"
        )
    z = float(np.dot(g.degrees.astype(np.float64), c.scores))
    if z <= 0.0:
        raise DegenerateWeightsError("sum of edge centralities is zero")
    return EdgeWeightModel(g, c, z, 1.0 / (possible - g.m))


def edge_weight(model: EdgeWeightModel, u: int, v: int) -> float:
    """Weight C(u, v) of an actual edge. Raises if (u, v) is not an edge."""
    if not model.graph.has_edge(u, v):
        raise ValueError(
            f"({u},{v}) is not an edge; spurious pairs have uniform weight "
            "model.spurious_weight"
        )
    return model.pair_weight(u, v)
