"""Summary quality metrics: node reduction, top-t% app-utility, losslessness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import NodeCentrality
from .errors import EmptyGraphError
from .graph import Graph
from .summary import DEFAULT_RECONSTRUCT_CAP, Summary, reconstruct


def reduction_in_nodes(s: Summary) -> float:
    """(n - number of supernodes) / n; 0 for the identity summary, the
    empty one included."""
    return (s.n - s.num_supernodes) / s.n if s.n else 0.0


@dataclass(frozen=True)
class AppUtilityReport:
    centrality_kind: str
    t_percent: float
    v_t_size: int
    app_utility: float


def top_nodes(c: NodeCentrality, t_percent: float) -> list[int]:
    """Top ceil(t% * n) nodes by score, ties broken by ascending id."""
    if not 0.0 < t_percent <= 100.0:
        raise ValueError("t_percent must lie in (0, 100]")
    n = len(c)
    k = math.ceil(t_percent / 100.0 * n)
    return np.argsort(-c.scores, kind="stable")[:k].tolist()


def app_utility(s: Summary, c: NodeCentrality, t_percent: float) -> AppUtilityReport:
    """Mean of 1/|S(v)| over the top-t% central nodes.

    1.0 means every top node sits alone in its supernode; crowding any of
    them lowers the value. Undefined, raising EmptyGraphError, for a summary
    with no nodes.
    """
    if not s.n:
        raise EmptyGraphError("app-utility of an empty summary is undefined")
    if len(c) != s.n:
        raise ValueError("centrality length does not match summary")
    top = top_nodes(c, t_percent)
    total = math.fsum((1.0 / s.sizes[s.membership[top]]).tolist())
    return AppUtilityReport(c.kind, t_percent, len(top), total / len(top))


@dataclass(frozen=True)
class LosslessnessReport:
    lossless: bool
    missing_edges: list[tuple[int, int]]  # in the graph, absent after reconstruction
    spurious_edges: list[tuple[int, int]]  # reconstructed but not in the graph

    MAX_LISTED = 10


def verify_lossless(
    g: Graph, s: Summary, max_edges: int = DEFAULT_RECONSTRUCT_CAP
) -> LosslessnessReport:
    """Reconstruct the summary (capped by max_edges) and compare its CSR with
    g's; on a mismatch, list the first edges of each side's u * n + v keys
    that the other lacks. Array passes, memory O(m + implied edges)."""
    if s.n != g.n:
        raise ValueError("summary and graph disagree on node count")
    rebuilt = reconstruct(s, max_edges=max_edges)
    if rebuilt == g:
        return LosslessnessReport(True, [], [])
    keys = [u * g.n + v for u, v in (g.edge_arrays, rebuilt.edge_arrays)]
    listed = []  # missing, then spurious: the first keys one side lacks, as (u, v)
    for ours, theirs in (keys, keys[::-1]):
        first = np.setdiff1d(ours, theirs, assume_unique=True)[: LosslessnessReport.MAX_LISTED]
        u, v = np.divmod(first, g.n)
        listed.append(list(zip(u.tolist(), v.tolist())))
    return LosslessnessReport(False, *listed)
