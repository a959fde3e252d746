"""Exception types shared across the toolkit."""

from __future__ import annotations


class GraphSumError(Exception):
    """Base class for all toolkit errors."""


class EdgeListParseError(GraphSumError):
    """Malformed edge-list input (bad token, negative id). Carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyGraphError(GraphSumError, ValueError):
    """A score asked of a graph or summary with no nodes, where it is undefined."""


class ModelUndefinedError(GraphSumError):
    """Edge-weight model has no valid definition (e.g. complete graph, no spurious pair)."""


class DegenerateWeightsError(GraphSumError):
    """All-zero centrality: edge weights cannot be normalized."""


class UnsupportedSummaryError(GraphSumError):
    """A summary the operation cannot take: a lossy one where clique/IS tags
    are needed, or a summary directory whose files disagree."""


class CapExceededError(GraphSumError):
    """A configured resource cap (reconstruction size, 2-hop pairs, betweenness n) was hit."""
