"""Exception types shared across the toolkit.

Each type carries the exit code the CLI returns for it: 1 (internal error)
unless it says otherwise, 3 for input the toolkit cannot take, 4 for a
resource cap.
"""

from __future__ import annotations


class GraphSumError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class EdgeListParseError(GraphSumError):
    """A malformed line (bad token, negative id) of a pair file, as
    graph.read_int_pairs reads edge lists and summary pair files. Carries
    the line number."""

    exit_code = 3

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyGraphError(GraphSumError, ValueError):
    """A score asked of a graph or summary with no nodes, where it is undefined."""

    exit_code = 3


class ModelUndefinedError(GraphSumError):
    """Edge-weight model has no valid definition (e.g. complete graph, no spurious pair)."""

    exit_code = 3


class DegenerateWeightsError(GraphSumError):
    """All-zero centrality: edge weights cannot be normalized."""

    exit_code = 3


class UnsupportedSummaryError(GraphSumError):
    """A summary the operation cannot take: a lossy one where clique/IS tags
    are needed, or a summary directory whose files disagree."""

    exit_code = 3


class CapExceededError(GraphSumError):
    """A configured resource cap (reconstruction size, 2-hop pairs, betweenness n) was hit."""

    exit_code = 4
