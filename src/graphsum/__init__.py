"""Graph summarization toolkit.

Lossless optimal summaries by clique / independent-set decomposition,
lossy utility-threshold summaries driven by an implicit two-hop spanning
forest and binary search, queries (triangles, Pagerank, shortest paths)
answered on the summary itself, and the matching evaluation metrics.
"""

from .centrality import (
    EdgeWeightModel,
    NodeCentrality,
    betweenness_centrality,
    build_weight_model,
    degree_centrality,
    edge_weight,
    eigenvector_centrality,
    pagerank,
    uniform_centrality,
)
from .errors import (
    CapExceededError,
    DegenerateWeightsError,
    EdgeListParseError,
    EmptyGraphError,
    GraphSumError,
    ModelUndefinedError,
    UnsupportedSummaryError,
)
from .evaluate import app_utility, reduction_in_nodes, verify_lossless
from .graph import Graph, LoadResult, from_edges, load_edge_list, write_edge_list
from .lossless import summarize
from .queries import (
    SummaryPagerank,
    TriangleReport,
    count_triangles,
    enumerate_triangles,
    pagerank_on_summary,
    shortest_path_length,
)
from .summary import Summary, load_summary, reconstruct, save_summary
from .lossy import (
    LossyResult,
    MergePairList,
    build_superedges_lossy,
    compute_utility,
    full_candidate_list,
    merge_prefix,
    summarize_lossy,
    two_hop_mst,
)
from .unionfind import UnionFind

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DegenerateWeightsError",
    "EdgeListParseError",
    "EdgeWeightModel",
    "EmptyGraphError",
    "Graph",
    "GraphSumError",
    "LoadResult",
    "LossyResult",
    "MergePairList",
    "ModelUndefinedError",
    "NodeCentrality",
    "Summary",
    "SummaryPagerank",
    "TriangleReport",
    "UnionFind",
    "UnsupportedSummaryError",
    "app_utility",
    "betweenness_centrality",
    "build_superedges_lossy",
    "build_weight_model",
    "compute_utility",
    "count_triangles",
    "degree_centrality",
    "edge_weight",
    "eigenvector_centrality",
    "enumerate_triangles",
    "from_edges",
    "full_candidate_list",
    "load_edge_list",
    "load_summary",
    "merge_prefix",
    "pagerank",
    "pagerank_on_summary",
    "reconstruct",
    "reduction_in_nodes",
    "save_summary",
    "shortest_path_length",
    "summarize",
    "summarize_lossy",
    "two_hop_mst",
    "uniform_centrality",
    "verify_lossless",
    "write_edge_list",
]
