"""Per-layer metrics of one traced round, read from trace.py's spans.

Standard library only: the runner imports this module and must stay small.
A time is the total over the operation that owns the layer unless its
name says otherwise in ``PER_CALL`` (median of one call).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

UNITS = {
    "cli.startup_s": "s",
    "graph.load_edge_list_s": "s",
    "centrality.compute_s": "s",
    "centrality.iterations": "count",
    "centrality.build_weight_model_s": "s",
    "lossless.candidate_supernodes_s": "s",
    "lossless.filter_supernodes_s": "s",
    "lossless.build_superedges_s": "s",
    "lossless.summarize_s": "s",
    "lossless.bucket_members": "count",
    "lossless.bucket_yield": "ratio",
    "summary.save_s": "s",
    "summary.load_s": "s",
    "summary.super_adjacency_s": "s",
    "summary.reconstruct_s": "s",
    "summary.implied_edges": "count",
    "summary.supernodes": "count",
    "summary.superedges": "count",
    "queries.count_triangles_s": "s",
    "queries.pagerank_on_summary_s": "s",
    "queries.pagerank_iterations": "count",
    "queries.sssp_call_ms": "ms",
    "queries.sssp_adjacency_share": "ratio",
    "lossy.two_hop_mst_s": "s",
    "lossy.two_hop_scan": "count",
    "lossy.forest_pairs": "count",
    "lossy.merge_prefix_s": "s",
    "lossy.compute_utility_s": "s",
    "lossy.probes": "count",
    "lossy.build_superedges_s": "s",
    "lossy.summarize_lossy_s": "s",
    "lossy.prefix_length": "count",
    "evaluate.verify_lossless_s": "s",
    "evaluate.app_utility_s": "s",
    "trace.overhead_s": "s",
}

# Metrics taken as the median of one call rather than a total.
PER_CALL = {
    "graph.load_edge_list_s",
    "summary.load_s",
    "summary.super_adjacency_s",
    "queries.sssp_call_ms",
    "lossy.merge_prefix_s",
    "lossy.compute_utility_s",
}


class Spans:
    """The spans of one traced operation."""

    def __init__(self, path: Path):
        self.spans = json.loads(path.read_text())

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"][key] for s in self.named(name))

    def total_under(self, name: str, parent: str) -> float:
        """Time in ``name`` called directly from a ``parent`` span."""
        return sum(
            s["end"] - s["start"]
            for s in self.named(name)
            if s["parent"] >= 0 and self.spans[s["parent"]]["name"] == parent
        )


def from_spans(spans_dir: Path) -> dict[str, float]:
    """Every per-layer metric except cli.startup_s and trace.overhead_s."""
    ops = {p.stem: Spans(p) for p in spans_dir.glob("*.json")}
    lossless, verify, lossy = ops["lossless"], ops["verify"], ops["lossy"]
    sssp, sweep = ops["sssp"], ops["sweep"]

    def median_over_ops(name: str) -> float:
        return statistics.median(d for s in ops.values() for d in s.durations(name))

    centrality = "centrality.pagerank" if lossy.named("centrality.pagerank") else "centrality.degree_centrality"
    bucket_members = lossless.count("lossless.candidate_supernodes", "bucket_members")
    grouped = lossless.count("lossless.filter_supernodes", "grouped")
    calls = sssp.total("queries.shortest_path_length")
    return {
        "graph.load_edge_list_s": median_over_ops("graph.load_edge_list"),
        "centrality.compute_s": lossy.total(centrality),
        "centrality.iterations": lossy.count(centrality, "iterations"),
        "centrality.build_weight_model_s": lossy.total("centrality.build_weight_model"),
        "lossless.candidate_supernodes_s": lossless.total("lossless.candidate_supernodes"),
        "lossless.filter_supernodes_s": lossless.total("lossless.filter_supernodes"),
        "lossless.build_superedges_s": lossless.total("lossless.build_superedges_lossless"),
        "lossless.summarize_s": lossless.total("lossless.summarize"),
        "lossless.bucket_members": bucket_members,
        "lossless.bucket_yield": grouped / bucket_members if bucket_members else 0.0,
        "summary.save_s": lossless.total("summary.save_summary"),
        "summary.load_s": median_over_ops("summary.load_summary"),
        "summary.super_adjacency_s": median_over_ops("summary.super_adjacency"),
        "summary.reconstruct_s": verify.total("summary.reconstruct"),
        "summary.implied_edges": verify.count("summary.implied_edge_count", "implied_edges"),
        "summary.supernodes": lossless.count("lossless.summarize", "supernodes"),
        "summary.superedges": lossless.count("lossless.summarize", "superedges"),
        "queries.count_triangles_s": ops["query_triangles"].total("queries.count_triangles"),
        "queries.pagerank_on_summary_s": ops["query_pagerank"].total("queries.pagerank_on_summary"),
        "queries.pagerank_iterations": ops["query_pagerank"].count("queries.pagerank_on_summary", "iterations"),
        "queries.sssp_call_ms": 1e3 * statistics.median(sssp.durations("queries.shortest_path_length")),
        "queries.sssp_adjacency_share": (
            sssp.total_under("summary.super_adjacency", "queries.shortest_path_length") / calls
        ),
        "lossy.two_hop_mst_s": lossy.total("lossy.two_hop_mst"),
        "lossy.two_hop_scan": lossy.count("lossy.two_hop_mst", "two_hop_scan"),
        "lossy.forest_pairs": lossy.count("lossy.two_hop_mst", "forest_pairs"),
        "lossy.merge_prefix_s": statistics.median(lossy.durations("lossy.merge_prefix")),
        "lossy.compute_utility_s": statistics.median(lossy.durations("lossy.compute_utility")),
        "lossy.probes": len(lossy.named("lossy.compute_utility")),
        "lossy.build_superedges_s": lossy.total("lossy.build_superedges_lossy"),
        "lossy.summarize_lossy_s": lossy.total("lossy.summarize_lossy"),
        "lossy.prefix_length": lossy.count("lossy.summarize_lossy", "prefix_length"),
        "evaluate.verify_lossless_s": verify.total("evaluate.verify_lossless"),
        "evaluate.app_utility_s": sweep.total("evaluate.app_utility"),
    }
