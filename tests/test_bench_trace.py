"""The benchmark's tracer wraps graphsum functions and Summary methods by
name (perfbench/trace.py) and reads the spans by name (perfbench/layers.py).
Renaming a traced function, turning a traced method into a property or no
longer calling one breaks a traced benchmark run; these tests catch that.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from generators import twin_rich_graph

ROOT = Path(__file__).resolve().parent.parent

# CLI operation -> {span name: count keys the layer metrics read}
SPANS = {
    "lossless": {
        "graph.load_edge_list": (),
        "lossless.candidate_supernodes": ("bucket_members",),
        "lossless.filter_supernodes": ("grouped",),
        "lossless.build_superedges_lossless": (),
        "lossless.summarize": ("supernodes", "superedges"),
        "summary.save_summary": (),
    },
    "lossy": {
        "centrality.pagerank": ("iterations",),
        "centrality.build_weight_model": (),
        "lossy.two_hop_mst": ("two_hop_scan", "forest_pairs"),
        "lossy.merge_prefix": (),
        "lossy.compute_utility": (),
        "lossy.build_superedges_lossy": (),
        "lossy.summarize_lossy": ("prefix_length",),
    },
    "verify": {
        "summary.load_summary": (),
        "summary.reconstruct": (),
        "summary.implied_edge_count": ("implied_edges",),
        "evaluate.verify_lossless": (),
    },
    "query_triangles": {
        "summary.load_summary": (),
        "summary.super_adjacency": (),
        "queries.count_triangles": (),
    },
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Spans of each operation, run through perfbench/trace.py in order."""
    rd = tmp_path_factory.mktemp("trace")
    graph = rd / "graph.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in twin_rich_graph(1).edges()))
    summary = str(rd / "lossless")
    argv = {
        "lossless": ["lossless", "--input", str(graph), "--out", summary],
        "lossy": ["lossy", "--input", str(graph), "--out", str(rd / "lossy"), "--tau", "0.8"],
        "verify": ["eval", "--summary", summary, "--metric", "verify-lossless", "--input", str(graph)],
        "query_triangles": ["query", "--summary", summary, "triangles"],
    }
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    spans = {}
    for op, args in argv.items():
        out = rd / f"{op}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(out), "cli", *args]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{op}: {proc.stderr}"
        spans[op] = json.loads(out.read_text())
    return spans


@pytest.mark.parametrize("op", SPANS)
def test_traced_operation_emits_the_spans_layers_read(traced, op):
    for name, keys in SPANS[op].items():
        named = [span for span in traced[op] if span["name"] == name]
        assert named, f"{op}: no {name} span"
        for key in keys:
            assert all(key in span["counts"] for span in named), f"{op}: {name} lacks {key}"


def test_each_lossy_probe_is_one_merge_prefix_and_one_compute_utility_span(traced):
    # lossy.probes counts the compute_utility spans and lossy.merge_prefix_s /
    # lossy.compute_utility_s take their medians: one span each per probe
    spans = traced["lossy"]
    (search,) = [i for i, span in enumerate(spans) if span["name"] == "lossy.summarize_lossy"]
    reads = [span for span in spans if span["name"] == "lossy.merge_prefix"]
    sums = [span for span in spans if span["name"] == "lossy.compute_utility"]
    assert len(reads) == len(sums) > 1
    assert all(span["parent"] == search for span in reads + sums)
