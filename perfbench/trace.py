"""Runs one program process with a timing span around every call into
graphsum's public functions.

    python3 perfbench/trace.py SPANS_JSON cli ARGS...     # graphsum ARGS
    python3 perfbench/trace.py SPANS_JSON batch ARGS...   # batch.py ARGS

The wrappers are installed from outside: every graphsum module name bound
to a traced function is rebound to its wrapper, so calls between modules
are traced too, and nothing in ``src/graphsum`` changes. Each span records
its name, start, end and the span it was called from, plus counts read off
the call's inputs and result. Spans stay in memory and are written to
SPANS_JSON when the process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from graphsum import centrality, cli, evaluate, graph, lossless, lossy, queries, summary  # noqa: E402

import batch  # noqa: E402


def _bucket_counts(args, result) -> dict:
    members = sum(len(b) for buckets in result for b in buckets.values() if len(b) >= 2)
    return {"bucket_members": members}


def _grouped(args, result) -> dict:
    return {"grouped": sum(len(group) for group in result)}


def _summary_size(args, result) -> dict:
    return {"supernodes": result.num_supernodes, "superedges": result.num_superedges}


def _forest(args, result) -> dict:
    degrees = args[0].degrees
    return {"two_hop_scan": int((degrees * degrees).sum()), "forest_pairs": len(result)}


FUNCTIONS = {
    graph: {"load_edge_list": None},
    centrality: {
        "pagerank": lambda args, r: {"iterations": r.iterations},
        "degree_centrality": lambda args, r: {"iterations": r.iterations},
        "build_weight_model": None,
    },
    lossless: {
        "candidate_supernodes": _bucket_counts,
        "filter_supernodes": _grouped,
        "build_superedges_lossless": None,
        "summarize": _summary_size,
    },
    summary: {"save_summary": None, "load_summary": None, "reconstruct": None},
    queries: {
        "count_triangles": None,
        "pagerank_on_summary": lambda args, r: {"iterations": r.iterations},
        "shortest_path_length": None,
    },
    lossy: {
        "two_hop_mst": _forest,
        "merge_prefix": None,
        "compute_utility": None,
        "build_superedges_lossy": None,
        "summarize_lossy": lambda args, r: {"prefix_length": r.prefix_length},
    },
    evaluate: {"verify_lossless": None, "app_utility": None},
}
METHODS = {
    summary.Summary: {
        "super_adjacency": None,
        "implied_edge_count": lambda args, r: {"implied_edges": r},
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else -1}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "graphsum" or n.startswith("graphsum.")]
        for module, names in FUNCTIONS.items():
            prefix = module.__name__.rsplit(".", 1)[-1]
            for name, counter in names.items():
                original = getattr(module, name)
                wrapper = self.wrap(f"{prefix}.{name}", original, counter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
        for cls, names in METHODS.items():
            for name, counter in names.items():
                setattr(cls, name, self.wrap(f"summary.{name}", getattr(cls, name), counter))


def main(argv: list[str]) -> int:
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            code = cli.main(args)
        elif kind == "batch":
            code = batch.main(args)
        else:
            print(f"error: unknown process kind {kind!r}", file=sys.stderr)
            return 2
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
