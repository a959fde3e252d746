"""Command-line front end.

Subcommands:

    lossless   optimal lossless summary of an edge list
    lossy      utility-threshold summary (T-BUDS style)
    query      triangles / pagerank / sssp on a saved lossless summary
    eval       rn / app-utility / verify-lossless reports

Exit codes: 0 ok, 1 internal error (or verify-lossless reporting
"lossless false"), 2 usage (a flag out of range), 3 unsupported input,
4 resource cap exceeded. Identical flags and seed produce byte-identical
output directories.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import centrality as cent
from . import evaluate, lossless, lossy, queries
from .errors import GraphSumError
from .graph import load_edge_list, write_id_map
from .summary import (
    DEFAULT_RECONSTRUCT_CAP,
    load_summary,
    save_summary,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# The range of each numeric flag, checked before any command runs.
FLAG_RANGES = {
    "tau": (lambda x: 0.0 < x <= 1.0, "lie in (0, 1]"),
    "top_percent": (lambda x: 0.0 < x <= 100.0, "lie in (0, 100]"),
    "damping": (lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"),
    "tol": (lambda x: 0.0 < x < math.inf, "be positive and finite"),
    "max_iter": (lambda x: x >= 1, "be at least 1"),
    "cap_betweenness": (lambda x: x >= 0, "be at least 0"),
    "cap_reconstruction": (lambda x: x >= 0, "be at least 0"),
}

# One entry per name in centrality.CENTRALITY_KINDS.
CENTRALITIES = {
    "pagerank": lambda g, args: cent.pagerank(g, args.damping, args.tol, args.max_iter),
    "degree": lambda g, args: cent.degree_centrality(g),
    "eigenvector": lambda g, args: cent.eigenvector_centrality(g, args.tol, args.max_iter),
    "betweenness": lambda g, args: cent.betweenness_centrality(g, cap=args.cap_betweenness),
}

SUMMARY_STATS = ("n", "m", "supernodes", "superedges", "rn")


def _fmt(x: float) -> str:
    return repr(float(x))


def _warn_unconverged(kind: str, result) -> None:
    """Say on stderr when an iteration stopped at its round limit; the
    command goes on with the last iterate."""
    if not result.converged:
        rounds = result.iterations
        print(f"warning: {kind} did not converge in {rounds} iterations", file=sys.stderr)


def _centrality(g, args) -> cent.NodeCentrality:
    """The --centrality scores of g, with a warning if they did not converge."""
    c = CENTRALITIES[args.centrality](g, args)
    _warn_unconverged(c.kind, c)
    return c


def _write_summary(args, loaded, s, meta: dict, stats: tuple[str, ...], t0: float) -> int:
    """Save the summary and node_ids.txt, then print the stats line."""
    out = Path(args.out)
    save_summary(s, out, meta)
    write_id_map(loaded, out / "node_ids.txt")
    wall = time.perf_counter() - t0
    print(*(f"{key}={meta[key]}" for key in stats), f"wall_time_s={wall:.3f}")
    return EXIT_OK


def cmd_lossless(args) -> int:
    t0 = time.perf_counter()
    loaded = load_edge_list(args.input)
    g = loaded.graph
    s = lossless.summarize(g, seed=args.seed)
    meta = {
        "algorithm": "lossless-clique-is",
        "n": g.n,
        "m": g.m,
        "avg_degree": _fmt(2.0 * g.m / g.n) if g.n else _fmt(0.0),
        "supernodes": s.num_supernodes,
        "superedges": s.num_superedges,
        "rn": _fmt(evaluate.reduction_in_nodes(s)),
        "seed": args.seed,
    }
    return _write_summary(args, loaded, s, meta, SUMMARY_STATS, t0)


def cmd_lossy(args) -> int:
    t0 = time.perf_counter()
    loaded = load_edge_list(args.input)
    g = loaded.graph
    model = cent.build_weight_model(g, _centrality(g, args))
    result = lossy.summarize_lossy(g, model, args.tau)
    s = result.summary
    meta = {
        "algorithm": "lossy-threshold-mst",
        "n": g.n,
        "m": g.m,
        "supernodes": s.num_supernodes,
        "superedges": s.num_superedges,
        "rn": _fmt(evaluate.reduction_in_nodes(s)),
        "tau": _fmt(args.tau),
        "utility": _fmt(result.utility),
        "prefix_length": result.prefix_length,
        "mst_size": result.num_candidates,
        "centrality": args.centrality,
        "damping": _fmt(args.damping),
        "tol": _fmt(args.tol),
        "max_iter": args.max_iter,
        "tie_break": lossy.TIE_BREAK_RULE,
        "seed": args.seed,
    }
    stats = (*SUMMARY_STATS, "tau", "utility", "prefix_length")
    return _write_summary(args, loaded, s, meta, stats, t0)


def _emit(lines: list[str], outdir: str | None, filename: str) -> None:
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if outdir:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text, encoding="ascii")


def cmd_query(args) -> int:
    s = load_summary(args.summary)
    if args.query == "triangles":
        report = queries.count_triangles(s)
        _emit(
            [f"{report.count_a} {report.count_b} {report.count_c} {report.total}"],
            args.out,
            "triangles.txt",
        )
    elif args.query == "pagerank":
        pr = queries.pagerank_on_summary(s, args.damping, args.tol, args.max_iter)
        _warn_unconverged("pagerank", pr)
        lines = [f"{u} {x!r}" for u, x in enumerate(pr.node_scores.tolist())]
        _emit(lines, args.out, "pagerank.txt")
    elif args.query == "sssp":
        if args.u is None or args.v is None:
            print("error: sssp needs node ids u and v", file=sys.stderr)
            return EXIT_USAGE
        if not (0 <= args.u < s.n and 0 <= args.v < s.n):
            print(
                f"error: node pair ({args.u},{args.v}) out of range for n={s.n}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        d = queries.shortest_path_length(s, args.u, args.v)
        text = "inf" if math.isinf(d) else str(int(d))
        _emit([f"{args.u} {args.v} {text}"], args.out, "distance.txt")
    return EXIT_OK


def cmd_eval(args) -> int:
    s = load_summary(args.summary)
    if args.metric == "rn":
        lines = [f"rn {evaluate.reduction_in_nodes(s)!r}"]
        _emit(lines, args.out, "rn.txt")
        return EXIT_OK
    if args.input is None:
        print(f"error: --metric {args.metric} needs --input", file=sys.stderr)
        return EXIT_USAGE
    g = load_edge_list(args.input).graph
    if g.n != s.n:
        print("error: summary and graph disagree on node count", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.metric == "app-utility":
        report = evaluate.app_utility(s, _centrality(g, args), args.top_percent)
        lines = [
            f"centrality {report.centrality_kind}",
            f"t_percent {report.t_percent!r}",
            f"v_t_size {report.v_t_size}",
            f"app_utility {report.app_utility!r}",
        ]
        _emit(lines, args.out, "app_utility.txt")
        return EXIT_OK
    report = evaluate.verify_lossless(g, s, max_edges=args.cap_reconstruction)
    lines = [f"lossless {str(report.lossless).lower()}"]
    for u, v in report.missing_edges:
        lines.append(f"missing {u} {v}")
    for u, v in report.spurious_edges:
        lines.append(f"spurious {u} {v}")
    _emit(lines, args.out, "verify_lossless.txt")
    return EXIT_OK if report.lossless else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsum",
        description="Graph summarization toolkit: lossless and lossy summaries, "
        "summary-native queries, evaluation metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_iteration_flags(p):
        p.add_argument("--damping", type=float, default=cent.DEFAULT_DAMPING)
        p.add_argument("--tol", type=float, default=cent.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=cent.DEFAULT_MAX_ITER)

    def add_centrality_flags(p):
        p.add_argument(
            "--centrality",
            choices=cent.CENTRALITY_KINDS,
            default="pagerank",
            help="node centrality weighting the edges",
        )
        add_iteration_flags(p)
        p.add_argument(
            "--cap-betweenness",
            type=int,
            default=cent.DEFAULT_BETWEENNESS_CAP,
            help="largest n accepted by exact betweenness",
        )

    p = sub.add_parser("lossless", help="optimal lossless summary")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="summary output directory")
    p.add_argument("--seed", type=int, default=lossless.DEFAULT_SEED, help="hash seed")
    p.set_defaults(func=cmd_lossless)

    p = sub.add_parser("lossy", help="utility-threshold summary")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="summary output directory")
    p.add_argument("--tau", type=float, required=True, help="utility threshold in (0,1]")
    add_centrality_flags(p)
    p.add_argument("--seed", type=int, default=lossless.DEFAULT_SEED)
    p.set_defaults(func=cmd_lossy)

    p = sub.add_parser("query", help="query a saved lossless summary")
    p.add_argument("--summary", required=True, help="summary directory")
    p.add_argument("query", choices=["triangles", "pagerank", "sssp"])
    p.add_argument("u", type=int, nargs="?", help="source node (sssp)")
    p.add_argument("v", type=int, nargs="?", help="target node (sssp)")
    add_iteration_flags(p)
    p.add_argument("--out", help="also write the report into this directory")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="evaluate a saved summary")
    p.add_argument("--summary", required=True, help="summary directory")
    p.add_argument("--metric", required=True, choices=["rn", "app-utility", "verify-lossless"])
    p.add_argument("--input", help="original edge-list file (app-utility, verify-lossless)")
    p.add_argument("--top-percent", type=float, default=20.0)
    add_centrality_flags(p)
    p.add_argument(
        "--cap-reconstruction",
        type=int,
        default=DEFAULT_RECONSTRUCT_CAP,
        help="largest edge count verify-lossless will materialize",
    )
    p.add_argument("--out", help="also write the report into this directory")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, (ok, rule) in FLAG_RANGES.items():
        value = getattr(args, flag, None)
        if value is not None and not ok(value):
            name = "--" + flag.replace("_", "-")
            print(f"error: {name} must {rule}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (GraphSumError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INTERNAL)  # a GraphSumError's own code


if __name__ == "__main__":
    sys.exit(main())
