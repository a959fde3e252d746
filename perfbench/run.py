#!/usr/bin/env python3
"""Benchmark of the graphsum CLI and library on seeded graphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``. One round generates the workload's graph, then runs these
operations, one process at a time:

    graphsum lossless; graphsum query triangles; graphsum query pagerank;
    graphsum eval --metric verify-lossless; graphsum lossy --tau 0.8;
    a batch of shortest-path queries; a threshold sweep (tau 0.5..0.9).

Rounds repeat while the next one is expected to end within S seconds (at
least one round runs). The first round's outputs are checked against
independent computations (check.py); every later round must reproduce
them exactly.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over rounds). With --trace 1 each round also runs under
trace.py, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import LOSSY_TAU, SSSP_PAIRS, SWEEP_TAUS, WORKLOADS  # noqa: E402

STARTUP_SAMPLES = 5
DEADLINE_S = 170  # every child is killed by then, so a run ends in time

# (operation, process kind, operations it counts for), in the order a round runs them
OPERATIONS = (
    ("lossless", "cli", 1),
    ("query_triangles", "cli", 1),
    ("query_pagerank", "cli", 1),
    ("verify", "cli", 1),
    ("lossy", "cli", 1),
    ("sssp", "batch", SSSP_PAIRS),
    ("sweep", "batch", len(SWEEP_TAUS)),
)


class ProgramMissing(Exception):
    pass


class Launcher:
    """Starts one process at a time from the checkout root and waits for it.

    The runner imports no numpy: a child inherits its small peak RSS until
    exec, so ``ru_maxrss`` of a child is the child's own.
    """

    def __init__(self, root: Path, deadline_s: float):
        self.root = root
        self.deadline = time.monotonic() + deadline_s
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")

    def run(self, argv: list[str], log: Path) -> tuple[float, int]:
        """(wall seconds, peak RSS in KB) of one child, whose output goes to
        log.out and log.err. Raises if it exits non-zero."""
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.with_suffix(".err").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{log.name} exited with code {proc.returncode}: {tail}")
        return seconds, usage.ru_maxrss


def py(*args: str) -> list[str]:
    return [sys.executable, *args]


class Round:
    """One round of operations, with its files in directory ``rd``."""

    def __init__(self, launcher: Launcher, workload: str, seed: int, rd: Path, pairs: Path):
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        self.rd = rd
        self.pairs = pairs
        rd.mkdir(parents=True)

    def generate(self) -> tuple[float, dict]:
        """Writes the input graph; returns seconds and the graph's make-up."""
        argv = py(str(HERE / "gen.py"), self.workload, str(self.seed), str(self.rd / "graph.txt"))
        seconds, _ = self.launcher.run(argv, self.rd / "gen")
        return seconds, json.loads((self.rd / "gen.out").read_text())

    def args(self, op: str) -> list[str]:
        rd = self.rd
        graph, summary = str(rd / "graph.txt"), str(rd / "lossless")
        centrality = WORKLOADS[self.workload]["centrality"]
        return {
            "lossless": ["lossless", "--input", graph, "--out", summary],
            "query_triangles": ["query", "--summary", summary, "triangles", "--out", str(rd / "q_triangles")],
            "query_pagerank": ["query", "--summary", summary, "pagerank", "--out", str(rd / "q_pagerank")],
            "verify": ["eval", "--summary", summary, "--metric", "verify-lossless",
                       "--input", graph, "--out", str(rd / "verify")],
            "lossy": ["lossy", "--input", graph, "--out", str(rd / "lossy"),
                      "--tau", repr(LOSSY_TAU), "--centrality", centrality],
            "sssp": ["sssp", summary, str(self.pairs), str(rd / "sssp.json")],
            "sweep": ["sweep", graph, centrality, str(rd / "sweep.json")],
        }[op]

    def outputs(self) -> dict[str, Path]:
        """Where each operation leaves the output its check reads."""
        rd = self.rd
        return {
            "lossless": rd / "lossless",
            "query_triangles": rd / "q_triangles" / "triangles.txt",
            "query_pagerank": rd / "q_pagerank" / "pagerank.txt",
            "verify": rd / "verify" / "verify_lossless.txt",
            "lossy": rd / "lossy",
            "sssp": rd / "sssp.json",
            "sweep": rd / "sweep.json",
        }

    def run_op(self, op: str, kind: str, spans_dir: Path | None = None) -> tuple[float, int]:
        """Seconds and peak RSS (KB) of one operation. With ``spans_dir`` the
        process runs under trace.py and leaves its spans there."""
        if spans_dir is not None:
            argv = py(str(HERE / "trace.py"), str(spans_dir / f"{op}.json"), kind, *self.args(op))
        elif kind == "cli":
            argv = py("-m", "graphsum", *self.args(op))
        else:
            argv = py(str(HERE / "batch.py"), *self.args(op))
        seconds, rss_kb = self.launcher.run(argv, self.rd / op)
        if kind == "batch":  # measured in the batch, before it writes its results
            rss_kb = json.loads((self.rd / f"{op}.json").read_text())["peak_rss_kb"]
        return seconds, rss_kb

    def figures(self, gen_s: float, ops: dict[str, tuple[float, int]]) -> dict:
        """End-to-end figures of this round."""
        sssp = json.loads((self.rd / "sssp.json").read_text())
        sweep = json.loads((self.rd / "sweep.json").read_text())
        summary = self.rd / "lossless"
        return {
            "setup_s": gen_s + sssp["setup_s"] + sweep["setup_s"],
            "lossless_s": ops["lossless"][0],
            "lossless_kb": sum(f.stat().st_size for f in summary.iterdir()) / 1024.0,
            "query_triangles_s": ops["query_triangles"][0],
            "query_pagerank_s": ops["query_pagerank"][0],
            "verify_s": ops["verify"][0],
            "lossy_s": ops["lossy"][0],
            "sweep_s": sweep["forest_s"] + sum(p["seconds"] for p in sweep["points"]),
            "sssp_calls": sssp["call_s"],
            "peak_rss_kb": max(rss for _, rss in ops.values()),
        }

    def check(self) -> dict:
        """The checker's verdict on each operation of this round."""
        job = {
            "graph": str(self.rd / "graph.txt"),
            "centrality": WORKLOADS[self.workload]["centrality"],
            "tau": LOSSY_TAU,
            "ops": {op: str(path) for op, path in self.outputs().items()},
        }
        job_path = self.rd / "check_job.json"
        job_path.write_text(json.dumps(job))
        self.launcher.run(py(str(HERE / "check.py"), str(job_path)), self.rd / "check")
        return json.loads((self.rd / "check.out").read_text().splitlines()[-1])


def comparable(path: Path):
    """The part of an output that must repeat exactly from round to round."""
    if path.is_dir():
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}
    if path.suffix == ".json":
        report = json.loads(path.read_text())
        if "queries" in report:
            return report["queries"]
        return [{k: v for k, v in p.items() if k != "seconds"} for p in report["points"]]
    return path.read_bytes()


def differing_outputs(first: Round, other: Round) -> list[str]:
    """Outputs of ``other`` that differ from those of ``first``."""
    differ = []
    if (first.rd / "graph.txt").read_bytes() != (other.rd / "graph.txt").read_bytes():
        differ.append("graph")
    theirs = other.outputs()
    for op, path in first.outputs().items():
        if comparable(path) != comparable(theirs[op]):
            differ.append(op)
    return differ


class Tally:
    """Operations attempted and failed, and whether any output was wrong.

    A lossy result whose only fault is its forest's tie order counts as
    failed; any other wrong output also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, name: str, count: int, reason: str, wrong: bool) -> None:
        self.failed += count
        self.correct = self.correct and not wrong
        print(f"{'WRONG' if wrong else 'FAILED'} {name}: {reason}", file=sys.stderr)

    def add_round(self, verdicts: dict, differ: list[str]) -> None:
        """Count one round against the verdicts on the checked round;
        ``differ`` names this round's outputs that did not repeat them."""
        for op, _, count in OPERATIONS:
            self.attempted += count
            names = [f"sweep_{tau}" for tau in SWEEP_TAUS] if op == "sweep" else [op]
            for name in names:
                verdict = verdicts.get(name, {"ok": False, "kind": "wrong", "reason": "not checked"})
                if not verdict["ok"]:
                    self.fail(name, count // len(names), verdict["reason"],
                              wrong=verdict["kind"] != "forest-order")
        for name in differ:
            self.fail(name, 0, "output differs from the checked round", wrong=True)


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over rounds; the shortest-path percentiles pool every call."""
    calls = [s * 1e3 for r in rounds for s in r["sssp_calls"]]

    def med(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    return {
        "setup_s": (med("setup_s"), "s"),
        "lossless_s": (med("lossless_s"), "s"),
        "lossless_kb": (med("lossless_kb"), "KB"),
        "query_triangles_s": (med("query_triangles_s"), "s"),
        "query_pagerank_s": (med("query_pagerank_s"), "s"),
        "sssp_p50_ms": (statistics.median(calls), "ms"),
        "sssp_p95_ms": (statistics.quantiles(calls, n=20, method="inclusive")[18], "ms"),
        "verify_s": (med("verify_s"), "s"),
        "lossy_s": (med("lossy_s"), "s"),
        "sweep_s": (med("sweep_s"), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in rounds) / 1024.0, "MB"),
    }


def startup_seconds(launcher: Launcher, rd: Path) -> float:
    """Median wall time of ``graphsum --help``: interpreter, imports, argparse."""
    return statistics.median(
        launcher.run(py("-m", "graphsum", "--help"), rd / "startup")[0]
        for _ in range(STARTUP_SAMPLES)
    )


def traced_metrics(launcher: Launcher, rnd: Round, twin: Round, ops: dict, traced_ops: dict) -> dict:
    """Per-layer metrics of a round whose operations also ran traced in
    ``twin``, each next to its untraced run, so that drift in machine speed
    hits both alike."""
    per_layer = layers.from_spans(twin.rd / "spans")
    per_layer["cli.startup_s"] = startup_seconds(launcher, rnd.rd)
    per_layer["trace.overhead_s"] = sum(s for s, _ in traced_ops.values()) - sum(
        s for s, _ in ops.values()
    )
    return per_layer


def run(root: Path, workload: str, seed: int, budget_s: float, traced: bool) -> dict:
    if not (root / "src" / "graphsum" / "__init__.py").is_file():
        raise ProgramMissing(f"no graphsum sources under {root / 'src'}")
    work = root / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(root, WORKLOADS[workload].get("deadline_s", DEADLINE_S))
    pairs = work / "pairs.json"
    first: Round | None = None
    figures: list[dict] = []
    layer_rounds: list[dict] = []
    differ: list[list[str]] = []
    t_start = time.perf_counter()
    round_s = 0.0
    while first is None or time.perf_counter() - t_start + round_s <= budget_s:
        t_round = time.perf_counter()
        rnd = Round(launcher, workload, seed, work / f"r{len(figures) + 1}", pairs)
        gen_s, shape = rnd.generate()
        if first is None:
            rng = random.Random(f"sssp-pairs:{seed}")
            pairs.write_text(json.dumps([rng.sample(range(shape["n"]), 2) for _ in range(SSSP_PAIRS)]))
        twin = None
        if traced:
            twin = Round(launcher, workload, seed, rnd.rd / "traced", pairs)
            shutil.copy(rnd.rd / "graph.txt", twin.rd / "graph.txt")
            (twin.rd / "spans").mkdir()
        ops, traced_ops = {}, {}
        for k, (op, kind, _) in enumerate(OPERATIONS):
            # a process runs a little faster right after its twin: alternate
            # which of the pair goes first, so the overhead is not biased
            if twin is not None and (k + len(figures)) % 2:
                traced_ops[op] = twin.run_op(op, kind, twin.rd / "spans")
            ops[op] = rnd.run_op(op, kind)
            if twin is not None and op not in traced_ops:
                traced_ops[op] = twin.run_op(op, kind, twin.rd / "spans")
        figures.append(rnd.figures(gen_s, ops))
        differ.append([] if first is None else differing_outputs(first, rnd))
        if twin is not None:
            layer_rounds.append(traced_metrics(launcher, rnd, twin, ops, traced_ops))
            differ[-1] += [f"traced {op}" for op in differing_outputs(rnd, twin)]
        if first is None:
            first = rnd
        else:
            shutil.rmtree(rnd.rd)
        round_s = time.perf_counter() - t_round
    verdicts = first.check()
    tally = Tally()
    for round_differ in differ:
        tally.add_round(verdicts, round_differ)
    if traced:
        metrics = {
            name: (statistics.median(r[name] for r in layer_rounds), layers.UNITS[name])
            for name in layers.UNITS
        }
    else:
        metrics = end_to_end(figures)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": len(figures),
        "shape": shape,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shape = result["shape"]
    print(
        f"workload {args.workload} seed {args.seed}: n={shape['n']} m={shape['m']} "
        f"rounds={result['rounds']} attempted={result['attempted']} failed={result['failed']}"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
