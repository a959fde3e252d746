"""Workload definitions and the operation mix, shared by the runner
(standard library only), the generator and the batches.

Sizes keep one round of operations near 6 s on 2 cores, so that a 40 s run
holds several rounds and each metric is a median over the run.
``fixed_graph_seed`` makes a workload use one graph whatever the run's seed.
``reference`` is ROADMAP's reference graph: no benchmark workload, it is run
once, traced, for the figures in perfbench/README.md, and takes minutes.
"""

LOSSY_TAU = 0.8  # graphsum lossy --tau
SWEEP_TAUS = (0.5, 0.6, 0.7, 0.8, 0.9)  # the threshold sweep of batch.py
SSSP_PAIRS = 200  # shortest-path calls per batch: p95 has 10 beyond it

WORKLOADS = {
    "hub-lossy": {
        "family": "ba",
        "params": {"n": 2000, "k": 8},
        "centrality": "pagerank",
    },
    "twin-query": {
        "family": "twin",
        "params": {"base_n": 600, "base_m": 1200, "max_twins": 6},
        "centrality": "pagerank",
    },
    # The lossy operations fail on this graph through the forest tie-order
    # fault; a fixed graph keeps that share of failures the same on every seed.
    "flat-ties": {
        "family": "gnm",
        "params": {"n": 2000, "m": 16000},
        "centrality": "degree",
        "fixed_graph_seed": 7,
    },
    "reference": {
        "family": "ba",
        "params": {"n": 50000, "k": 8},
        "centrality": "pagerank",
        "fixed_graph_seed": 7,
        "deadline_s": 3600,
    },
}
