"""Ablation — placement solver quality vs the exact optimum.

``ilp-joint`` is a Viterbi DP over each layer's balanced assignments, so its
kept mass is the exact optimum of formulas 8-12.  Two tables:

* the MoE-8, 4-layer, 4-GPU (2-node) instance: every solver's kept-mass
  fraction, its ratio to the optimum, locality and solve time;
* a seeded grid — E = 8, G in {2, 4}, L in {4, 6}, affinity in
  {0.5, 0.8, 0.95}, 2 seeds, 24 instances — with each solver's median and
  worst ratio to the optimum and how often it reaches it.

Asserts that the DP is >= every solver on every instance, and that the
chained-assignment solver beats the affinity-blind vanilla layout.  The
heuristics' ratios are published, not bounded.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro import ClusterConfig, MarkovRoutingModel
from repro.analysis.report import format_table
from repro.core.placement.base import placement_locality
from repro.core.placement.ilp import chain_objective
from repro.core.placement.registry import solve_placement

from conftest import publish

STRATEGIES = ("vanilla", "greedy", "local-search", "ilp", "ilp-joint", "staged")
GRID = list(itertools.product((2, 4), (4, 6), (0.5, 0.8, 0.95), (0, 1)))


def _instance(num_gpus, num_layers, affinity, seed):
    routing = MarkovRoutingModel.with_affinity(
        8, num_layers, affinity, rng=np.random.default_rng(2 * seed)
    )
    trace = routing.sample(1500, np.random.default_rng(2 * seed + 1))
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=num_gpus // 2)
    return trace, cluster


def _solve_all(trace, cluster):
    """Per solver: (placement, kept mass, solve seconds)."""
    weights = [trace.transition_counts(j).astype(float) for j in range(trace.num_layers - 1)]
    out = {}
    for strategy in STRATEGIES:
        start = time.perf_counter()
        p = solve_placement(strategy, trace, cluster)
        solve_s = time.perf_counter() - start
        out[strategy] = (p, chain_objective(p.gpu_of, weights), solve_s)
    return out, sum(w.sum() for w in weights)


def test_ablation_solvers(benchmark, results_dir):
    trace, cluster = _instance(4, 4, 0.8, 0)  # also the grid's (4, 4, 0.8, 0)
    benchmark.pedantic(
        lambda: solve_placement("ilp", trace, cluster), rounds=3, iterations=1
    )

    solved, total_mass = _solve_all(trace, cluster)
    optimum = solved["ilp-joint"][1]
    rows = []
    for strategy, (p, obj, solve_s) in solved.items():
        stats = placement_locality(p, trace, cluster)
        rows.append(
            [
                strategy,
                solve_s,
                obj / total_mass,
                obj / optimum,
                stats.gpu_stay_fraction,
                stats.node_stay_fraction,
            ]
        )
    headers = ["solver", "solve time (s)", "kept mass fraction", "ratio to optimum"]
    instance_table = format_table(
        [*headers, "GPU-stay", "node-stay"],
        rows,
        title="Ablation — solver quality on MoE-8, 4 layers, 4 GPUs (2 nodes)",
        precision=4,
    )

    objectives = {}
    times = {s: [] for s in STRATEGIES}
    for instance in GRID:
        grid_solved, _ = _solve_all(*_instance(*instance))
        objectives[instance] = {s: obj for s, (_, obj, _) in grid_solved.items()}
        for strategy, (_, _, solve_s) in grid_solved.items():
            times[strategy].append(solve_s)
    ratios = {
        s: [obj[s] / obj["ilp-joint"] for obj in objectives.values()] for s in STRATEGIES
    }
    grid_rows = [
        [
            s,
            float(np.median(ratios[s])),
            min(ratios[s]),
            f"{sum(r >= 1 - 1e-12 for r in ratios[s])}/{len(GRID)}",
            float(np.median(times[s])),
        ]
        for s in STRATEGIES
    ]
    grid_table = format_table(
        ["solver", "median ratio", "worst ratio", "at optimum", "median solve time (s)"],
        grid_rows,
        title=(
            f"Ablation — ratio to the exact optimum over {len(GRID)} instances: "
            "E=8, G in {2,4}, L in {4,6}, affinity in {0.5,0.8,0.95}, 2 seeds"
        ),
        precision=4,
    )
    publish(results_dir, "ablation_solvers", instance_table + "\n\n" + grid_table)

    for instance, obj in objectives.items():
        for strategy, value in obj.items():
            assert obj["ilp-joint"] >= value - 1e-9, (instance, strategy)  # the DP is exact
        assert obj["ilp"] >= obj["vanilla"], instance
