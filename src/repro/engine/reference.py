"""Step-by-step reference executor — the vectorized engine's oracle.

This is the original discrete-event loop implementation of the engine: a
Python loop over iterations x layers, one ``bincount`` and one collective
costing per step.  It is deliberately simple — every simulated quantity is
computed at the moment its real counterpart would happen — which makes it
easy to audit against the paper's Fig 4 execution diagram.

It stays in the tree for exactly one purpose: the equivalence suite runs
both engines on identical inputs and asserts the batched
:func:`repro.engine.executor.simulate_inference` reproduces this oracle's
:class:`~repro.engine.metrics.RunResult` bit for bit.  Use the vectorized
engine everywhere else; this one is one-to-two orders of magnitude slower.

It shares nothing with the fast path but :func:`validate_inference_inputs`:
the token-movement rules below are written out here independently of
:func:`repro.engine.executor.route_counts`.

Fig 4 top-2 semantics (shared with the vectorized engine): the secondary
expert receives its payload directly from the token's current location and
sends its output to the *primary* expert's GPU, where the weighted
combination happens.  The vanilla combine therefore returns exactly one
combined token per request to its home GPU — an earlier revision
double-charged the primary-to-home return path here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.cluster.collectives import allgather_cost, alltoall_matrix
from repro.cluster.topology import Topology
from repro.cluster.traffic import TrafficLedger
from repro.config import ClusterConfig, InferenceConfig, ModelConfig
from repro.core.placement.base import Placement
from repro.engine.costs import CostModel
from repro.engine.executor import validate_inference_inputs
from repro.engine.metrics import OpBreakdown, RunResult
from repro.engine.workload import DecodeWorkload

__all__ = ["simulate_inference_reference"]


def _traffic_from_moves(
    src: np.ndarray, dst: np.ndarray, num_gpus: int, bytes_per_token: float
) -> np.ndarray:
    """(G, G) byte matrix from per-token source/destination GPU ranks."""
    flat = src * num_gpus + dst
    counts = np.bincount(flat, minlength=num_gpus * num_gpus).reshape(num_gpus, num_gpus)
    traffic = counts.astype(np.float64) * bytes_per_token
    np.fill_diagonal(traffic, 0.0)  # same-GPU moves are free memcpys
    return traffic


def simulate_inference_reference(
    model: ModelConfig,
    cluster: ClusterConfig,
    infer: InferenceConfig,
    placement: Placement,
    workload: DecodeWorkload,
    cost_model: CostModel | None = None,
) -> RunResult:
    """Simulate one serving run with the step-by-step loop engine.

    Same contract as :func:`repro.engine.executor.simulate_inference`; kept
    as the correctness oracle for the vectorized engine.
    """
    validate_inference_inputs(model, cluster, placement, workload)

    cost = cost_model or CostModel(model, gpu_flops=cluster.gpu_flops)
    topo = Topology(cluster)
    ledger = TrafficLedger()
    mode = infer.mode
    g = cluster.num_gpus
    token_bytes = cost.token_bytes(infer.dtype_bytes)
    top2 = model.gating.k == 2 and workload.secondary_paths is not None

    attention_s = gating_s = ffn_s = alltoall_s = allgather_s = 0.0
    same_gpu_transitions = 0
    same_node_transitions = 0
    total_transitions = 0
    node_of = topo.node_of_gpu

    home = workload.home_gpu
    r = workload.num_requests
    layers = model.num_moe_layers

    def compute_max(counts: np.ndarray, fn: Callable[[int], float]) -> float:
        """Lockstep time: the slowest GPU's share of a compute op."""
        return float(fn(int(counts.max()))) if counts.size else 0.0

    # initial context replication (before-inference AllGather, Fig 4)
    if mode.uses_context_coherence:
        prompt_payload = np.bincount(home, minlength=g).astype(np.float64)
        prompt_payload *= infer.prompt_len * token_bytes
        res = allgather_cost(topo, prompt_payload)
        ledger.record(res, "allgather")
        allgather_s += res.time_s

    for it in range(workload.iterations):
        ctx_len = workload.prompt_len + it  # context grows one token/iter
        paths = workload.paths[it]  # (R, L)
        loc = home.copy()  # every iteration's token starts at its home GPU

        for j in range(layers):
            expert_gpu = placement.gpu_of[j][paths[:, j]]  # (R,)

            # attention + gating happen where tokens currently reside
            resident = np.bincount(loc, minlength=g)
            attention_s += compute_max(
                resident, partial(cost.attention_time, context_len=ctx_len)
            )
            gating_s += compute_max(resident, cost.gating_time)

            # dispatch Alltoall: current location -> expert's GPU
            traffic = _traffic_from_moves(loc, expert_gpu, g, token_bytes)
            if top2:
                sec_gpu = placement.gpu_of[j][workload.secondary_paths[it][:, j]]
                # secondary expert: payload out and result back to primary
                traffic += _traffic_from_moves(loc, sec_gpu, g, token_bytes)
                traffic += _traffic_from_moves(sec_gpu, expert_gpu, g, token_bytes)
            res = alltoall_matrix(topo, traffic)
            ledger.record(res, "alltoall")
            alltoall_s += res.time_s

            # locality bookkeeping (transition = a potential token move)
            moved = expert_gpu != loc
            crossed_node = node_of[expert_gpu] != node_of[loc]
            same_gpu_transitions += int((~moved).sum())
            same_node_transitions += int((~crossed_node).sum())
            total_transitions += r

            # expert FFN on the owning GPUs
            ffn_load = np.bincount(expert_gpu, minlength=g)
            if top2:
                ffn_load = ffn_load + np.bincount(sec_gpu, minlength=g)
            ffn_s += compute_max(ffn_load, cost.ffn_time)

            if mode.uses_context_coherence:
                loc = expert_gpu  # token stays with its expert's GPU
            else:
                # combine Alltoall: expert GPU -> home.  Under top-2 the
                # secondary output already travelled to the primary's GPU
                # during dispatch, so one combined token returns home.
                back = _traffic_from_moves(expert_gpu, home, g, token_bytes)
                res = alltoall_matrix(topo, back)
                ledger.record(res, "alltoall")
                alltoall_s += res.time_s
                loc = home.copy()

        # end of iteration: coherent modes AllGather the new tokens
        if mode.uses_context_coherence:
            step_payload = np.bincount(home, minlength=g).astype(np.float64) * token_bytes
            res = allgather_cost(topo, step_payload)
            ledger.record(res, "allgather")
            allgather_s += res.time_s

    breakdown = OpBreakdown(
        attention_s=attention_s,
        gating_s=gating_s,
        expert_ffn_s=ffn_s,
        alltoall_s=alltoall_s,
        allgather_s=allgather_s,
    )
    return RunResult(
        mode=mode,
        breakdown=breakdown,
        ledger=ledger,
        generated_tokens=workload.iterations * r,
        iterations=workload.iterations,
        gpu_stay_fraction=(
            same_gpu_transitions / total_transitions if total_transitions else 1.0
        ),
        node_stay_fraction=(
            same_node_transitions / total_transitions if total_transitions else 1.0
        ),
    )
