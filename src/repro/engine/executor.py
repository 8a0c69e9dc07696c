"""Vectorized batched executor for distributed MoE inference.

Simulates lockstep SPMD execution: each generation iteration walks the MoE
layer stack; per layer, every GPU runs attention + gating on its resident
tokens, the group performs the dispatch Alltoall implied by the routing
decisions and the expert placement, expert FFNs run, and (vanilla mode
only) a combine Alltoall returns tokens home.  Times are per-op maxima over
GPUs (SPMD barrier semantics) summed across layers and iterations.

Token movement is the whole story, and :func:`route_counts` is the one
place outside the loop oracle (:mod:`repro.engine.reference`) that writes
its rules (paper Fig 4): where a token sits when each layer dispatches,
and how many tokens each step moves between each pair of GPUs.  This
engine and the serving layer's per-step timer
(:class:`repro.engine.serving.PlacementStepTimer`) both count through it
and keep their float arithmetic to themselves.

Unlike the oracle, this engine never walks (iteration, layer) pairs in
Python to *compute* costs.  Token locations carry no sequential state, so
for each block of whole iterations the engine

1. looks up the (iterations, requests, layers) GPU-path tensor in one
   fancy-index pass over ``placement.gpu_of``,
2. counts every step's resident and FFN tokens and every (step, src, dst)
   dispatch/combine route with one :func:`route_counts` call, and
3. prices the block's stacked (T, G, G) traffic with the batched
   collective costing in :mod:`repro.cluster.collectives`, whose round
   loops run once across the batch instead of once per step.

Only trivially cheap scalar accumulation (to preserve the oracle's exact
float-addition order) remains in Python.  Blocks are bounded by
``_MAX_STACK_ELEMENTS`` so peak memory stays flat regardless of generation
length.  The result is bit-identical to the reference loop engine — the
equivalence suite asserts this — at one-to-two orders of magnitude lower
wall time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.cluster.collectives import allgather_cost, alltoall_matrix
from repro.cluster.topology import Topology
from repro.cluster.traffic import TrafficLedger
from repro.config import ClusterConfig, InferenceConfig, ModelConfig
from repro.core.placement.base import Placement
from repro.engine.costs import CostModel
from repro.engine.metrics import OpBreakdown, RunResult
from repro.engine.workload import DecodeWorkload

__all__ = ["route_counts", "simulate_inference", "validate_inference_inputs"]

# A block of whole iterations holds at most this many token routes plus
# (step, src, dst) Alltoall entries, so a long run on many GPUs never
# materialises its whole (T, G, G) traffic stack at once.
_MAX_STACK_ELEMENTS = 1 << 18


@functools.lru_cache(maxsize=64)
def _key_bases(
    lead: tuple[int, ...], layers: int, g: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bincount key bases of :func:`route_counts` for one shape.

    Step ``t = it * layers + j`` of ``T`` gets ``t * g`` (resident),
    ``T * g + t * g`` (FFN) and ``2 * T * g + t * g * g`` (dispatch),
    shaped ``(*lead, 1, layers)`` to broadcast over the requests axis.
    """
    steps = math.prod(lead) * layers
    row = np.arange(steps, dtype=np.int64).reshape(*lead, 1, layers) * g
    bases = (row, steps * g + row, 2 * steps * g + row * g)
    for base in bases:
        base.flags.writeable = False
    return bases


def route_counts(
    gpu_path: np.ndarray,
    home: np.ndarray,
    sec_path: np.ndarray | None,
    coherent: bool,
    g: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where tokens sit and how many move, for a block of decode steps.

    The token-movement rules of paper Fig 4, written once for the batched
    engine and the per-step timer:

    * **vanilla** — every layer dispatches from the token's home GPU to its
      expert's GPU, and a combine Alltoall brings it home again.
    * **coherent** (context-coherent and exflow) — a token stays where its
      last expert ran: layer 0 dispatches from home, layer ``j`` from the
      GPU of the layer ``j-1`` expert.  There is no combine; the caller
      charges the per-iteration context AllGather.
    * **top-2** — the secondary expert receives its payload from the
      token's location and sends its output to the primary expert's GPU,
      where the combination happens, so a vanilla combine still carries
      one token home.

    ``gpu_path`` is the GPU of each token's primary expert, ``(B, L)`` for
    one iteration or ``(I, R, L)`` for a block of iterations, with step
    ``t = it * L + j``; ``sec_path`` (same shape) is the secondary
    expert's GPU under top-2 gating, else ``None``; ``home`` is each
    request's home GPU.  Returns, all int64:

    * ``loc`` — the GPU each token sits on when its layer dispatches,
      shaped like ``gpu_path`` (coherent) or ``home[:, None]`` (vanilla:
      home at every layer), which broadcasts against it;
    * ``occupancy`` — ``(2, T, G)``: resident tokens (which run attention
      and gating) and FFN tokens per (step, GPU);
    * ``a2a`` — ``(n * T, G * G)``: tokens from ``src`` to ``dst`` at
      ``src * G + dst``, one row per step of the dispatch Alltoall, then,
      in vanilla mode (``n == 2``), one per step of the combine; the
      diagonal is zero, since same-GPU moves are free memcpys.
    """
    *lead, _, layers = gpu_path.shape
    row, ffn, pair = _key_bases(tuple(lead), layers, g)
    steps = row.size
    home_col = home[:, None]
    if coherent:
        loc = np.empty_like(gpu_path)
        loc[..., 0] = home
        loc[..., 1:] = gpu_path[..., :-1]
    else:
        loc = home_col

    # one bincount counts every route, in blocks at offsets 0: resident
    # (step, gpu), TG: FFN (step, gpu), 2TG: dispatch (step, src, dst) and,
    # vanilla only, 2TG + TG²: combine (step, src, dst)
    keys = [row + loc, ffn + gpu_path, pair + loc * g + gpu_path]
    if sec_path is not None:
        keys += [ffn + sec_path, pair + loc * g + sec_path, pair + sec_path * g + gpu_path]
    n = 1 if coherent else 2
    if not coherent:
        keys.append(pair + steps * g * g + gpu_path * g + home_col)
    counts = np.bincount(
        np.concatenate(keys).ravel(), minlength=steps * (2 * g + n * g * g)
    )
    a2a = counts[2 * steps * g :].reshape(n * steps, g * g)
    a2a[:, :: g + 1] = 0
    return loc, counts[: 2 * steps * g].reshape(2, steps, g), a2a


def validate_inference_inputs(
    model: ModelConfig,
    cluster: ClusterConfig,
    placement: Placement,
    workload: DecodeWorkload,
) -> None:
    """Raise ``ValueError`` with a precise message on any inconsistent input.

    Checks every cross-object invariant the engine relies on: shape
    agreement between model/placement/workload, home-GPU ranks inside
    ``[0, num_gpus)`` (including negatives), and expert ids in both the
    primary and secondary path tensors inside ``[0, num_experts)``.  The
    expert-id checks are re-done here even though :class:`DecodeWorkload`
    validates at construction, because numpy arrays are mutable in place
    and an out-of-range id would otherwise silently index the wrong row of
    the placement table.
    """
    if placement.num_experts != model.num_experts:
        raise ValueError(
            f"placement has {placement.num_experts} experts per layer, "
            f"model has {model.num_experts}"
        )
    if placement.num_layers != model.num_moe_layers:
        raise ValueError(
            f"placement has {placement.num_layers} layers, "
            f"model has {model.num_moe_layers} MoE layers"
        )
    if placement.num_gpus != cluster.num_gpus:
        raise ValueError(
            f"placement built for {placement.num_gpus} GPUs, "
            f"cluster has {cluster.num_gpus}"
        )
    if workload.num_layers != model.num_moe_layers:
        raise ValueError(
            f"workload has {workload.num_layers} layers, "
            f"model has {model.num_moe_layers} MoE layers"
        )
    if workload.num_experts != model.num_experts:
        raise ValueError(
            f"workload routed over {workload.num_experts} experts, "
            f"model has {model.num_experts}"
        )

    home = workload.home_gpu
    if home.size:
        lo, hi = int(home.min()), int(home.max())
        if lo < 0:
            raise ValueError(f"workload home GPU ranks must be >= 0, got {lo}")
        if hi >= cluster.num_gpus:
            raise ValueError(
                f"workload home GPU {hi} out of range for a "
                f"{cluster.num_gpus}-GPU cluster"
            )

    for name, paths in (
        ("paths", workload.paths),
        ("secondary_paths", workload.secondary_paths),
    ):
        if paths is None or not paths.size:
            continue
        lo, hi = int(paths.min()), int(paths.max())
        if lo < 0 or hi >= model.num_experts:
            raise ValueError(
                f"workload {name} contains expert id "
                f"{lo if lo < 0 else hi} outside [0, {model.num_experts})"
            )


def simulate_inference(
    model: ModelConfig,
    cluster: ClusterConfig,
    infer: InferenceConfig,
    placement: Placement,
    workload: DecodeWorkload,
    cost_model: CostModel | None = None,
) -> RunResult:
    """Simulate one serving run; returns the full :class:`RunResult`.

    Parameters
    ----------
    model / cluster / infer:
        Architecture, hardware and workload configuration.  ``infer.mode``
        selects the execution strategy.
    placement:
        Expert-to-GPU mapping (use the vanilla placement for baseline runs;
        the engine itself is placement-agnostic).
    workload:
        Per-iteration routing decisions (see
        :func:`repro.engine.workload.make_decode_workload`).
    cost_model:
        Compute pricing; defaults to :class:`CostModel` on the cluster's
        GPU throughput.

    The returned values are bit-identical to
    :func:`repro.engine.reference.simulate_inference_reference` on the same
    inputs; this implementation is the batched fast path.
    """
    validate_inference_inputs(model, cluster, placement, workload)

    cost = cost_model or CostModel(model, gpu_flops=cluster.gpu_flops)
    topo = Topology(cluster)
    ledger = TrafficLedger()
    mode = infer.mode
    g = cluster.num_gpus
    token_bytes = cost.token_bytes(infer.dtype_bytes)
    sec_paths = workload.secondary_paths if model.gating.k == 2 else None
    coherent = mode.uses_context_coherence

    home = workload.home_gpu
    r = workload.num_requests
    layers = model.num_moe_layers
    iters = workload.iterations
    layer_idx = np.arange(layers)
    node_of = topo.node_of_gpu

    # identical elementwise arithmetic to CostModel.{attention,gating,ffn}_time
    ctx_flops = np.array(
        [cost.attention_flops(workload.prompt_len + it) for it in range(iters)]
    )

    attention_s = gating_s = ffn_s = alltoall_s = allgather_s = 0.0
    same_gpu_transitions = same_node_transitions = 0

    if coherent:
        prompt_payload = np.bincount(home, minlength=g).astype(np.float64)
        prompt_payload *= infer.prompt_len * token_bytes
        prompt_res = allgather_cost(topo, prompt_payload)
        step_payload = np.bincount(home, minlength=g).astype(np.float64) * token_bytes
        step_res = allgather_cost(topo, step_payload)
        ledger.record(prompt_res, "allgather")
        allgather_s += prompt_res.time_s

    n_a2a = 1 if coherent else 2
    block = max(1, _MAX_STACK_ELEMENTS // ((r + n_a2a * g * g) * layers))
    for i0 in range(0, iters, block):
        its = slice(i0, i0 + block)
        # gpu_path[it, rq, j] = GPU holding request rq's layer-j expert
        gpu_path = placement.gpu_of[layer_idx, workload.paths[its]]
        n_its = gpu_path.shape[0]
        sec_path = None if sec_paths is None else placement.gpu_of[layer_idx, sec_paths[its]]
        loc, occupancy, a2a = route_counts(gpu_path, home, sec_path, coherent, g)

        # locality bookkeeping (transition = a potential token move)
        same_gpu_transitions += int((gpu_path == loc).sum())
        same_node_transitions += int((node_of[gpu_path] == node_of[loc]).sum())

        # per-step compute times (lockstep maxima) and batched Alltoalls
        resident_max, ffn_max = occupancy.max(axis=2)
        att_steps = (
            resident_max.reshape(n_its, layers)
            * ctx_flops[its, None]
            / (cost.gpu_flops * cost.attention_efficiency)
        ).ravel()
        gat_steps = resident_max * cost.gating_flops() / (cost.gpu_flops * cost.gating_efficiency)
        ffn_steps = ffn_max * cost.ffn_flops() / (cost.gpu_flops * cost.ffn_efficiency)
        traffic = a2a.astype(np.float64) * token_bytes
        a2a_res = alltoall_matrix(topo, traffic.reshape(-1, g, g))

        # scalar accumulation in the oracle's exact order
        for i in range(n_its):
            for t in range(i * layers, (i + 1) * layers):
                attention_s += att_steps[t]
                gating_s += gat_steps[t]
                res = a2a_res[t]
                ledger.record(res, "alltoall")
                alltoall_s += res.time_s
                ffn_s += ffn_steps[t]
                if not coherent:
                    res = a2a_res[n_its * layers + t]
                    ledger.record(res, "alltoall")
                    alltoall_s += res.time_s
            if coherent:
                # end of iteration: coherent modes AllGather the new tokens
                ledger.record(step_res, "allgather")
                allgather_s += step_res.time_s

    total_transitions = iters * layers * r
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
        generated_tokens=iters * r,
        iterations=iters,
        gpu_stay_fraction=(
            same_gpu_transitions / total_transitions if total_transitions else 1.0
        ),
        node_stay_fraction=(
            same_node_transitions / total_transitions if total_transitions else 1.0
        ),
    )
