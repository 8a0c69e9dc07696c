"""Distributed MoE inference engine (simulation).

Replays routing workloads over a simulated cluster under the three
execution strategies the paper compares:

* ``vanilla`` — DeepSpeed-MoE pattern: two Alltoalls per MoE layer, tokens
  return home after every layer.
* ``context_coherent`` — ExFlow w/o affinity: one Alltoall per layer plus a
  per-iteration context AllGather.
* ``exflow`` — context coherence + affinity placement.

The engine is trace-driven: a workload assigns each request's token an
expert path per iteration; the executor converts paths + placement into
per-layer traffic matrices, prices them with
:mod:`repro.cluster.collectives`, prices compute with
:mod:`repro.engine.costs`, and accumulates a
:class:`~repro.cluster.traffic.TrafficLedger`.

Two executors share one contract: the vectorized batched engine in
:mod:`repro.engine.executor` (the fast default) and the step-by-step loop
oracle in :mod:`repro.engine.reference` (kept for equivalence testing).
On top of the batch engine, :mod:`repro.engine.serving` adds request-level
serving: Poisson/bursty arrivals, continuous batching and tail-latency
metrics.
"""

from repro.engine.costs import CostModel
from repro.engine.metrics import RunResult, OpBreakdown, LatencyStats
from repro.engine.workload import (
    DecodeWorkload,
    make_decode_workload,
    DriftScenario,
    GradualDrift,
    AbruptDrift,
    DiurnalDrift,
    DRIFT_KINDS,
    make_drift_scenario,
)
from repro.engine.executor import simulate_inference, validate_inference_inputs
from repro.engine.reference import simulate_inference_reference
from repro.engine.comparison import compare_modes, ComparisonRow
from repro.engine.serving import (
    Request,
    ServingResult,
    make_arrivals,
    poisson_arrivals,
    bursty_arrivals,
    StepCurve,
    engine_step_time,
    PlacementStepTimer,
    KeptSample,
    OnlineServingResult,
)

__all__ = [
    "CostModel",
    "RunResult",
    "OpBreakdown",
    "LatencyStats",
    "DecodeWorkload",
    "make_decode_workload",
    "DriftScenario",
    "GradualDrift",
    "AbruptDrift",
    "DiurnalDrift",
    "DRIFT_KINDS",
    "make_drift_scenario",
    "simulate_inference",
    "simulate_inference_reference",
    "validate_inference_inputs",
    "compare_modes",
    "ComparisonRow",
    "Request",
    "ServingResult",
    "make_arrivals",
    "poisson_arrivals",
    "bursty_arrivals",
    "StepCurve",
    "engine_step_time",
    "PlacementStepTimer",
    "KeptSample",
    "OnlineServingResult",
]
