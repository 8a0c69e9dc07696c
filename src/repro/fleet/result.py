"""Shared fleet-simulation result type and engine-agnostic helpers.

Both fleet engines — the event-heap reference oracle
(:mod:`repro.fleet.reference`) and the vectorized tick engine
(:mod:`repro.fleet.engine`) — must produce *bit-identical*
:class:`FleetResult` values on identical inputs.  Everything that feeds
floating-point arithmetic or the shared rng stream therefore lives here,
written once and called by both:

* :func:`sample_paths_grouped` — the per-step routing-path draw from each
  regime's model at the step's start time, grouped by regime in sorted
  order so rng consumption depends only on the batch's regime multiset;
* :func:`validate_fleet_inputs` — argument checking, including the
  regime-id range check (out-of-range regimes raise instead of silently
  clamping to the last regime);
* :func:`finalize_fleet_result` — the result epilogue (makespan, latency
  percentiles, per-class SLO attainment over offered traffic, GPU-hour
  billing), identical accumulation order for both engines.

Telemetry needs no adapter: both engines call the
:class:`~repro.obs.recorder.MetricsRecorder` hooks directly, with the same
arguments in the same order, so one recorder attached to an oracle run
and a tick run records identical timelines, event for event.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import ClusterConfig, FleetConfig, ModelConfig
from repro.engine.metrics import LatencyStats
from repro.engine.workload import DriftScenario
from repro.fleet.admission import AdmissionController
from repro.fleet.autoscaler import ScaleEvent
from repro.fleet.replica import ReplicaState, ReplicaStats
from repro.fleet.requests import (
    FailureRecord,
    FleetCompleted,
    FleetRequest,
    LostRecord,
    ShedRecord,
)
from repro.obs.recorder import MetricsRecorder

__all__ = [
    "FleetResult",
    "sample_paths_grouped",
    "validate_fleet_inputs",
    "finalize_fleet_result",
]


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet serving simulation."""

    completed: tuple[FleetCompleted, ...]
    shed: tuple[ShedRecord, ...]
    latency: LatencyStats
    queue: LatencyStats
    makespan_s: float
    replicas: tuple[ReplicaStats, ...]
    scale_events: tuple[ScaleEvent, ...]
    slo_attainment: dict[str, float]
    peak_replicas: int = 0
    generated_tokens: int = 0
    #: GPU-hours billed across all replicas (scale-up decision → stop/end),
    #: and their price at ``ClusterConfig.gpu_hour_usd`` — the spend the
    #: autoscaler trades against p95
    gpu_hours: float = 0.0
    cost_usd: float = 0.0
    # chaos account: injected replica failures, requests destroyed after
    # exhausting their retry budget, total retry re-admissions, and the
    # completions that met their class SLO (the goodput numerator)
    failures: tuple[FailureRecord, ...] = ()
    lost: tuple[LostRecord, ...] = ()
    retries: int = 0
    slo_met: int = 0

    @property
    def served(self) -> int:
        return len(self.completed)

    @property
    def usd_per_million_tokens(self) -> float:
        """Unit economics: dollars per 1e6 generated tokens."""
        if self.generated_tokens <= 0:
            return 0.0
        return self.cost_usd / (self.generated_tokens / 1e6)

    @property
    def offered(self) -> int:
        return len(self.completed) + len(self.shed) + len(self.lost)

    @property
    def shed_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return len(self.shed) / self.offered

    @property
    def throughput_rps(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.served / self.makespan_s

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed (1.0 on zero offered)."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    @property
    def goodput_rps(self) -> float:
        """Completions that met their class SLO, per second of makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.slo_met / self.makespan_s

    @property
    def mean_time_to_recover_s(self) -> float:
        """Mean failure → replacement-routable span over recovered failures.

        0.0 when nothing failed or nothing recovered — callers must check
        ``failures`` before reading meaning into the zero.
        """
        spans = [
            f.recovered_at_s - f.time_s
            for f in self.failures
            if f.recovered_at_s is not None
        ]
        if not spans:
            return 0.0
        return sum(spans) / len(spans)

    @property
    def final_replicas(self) -> int:
        return sum(1 for r in self.replicas if r.final_state != ReplicaState.STOPPED.value)


def sample_paths_grouped(
    regs: np.ndarray,
    regimes: Sequence[DriftScenario],
    t: float,
    rng: np.random.Generator,
    num_layers: int,
) -> np.ndarray:
    """One (B, L) path matrix: each request draws from its own regime.

    Each regime samples the model it names at ``t``, the step's start
    (after admission cost).  Grouped by regime so each regime model is
    sampled once per step; groups iterate in sorted regime order, keeping
    rng use deterministic (it depends only on the batch's regime multiset,
    not its order).
    """
    if len(regimes) == 1:  # one group: the same draws, minus the grouping
        return regimes[0].model_at(t).sample(int(regs.size), rng).paths
    paths = np.empty((regs.size, num_layers), dtype=np.int64)
    for k in np.unique(regs):
        idx = np.flatnonzero(regs == k)
        paths[idx] = regimes[int(k)].model_at(t).sample(int(idx.size), rng).paths
    return paths


def validate_fleet_inputs(
    reqs: Sequence[FleetRequest],
    model: ModelConfig,
    regimes: Sequence[DriftScenario],
    placements_by_regime: Sequence[object],
    fleet: FleetConfig,
    max_batch_requests: int,
) -> None:
    """Shared argument checking for both fleet engines.

    Regime ids are validated here — a request labelled with a regime the
    fleet does not model is a configuration error, not traffic to be
    silently folded onto the last regime.
    """
    if max_batch_requests <= 0:
        raise ValueError("max_batch_requests must be positive")
    if len(regimes) != fleet.num_regimes:
        raise ValueError(
            f"fleet.num_regimes = {fleet.num_regimes} but {len(regimes)} regime models given"
        )
    if len(placements_by_regime) != len(regimes):
        raise ValueError("need exactly one placement per regime")
    for m in regimes:
        if m.num_experts != model.num_experts or m.num_layers != model.num_moe_layers:
            raise ValueError("regime model shape does not match model architecture")
    k = len(regimes)
    for q in reqs:
        if q.regime >= k:
            raise ValueError(
                f"request {q.req_id} has regime {q.regime}, but the fleet models "
                f"only regimes 0..{k - 1}"
            )


def finalize_fleet_result(
    completed: list[FleetCompleted],
    shed: list[ShedRecord],
    first_arrival: float,
    stats_at: Callable[[float], tuple[ReplicaStats, ...]],
    scale_events: list[ScaleEvent],
    admission: AdmissionController,
    peak_routable: int,
    cluster: ClusterConfig,
    rec: MetricsRecorder | None = None,
    failures: Sequence[FailureRecord] = (),
    lost: Sequence[LostRecord] = (),
    retries: int = 0,
) -> FleetResult:
    """Assemble the :class:`FleetResult` epilogue shared by both engines.

    ``stats_at(sim_end)`` returns the per-replica accounts frozen at the
    simulation end time (which depends on the makespan, computed here).
    Every accumulation below iterates in a deterministic order so the two
    engines cannot diverge in float rounding.
    """
    end_times = (
        [c.finished_s for c in completed]
        + [s.time_s for s in shed]
        + [loss.time_s for loss in lost]
    )
    makespan = max(end_times) - first_arrival if end_times else 0.0
    sim_end = first_arrival + makespan
    if rec is not None:
        rec.on_run_end(sim_end)
    replica_stats = stats_at(sim_end)
    gpu_hours = sum(s.gpu_hours for s in replica_stats)

    # per-class SLO attainment over *offered* traffic: shed/lost = missed
    offered_by_class: Counter[str] = Counter()
    met_by_class: Counter[str] = Counter()
    for c in completed:
        name = admission.class_of(c.request).name
        offered_by_class[name] += 1
        if admission.slo_met(c.request, c.latency_s):
            met_by_class[name] += 1
    for s in shed:
        offered_by_class[admission.class_of(s.request).name] += 1
    for loss in lost:
        offered_by_class[admission.class_of(loss.request).name] += 1
    attainment = {
        cls.name: (
            met_by_class[cls.name] / offered_by_class[cls.name]
            if offered_by_class[cls.name]
            else 1.0
        )
        for cls in admission.classes
    }

    return FleetResult(
        completed=tuple(completed),
        shed=tuple(shed),
        latency=LatencyStats.from_samples([c.latency_s for c in completed]),
        queue=LatencyStats.from_samples([c.queue_s for c in completed]),
        makespan_s=makespan,
        replicas=replica_stats,
        scale_events=tuple(scale_events),
        slo_attainment=attainment,
        peak_replicas=peak_routable,
        generated_tokens=sum(c.request.generate_len for c in completed),
        gpu_hours=gpu_hours,
        cost_usd=gpu_hours * cluster.gpu_hour_usd,
        failures=tuple(failures),
        lost=tuple(lost),
        retries=retries,
        slo_met=sum(met_by_class.values()),
    )
