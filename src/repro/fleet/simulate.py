"""Fleet serving entry points: engine dispatch + config-driven scenario.

The fleet simulation exists twice, by design:

* :mod:`repro.fleet.reference` — the original event-heap loop, one event
  popped and processed at a time.  Slow, obvious, and the correctness
  oracle (``engine="event"``).
* :mod:`repro.fleet.engine` — the vectorized tick engine: array state,
  windowed arrival batches, the same events in the same order
  (``engine="tick"``).  Bit-identical results, built for million-request
  days (``tests/test_fleet_equivalence.py`` enforces the former,
  ``benchmarks/bench_fleet_scale.py`` measures the latter).

:func:`_simulate_fleet_serving` dispatches on ``FleetConfig.engine``;
:func:`_simulate_fleet_cluster_serving` is the config-driven entry point
(``repro run`` on fleet scenarios, fig16 included): it draws the regime
models, solves one placement per regime, labels arrivals with regimes and
priorities, and runs the selected engine.  The public way in is
:func:`repro.run` with a ``fleet`` Scenario; these two functions are its
implementation.  A regime is any
:class:`~repro.engine.workload.DriftScenario`: the online scenario kind
and the serving kind (:func:`~repro.engine.serving._simulate_serving`)
call the tick engine directly with one replica and one regime.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    ModelConfig,
    ServingConfig,
)
from repro.core.online import ReplacementPolicy
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.costs import CostModel
from repro.engine.serving import PlacementStepTimer, Request, StepCurve, make_arrivals
from repro.engine.workload import DriftScenario
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.fleet.requests import FleetRequest, make_fleet_requests
from repro.fleet.result import FleetResult
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder
from repro.trace.markov import MarkovRoutingModel

__all__: list[str] = []


def _simulate_fleet_serving(
    requests: Iterable[FleetRequest],
    model: ModelConfig,
    cluster: ClusterConfig,
    regimes: Sequence[DriftScenario],
    placements_by_regime: Sequence[Placement],
    fleet: FleetConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    max_batch_requests: int = 64,
    timer: PlacementStepTimer | StepCurve | None = None,
    replace_policy: ReplacementPolicy | None = None,
    replace_halflife_tokens: float | None = None,
    dtype_bytes: int = 2,
    rng: np.random.Generator | None = None,
    replace_rng: np.random.Generator | None = None,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> FleetResult:
    """Serve ``requests`` on a fleet of replicas behind a router.

    ``placements_by_regime[k]`` is the affinity-optimized placement fit to
    ``regimes[k]``; initial replica ``i`` carries placement
    ``i % num_regimes`` (a heterogeneous fleet when ``num_regimes > 1``),
    and autoscaled replicas boot with the placement of the regime
    dominating the queued traffic at decision time.
    ``max_batch_requests`` is each replica's continuous-batching admission
    cap (the serving layer's knob, threaded through by the cluster entry
    point).  With ``fleet.replace`` on, each replica's re-placement loop
    uses ``replace_policy`` and a streaming estimator with
    ``replace_halflife_tokens`` (defaults when ``None``); every replica's
    solver draws from the one ``replace_rng`` stream.

    ``fleet.engine`` selects the execution strategy — ``"event"`` for the
    heap oracle, ``"tick"`` for the vectorized engine; both return the
    same :class:`~repro.fleet.result.FleetResult`, bit for bit.  Both
    build the routing and admission policy from ``fleet`` itself
    (``router``, ``affinity_load_weight``, the SLOs, ``shed_slack``,
    ``max_queue_per_replica``).
    """
    run = simulate_fleet_tick if fleet.engine == "tick" else simulate_fleet_reference
    return run(
        requests,
        model,
        cluster,
        regimes,
        placements_by_regime,
        fleet,
        mode=mode,
        max_batch_requests=max_batch_requests,
        timer=timer,
        replace_policy=replace_policy,
        replace_halflife_tokens=replace_halflife_tokens,
        dtype_bytes=dtype_bytes,
        rng=rng,
        replace_rng=replace_rng,
        recorder=recorder,
        profiler=profiler,
    )


def _simulate_fleet_cluster_serving(
    model: ModelConfig,
    cluster: ClusterConfig,
    serving: ServingConfig,
    fleet: FleetConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    affinity: float = 0.85,
    placement_strategy: str = "staged",
    profile_tokens: int = 2048,
    arrivals: Sequence[Request] | None = None,
    regime_weight_at: Callable[[float], Sequence[float]] | None = None,
    replace_policy: ReplacementPolicy | None = None,
    replace_halflife_tokens: float | None = None,
    cost_model: CostModel | None = None,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> FleetResult:
    """End-to-end fleet scenario from ``ServingConfig`` + ``FleetConfig``.

    Builds ``fleet.num_regimes`` independent Markov regimes of equal
    affinity strength, solves one placement per regime from an offline
    profile, labels the arrival stream with regimes (time-varying mix via
    ``regime_weight_at``) and priorities, and runs the engine
    ``fleet.engine`` selects.

    Seed layout (all derived from ``serving.seed``, all disjoint):
    arrivals use ``seed``, regime ``k``'s transition structure
    ``seed + 101*k`` (regime 0 matches the drift scenarios' base regime),
    offline profiles ``seed + 7 + k``, request labelling ``seed + 5``, the
    live simulation stream ``seed + 9``, and the replicas' shared
    re-placement solver stream ``seed + 3``.  Pass ``arrivals`` to
    substitute a custom process (e.g.
    :func:`~repro.fleet.requests.flash_crowd_arrivals`) for the built-in
    Poisson/bursty families.
    """
    regimes = [
        MarkovRoutingModel.with_affinity(
            model.num_experts,
            model.num_moe_layers,
            affinity,
            rng=np.random.default_rng(serving.seed + 101 * k),
        )
        for k in range(fleet.num_regimes)
    ]
    if mode.uses_affinity_placement:
        placements = [
            solve_placement(
                placement_strategy,
                regimes[k].sample(
                    profile_tokens, np.random.default_rng(serving.seed + 7 + k)
                ),
                cluster,
            )
            for k in range(fleet.num_regimes)
        ]
    else:
        flat = vanilla_placement(
            model.num_moe_layers, model.num_experts, cluster.num_gpus
        )
        placements = [flat for _ in range(fleet.num_regimes)]

    base = (
        list(arrivals)
        if arrivals is not None
        else make_arrivals(serving, np.random.default_rng(serving.seed))
    )
    labelled = make_fleet_requests(
        base,
        fleet,
        rng=np.random.default_rng(serving.seed + 5),
        regime_weight_at=regime_weight_at,
    )

    timer = PlacementStepTimer(model, cluster, mode=mode, cost_model=cost_model)
    return _simulate_fleet_serving(
        labelled,
        model,
        cluster,
        regimes,
        placements,
        fleet,
        mode=mode,
        max_batch_requests=serving.max_batch_requests,
        timer=timer,
        replace_policy=replace_policy,
        replace_halflife_tokens=replace_halflife_tokens,
        rng=np.random.default_rng(serving.seed + 9),
        replace_rng=np.random.default_rng(serving.seed + 3),
        recorder=recorder,
        profiler=profiler,
    )
