"""repro — reproduction of ExFlow (IPDPS 2024).

"Exploiting Inter-Layer Expert Affinity for Accelerating Mixture-of-Experts
Model Inference" (Yao et al.), rebuilt as a self-contained simulation stack:

* :mod:`repro.config` — model / cluster / workload configuration.
* :mod:`repro.cluster` — topology + collective cost models (the hardware).
* :mod:`repro.model` — numpy GPT MoE decoder (the checkpoint substrate).
* :mod:`repro.trace` — routing traces, synthetic corpora, Markov generators.
* :mod:`repro.core` — the paper's contribution: affinity estimation,
  ILP-based expert placement, online re-placement, the ExFlow facade.
* :mod:`repro.engine` — distributed inference simulation + comparisons.
* :mod:`repro.fleet` — multi-replica serving: router, admission, autoscaler.
* :mod:`repro.obs` — observability: metric timelines, Chrome-trace export
  (attach via ``Scenario.telemetry``), simulator self-profiling
  (``run(..., profiler=PhaseProfiler())``).
* :mod:`repro.training` — affinity/balance dynamics during training.
* :mod:`repro.analysis` — heatmaps, Table I formulas, report formatting.
* :mod:`repro.scenarios` — the front door: declarative :class:`Scenario`
  specs, the :func:`run` facade, and the named-preset registry.

Quickstart — everything runs through ``run()``::

    from repro import run, list_scenarios, get_scenario, run_sweep

    # enumerate the registered presets (paper figures, drift, flash crowds)
    print(list_scenarios())

    # one call per experiment, one report schema for every kind
    report = run("fig16-flash-autoscale-smoke")
    print(report.latency_p95_s, report.shed_fraction, report.cost_usd)

    # declare your own: a spec is just a frozen dataclass
    import dataclasses
    base = get_scenario("serve-bursty")
    grid = [
        dataclasses.replace(
            base,
            name=f"bursty-rate{rate}",
            serving=dataclasses.replace(base.serving, arrival_rate_rps=rate),
        )
        for rate in (100.0, 300.0, 900.0)
    ]
    for rep in run_sweep(grid):          # multiprocessing over the grid
        print(rep.scenario, rep.latency_p95_s)

Scenarios serialize (``Scenario.to_dict`` / ``from_dict`` / ``save`` /
``load``), so ``repro run --scenario file.json`` reproduces any run.
``run()`` is the one way in to the serving, online and fleet simulators.

Static analysis — the simulator's invariants are machine-checked::

    PYTHONPATH=src python -m repro lint src benchmarks examples
    PYTHONPATH=src python -m repro lint --list-rules   # what each RPL rule means
    PYTHONPATH=src mypy --strict src/repro             # typing gate (mypy.ini)

``repro lint`` (:mod:`repro.lint`) enforces the determinism, unit-safety
and spec-hygiene rules described in DESIGN.md ("Static analysis &
invariants"); suppress a deliberate violation inline with
``# repro-lint: disable=RPL001``.  CI runs both gates on every push.
"""

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    GatingKind,
    InferenceConfig,
    LinkSpec,
    ModelConfig,
    PAPER_MODELS,
    ServingConfig,
    paper_model,
    scaled_proxy,
    wilkes3,
)
from repro.cluster import Topology, Tier, TrafficLedger
from repro.core import (
    ExFlowOptimizer,
    ExFlowPlan,
    OnlineReplacer,
    Placement,
    ReplacementPolicy,
    ReplicatedPlacement,
    SOLVERS,
    StreamingAffinityEstimator,
    affinity_matrix,
    multi_hop_affinity,
    popularity_replication,
    replicated_locality,
    scaled_affinity,
    solve_placement,
    staged_placement,
    validate_replication_memory,
    vanilla_placement,
)
from repro.engine import (
    CostModel,
    DecodeWorkload,
    LatencyStats,
    RunResult,
    compare_modes,
    make_arrivals,
    make_decode_workload,
    make_drift_scenario,
    simulate_inference,
    simulate_inference_reference,
)
from repro.fleet import (
    FleetRequest,
    FleetResult,
    OnlineServingResult,
    flash_crowd_arrivals,
    make_router,
)
from repro.model import MoETransformer, generate
from repro.obs import (
    PhaseProfiler,
    SignalDetector,
    SloSpec,
    TimelineRecorder,
    openmetrics_text,
    parse_openmetrics,
    score_against_chaos,
    validate_chrome_trace,
)
from repro.scenarios import (
    DriftSpec,
    FlashCrowdSpec,
    ReplacementSpec,
    Scenario,
    SimReport,
    TelemetrySpec,
    get_scenario,
    list_scenarios,
    make_recorder,
    register_scenario,
    run,
    run_sweep,
)
from repro.trace import (
    MarkovRoutingModel,
    RoutingTrace,
    TopicCorpus,
    collect_trace,
    make_corpus,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "ClusterConfig",
    "ExecutionMode",
    "FleetConfig",
    "GatingKind",
    "InferenceConfig",
    "LinkSpec",
    "ModelConfig",
    "PAPER_MODELS",
    "ServingConfig",
    "paper_model",
    "scaled_proxy",
    "wilkes3",
    # cluster
    "Topology",
    "Tier",
    "TrafficLedger",
    # core
    "ExFlowOptimizer",
    "ExFlowPlan",
    "OnlineReplacer",
    "Placement",
    "ReplacementPolicy",
    "ReplicatedPlacement",
    "SOLVERS",
    "StreamingAffinityEstimator",
    "affinity_matrix",
    "multi_hop_affinity",
    "popularity_replication",
    "replicated_locality",
    "scaled_affinity",
    "solve_placement",
    "staged_placement",
    "validate_replication_memory",
    "vanilla_placement",
    # engine
    "CostModel",
    "DecodeWorkload",
    "LatencyStats",
    "RunResult",
    "compare_modes",
    "make_arrivals",
    "make_decode_workload",
    "make_drift_scenario",
    "simulate_inference",
    "simulate_inference_reference",
    # fleet
    "FleetRequest",
    "FleetResult",
    "OnlineServingResult",
    "flash_crowd_arrivals",
    "make_router",
    # model
    "MoETransformer",
    "generate",
    # obs (telemetry + SLO monitoring)
    "PhaseProfiler",
    "SignalDetector",
    "SloSpec",
    "TimelineRecorder",
    "openmetrics_text",
    "parse_openmetrics",
    "score_against_chaos",
    "validate_chrome_trace",
    # scenarios (the run() facade)
    "Scenario",
    "DriftSpec",
    "ReplacementSpec",
    "FlashCrowdSpec",
    "TelemetrySpec",
    "SimReport",
    "make_recorder",
    "run",
    "run_sweep",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    # trace
    "MarkovRoutingModel",
    "RoutingTrace",
    "TopicCorpus",
    "collect_trace",
    "make_corpus",
]
