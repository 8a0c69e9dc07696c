"""Named scenario presets: every headline experiment, enumerable and runnable.

The registry is the ROADMAP's "as many scenarios as you can imagine"
surface: each paper-figure experiment, drift workload and flash-crowd
stress is one registered :class:`~repro.scenarios.spec.Scenario`, and each
comes with a ``-smoke`` variant — the same pipeline at CI-friendly scale
(the smoke shapes are exactly the ones the fig15/fig16 benchmarks run in
their ``--smoke`` mode).  ``repro run <name>`` executes any of them;
``repro scenarios list`` enumerates the table.

Preset configurations are lifted verbatim from the benchmarks they back
(`bench_fig10_end_to_end`, `bench_fig15_online_replacement`,
`bench_fig16_fleet_routing`), so running a preset through the facade
reproduces the benchmark's headline numbers.
"""

from __future__ import annotations

from repro.chaos import RetryPolicy, bad_day_schedule
from repro.config import (
    ClusterConfig,
    FleetConfig,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
    paper_model,
    wilkes3,
)
from repro.core.online import ReplacementPolicy
from repro.obs.slo import SloSpec
from repro.scenarios.spec import (
    DriftSpec,
    FlashCrowdSpec,
    ReplacementSpec,
    Scenario,
    TelemetrySpec,
)

__all__ = [
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "fig10_panel",
    "fleet_bad_day",
    "fleet_steady_day",
    "SCENARIOS",
]

#: name -> Scenario; populated below and via :func:`register_scenario`
SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry under its own name."""
    if not overwrite and scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered preset by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(SCENARIOS))}"
        ) from None


def list_scenarios(
    kind: str | None = None, smoke: bool | None = None
) -> tuple[str, ...]:
    """Registered preset names, optionally filtered by kind / smoke flag."""
    names = []
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        if kind is not None and s.kind != kind:
            continue
        if smoke is not None and s.is_smoke != smoke:
            continue
        names.append(name)
    return tuple(names)


# -- batch presets (fig10's panels) -------------------------------------------

_FIG15_POLICY = ReplacementPolicy(
    check_every_steps=8,
    kept_mass_drop=0.1,
    min_effective_tokens=256,
    cooldown_steps=16,
    solver_passes=6,
)
_FIG15_SMOKE_POLICY = ReplacementPolicy(
    check_every_steps=8,
    kept_mass_drop=0.1,
    min_effective_tokens=128,
    cooldown_steps=16,
    solver_passes=6,
)


def fig10_panel(
    model_key: str, gpus: int, name: str | None = None, description: str = ""
) -> Scenario:
    """One fig10 panel: three-way comparison, seed = GPU count (the bench's).

    The single source of the fig10 workload shape — the registered presets
    and `bench_fig10_end_to_end.py`'s non-registered panels both build
    through here, so they can never silently diverge.
    """
    return Scenario(
        name=name or f"fig10-{model_key}-{gpus}gpu",
        description=description,
        model=paper_model(model_key),
        cluster=wilkes3(max(1, gpus // 4), gpus_per_node=min(4, gpus)),
        batch=InferenceConfig(requests_per_gpu=8, prompt_len=64, generate_len=8),
        seed=gpus,
    )


def _batch_smoke(name: str) -> Scenario:
    return Scenario(
        name=name,
        description="tiny three-way engine comparison (CI smoke)",
        model=paper_model("gpt-m-350m-e8"),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=4),
        batch=InferenceConfig(requests_per_gpu=2, prompt_len=16, generate_len=3),
        seed=8,
    )


register_scenario(
    fig10_panel(
        "gpt-m-350m-e32",
        16,
        name="fig10-end-to-end",
        description="Fig 10 headline panel: MoE-GPT-M-350M-E32 on 16 GPUs",
    )
)
register_scenario(_batch_smoke("fig10-end-to-end-smoke"))
register_scenario(
    fig10_panel(
        "gpt-xl-1.3b-e16",
        8,
        name="fig10-xl",
        description="Fig 10 XL panel: MoE-GPT-XL-1.3B-E16 on 8 GPUs (compute-heavy)",
    )
)
register_scenario(
    Scenario(
        name="fig10-xl-smoke",
        description="tiny XL-panel comparison: compute-heavy model (CI smoke)",
        model=paper_model("gpt-xl-1.3b-e16"),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=4),
        batch=InferenceConfig(requests_per_gpu=2, prompt_len=16, generate_len=3),
        seed=8,
    )
)
register_scenario(
    fig10_panel(
        "gpt-m-350m-e8",
        4,
        name="fig10-single-node",
        description="Fig 10 single-node panel: NVLink-only Alltoall, ~no ExFlow gain",
    )
)
register_scenario(
    Scenario(
        name="fig10-single-node-smoke",
        description="tiny single-node comparison (CI smoke)",
        model=paper_model("gpt-m-350m-e8"),
        cluster=ClusterConfig(num_nodes=1, gpus_per_node=4),
        batch=InferenceConfig(requests_per_gpu=2, prompt_len=16, generate_len=3),
        seed=4,
    )
)


# -- single-replica serving presets -------------------------------------------


def _serve(name: str, description: str, arrival: str, smoke: bool) -> Scenario:
    return Scenario(
        name=name,
        description=description,
        model=paper_model("gpt-m-350m-e8"),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        serving=ServingConfig(
            arrival=arrival,
            arrival_rate_rps=300.0,
            num_requests=32 if smoke else 256,
            generate_len=4 if smoke else 16,
            max_batch_requests=8 if smoke else 32,
            prompt_len=16 if smoke else 64,
            seed=0,
        ),
    )


register_scenario(
    _serve(
        "serve-poisson",
        "continuous batching under memoryless arrivals, tail latency",
        "poisson",
        smoke=False,
    )
)
register_scenario(
    _serve("serve-poisson-smoke", "poisson serving (CI smoke)", "poisson", smoke=True)
)
register_scenario(
    _serve(
        "serve-bursty",
        "continuous batching under MMPP flash-crowd bursts",
        "bursty",
        smoke=False,
    )
)
register_scenario(
    _serve("serve-bursty-smoke", "bursty serving (CI smoke)", "bursty", smoke=True)
)


# -- online drift presets (fig15's arms) --------------------------------------


def _fig15(drift: str, smoke: bool) -> Scenario:
    if smoke:
        model = ModelConfig(
            name="fig15-smoke", num_layers=4, num_experts=8, d_model=64, num_heads=4
        )
        serving = ServingConfig(
            arrival="bursty",
            arrival_rate_rps=900.0,
            num_requests=160,
            generate_len=12,
            max_batch_requests=24,
            prompt_len=16,
            seed=0,
        )
        replacement = ReplacementSpec(_FIG15_SMOKE_POLICY, halflife_tokens=256.0)
    else:
        model = ModelConfig(
            name="fig15", num_layers=8, num_experts=16, d_model=512, num_heads=8
        )
        serving = ServingConfig(
            arrival="bursty",
            arrival_rate_rps=900.0,
            num_requests=480,
            generate_len=16,
            max_batch_requests=32,
            prompt_len=32,
            seed=0,
        )
        replacement = ReplacementSpec(_FIG15_POLICY, halflife_tokens=512.0)
    return Scenario(
        name=f"fig15-{drift}" + ("-smoke" if smoke else ""),
        description=(
            f"online re-placement under {drift} routing drift"
            + (" (CI smoke)" if smoke else "")
        ),
        model=model,
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        serving=serving,
        drift=DriftSpec(drift),
        replacement=replacement,
    )


for _drift in ("gradual", "abrupt", "diurnal"):
    register_scenario(_fig15(_drift, smoke=False))
    register_scenario(_fig15(_drift, smoke=True))


# -- fleet presets (fig16's arms) ---------------------------------------------

_FIG16_AFFINITY = 0.95  # regime concentration: strong, trained-checkpoint-like


def _fig16_model(smoke: bool) -> ModelConfig:
    if smoke:
        return ModelConfig(
            name="fig16-smoke", num_layers=4, num_experts=8, d_model=64, num_heads=4
        )
    return ModelConfig(
        name="fig16", num_layers=8, num_experts=16, d_model=512, num_heads=8
    )


def _fig16_routing(router: str, smoke: bool) -> Scenario:
    serving = ServingConfig(
        arrival="bursty",
        arrival_rate_rps=32000.0 if smoke else 11000.0,
        num_requests=240 if smoke else 400,
        generate_len=8 if smoke else 16,
        max_batch_requests=4 if smoke else 8,
        prompt_len=16 if smoke else 32,
        seed=0,
    )
    return Scenario(
        name=f"fig16-routing-{router}" + ("-smoke" if smoke else ""),
        description=(
            f"{router} routing over 4 heterogeneous replicas, diurnal regime mix"
            + (" (CI smoke)" if smoke else "")
        ),
        model=_fig16_model(smoke),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        affinity=_FIG16_AFFINITY,
        serving=serving,
        fleet=FleetConfig(
            num_replicas=4,
            router=router,
            # latency comparison, not a shedding study: SLOs out of the way
            slo_ms=10000.0,
            batch_slo_ms=100000.0,
        ),
        regime_mix="diurnal",
    )


for _router in ("round-robin", "jsq", "p2c", "affinity"):
    register_scenario(_fig16_routing(_router, smoke=False))
    register_scenario(_fig16_routing(_router, smoke=True))


def _fig16_flash(autoscale: bool, smoke: bool) -> Scenario:
    serving = ServingConfig(
        arrival_rate_rps=9000.0 if smoke else 6000.0,
        num_requests=500 if smoke else 1200,
        generate_len=8 if smoke else 16,
        max_batch_requests=4 if smoke else 8,
        prompt_len=16 if smoke else 32,
        seed=0,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="p2c",
        autoscale=autoscale,
        min_replicas=2,
        max_replicas=8,
        slo_ms=15.0 if smoke else 60.0,
        batch_slo_ms=150.0 if smoke else 600.0,
        autoscale_check_every_s=0.0015 if smoke else 0.004,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
    )
    flash = (
        FlashCrowdSpec(4.0, 0.015, 0.03) if smoke else FlashCrowdSpec(4.0, 0.05, 0.08)
    )
    arm = "autoscale" if autoscale else "static"
    return Scenario(
        name=f"fig16-flash-{arm}" + ("-smoke" if smoke else ""),
        description=(
            f"4x flash crowd on a 2-replica fleet, {arm} arm"
            + (" (CI smoke)" if smoke else "")
        ),
        model=_fig16_model(smoke),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        affinity=_FIG16_AFFINITY,
        serving=serving,
        fleet=fleet,
        flash=flash,
    )


for _auto in (True, False):
    register_scenario(_fig16_flash(_auto, smoke=False))
    register_scenario(_fig16_flash(_auto, smoke=True))


# -- bad-day presets (the chaos subsystem's headline experiment) ---------------


def fleet_bad_day(autoscale: bool, smoke: bool) -> Scenario:
    """One seeded bad day: crash + preemption + brownout under pressure.

    The chaos schedule derives from the *nominal* horizon (requests /
    offered rate) so both arms of the benchmark — this autoscaled preset
    and the static fleet ``bench_chaos.py`` builds with
    ``fleet_bad_day(autoscale=False, ...)`` — replay the exact same
    faults.  Only the autoscaled arm is a registered preset, so ``repro
    run`` cannot reproduce the static arm by name.  Retries use
    a short backoff so re-admitted requests land inside the run.  The
    offered rate overloads the initial three replicas (~15k req/s each at
    smoke scale) so the arms separate: the static arm sheds at the queue
    cap all day while the autoscaled arm absorbs both the crowd and the
    faults (availability margin ≈ +0.45 at both scales, stable across
    schedule seeds).
    """
    serving = ServingConfig(
        arrival_rate_rps=60000.0 if smoke else 15000.0,
        num_requests=800 if smoke else 1500,
        generate_len=8 if smoke else 16,
        max_batch_requests=4 if smoke else 8,
        prompt_len=16 if smoke else 32,
        seed=0,
    )
    horizon = serving.num_requests / serving.arrival_rate_rps
    chaos = bad_day_schedule(
        num_replicas=3,
        horizon_s=horizon,
        seed=9,
        crashes=1,
        preemptions=1,
        brownouts=1,
        brownout_factor_x=4.0,
        retry=RetryPolicy(
            max_attempts=3, backoff_base_s=0.0005 if smoke else 0.002
        ),
    )
    fleet = FleetConfig(
        num_replicas=3,
        router="p2c",
        autoscale=autoscale,
        min_replicas=3 if autoscale else 1,
        max_replicas=8,
        slo_ms=15.0 if smoke else 60.0,
        batch_slo_ms=150.0 if smoke else 600.0,
        max_queue_per_replica=16,
        autoscale_check_every_s=0.0008 if smoke else 0.004,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
        chaos=chaos,
    )
    arm = "" if autoscale else "-static"
    return Scenario(
        name=f"fleet-bad-day{arm}" + ("-smoke" if smoke else ""),
        description=(
            f"seeded bad day (crash+preempt+brownout) on a 3-replica fleet, "
            f"{'autoscaled' if autoscale else 'static'} arm"
            + (" (CI smoke)" if smoke else "")
        ),
        model=_fig16_model(smoke),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        affinity=_FIG16_AFFINITY,
        serving=serving,
        fleet=fleet,
    )


register_scenario(fleet_bad_day(autoscale=True, smoke=False))
register_scenario(fleet_bad_day(autoscale=True, smoke=True))


# -- fleet-at-scale preset (the tick engine's home turf) -----------------------


def _fleet_scale_day(smoke: bool) -> Scenario:
    """A compressed day-in-the-life of a large fleet, on the tick engine.

    One million requests over 128 replicas with a diurnal two-regime mix,
    SLO admission under sustained pressure (~20% of peak traffic shed) and
    reactive autoscaling — the scale the vectorized engine exists for (the
    event-heap oracle takes tens of minutes here; see
    ``benchmarks/bench_fleet_scale.py``).  Both variants use the small
    fig16 model: the subject is fleet dynamics, not the checkpoint.  The
    smoke variant is the same pipeline at CI scale.
    """
    serving = ServingConfig(
        arrival="bursty",
        arrival_rate_rps=150000.0 if smoke else 2e7,
        num_requests=2000 if smoke else 1_000_000,
        generate_len=4,
        max_batch_requests=8 if smoke else 64,
        prompt_len=16,
        seed=0,
    )
    fleet = FleetConfig(
        num_replicas=8 if smoke else 128,
        router="jsq",
        num_regimes=2,
        engine="tick",
        slo_ms=50.0,
        batch_slo_ms=500.0,
        max_queue_per_replica=32,
        autoscale=True,
        min_replicas=4 if smoke else 64,
        max_replicas=12 if smoke else 160,
        # roughly a hundred checks over the compressed day's makespan
        autoscale_check_every_s=0.0002 if smoke else 0.0005,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
    )
    return Scenario(
        name="fleet-scale-day" + ("-smoke" if smoke else ""),
        description=(
            "1M-request day over 128 replicas, diurnal mix, tick engine"
            if not smoke
            else "fleet-scale day-in-the-life pipeline (CI smoke)"
        ),
        model=_fig16_model(smoke=True),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        affinity=_FIG16_AFFINITY,
        serving=serving,
        fleet=fleet,
        regime_mix="diurnal",
    )


register_scenario(_fleet_scale_day(smoke=False))
register_scenario(_fleet_scale_day(smoke=True))


# -- chaos-free steady day (the SLO monitor's clean arm) -----------------------


def fleet_steady_day(smoke: bool = False) -> Scenario:
    """A quiet, adequately provisioned day: the SLO monitor's clean arm.

    The same fleet shape as ``fleet-bad-day`` but with no chaos schedule
    and an offered rate four replicas absorb without shedding.  This is
    the run that must stay silent — zero burn-rate alerts, zero observed
    outages or brownouts (``benchmarks/bench_detect.py`` and the
    Hypothesis false-positive guard hold the detector to that).  Ships
    with ``telemetry.slo`` attached so ``repro run fleet-steady-day``
    monitors out of the box; CI also uses the smoke variant as its
    OpenMetrics export fixture.
    """
    serving = ServingConfig(
        arrival_rate_rps=15000.0 if smoke else 4000.0,
        num_requests=800 if smoke else 1500,
        generate_len=8 if smoke else 16,
        max_batch_requests=4 if smoke else 8,
        prompt_len=16 if smoke else 32,
        seed=0,
    )
    fleet = FleetConfig(
        num_replicas=4,
        router="p2c",
        slo_ms=15.0 if smoke else 60.0,
        batch_slo_ms=150.0 if smoke else 600.0,
        max_queue_per_replica=16,
    )
    return Scenario(
        name="fleet-steady-day" + ("-smoke" if smoke else ""),
        description=(
            "chaos-free steady traffic on a 4-replica fleet, SLO-monitored"
            + (" (CI smoke)" if smoke else "")
        ),
        model=_fig16_model(smoke),
        cluster=ClusterConfig(num_nodes=2, gpus_per_node=2),
        affinity=_FIG16_AFFINITY,
        serving=serving,
        fleet=fleet,
        telemetry=TelemetrySpec(slo=SloSpec()),
    )


register_scenario(fleet_steady_day(smoke=False))
register_scenario(fleet_steady_day(smoke=True))
