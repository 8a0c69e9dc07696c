"""The ``run()`` facade: one entry point for every scenario kind.

``run(scenario)`` reads :attr:`Scenario.kind` and runs one of two
simulators.  A ``batch`` scenario runs the lockstep three-way engine
comparison.  Every other kind runs on a fleet engine, along one path:

* one setup per kind reads the Scenario and keeps that kind's seed layout
  (:func:`_serving_setup`: a curve-priced one-replica fleet;
  :func:`_online_setup`: a one-replica fleet priced per step under drift;
  :func:`_fleet_setup`: the full router/admission/autoscaler fleet);
* one engine call, chosen by ``FleetConfig.engine`` — the online kind's
  goes through :func:`~repro.engine.serving._simulate_online_serving`,
  which tees its kept-mass tracker in;
* one ``FleetResult`` → :class:`~repro.scenarios.report.SimReport`
  builder, with the engine's result on ``report.raw``.

``run_sweep(scenarios)`` executes a list of scenarios (objects or
registered preset names) across a multiprocessing pool — the parameter-
grid workhorse: build the grid with ``dataclasses.replace`` over a base
spec, hand the list over, get rectangular reports back.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import traceback
import warnings
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.config import ExecutionMode, FleetConfig, ServingConfig
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.comparison import compare_modes
from repro.engine.serving import (
    PlacementStepTimer,
    StepCurve,
    _simulate_online_serving,
    engine_step_time,
    make_arrivals,
)
from repro.engine.workload import DriftScenario, make_drift_scenario
from repro.fleet.engine import simulate_fleet_tick
from repro.fleet.reference import simulate_fleet_reference
from repro.fleet.requests import FleetRequest, flash_crowd_arrivals, make_fleet_requests
from repro.fleet.result import FleetResult, OnlineServingResult
from repro.obs.detect import SignalDetector, score_against_chaos
from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import MetricsRecorder, TeeRecorder, TimelineRecorder
from repro.obs.slo import compliance_summary, evaluate_burn_alerts
from repro.scenarios.report import SimReport
from repro.scenarios.spec import Scenario
from repro.trace.markov import MarkovRoutingModel

__all__ = ["SweepError", "make_recorder", "run", "run_sweep"]


class SweepError(RuntimeError):
    """A sweep worker failed; carries which scenario and its full spec.

    A bare exception escaping a ``multiprocessing`` worker surfaces as a
    context-free traceback with no hint of *which* grid point died.  The
    sweep runner wraps worker failures so the scenario name and its exact
    spec JSON travel with the error — enough to re-run the single point
    with :func:`run` and debug it serially.

    Constructed with ``(scenario_name, spec_json, details)`` positional
    args (all strings) so the instance survives pickling back across the
    pool boundary.
    """

    def __init__(self, scenario_name: str, spec_json: str, details: str) -> None:
        super().__init__(scenario_name, spec_json, details)
        self.scenario_name = scenario_name
        self.spec_json = spec_json
        self.details = details

    def __str__(self) -> str:
        return (
            f"sweep worker failed on scenario {self.scenario_name!r}\n"
            f"--- scenario spec ---\n{self.spec_json}\n"
            f"--- worker traceback ---\n{self.details}"
        )

# compare_modes row holding each execution mode's numbers
_MODE_ROW = {
    ExecutionMode.VANILLA: "deepspeed",
    ExecutionMode.CONTEXT_COHERENT: "exflow-noaff",
    ExecutionMode.EXFLOW: "exflow",
}


def _resolve(scenario: Scenario | str) -> Scenario:
    if isinstance(scenario, str):
        from repro.scenarios.registry import get_scenario

        return get_scenario(scenario)
    if not isinstance(scenario, Scenario):
        raise TypeError(
            f"run() takes a Scenario or a registered name, got {type(scenario).__name__}"
        )
    return scenario


def _run_batch(s: Scenario) -> SimReport:
    rows = compare_modes(
        s.model,
        s.cluster,
        s.batch,
        placement_strategy=s.placement_strategy,
        affinity=s.affinity,
        seed=s.seed,
    )
    head = rows[_MODE_ROW[s.mode]].result
    completed = s.batch.total_requests(s.cluster.num_gpus)
    makespan = head.total_time_s
    tokens = head.generated_tokens
    gpu_hours = makespan * s.cluster.num_gpus / 3600.0
    cost = gpu_hours * s.cluster.gpu_hour_usd
    return SimReport(
        scenario=s.name,
        kind="batch",
        completed=completed,
        generated_tokens=tokens,
        makespan_s=makespan,
        decode_steps=head.iterations,
        mean_batch_size=float(completed),
        throughput_rps=completed / makespan if makespan > 0 else 0.0,
        throughput_tokens_per_s=head.throughput_tokens_per_s,
        extra={
            "speedup_noaff": rows["exflow-noaff"].speedup,
            "speedup_exflow": rows["exflow"].speedup,
            "comm_reduction_exflow": rows["exflow"].comm_reduction,
            "alltoall_fraction_deepspeed": rows["deepspeed"].result.alltoall_fraction,
            "gpu_stay_fraction_exflow": rows["exflow"].result.gpu_stay_fraction,
        },
        gpu_hours=gpu_hours,
        cost_usd=cost,
        usd_per_million_tokens=cost / (tokens / 1e6) if tokens > 0 else 0.0,
        raw=rows,
    )


class _FleetSetup(NamedTuple):
    """What a kind's setup hands the fleet engine, next to the Scenario's own."""

    requests: list[FleetRequest]
    regimes: list[DriftScenario]
    placements: list[Placement]
    fleet: FleetConfig
    timer: PlacementStepTimer | StepCurve
    rng: np.random.Generator | None = None
    replace_rng: np.random.Generator | None = None


def _plain_requests(serving: ServingConfig) -> list[FleetRequest]:
    """The arrival stream (seed ``serving.seed``) as unlabelled fleet requests."""
    return [
        FleetRequest(q.req_id, q.arrival_s, q.prompt_len, q.generate_len)
        for q in make_arrivals(serving, np.random.default_rng(serving.seed))
    ]


def _one_replica_fleet(s: Scenario) -> FleetConfig:
    """The serving and online kinds' fleet: one replica that sheds nothing.

    It runs on the event engine, which gives the tick engine's report
    faster here: the tick engine's batched windows pay off only across
    many replicas.
    """
    return FleetConfig(
        num_replicas=1, min_replicas=1, max_replicas=1, router="round-robin", num_regimes=1,
        slo_ms=math.inf, batch_slo_ms=math.inf, max_queue_per_replica=s.serving.num_requests,
        replace=s.replacement is not None, engine="event",
    )


def _placements(
    s: Scenario, regimes: Sequence[DriftScenario], profile_seeds: Sequence[int]
) -> list[Placement]:
    """One deploy-time placement per regime, each fit to an offline profile.

    Regime ``k`` is profiled with ``profile_tokens`` drawn from its t=0
    routing on seed ``profile_seeds[k]``; modes without affinity placement
    share one vanilla placement.
    """
    if not s.mode.uses_affinity_placement:
        flat = vanilla_placement(s.model.num_moe_layers, s.model.num_experts, s.cluster.num_gpus)
        return [flat] * len(regimes)
    return [
        solve_placement(
            s.placement_strategy,
            regime.model_at(0.0).sample(s.profile_tokens, np.random.default_rng(seed)),
            s.cluster,
        )
        for regime, seed in zip(regimes, profile_seeds, strict=True)
    ]


def _serving_setup(s: Scenario) -> _FleetSetup:
    """A one-replica fleet priced by a step curve.

    Seeds: the arrivals use ``serving.seed``, and the curve is calibrated
    on the same seed (:func:`engine_step_time` derives its routing,
    profile and probe streams from it).  The probes cover the admission
    cap.
    """
    serving = s.serving
    cap_per_gpu = max(1, -(-serving.max_batch_requests // s.cluster.num_gpus))  # ceil div
    probes = sorted({1, *(p for p in (2, 4, 8) if p < cap_per_gpu), cap_per_gpu})
    curve = engine_step_time(
        s.model,
        s.cluster,
        mode=s.mode,
        prompt_len=serving.prompt_len,
        affinity=s.affinity,
        placement_strategy=s.placement_strategy,
        probe_requests_per_gpu=probes,
        seed=serving.seed,
    )
    return _FleetSetup(
        _plain_requests(serving), [curve.routing], [curve.placement], _one_replica_fleet(s), curve
    )


def _online_setup(s: Scenario) -> _FleetSetup:
    """A one-replica fleet priced per step under drifting routing.

    Mirrors a real deploy: profile the initial regime offline, solve the
    placement once, then serve under the drift the spec names over the
    expected horizon (``num_requests / arrival_rate_rps``).  Seeds, all
    disjoint: arrivals and the drift use ``seed``, the offline profile
    ``seed + 1``, the per-step routing draws ``seed + 2``, and the
    replacer's solver ``seed + 3`` — the live token stream must never
    replay the profile stream.
    """
    serving, seed = s.serving, s.serving.seed
    drift = make_drift_scenario(
        s.drift.kind if s.drift is not None else "none",
        s.model.num_experts,
        s.model.num_moe_layers,
        horizon_s=serving.num_requests / serving.arrival_rate_rps,
        affinity=s.affinity,
        seed=seed,
    )
    return _FleetSetup(
        _plain_requests(serving),
        [drift],
        _placements(s, [drift], [seed + 1]),
        _one_replica_fleet(s),
        PlacementStepTimer(s.model, s.cluster, mode=s.mode),
        np.random.default_rng(seed + 2),
        np.random.default_rng(seed + 3),
    )


def _diurnal_mix(horizon_s: float) -> Callable[[float], tuple[float, float]]:
    """fig16a's regime process: two regimes rotating once over the horizon."""

    def weights(t: float) -> tuple[float, float]:
        w = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / horizon_s))
        return (1.0 - w, w)

    return weights


def _fleet_setup(s: Scenario) -> _FleetSetup:
    """``fleet.num_regimes`` Markov regimes, one placement each, labelled traffic.

    Seeds, all derived from ``serving.seed`` and disjoint: arrivals use
    ``seed``, regime ``k``'s transitions ``seed + 101*k`` (regime 0 matches
    the drift scenarios' base regime), its offline profile ``seed + 7 + k``,
    request labelling ``seed + 5``, the live simulation ``seed + 9``, and
    the replicas' shared re-placement solver ``seed + 3``.
    """
    serving, fleet, seed = s.serving, s.fleet, s.serving.seed
    regimes: list[DriftScenario] = [
        MarkovRoutingModel.with_affinity(
            s.model.num_experts,
            s.model.num_moe_layers,
            s.affinity,
            rng=np.random.default_rng(seed + 101 * k),
        )
        for k in range(fleet.num_regimes)
    ]
    if s.flash is not None:
        arrivals = flash_crowd_arrivals(
            serving, s.flash.factor, s.flash.start_s, s.flash.duration_s
        )
    else:
        arrivals = make_arrivals(serving, np.random.default_rng(seed))
    regime_weight_at = None
    if s.regime_mix == "diurnal":
        regime_weight_at = _diurnal_mix(serving.num_requests / serving.arrival_rate_rps)
    requests = make_fleet_requests(
        arrivals, fleet, rng=np.random.default_rng(seed + 5), regime_weight_at=regime_weight_at
    )
    return _FleetSetup(
        requests,
        regimes,
        _placements(s, regimes, [seed + 7 + k for k in range(fleet.num_regimes)]),
        fleet,
        PlacementStepTimer(s.model, s.cluster, mode=s.mode),
        np.random.default_rng(seed + 9),
        np.random.default_rng(seed + 3),
    )


_SETUPS = {"serving": _serving_setup, "online": _online_setup, "fleet": _fleet_setup}


def _run_fleet(
    s: Scenario, recorder: MetricsRecorder | None, profiler: PhaseProfiler | None
) -> SimReport:
    """Set the kind up, make its one engine call, and report the FleetResult."""
    setup = _SETUPS[s.kind](s)
    # module globals read at call time, so a rebinding (tracing) is seen
    engine = simulate_fleet_tick if setup.fleet.engine == "tick" else simulate_fleet_reference
    args = (setup.requests, s.model, s.cluster, setup.regimes, setup.placements, setup.fleet)
    kwargs: dict[str, Any] = dict(
        max_batch_requests=s.serving.max_batch_requests,
        timer=setup.timer,
        replace_policy=s.replacement.policy if s.replacement is not None else None,
        replace_halflife_tokens=(
            s.replacement.halflife_tokens if s.replacement is not None else None
        ),
        rng=setup.rng,
        replace_rng=setup.replace_rng,
        recorder=recorder,
        profiler=profiler,
    )
    if s.kind == "online":
        res = _simulate_online_serving(engine, *args, **kwargs)
    else:
        res = engine(*args, **kwargs)
    return _fleet_report(s, res)


def _fleet_report(s: Scenario, res: FleetResult) -> SimReport:
    """The :class:`SimReport` of one fleet engine run, ``res`` on ``raw``."""
    busy = sum(r.busy_s for r in res.replicas)
    weighted = sum(r.mean_batch_size * r.busy_s for r in res.replicas)
    kept = res.kept_timeline if isinstance(res, OnlineServingResult) else ()
    return SimReport(
        scenario=s.name,
        kind=s.kind,
        completed=res.served,
        generated_tokens=res.generated_tokens,
        makespan_s=res.makespan_s,
        decode_steps=sum(r.decode_steps for r in res.replicas),
        mean_batch_size=weighted / busy if busy > 0 else 0.0,
        throughput_rps=res.throughput_rps,
        throughput_tokens_per_s=res.throughput_tokens_per_s,
        latency_mean_s=res.latency.mean_s,
        latency_p50_s=res.latency.p50_s,
        latency_p95_s=res.latency.p95_s,
        latency_p99_s=res.latency.p99_s,
        queue_p95_s=res.queue.p95_s,
        latency_hist=res.latency.histogram_dict(),
        kept_mass_initial=kept[0].true_kept if kept else None,
        kept_mass_final=kept[-1].true_kept if kept else None,
        num_replacements=sum(r.replacements for r in res.replicas),
        migration_stall_s=sum(r.migration_stall_s for r in res.replicas),
        shed=len(res.shed),
        shed_fraction=res.shed_fraction,
        slo_attainment=dict(res.slo_attainment),
        peak_replicas=res.peak_replicas,
        scale_ups=sum(1 for e in res.scale_events if e.kind == "up"),
        failures=len(res.failures),
        lost=len(res.lost),
        retries=res.retries,
        availability=res.availability,
        goodput_rps=res.goodput_rps,
        mean_time_to_recover_s=res.mean_time_to_recover_s,
        gpu_hours=res.gpu_hours,
        cost_usd=res.cost_usd,
        usd_per_million_tokens=res.usd_per_million_tokens,
        raw=res,
    )


def make_recorder(scenario: Scenario | str) -> TimelineRecorder:
    """The :class:`TimelineRecorder` ``run`` would auto-attach for a spec.

    One builder keeps every caller (``run`` itself, the CLI's
    ``--trace``/``--metrics`` paths) constructing identical recorders —
    including the SLO slow-completion threshold when ``telemetry.slo``
    is set, which the burn-rate evaluator's latency signal needs.
    """
    s = _resolve(scenario)
    tele = s.telemetry
    if tele is None:
        raise ValueError(f"scenario {s.name!r} has no telemetry section")
    return TimelineRecorder(
        window_s=tele.window_s,
        max_windows=tele.max_windows,
        spans=tele.spans,
        max_span_events=tele.max_span_events,
        slow_latency_s=tele.slo.slow_latency_s if tele.slo is not None else None,
    )


def _flatten_recorders(recorder: MetricsRecorder | None) -> list[MetricsRecorder]:
    """Every leaf recorder behind ``recorder``, tees unwrapped recursively."""
    if recorder is None:
        return []
    if isinstance(recorder, TeeRecorder):
        return [leaf for r in recorder.recorders for leaf in _flatten_recorders(r)]
    return [recorder]


def _slo_fields(
    s: Scenario,
    report: SimReport,
    detector: SignalDetector,
) -> SimReport:
    """Fill ``report.slo`` / ``alerts`` / ``detection`` after an SLO run."""
    slo = s.telemetry.slo if s.telemetry is not None else None
    if slo is None:
        return report
    alerts = (
        evaluate_burn_alerts(report.timeline, slo)
        if report.timeline is not None
        else []
    )
    compliance = compliance_summary(
        slo,
        p95_latency_s=report.latency_p95_s,
        availability=report.availability,
        shed_fraction=report.shed_fraction,
        alerts=alerts,
    )
    if slo.class_overrides:
        classes: dict[str, dict[str, object]] = {}
        for o in slo.class_overrides:
            observed = report.slo_attainment.get(o.name)
            target = o.availability if o.availability is not None else slo.availability
            classes[o.name] = {
                "attainment": observed,
                "target": target,
                "ok": observed is None or observed >= target,
            }
        compliance["classes"] = classes
    detection = detector.summary()
    res = report.raw
    failures = list(getattr(res, "failures", ()) or ())
    detection["scored"] = score_against_chaos(
        outages=detector.outages,
        brownouts=detector.brownouts,
        failures=failures,
        chaos=s.fleet.chaos,
    )
    return dataclasses.replace(
        report,
        slo=compliance,
        alerts=[a.to_dict() for a in alerts],
        detection=detection,
    )


def run(
    scenario: Scenario | str,
    *,
    keep_raw: bool = True,
    recorder: MetricsRecorder | None = None,
    profiler: PhaseProfiler | None = None,
) -> SimReport:
    """Execute one scenario (object or registered preset name).

    Dispatch follows :attr:`Scenario.kind`; the returned
    :class:`SimReport` always has the shared schema filled, with the
    simulator's native result on ``raw`` (dropped when ``keep_raw`` is
    false — the sweep runner does this to keep IPC payloads small).

    Telemetry: a scenario with a ``telemetry`` section automatically gets
    a fresh :class:`~repro.obs.recorder.TimelineRecorder` attached; pass
    ``recorder`` explicitly to override (e.g. to keep the recorder for
    Chrome-trace export).  When the recorder is a ``TimelineRecorder``,
    its timeline document lands on ``report.timeline``.  Pass a
    :class:`~repro.obs.profile.PhaseProfiler` as ``profiler`` to time the
    engine's phases: their seconds/fractions land in ``report.extra``
    under ``profile_*`` keys.  Recorders and profilers attach to every
    kind but batch: serving, online and fleet scenarios all run on a
    fleet engine.

    SLO monitoring: when ``telemetry.slo`` is set, a
    :class:`~repro.obs.detect.SignalDetector` rides the same hook stream
    (tee'd next to the timeline recorder), burn-rate alerts are evaluated
    over the recorded timeline, and ``report.slo`` / ``report.alerts`` /
    ``report.detection`` are filled in.  Monitoring is observation-only:
    every shared result field is bit-identical to an unmonitored run.

    Passing an explicit ``recorder`` for an SLO-monitored scenario: build
    it with :func:`make_recorder` (possibly inside a
    :class:`~repro.obs.recorder.TeeRecorder`) so the timeline carries the
    spec's slow-completion threshold — a recorder without it zeroes the
    latency burn signal, and ``run`` warns about the mismatch.  A
    :class:`SignalDetector` already present anywhere in the supplied tee
    is reused for detection instead of tee'ing a second one on top.
    """
    s = _resolve(scenario)
    tele = s.telemetry
    if recorder is None and tele is not None:
        recorder = make_recorder(s)
    if (recorder is not None or profiler is not None) and s.kind == "batch":
        raise ValueError(
            "recorders and profilers attach to serving and fleet scenarios "
            "(online ones included), not kind 'batch'"
        )
    detector: SignalDetector | None = None
    engine_recorder: MetricsRecorder | None = recorder
    leaves = _flatten_recorders(recorder)
    if tele is not None and tele.slo is not None and s.kind == "fleet":
        detector = next(
            (r for r in leaves if isinstance(r, SignalDetector)), None
        )
        if detector is None:
            detector = SignalDetector()
            engine_recorder = (
                TeeRecorder((recorder, detector)) if recorder is not None else detector
            )
        if recorder is not None:
            want = tele.slo.slow_latency_s
            if not any(
                isinstance(r, TimelineRecorder) and r.slow_latency_s == want
                for r in leaves
            ):
                warnings.warn(
                    f"scenario {s.name!r} declares an SLO but the supplied recorder "
                    f"has no TimelineRecorder with slow_latency_s={want}; the latency "
                    "burn signal will read all-zero — build recorders for SLO "
                    "scenarios with make_recorder()",
                    stacklevel=2,
                )
    if s.kind == "batch":
        report = _run_batch(s)
    else:
        report = _run_fleet(s, engine_recorder, profiler)
    timeline_rec = next(
        (r for r in leaves if isinstance(r, TimelineRecorder)), None
    )
    if timeline_rec is not None:
        report = dataclasses.replace(report, timeline=timeline_rec.timeline())
    if detector is not None:
        report = _slo_fields(s, report, detector)
    if profiler is not None:
        prof = profiler.profile()
        extra = dict(report.extra)
        extra["profile_total_s"] = prof.total_s
        for phase, seconds in prof.phase_s.items():
            extra[f"profile_{phase}_s"] = seconds
        for phase, frac in prof.fractions.items():
            extra[f"profile_{phase}_frac"] = frac
        report = dataclasses.replace(report, extra=extra)
    if not keep_raw:
        report = dataclasses.replace(report, raw=None)
    return report


def _run_for_sweep(scenario: Scenario) -> SimReport:
    try:
        return run(scenario, keep_raw=False)
    except SweepError:
        raise
    except Exception:
        raise SweepError(
            scenario.name, scenario.to_json(), traceback.format_exc()
        ) from None


def run_sweep(
    scenarios: Iterable[Scenario | str],
    processes: int | None = None,
) -> list[SimReport]:
    """Run many scenarios across a process pool; reports in input order.

    ``scenarios`` mixes :class:`Scenario` objects and registered preset
    names freely.  ``processes`` defaults to ``min(len(grid), cpu_count)``;
    pass ``1`` to force serial execution (useful under debuggers).  Raw
    result objects are dropped from sweep reports — re-run the single
    scenario with :func:`run` when you need one in full.

    A worker failure raises :class:`SweepError` naming the scenario and
    carrying its spec JSON, instead of a bare multiprocessing traceback.
    """
    grid: Sequence[Scenario] = [_resolve(s) for s in scenarios]
    if not grid:
        return []
    if processes is None:
        processes = min(len(grid), os.cpu_count() or 1)
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if processes == 1 or len(grid) == 1:
        return [_run_for_sweep(s) for s in grid]
    with multiprocessing.Pool(processes) as pool:
        return pool.map(_run_for_sweep, grid)
