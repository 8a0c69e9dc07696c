"""The tick engine against the event-heap oracle: exact FleetResult match.

The vectorized tick engine (:mod:`repro.fleet.engine`) exists for speed;
its *correctness* is defined entirely by
:func:`repro.fleet.reference.simulate_fleet_reference`.  Every scenario
here runs both engines on identical inputs and demands the full
:class:`~repro.fleet.result.FleetResult` match **exactly** — completed
and shed tuples (order included), latency/queue percentile stats, replica
accounts, scale events, SLO attainment, GPU-hour billing.  No tolerances:
the engines share rng consumption order and float expression order, so
any drift is a bug, not noise.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    GatingKind,
    ModelConfig,
    ServingConfig,
)
from repro.chaos import (
    BrownoutSpec,
    ChaosSpec,
    CrashSpec,
    PreemptSpec,
    RetryPolicy,
    bad_day_schedule,
)
from repro.fleet.requests import flash_crowd_arrivals
from repro.fleet.simulate import _simulate_fleet_cluster_serving
from repro.obs.recorder import MetricsRecorder

MODEL = ModelConfig(
    name="fleet-eq-test", num_layers=4, num_experts=8, d_model=64, num_heads=4
)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)
SERVING = ServingConfig(
    arrival="bursty",
    arrival_rate_rps=900.0,
    num_requests=120,
    generate_len=6,
    max_batch_requests=8,
    prompt_len=8,
    seed=0,
)

ROUTERS = ("round-robin", "jsq", "p2c", "affinity")


def run_both(fleet, model=MODEL, serving=SERVING, **kwargs):
    event = _simulate_fleet_cluster_serving(
        model, CLUSTER, serving, dataclasses.replace(fleet, engine="event"), **kwargs
    )
    tick = _simulate_fleet_cluster_serving(
        model, CLUSTER, serving, dataclasses.replace(fleet, engine="tick"), **kwargs
    )
    return event, tick


def assert_identical(event, tick):
    """Field-by-field first (for a readable diff), then the whole value."""
    assert tick.completed == event.completed
    assert tick.shed == event.shed
    assert tick.latency == event.latency
    assert tick.queue == event.queue
    assert tick.makespan_s == event.makespan_s
    assert tick.replicas == event.replicas
    assert tick.scale_events == event.scale_events
    assert tick.slo_attainment == event.slo_attainment
    assert tick.peak_replicas == event.peak_replicas
    assert tick.generated_tokens == event.generated_tokens
    assert tick.gpu_hours == event.gpu_hours
    assert tick.cost_usd == event.cost_usd
    assert tick.failures == event.failures
    assert tick.lost == event.lost
    assert tick.retries == event.retries
    assert tick == event


def assert_conserved(result, num_requests):
    """Every submitted request has exactly one terminal outcome."""
    done_ids = (
        [c.request.req_id for c in result.completed]
        + [s.request.req_id for s in result.shed]
        + [lo.request.req_id for lo in result.lost]
    )
    assert len(done_ids) == num_requests
    assert len(set(done_ids)) == num_requests


@pytest.mark.parametrize("router", ROUTERS)
def test_every_router_kind(router):
    fleet = FleetConfig(num_replicas=3, router=router, num_regimes=2)
    event, tick = run_both(fleet)
    assert event.served > 0
    assert_identical(event, tick)


@pytest.mark.parametrize("router", ROUTERS)
def test_overload_sheds_identically(router):
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=400,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=3,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router=router,
        num_regimes=2,
        slo_ms=0.5,
        batch_slo_ms=1.0,
        max_queue_per_replica=16,
    )
    event, tick = run_both(fleet, serving=overload)
    assert len(event.shed) > 0  # both queue-full and deadline paths exercised
    assert {s.reason for s in event.shed} & {"deadline", "queue-full"}
    assert_identical(event, tick)


def test_priority_classes():
    loaded = ServingConfig(
        arrival_rate_rps=20000.0,
        num_requests=250,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=4,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        interactive_fraction=0.3,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
    )
    event, tick = run_both(fleet, serving=loaded)
    assert {q.request.priority for q in event.completed} == {0, 1}
    assert_identical(event, tick)


@pytest.mark.parametrize("router", ("jsq", "affinity"))
def test_autoscale_flash_crowd(router):
    base = ServingConfig(
        arrival_rate_rps=15000.0,
        num_requests=600,
        generate_len=8,
        max_batch_requests=8,
        prompt_len=8,
        seed=5,
    )
    arrivals = flash_crowd_arrivals(base, 4.0, 0.005, 0.05)
    fleet = FleetConfig(
        num_replicas=2,
        router=router,
        num_regimes=2,
        autoscale=True,
        min_replicas=2,
        max_replicas=8,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
    )
    event, tick = run_both(fleet, serving=base, arrivals=arrivals)
    assert any(e.kind == "up" for e in event.scale_events)
    assert_identical(event, tick)


@pytest.mark.parametrize("migrate", (False, True))
def test_scale_down_and_migration(migrate):
    quiet = ServingConfig(
        arrival_rate_rps=20.0,
        num_requests=80,
        generate_len=4,
        max_batch_requests=8,
        prompt_len=8,
        seed=6,
    )
    fleet = FleetConfig(
        num_replicas=4,
        router="jsq",
        autoscale=True,
        min_replicas=1,
        max_replicas=4,
        autoscale_check_every_s=0.05,
        scale_down_queue_per_replica=0.5,
        scale_dwell_checks=2,
        migrate_on_drain=migrate,
    )
    event, tick = run_both(fleet, serving=quiet)
    assert any(e.kind == "down" for e in event.scale_events)
    assert_identical(event, tick)


def test_online_replacement():
    # fleet.replace gives every replica's replacer the one caller-supplied
    # solver stream — the engines must draw from it in the same order
    fleet = FleetConfig(num_replicas=2, router="p2c", replace=True)
    event, tick = run_both(fleet)
    assert_identical(event, tick)


def test_one_replica_drifting_regime_with_replacement():
    # the online scenario's shape: one replica, one drifting regime,
    # live re-placement with its migration stalls
    import numpy as np

    from repro.core.online import ReplacementPolicy
    from repro.core.placement.registry import solve_placement
    from repro.engine.serving import make_arrivals
    from repro.engine.workload import GradualDrift
    from repro.fleet.requests import FleetRequest
    from repro.fleet.simulate import _simulate_fleet_serving
    from repro.obs.recorder import TimelineRecorder
    from repro.trace.markov import MarkovRoutingModel

    start, end = (
        MarkovRoutingModel.with_affinity(8, 4, 0.9, rng=np.random.default_rng(s))
        for s in (0, 101)
    )
    drift = GradualDrift(start, end, t_start=0.02, t_end=0.1)
    placement = solve_placement(
        "staged", start.sample(2048, np.random.default_rng(1)), CLUSTER
    )
    reqs = [
        FleetRequest(q.req_id, q.arrival_s, q.prompt_len, q.generate_len)
        for q in make_arrivals(SERVING, np.random.default_rng(0))
    ]
    policy = ReplacementPolicy(
        check_every_steps=4, min_effective_tokens=64, cooldown_steps=8
    )
    results, timelines = [], []
    for engine in ("event", "tick"):
        rec = TimelineRecorder()
        fleet = FleetConfig(
            num_replicas=1,
            router="round-robin",
            num_regimes=1,
            max_queue_per_replica=len(reqs),
            replace=True,
            engine=engine,
        )
        results.append(
            _simulate_fleet_serving(
                reqs, MODEL, CLUSTER, [drift], [placement], fleet,
                max_batch_requests=SERVING.max_batch_requests,
                replace_policy=policy,
                replace_halflife_tokens=128.0,
                rng=np.random.default_rng(2),
                replace_rng=np.random.default_rng(3),
                recorder=rec,
            )
        )
        timelines.append(rec.timeline())
    event, tick = results
    assert event.replicas[0].replacements > 0
    assert_identical(event, tick)
    assert timelines[0] == timelines[1]


def test_curve_priced_fleet_under_p2c():
    # a StepCurve reads no token paths, so neither engine draws them; p2c's
    # routing draws share that rng, so a skip in only one engine would
    # shift every later routing decision
    import numpy as np

    from repro.engine.serving import engine_step_time, make_arrivals
    from repro.fleet.requests import FleetRequest
    from repro.fleet.simulate import _simulate_fleet_serving

    curve = engine_step_time(
        MODEL, CLUSTER, prompt_len=SERVING.prompt_len,
        probe_requests_per_gpu=(1, 2), calibration_generate_len=2,
    )
    reqs = [
        FleetRequest(q.req_id, q.arrival_s, q.prompt_len, q.generate_len)
        for q in make_arrivals(SERVING, np.random.default_rng(0))
    ]
    results = [
        _simulate_fleet_serving(
            reqs, MODEL, CLUSTER, [curve.routing], [curve.placement],
            FleetConfig(num_replicas=3, router="p2c", num_regimes=1, engine=engine),
            max_batch_requests=SERVING.max_batch_requests,
            timer=curve,
            rng=np.random.default_rng(2),
        )
        for engine in ("event", "tick")
    ]
    event, tick = results
    assert len({r.replica_id for r in tick.replicas if r.served}) > 1
    assert_identical(event, tick)


def test_top2_gating_secondary_paths():
    model = dataclasses.replace(MODEL, gating=GatingKind.TOP2)
    fleet = FleetConfig(num_replicas=2, router="jsq", num_regimes=2)
    event, tick = run_both(fleet, model=model)
    assert_identical(event, tick)


def test_vanilla_mode():
    fleet = FleetConfig(num_replicas=2, router="round-robin")
    event, tick = run_both(fleet, mode=ExecutionMode.VANILLA)
    assert_identical(event, tick)


class TestTelemetryEquivalence:
    """Recording must be invisible to results and identical across engines."""

    FLEET = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        autoscale=True,
        min_replicas=1,
        max_replicas=4,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_down_queue_per_replica=0.5,
        scale_dwell_checks=2,
    )
    BUSY = ServingConfig(
        arrival_rate_rps=15000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=8,
        prompt_len=8,
        seed=7,
    )

    def run_with_recorders(self):
        from repro.obs.recorder import TimelineRecorder

        rec_event = TimelineRecorder()
        rec_tick = TimelineRecorder()
        event = _simulate_fleet_cluster_serving(
            MODEL,
            CLUSTER,
            self.BUSY,
            dataclasses.replace(self.FLEET, engine="event"),
            recorder=rec_event,
        )
        tick = _simulate_fleet_cluster_serving(
            MODEL,
            CLUSTER,
            self.BUSY,
            dataclasses.replace(self.FLEET, engine="tick"),
            recorder=rec_tick,
        )
        return event, tick, rec_event, rec_tick

    def test_results_identical_with_recorder_attached(self):
        event, tick, _, _ = self.run_with_recorders()
        assert event.served > 0
        assert_identical(event, tick)

    def test_recording_is_observation_only(self):
        # a bare run (no recorder) must be bit-identical to a recorded one
        event, tick, _, _ = self.run_with_recorders()
        bare_event, bare_tick = run_both(self.FLEET, serving=self.BUSY)
        assert_identical(bare_event, event)
        assert_identical(bare_tick, tick)

    def test_timelines_identical_across_engines(self):
        _, _, rec_event, rec_tick = self.run_with_recorders()
        tl_event = rec_event.timeline()
        tl_tick = rec_tick.timeline()
        assert tl_event == tl_tick
        assert tl_event["totals"]["completed"] > 0
        assert tl_event["num_windows"] > 0

    def test_chrome_traces_identical_and_valid(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        _, _, rec_event, rec_tick = self.run_with_recorders()
        doc_event = rec_event.to_chrome_trace()
        doc_tick = rec_tick.to_chrome_trace()
        assert doc_event == doc_tick
        assert validate_chrome_trace(doc_event) > 0
        # the written artefact must itself schema-validate after JSON round-trip
        out = rec_tick.write_chrome_trace(tmp_path / "fleet.trace.json")
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == len(doc_tick["traceEvents"])


def test_profiler_does_not_perturb_results():
    from repro.obs.profile import PhaseProfiler

    fleet = FleetConfig(num_replicas=3, router="p2c", num_regimes=2)
    bare_event, bare_tick = run_both(fleet)
    prof_event = PhaseProfiler()
    prof_tick = PhaseProfiler()
    event = _simulate_fleet_cluster_serving(
        MODEL, CLUSTER, SERVING, dataclasses.replace(fleet, engine="event"),
        profiler=prof_event,
    )
    tick = _simulate_fleet_cluster_serving(
        MODEL, CLUSTER, SERVING, dataclasses.replace(fleet, engine="tick"),
        profiler=prof_tick,
    )
    assert_identical(bare_event, event)
    assert_identical(bare_tick, tick)
    for prof in (prof_event, prof_tick):
        p = prof.profile()
        assert p.total_s > 0.0
        assert sum(p.fractions.values()) == pytest.approx(1.0)


CHAOS_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001, backoff_factor=2.0)


@pytest.mark.parametrize("router", ROUTERS)
def test_crash_equivalence(router):
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.02, 0), CrashSpec(0.05, 1)), retry=CHAOS_RETRY
    )
    fleet = FleetConfig(num_replicas=3, router=router, num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    assert len(event.failures) == 2
    assert all(f.kind == "crash" for f in event.failures)
    assert all(f.recovered_at_s is not None for f in event.failures)
    assert event.mean_time_to_recover_s > 0.0
    assert_conserved(event, SERVING.num_requests)
    assert_identical(event, tick)


def test_crash_all_replicas_retry_exhaustion():
    # every replica dies at once, queues deep, with a one-attempt budget and
    # no recovery: in-flight and queued work is lost terminally, later
    # arrivals shed "no-capacity"
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=9,
    )
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.002, 0), CrashSpec(0.002, 1)),
        retry=RetryPolicy(max_attempts=1),
        recover=False,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=overload)
    assert len(event.failures) == 2
    assert all(f.recovered_at_s is None for f in event.failures)
    assert event.mean_time_to_recover_s == 0.0
    assert event.retries == 0
    assert len(event.lost) > 0
    assert all(lo.attempts == 1 and lo.reason == "crash" for lo in event.lost)
    assert "no-capacity" in {s.reason for s in event.shed}
    assert event.availability < 1.0
    assert_conserved(event, overload.num_requests)
    assert_identical(event, tick)


class _RequeueCounter(MetricsRecorder):
    """Counts the queued requests drains hand back to the router."""

    def __init__(self) -> None:
        self.requeued = 0

    def on_requeue(self, t_s: float, rid: int, count: int) -> None:
        self.requeued += count


@pytest.mark.parametrize(
    ("migrate", "router"),
    [(False, "p2c"), *((True, r) for r in ROUTERS)],
    ids=["False", *(f"True-{r}" for r in ROUTERS)],
)
def test_preemption_equivalence(migrate, router):
    # one preemption with a grace period too short to drain the batch
    # (kill-lost path) and one generous enough to drain clean.  The load
    # keeps queues non-empty at both preemptions, so with migration on
    # every router re-places a drained queue through the engines' scalar
    # routing path
    loaded = dataclasses.replace(SERVING, arrival_rate_rps=100_000.0)
    chaos = ChaosSpec(
        preemptions=(
            PreemptSpec(0.0006, 0, grace_s=0.00005),
            PreemptSpec(0.0013, 1, grace_s=0.01),
        ),
        retry=CHAOS_RETRY,
    )
    fleet = FleetConfig(
        num_replicas=3,
        router=router,
        num_regimes=2,
        slo_ms=10_000.0,
        batch_slo_ms=20_000.0,
        migrate_on_drain=migrate,
        chaos=chaos,
    )
    counters = {"event": _RequeueCounter(), "tick": _RequeueCounter()}
    event, tick = (
        _simulate_fleet_cluster_serving(
            MODEL, CLUSTER, loaded, dataclasses.replace(fleet, engine=engine),
            recorder=counter,
        )
        for engine, counter in counters.items()
    )
    assert len(event.failures) == 2
    assert all(f.kind == "preempt" for f in event.failures)
    assert any(f.lost_active + f.lost_queued > 0 for f in event.failures)
    assert_conserved(event, loaded.num_requests)
    assert_identical(event, tick)
    requeued = counters["event"].requeued
    assert counters["tick"].requeued == requeued
    assert (requeued > 0) == migrate


def test_brownout_equivalence():
    chaos = ChaosSpec(brownouts=(BrownoutSpec(0.01, 0.08, 0, factor=5.0),))
    fleet = FleetConfig(num_replicas=2, router="jsq", num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    bare_event, _ = run_both(dataclasses.replace(fleet, chaos=None))
    assert event.makespan_s != bare_event.makespan_s  # the slowdown is real
    assert not event.failures and not event.lost
    assert_identical(event, tick)


def test_attempt_timeout_equivalence():
    overload = ServingConfig(
        arrival_rate_rps=50000.0,
        num_requests=300,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=9,
    )
    chaos = ChaosSpec(
        retry=RetryPolicy(
            max_attempts=2, backoff_base_s=0.0005, attempt_timeout_s=0.002
        )
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        slo_ms=10000.0,
        batch_slo_ms=20000.0,
        max_queue_per_replica=500,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=overload)
    assert event.retries > 0  # queue waits exceed the per-attempt timeout
    assert_conserved(event, overload.num_requests)
    assert_identical(event, tick)


def test_chaos_with_autoscale():
    base = ServingConfig(
        arrival_rate_rps=15000.0,
        num_requests=600,
        generate_len=8,
        max_batch_requests=8,
        prompt_len=8,
        seed=5,
    )
    arrivals = flash_crowd_arrivals(base, 4.0, 0.005, 0.05)
    chaos = ChaosSpec(
        crashes=(CrashSpec(0.01, 0),),
        preemptions=(PreemptSpec(0.02, 1, grace_s=0.001),),
        retry=CHAOS_RETRY,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        num_regimes=2,
        autoscale=True,
        min_replicas=2,
        max_replicas=8,
        slo_ms=50.0,
        batch_slo_ms=500.0,
        autoscale_check_every_s=0.002,
        scale_up_queue_per_replica=4.0,
        scale_dwell_checks=2,
        chaos=chaos,
    )
    event, tick = run_both(fleet, serving=base, arrivals=arrivals)
    assert len(event.failures) == 2
    assert event.mean_time_to_recover_s > 0.0
    assert_conserved(event, base.num_requests)
    assert_identical(event, tick)


def test_bad_day_schedule_equivalence():
    chaos = bad_day_schedule(
        num_replicas=3, horizon_s=0.12, seed=2, crashes=1, preemptions=1, brownouts=1
    )
    fleet = FleetConfig(num_replicas=3, router="p2c", num_regimes=2, chaos=chaos)
    event, tick = run_both(fleet)
    assert len(event.failures) >= 1
    assert_conserved(event, SERVING.num_requests)
    assert_identical(event, tick)


class TestChaosTelemetryEquivalence:
    """Recording a chaos run must stay observation-only and engine-identical."""

    CHAOS = ChaosSpec(
        crashes=(CrashSpec(0.02, 0),),
        preemptions=(PreemptSpec(0.04, 1, grace_s=0.0001),),
        brownouts=(BrownoutSpec(0.01, 0.05, 2, factor=3.0),),
        retry=CHAOS_RETRY,
    )
    FLEET = FleetConfig(num_replicas=3, router="jsq", num_regimes=2, chaos=CHAOS)

    def run_with_recorders(self):
        from repro.obs.recorder import TimelineRecorder

        rec_event = TimelineRecorder()
        rec_tick = TimelineRecorder()
        event = _simulate_fleet_cluster_serving(
            MODEL,
            CLUSTER,
            SERVING,
            dataclasses.replace(self.FLEET, engine="event"),
            recorder=rec_event,
        )
        tick = _simulate_fleet_cluster_serving(
            MODEL,
            CLUSTER,
            SERVING,
            dataclasses.replace(self.FLEET, engine="tick"),
            recorder=rec_tick,
        )
        return event, tick, rec_event, rec_tick

    def test_results_identical_with_recorder_attached(self):
        event, tick, _, _ = self.run_with_recorders()
        assert len(event.failures) == 2
        assert_identical(event, tick)

    def test_recording_is_observation_only(self):
        event, tick, _, _ = self.run_with_recorders()
        bare_event, bare_tick = run_both(self.FLEET)
        assert_identical(bare_event, event)
        assert_identical(bare_tick, tick)

    def test_timelines_identical_across_engines(self):
        _, _, rec_event, rec_tick = self.run_with_recorders()
        tl_event = rec_event.timeline()
        tl_tick = rec_tick.timeline()
        assert tl_event == tl_tick
        # the recorder counts hard kills; a preemption that drains clean
        # inside its grace period opens a FailureRecord but never fails
        assert tl_event["totals"]["failures"] >= 1
        assert tl_event["totals"]["retries"] + tl_event["totals"]["lost"] > 0

    def test_chrome_traces_identical_and_valid(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        _, _, rec_event, rec_tick = self.run_with_recorders()
        doc_event = rec_event.to_chrome_trace()
        doc_tick = rec_tick.to_chrome_trace()
        assert doc_event == doc_tick
        assert validate_chrome_trace(doc_event) > 0
        names = {e["name"] for e in doc_event["traceEvents"] if e.get("cat") == "chaos"}
        assert "fail" in names and "outage" in names
        out = rec_tick.write_chrome_trace(tmp_path / "chaos.trace.json")
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == len(doc_tick["traceEvents"])


class TestSloMonitoringEquivalence:
    """The SLO monitor must be observation-only and engine-identical.

    The whole monitored pipeline — recorder, burn-rate evaluator, blind
    signal detector, ground-truth scorer — runs through the ``run()``
    facade on both engines, over the bad-day smoke preset (hot enough
    that crashes lose work, brownouts span multiple baselined steps and
    the error budget actually burns).  The contract: bit-identical alert
    logs, detections and compliance summaries across engines, and not a
    single shared report field may change versus an unmonitored run.
    """

    def scenario(self, engine, monitored=True):
        from repro.obs.slo import SloSpec
        from repro.scenarios import TelemetrySpec, get_scenario

        s = get_scenario("fleet-bad-day-smoke")
        assert s.fleet is not None
        return dataclasses.replace(
            s,
            fleet=dataclasses.replace(s.fleet, engine=engine),
            telemetry=TelemetrySpec(slo=SloSpec()) if monitored else None,
        )

    def test_alert_logs_identical_across_engines(self):
        from repro.scenarios import run

        ev = run(self.scenario("event"))
        tk = run(self.scenario("tick"))
        assert ev.alerts == tk.alerts
        assert ev.detection == tk.detection
        assert ev.slo == tk.slo
        # and non-trivially so: this bad day is actually visible
        assert len(ev.alerts) >= 1
        scored = ev.detection["scored"]
        assert scored["outages"]["detected"] >= 1
        assert scored["brownouts"]["detected"] >= 1

    def test_alert_spans_well_formed(self):
        from repro.obs.slo import AlertSpan
        from repro.scenarios import run

        report = run(self.scenario("event"))
        spans = [AlertSpan(**a) for a in report.alerts]
        by_kind: dict[str, list[AlertSpan]] = {}
        for span in spans:
            assert span.close_s >= span.open_s
            by_kind.setdefault(span.kind, []).append(span)
        for kind_spans in by_kind.values():
            ordered = sorted(kind_spans, key=lambda s: s.open_s)
            for prev, cur in zip(ordered, ordered[1:]):
                assert prev.close_s <= cur.open_s, "alert spans overlap within a kind"

    def test_monitoring_is_observation_only(self):
        from repro.scenarios import run

        for engine in ("event", "tick"):
            mon = run(self.scenario(engine))
            bare = run(self.scenario(engine, monitored=False))
            drift = [
                f.name
                for f in dataclasses.fields(mon)
                if f.name not in ("slo", "alerts", "detection", "timeline")
                and getattr(mon, f.name) != getattr(bare, f.name)
            ]
            assert drift == []
