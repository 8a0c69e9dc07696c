"""Unit tests for the chaos subsystem's non-engine surface.

The two fleet engines' chaos *behaviour* is pinned by the equivalence
suite (``tests/test_fleet_equivalence.py``); this file covers everything
around it: the frozen spec layer and its serde rules, the seeded schedule
builder, the replica lifecycle state machine, the zero-denominator
regression pins in the result accounting, and the sweep runner's failure
surfacing.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.chaos import (
    BrownoutSpec,
    ChaosSpec,
    CrashSpec,
    PreemptSpec,
    RetryPolicy,
    bad_day_schedule,
    brownout_factor,
)
from repro.config import FleetConfig
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.metrics import LatencyStats
from repro.fleet.replica import STATE_TRANSITIONS, Replica, ReplicaState
from repro.fleet.requests import FailureRecord
from repro.fleet.result import FleetResult
from repro.scenarios import Scenario, get_scenario, run_sweep
from repro.scenarios.runner import SweepError

L, E, G = 4, 8, 4


def _replica(state: ReplicaState = ReplicaState.RUNNING, **kwargs) -> Replica:
    return Replica(
        replica_id=0,
        placement=vanilla_placement(L, E, G),
        regime=0,
        max_batch_requests=8,
        num_gpus=G,
        state=state,
        **kwargs,
    )


def _empty_result(**overrides) -> FleetResult:
    base = dict(
        completed=(),
        shed=(),
        latency=LatencyStats.from_samples([]),
        queue=LatencyStats.from_samples([]),
        makespan_s=0.0,
        replicas=(),
        scale_events=(),
        slo_attainment={},
    )
    base.update(overrides)
    return FleetResult(**base)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_one_based(self):
        pol = RetryPolicy(max_attempts=4, backoff_base_s=0.01, backoff_factor=3.0)
        assert pol.backoff_s(1) == 0.01
        assert pol.backoff_s(2) == 0.01 * 3.0
        assert pol.backoff_s(3) == 0.01 * 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.001)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0.0)


class TestSpecValidation:
    def test_crash_and_preempt_reject_negatives(self):
        with pytest.raises(ValueError):
            CrashSpec(time_s=-1.0, replica=0)
        with pytest.raises(ValueError):
            CrashSpec(time_s=0.0, replica=-1)
        with pytest.raises(ValueError):
            PreemptSpec(time_s=0.1, replica=0, grace_s=-0.01)

    def test_brownout_rejects_empty_window_and_zero_factor(self):
        with pytest.raises(ValueError):
            BrownoutSpec(start_s=0.0, duration_s=0.0, replica=0)
        with pytest.raises(ValueError):
            BrownoutSpec(start_s=0.0, duration_s=0.1, replica=0, factor=0.0)

    def test_chaos_spec_coerces_lists_and_typechecks(self):
        spec = ChaosSpec(crashes=[CrashSpec(0.1, 0)])
        assert isinstance(spec.crashes, tuple)
        with pytest.raises(TypeError):
            ChaosSpec(crashes=(PreemptSpec(0.1, 0),))
        with pytest.raises(TypeError):
            ChaosSpec(retry=None)

    def test_has_faults_ignores_brownouts(self):
        soft = ChaosSpec(brownouts=(BrownoutSpec(0.0, 0.1, 0),))
        assert not soft.has_faults
        assert ChaosSpec(crashes=(CrashSpec(0.1, 0),)).has_faults


class TestBrownoutFactor:
    def test_window_is_half_open(self):
        b = (BrownoutSpec(start_s=1.0, duration_s=0.5, replica=0, factor=3.0),)
        assert brownout_factor(b, 0, 0.999) == 1.0
        assert brownout_factor(b, 0, 1.0) == 3.0
        assert brownout_factor(b, 0, 1.499999) == 3.0
        assert brownout_factor(b, 0, 1.5) == 1.0

    def test_other_replica_unaffected(self):
        b = (BrownoutSpec(start_s=0.0, duration_s=1.0, replica=2, factor=5.0),)
        assert brownout_factor(b, 0, 0.5) == 1.0
        assert brownout_factor(b, 2, 0.5) == 5.0

    def test_overlapping_windows_multiply(self):
        b = (
            BrownoutSpec(start_s=0.0, duration_s=1.0, replica=0, factor=2.0),
            BrownoutSpec(start_s=0.5, duration_s=1.0, replica=0, factor=3.0),
        )
        assert brownout_factor(b, 0, 0.25) == 2.0
        assert brownout_factor(b, 0, 0.75) == 6.0
        assert brownout_factor(b, 0, 1.25) == 3.0


class TestBadDaySchedule:
    def test_same_seed_same_spec(self):
        kwargs = dict(num_replicas=4, horizon_s=1.0, seed=42, crashes=2,
                      preemptions=2, brownouts=2)
        assert bad_day_schedule(**kwargs) == bad_day_schedule(**kwargs)

    def test_different_seed_different_spec(self):
        a = bad_day_schedule(num_replicas=4, horizon_s=1.0, seed=1)
        b = bad_day_schedule(num_replicas=4, horizon_s=1.0, seed=2)
        assert a != b

    def test_counts_and_time_window(self):
        spec = bad_day_schedule(
            num_replicas=3, horizon_s=2.0, seed=0, crashes=3, preemptions=2,
            brownouts=1,
        )
        assert len(spec.crashes) == 3
        assert len(spec.preemptions) == 2
        assert len(spec.brownouts) == 1
        for t in (
            [c.time_s for c in spec.crashes]
            + [p.time_s for p in spec.preemptions]
            + [b.start_s for b in spec.brownouts]
        ):
            assert 0.15 * 2.0 <= t < 0.75 * 2.0
        for fault in spec.crashes + spec.preemptions + spec.brownouts:
            assert 0 <= fault.replica < 3

    def test_validation(self):
        with pytest.raises(ValueError):
            bad_day_schedule(num_replicas=0, horizon_s=1.0)
        with pytest.raises(ValueError):
            bad_day_schedule(num_replicas=1, horizon_s=0.0)

    def test_retry_and_recover_pass_through(self):
        pol = RetryPolicy(max_attempts=5)
        spec = bad_day_schedule(
            num_replicas=2, horizon_s=1.0, retry=pol, recover=False
        )
        assert spec.retry == pol
        assert spec.recover is False


class TestChaosSerde:
    def test_bad_day_preset_roundtrips(self):
        s = get_scenario("fleet-bad-day-smoke")
        assert s.chaos is not None and s.chaos.has_faults
        assert Scenario.from_json(s.to_json()) == s

    def test_unknown_chaos_field_rejected(self):
        d = get_scenario("fleet-bad-day-smoke").to_dict()
        d["chaos"]["blast_radius"] = 3
        with pytest.raises(ValueError, match="blast_radius"):
            Scenario.from_dict(d)

    def test_unknown_nested_fault_field_rejected(self):
        d = get_scenario("fleet-bad-day-smoke").to_dict()
        d["chaos"]["crashes"][0]["severity"] = "high"
        with pytest.raises(ValueError, match="severity"):
            Scenario.from_dict(d)

    def test_chaos_requires_fleet(self):
        serve = get_scenario("serve-poisson-smoke")
        with pytest.raises(ValueError, match="fleet"):
            dataclasses.replace(serve, chaos=ChaosSpec())

    def test_chaos_declared_twice_rejected(self):
        s = get_scenario("fleet-bad-day-smoke")
        assert s.fleet is not None and s.chaos is not None
        with pytest.raises(ValueError, match="twice"):
            dataclasses.replace(
                s, fleet=dataclasses.replace(s.fleet, chaos=s.chaos)
            )

    def test_fleet_config_chaos_typechecked(self):
        with pytest.raises(TypeError):
            FleetConfig(chaos={"crashes": []})


class TestLifecycle:
    def test_legal_paths(self):
        # construction itself exercises PENDING -> BOOTING
        r = _replica(ReplicaState.BOOTING)
        r.transition_to(ReplicaState.RUNNING)
        r.transition_to(ReplicaState.DRAINING)
        r.transition_to(ReplicaState.STOPPED)
        assert r.state is ReplicaState.STOPPED

    def test_every_state_can_fail_except_terminals_and_pending(self):
        for origin in (ReplicaState.BOOTING, ReplicaState.RUNNING, ReplicaState.DRAINING):
            assert ReplicaState.FAILED in STATE_TRANSITIONS[origin]
        assert STATE_TRANSITIONS[ReplicaState.FAILED] == ()
        assert STATE_TRANSITIONS[ReplicaState.STOPPED] == ()

    def test_illegal_transition_raises(self):
        r = _replica(ReplicaState.RUNNING)
        with pytest.raises(RuntimeError, match="illegal replica transition"):
            r.transition_to(ReplicaState.BOOTING)
        r.transition_to(ReplicaState.FAILED)
        with pytest.raises(RuntimeError, match="failed -> running"):
            r.transition_to(ReplicaState.RUNNING)

    def test_active_alias_is_running(self):
        assert ReplicaState.ACTIVE is ReplicaState.RUNNING
        assert _replica(ReplicaState.RUNNING).routable

    def test_failed_replica_rejects_traffic(self):
        r = _replica(ReplicaState.RUNNING)
        r.transition_to(ReplicaState.FAILED)
        assert not r.routable
        with pytest.raises(RuntimeError, match="cannot enqueue"):
            r.enqueue(object())


class TestZeroDenominators:
    """Regression pins: empty/zero aggregations report their documented values."""

    def test_empty_result_reports_ideal_availability(self):
        r = _empty_result()
        assert r.offered == 0
        assert r.availability == 1.0
        assert r.goodput_rps == 0.0
        assert r.throughput_rps == 0.0
        assert r.shed_fraction == 0.0
        assert r.mean_time_to_recover_s == 0.0
        assert r.usd_per_million_tokens == 0.0

    def test_unrecovered_failures_do_not_divide(self):
        r = _empty_result(
            failures=(
                FailureRecord(0.1, 0, "crash", 2, 1, None),
                FailureRecord(0.2, 1, "preempt", 0, 0, None),
            )
        )
        assert r.mean_time_to_recover_s == 0.0

    def test_mttr_averages_only_recovered(self):
        r = _empty_result(
            failures=(
                FailureRecord(0.1, 0, "crash", 2, 1, 0.3),
                FailureRecord(0.2, 1, "preempt", 0, 0, None),
            )
        )
        assert r.mean_time_to_recover_s == pytest.approx(0.2)

    def test_zero_life_replica_utilization(self):
        # a replica that fails the instant it boots has an empty routable
        # lifetime; utilization must be 0.0, not a ZeroDivisionError
        r = _replica(ReplicaState.RUNNING, booted_at_s=1.0)
        r.transition_to(ReplicaState.FAILED)
        r.stopped_at_s = 1.0
        stats = r.stats(end_s=5.0)
        assert stats.utilization == 0.0
        assert stats.final_state == "failed"


class TestSweepErrorSurfacing:
    def test_worker_failure_names_the_scenario(self, monkeypatch):
        import repro.scenarios.runner as runner_mod

        def boom(s, recorder=None, profiler=None):
            raise RuntimeError("deliberate test failure")

        monkeypatch.setattr(runner_mod, "_run_serving", boom)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(["serve-poisson-smoke"], processes=1)
        err = excinfo.value
        assert err.scenario_name == "serve-poisson-smoke"
        # the spec JSON travels with the error, ready for `repro run`
        spec = json.loads(err.spec_json)
        assert spec["name"] == "serve-poisson-smoke"
        assert "deliberate test failure" in err.details
        text = str(err)
        assert "serve-poisson-smoke" in text
        assert "deliberate test failure" in text

    def test_pickles_across_pool_boundary(self):
        err = SweepError("arm-3", '{"name": "arm-3"}', "Traceback: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.scenario_name == "arm-3"
        assert clone.spec_json == '{"name": "arm-3"}'
        assert clone.details == "Traceback: boom"
        assert "arm-3" in str(clone)

    def test_healthy_sweep_unaffected(self):
        reports = run_sweep(["serve-poisson-smoke"], processes=1)
        assert len(reports) == 1 and reports[0].completed > 0


class TestChaosThroughRunnerFacade:
    def test_scenario_chaos_reaches_the_engine(self):
        from repro.scenarios import run

        report = run("fleet-bad-day-smoke", keep_raw=True)
        assert report.failures >= 1
        assert report.retries > 0
        assert 0.0 < report.availability <= 1.0
        assert report.goodput_rps > 0.0
        assert report.mean_time_to_recover_s > 0.0
        # the SimReport chaos account mirrors the raw FleetResult
        raw = report.raw
        assert report.failures == len(raw.failures)
        assert report.lost == len(raw.lost)
        assert report.retries == raw.retries

    def test_report_roundtrips_chaos_fields(self):
        from repro.scenarios import run
        from repro.scenarios.report import SimReport

        report = run("fleet-bad-day-smoke", keep_raw=False)
        clone = SimReport.from_json(report.to_json())
        assert clone == report
        assert clone.availability == report.availability
