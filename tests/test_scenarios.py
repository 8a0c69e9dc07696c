"""Tests for the unified Scenario API: spec serde, dispatch, registry
and sweep runner."""

from __future__ import annotations

import math

import dataclasses
import json

import pytest

from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    InferenceConfig,
    ServingConfig,
    paper_model,
)
from repro.scenarios import (
    SCENARIOS,
    DriftSpec,
    FlashCrowdSpec,
    ReplacementSpec,
    Scenario,
    SimReport,
    get_scenario,
    list_scenarios,
    register_scenario,
    run,
    run_sweep,
)

SMALL_CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=2)
SMALL_SERVING = ServingConfig(
    arrival_rate_rps=900.0,
    num_requests=24,
    generate_len=4,
    max_batch_requests=8,
    prompt_len=8,
    seed=0,
)


def _batch_scenario(**overrides) -> Scenario:
    fields = dict(
        name="t-batch",
        model=paper_model("gpt-m-350m-e8"),
        cluster=SMALL_CLUSTER,
        batch=InferenceConfig(requests_per_gpu=2, prompt_len=8, generate_len=3),
    )
    fields.update(overrides)
    return Scenario(**fields)


def _serving_scenario(**overrides) -> Scenario:
    fields = dict(
        name="t-serving",
        model=paper_model("gpt-m-350m-e8"),
        cluster=SMALL_CLUSTER,
        serving=SMALL_SERVING,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestSerde:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registered_round_trip(self, name):
        s = get_scenario(name)
        assert Scenario.from_dict(s.to_dict()) == s
        assert Scenario.from_json(s.to_json()) == s

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_to_dict_is_plain_json(self, name):
        s = get_scenario(name)
        text = json.dumps(s.to_dict())  # raises on non-JSON types
        assert json.loads(text) == s.to_dict()

    def test_file_round_trip(self, tmp_path):
        s = get_scenario("fig15-abrupt-smoke")
        path = tmp_path / "spec.json"
        s.save(path)
        assert Scenario.load(path) == s

    def test_enums_encode_as_values(self):
        s = _serving_scenario(mode=ExecutionMode.VANILLA)
        d = s.to_dict()
        assert d["mode"] == "vanilla"
        assert d["model"]["gating"] == "top1"
        assert Scenario.from_dict(d).mode is ExecutionMode.VANILLA

    def test_unknown_field_rejected(self):
        d = _serving_scenario().to_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            Scenario.from_dict(d)

    def test_mistyped_scalars_rejected_at_decode(self):
        # a hand-edited spec must fail at load with the field path, not
        # deep inside a simulator
        d = _serving_scenario().to_dict()
        d["serving"]["seed"] = "3"
        with pytest.raises(ValueError, match="serving.seed"):
            Scenario.from_dict(d)
        d = _serving_scenario().to_dict()
        d["affinity"] = "high"
        with pytest.raises(ValueError, match="affinity"):
            Scenario.from_dict(d)
        d = _serving_scenario().to_dict()
        d["name"] = 7
        with pytest.raises(ValueError, match="name"):
            Scenario.from_dict(d)

    def test_nested_validation_still_applies(self):
        d = _serving_scenario().to_dict()
        d["serving"]["arrival"] = "uniform"
        with pytest.raises(ValueError, match="arrival"):
            Scenario.from_dict(d)

    def test_optional_sections_survive(self):
        s = get_scenario("fig16-flash-autoscale-smoke")
        restored = Scenario.from_dict(s.to_dict())
        assert restored.flash == s.flash
        assert restored.fleet == s.fleet
        assert restored.drift is None


class TestScenarioValidation:
    def test_needs_exactly_one_workload(self):
        with pytest.raises(ValueError, match="workload"):
            Scenario(
                name="t", model=paper_model("gpt-m-350m-e8"), cluster=SMALL_CLUSTER
            )
        with pytest.raises(ValueError, match="both"):
            _batch_scenario(serving=SMALL_SERVING)

    def test_serving_sections_require_serving(self):
        for section in (
            {"drift": DriftSpec("abrupt")},
            {"replacement": ReplacementSpec()},
            {"fleet": FleetConfig()},
        ):
            with pytest.raises(ValueError, match="serving"):
                _batch_scenario(**section)

    def test_flash_and_mix_require_fleet(self):
        with pytest.raises(ValueError, match="fleet"):
            _serving_scenario(flash=FlashCrowdSpec())
        with pytest.raises(ValueError, match="fleet"):
            _serving_scenario(regime_mix="diurnal")

    def test_fleet_rejects_drift_section(self):
        with pytest.raises(ValueError, match="regime_mix"):
            _serving_scenario(fleet=FleetConfig(), drift=DriftSpec("abrupt"))

    def test_flash_rejects_bursty_arrivals(self):
        # the flash process replaces the arrival stream; declaring a bursty
        # MMPP alongside it would be silently ignored — so it must not load
        bursty = dataclasses.replace(SMALL_SERVING, arrival="bursty")
        with pytest.raises(ValueError, match="poisson"):
            _serving_scenario(
                serving=bursty, fleet=FleetConfig(), flash=FlashCrowdSpec()
            )
        # poisson + flash is the supported combination
        s = _serving_scenario(fleet=FleetConfig(), flash=FlashCrowdSpec())
        assert s.kind == "fleet"

    def test_diurnal_mix_needs_two_regimes(self):
        with pytest.raises(ValueError, match="two regimes"):
            _serving_scenario(
                fleet=FleetConfig(num_regimes=3), regime_mix="diurnal"
            )

    def test_fleet_replacement_needs_replace_flag(self):
        with pytest.raises(ValueError, match="replace"):
            _serving_scenario(
                fleet=FleetConfig(replace=False), replacement=ReplacementSpec()
            )
        # with the flag on it is accepted
        s = _serving_scenario(
            fleet=FleetConfig(replace=True), replacement=ReplacementSpec()
        )
        assert s.kind == "fleet"

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            _serving_scenario(name="")
        with pytest.raises(ValueError):
            _serving_scenario(affinity=1.5)
        with pytest.raises(ValueError):
            _serving_scenario(placement_strategy="quantum")
        with pytest.raises(ValueError):
            _serving_scenario(regime_mix="weekly")
        with pytest.raises(ValueError):
            _serving_scenario(profile_tokens=0)
        with pytest.raises(ValueError):
            DriftSpec("sideways")
        with pytest.raises(ValueError):
            ReplacementSpec(halflife_tokens=0.0)
        with pytest.raises(ValueError):
            FlashCrowdSpec(factor=0.5)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_replacement_rejects_bad_halflife(self, value):
        # a NaN halflife used to run the online arm silently static
        with pytest.raises(ValueError, match="halflife_tokens"):
            ReplacementSpec(halflife_tokens=value)

    def test_replacement_infinite_halflife_is_legal(self):
        assert ReplacementSpec(halflife_tokens=math.inf).halflife_tokens == math.inf

    @pytest.mark.parametrize("field", ["factor", "start_s", "duration_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_flash_rejects_non_finite(self, field, value):
        # ``factor < 1`` and friends are false for NaN: an unchecked NaN
        # factor never accepts a thinned arrival, and a NaN window is no flash
        with pytest.raises(ValueError, match=field):
            FlashCrowdSpec(**{field: value})

    def test_kind_dispatch_rules(self):
        assert _batch_scenario().kind == "batch"
        assert _serving_scenario().kind == "serving"
        assert _serving_scenario(drift=DriftSpec("gradual")).kind == "online"
        assert _serving_scenario(replacement=ReplacementSpec()).kind == "online"
        assert _serving_scenario(fleet=FleetConfig()).kind == "fleet"

    def test_smoke_naming_convention(self):
        assert get_scenario("fig15-abrupt-smoke").is_smoke
        assert not get_scenario("fig15-abrupt").is_smoke


class TestRegistry:
    def test_preset_floor_and_kind_coverage(self):
        # the acceptance bar: >= 10 presets spanning all four kinds,
        # in full size and smoke variants alike
        assert len(list_scenarios(smoke=False)) >= 10
        for kind in ("batch", "serving", "online", "fleet"):
            assert list_scenarios(kind=kind, smoke=False), kind
            assert list_scenarios(kind=kind, smoke=True), kind

    def test_every_full_preset_has_a_smoke_variant(self):
        for name in list_scenarios(smoke=False):
            assert f"{name}-smoke" in SCENARIOS, name

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_names_are_registry_keys(self, name):
        assert get_scenario(name).name == name

    @pytest.mark.parametrize("name", list_scenarios(smoke=True))
    def test_completeness_every_smoke_preset_runs(self, name):
        report = run(name)
        assert isinstance(report, SimReport)
        assert report.scenario == name
        assert report.kind == get_scenario(name).kind
        assert report.is_finite()
        assert report.completed > 0
        assert report.generated_tokens > 0
        assert report.makespan_s > 0
        assert report.gpu_hours > 0

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="fig10-end-to-end"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        s = get_scenario("serve-poisson-smoke")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(dataclasses.replace(s))
        # explicit overwrite puts the same object back (no state leaked)
        assert register_scenario(s, overwrite=True) is s


class TestRunFacade:
    def test_run_accepts_name_or_object(self):
        by_name = run("serve-poisson-smoke")
        by_object = run(get_scenario("serve-poisson-smoke"))
        assert by_name == by_object  # raw excluded from equality; rest pinned

    def test_run_rejects_other_types(self):
        with pytest.raises(TypeError, match="Scenario"):
            run(42)

    def test_serving_report_matches_raw(self):
        report = run(_serving_scenario())
        raw = report.raw
        assert report.completed == len(raw.completed)
        assert report.latency_p95_s == raw.latency.p95_s
        assert report.throughput_rps == raw.throughput_rps
        assert report.generated_tokens == raw.generated_tokens
        expected_hours = raw.makespan_s * SMALL_CLUSTER.num_gpus / 3600.0
        assert report.gpu_hours == pytest.approx(expected_hours)
        assert report.cost_usd == pytest.approx(
            expected_hours * SMALL_CLUSTER.gpu_hour_usd
        )

    def test_batch_report_carries_comparison_extras(self):
        report = run(_batch_scenario())
        for key in (
            "speedup_noaff",
            "speedup_exflow",
            "comm_reduction_exflow",
            "alltoall_fraction_deepspeed",
            "gpu_stay_fraction_exflow",
        ):
            assert key in report.extra, key
        assert set(report.raw) == {"deepspeed", "exflow-noaff", "exflow"}
        # the headline row follows scenario.mode
        vanilla = run(_batch_scenario(mode=ExecutionMode.VANILLA))
        assert vanilla.throughput_tokens_per_s == pytest.approx(
            vanilla.raw["deepspeed"].result.throughput_tokens_per_s
        )

    def test_online_report_tracks_kept_mass(self):
        report = run("fig15-abrupt-smoke")
        assert report.kind == "online"
        assert 0.0 <= report.kept_mass_initial <= 1.0
        assert 0.0 <= report.kept_mass_final <= 1.0
        assert report.num_replacements == len(report.raw.events)
        assert report.migration_stall_s == report.raw.migration_stall_s

    def test_fleet_report_matches_raw(self):
        report = run("fig16-flash-static-smoke")
        raw = report.raw
        assert report.kind == "fleet"
        assert report.completed == raw.served
        assert report.shed == len(raw.shed)
        assert report.shed_fraction == raw.shed_fraction
        assert report.slo_attainment == raw.slo_attainment
        assert report.gpu_hours == raw.gpu_hours
        assert report.cost_usd == raw.cost_usd
        assert report.usd_per_million_tokens == raw.usd_per_million_tokens

    def test_fleet_replacement_halflife_reaches_estimator(self, monkeypatch):
        # the spec contract: every declared field takes effect — a fleet
        # scenario's replacement halflife must reach the per-replica
        # streaming estimators, not be silently dropped
        # OnlineReplacer owns estimator construction; patch its reference
        import repro.core.online as online_mod

        captured: list = []
        original = online_mod.StreamingAffinityEstimator

        class Spy(original):
            def __init__(self, num_experts, num_layers, *args, **kwargs):
                captured.append(args[0] if args else kwargs.get("halflife_tokens"))
                super().__init__(num_experts, num_layers, *args, **kwargs)

        monkeypatch.setattr(online_mod, "StreamingAffinityEstimator", Spy)
        scenario = _serving_scenario(
            fleet=FleetConfig(num_replicas=2, router="jsq", replace=True),
            replacement=ReplacementSpec(halflife_tokens=77.0),
        )
        report = run(scenario)
        assert report.is_finite()
        assert 77.0 in captured

    def test_keep_raw_false_drops_payload(self):
        report = run("serve-poisson-smoke", keep_raw=False)
        assert report.raw is None

    def test_deterministic(self):
        assert run("serve-bursty-smoke") == run("serve-bursty-smoke")


class TestRunSweep:
    def test_matches_serial_and_preserves_order(self):
        names = ["serve-poisson-smoke", "fig10-end-to-end-smoke", "serve-bursty-smoke"]
        parallel = run_sweep(names, processes=2)
        serial = run_sweep(names, processes=1)
        assert [r.scenario for r in parallel] == names
        assert parallel == serial
        assert all(r.raw is None for r in parallel)

    def test_grid_via_dataclasses_replace(self):
        base = _serving_scenario()
        grid = [
            dataclasses.replace(
                base,
                name=f"t-rate{int(rate)}",
                serving=dataclasses.replace(base.serving, arrival_rate_rps=rate),
            )
            for rate in (300.0, 900.0)
        ]
        reports = run_sweep(grid, processes=2)
        assert [r.scenario for r in reports] == ["t-rate300", "t-rate900"]
        assert all(r.is_finite() for r in reports)

    def test_empty_and_invalid(self):
        assert run_sweep([]) == []
        with pytest.raises(ValueError):
            run_sweep(["serve-poisson-smoke"], processes=0)


class TestSimReport:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SimReport(scenario="x", kind="quantum")

    def test_is_finite_flags_bad_numbers(self):
        good = SimReport(scenario="x", kind="batch")
        assert good.is_finite()
        assert not dataclasses.replace(good, makespan_s=float("inf")).is_finite()
        assert not dataclasses.replace(good, extra={"v": float("nan")}).is_finite()

    def test_to_dict_excludes_raw_and_serializes(self):
        rep = SimReport(scenario="x", kind="fleet", raw=object())
        d = rep.to_dict()
        assert "raw" not in d
        assert json.loads(rep.to_json())["scenario"] == "x"

