"""SLO spec validation, burn-rate evaluation, OpenMetrics, CLI surface.

The burn evaluator is pure arithmetic over a timeline document, so most
tests here drive it with hand-built docs whose burn rates are easy to
compute by inspection; a Hypothesis sweep holds the span fold to its
well-formedness contract (close >= open, >= 1 window, non-overlapping
within each ``severity:signal`` kind) on arbitrary counter columns.  The
OpenMetrics half round-trips expositions through the strict parser and
checks the rejections CI relies on.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, FleetConfig, ModelConfig, ServingConfig
from repro.engine.metrics import LATENCY_HIST_EDGES_S, LatencyStats
from repro.obs.export import openmetrics_text, parse_openmetrics
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    AlertSpan,
    BurnWindowSpec,
    SloClassOverride,
    SloSpec,
    compliance_summary,
    evaluate_burn_alerts,
)
from repro.scenarios import Scenario, TelemetrySpec, run

MODEL = ModelConfig(
    name="slo-test", num_layers=4, num_experts=8, d_model=64, num_heads=4
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


def monitored_scenario(**overrides) -> Scenario:
    fields = dict(
        name="t-slo",
        model=MODEL,
        cluster=CLUSTER,
        serving=SERVING,
        fleet=FleetConfig(num_replicas=2, router="jsq", num_regimes=2),
        telemetry=TelemetrySpec(slo=SloSpec()),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestSpecs:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"severity": "sev1"},
            {"short_frac": 0.0},
            {"short_frac": 0.5, "long_frac": 0.1},
            {"long_frac": 1.5},
            {"burn_threshold": 0.5},
        ),
    )
    def test_burn_window_validation(self, kwargs):
        with pytest.raises(ValueError):
            BurnWindowSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"name": ""},
            {"name": "x", "p95_ms": 0.0},
            {"name": "x", "availability": 1.0},
        ),
    )
    def test_class_override_validation(self, kwargs):
        with pytest.raises(ValueError):
            SloClassOverride(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"p95_ms": 0.0},
            {"availability": 0.0},
            {"availability": 1.0},
            {"max_shed_fraction": 1.5},
            {"windows": ()},
            {"windows": (BurnWindowSpec(), BurnWindowSpec(burn_threshold=4.0))},
            {
                "class_overrides": (
                    SloClassOverride("a"),
                    SloClassOverride("a", p95_ms=100.0),
                )
            },
        ),
    )
    def test_slo_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SloSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        ({"windows": (1,)}, {"class_overrides": ("batch",)}),
    )
    def test_slo_spec_entry_types_checked(self, kwargs):
        with pytest.raises(TypeError):
            SloSpec(**kwargs)

    def test_lists_coerce_to_tuples(self):
        spec = SloSpec(
            windows=[BurnWindowSpec()],
            class_overrides=[SloClassOverride("batch", p95_ms=1000.0)],
        )
        assert isinstance(spec.windows, tuple)
        assert isinstance(spec.class_overrides, tuple)

    def test_slow_latency_and_override_lookup(self):
        spec = SloSpec(
            p95_ms=250.0,
            class_overrides=(SloClassOverride("batch", p95_ms=1000.0),),
        )
        assert spec.slow_latency_s == 0.25
        assert spec.override_for("batch") == SloClassOverride("batch", p95_ms=1000.0)
        assert spec.override_for("interactive") is None

    def test_round_trips_through_scenario_serde(self):
        slo = SloSpec(
            p95_ms=250.0,
            availability=0.995,
            max_shed_fraction=0.02,
            windows=(
                BurnWindowSpec("page", 0.04, 0.02, 10.0),
                BurnWindowSpec("warn", 0.5, 0.1, 1.5),
            ),
            class_overrides=(
                SloClassOverride("interactive", p95_ms=100.0),
                SloClassOverride("batch", availability=0.9),
            ),
        )
        s = monitored_scenario(telemetry=TelemetrySpec(slo=slo))
        assert Scenario.from_dict(s.to_dict()) == s
        assert Scenario.from_json(s.to_json()) == s
        json.dumps(s.to_dict())  # plain JSON types only


def timeline_doc(completed, shed=None, lost=None, slow=None, window_s=1.0):
    """A synthetic timeline document with per-window counter columns."""
    n = len(completed)
    zeros = [0.0] * n
    return {
        "t0_s": 0.0,
        "t_end_s": n * window_s,
        "window_s": window_s,
        "time_s": [(i + 1) * window_s for i in range(n)],
        "windows": {
            "completed": list(completed),
            "shed": list(shed if shed is not None else zeros),
            "lost": list(lost if lost is not None else zeros),
            "slow": list(slow if slow is not None else zeros),
        },
    }


def assert_well_formed(spans):
    by_kind: dict[str, list[AlertSpan]] = {}
    for span in spans:
        assert span.close_s >= span.open_s
        assert span.windows >= 1
        by_kind.setdefault(span.kind, []).append(span)
    for kind_spans in by_kind.values():
        ordered = sorted(kind_spans, key=lambda s: s.open_s)
        for prev, cur in zip(ordered, ordered[1:]):
            assert prev.close_s <= cur.open_s


class TestBurnAlerts:
    def test_clean_timeline_raises_nothing(self):
        doc = timeline_doc([10.0] * 100)
        assert evaluate_burn_alerts(doc, SloSpec()) == []

    def test_empty_timeline_raises_nothing(self):
        assert evaluate_burn_alerts(timeline_doc([]), SloSpec()) == []

    def test_shed_burst_pages_availability(self):
        # 5 windows of 50% shed against a 1% error budget: burn 50x, far
        # over the page threshold of 8
        shed = [0.0] * 100
        for i in range(40, 45):
            shed[i] = 10.0
        spans = evaluate_burn_alerts(timeline_doc([10.0] * 100, shed=shed), SloSpec())
        assert_well_formed(spans)
        kinds = {s.kind for s in spans}
        assert "page:availability" in kinds
        assert all(s.signal == "availability" for s in spans)
        page = next(s for s in spans if s.kind == "page:availability")
        assert 40.0 <= page.open_s <= 42.0
        assert page.close_s <= 47.0
        assert page.burn_at_open >= 8.0
        assert page.peak_burn >= page.burn_at_open

    def test_lost_requests_burn_availability_too(self):
        lost = [0.0] * 100
        for i in range(40, 45):
            lost[i] = 10.0
        spans = evaluate_burn_alerts(timeline_doc([10.0] * 100, lost=lost), SloSpec())
        assert any(s.signal == "availability" for s in spans)

    def test_slow_completions_page_latency(self):
        # every completion over target in a region: burn 1/0.05 = 20x
        slow = [0.0] * 100
        for i in range(40, 45):
            slow[i] = 10.0
        spans = evaluate_burn_alerts(timeline_doc([10.0] * 100, slow=slow), SloSpec())
        assert any(s.kind == "page:latency" for s in spans)
        assert_well_formed(spans)

    def test_alert_open_at_run_end_closes_at_t_end(self):
        shed = [0.0] * 100
        for i in range(95, 100):
            shed[i] = 10.0
        doc = timeline_doc([10.0] * 100, shed=shed)
        spans = evaluate_burn_alerts(doc, SloSpec())
        page = next(s for s in spans if s.kind == "page:availability")
        assert page.close_s == doc["t_end_s"]

    def test_spans_fold_consecutive_windows(self):
        shed = [0.0] * 100
        for i in range(40, 45):
            shed[i] = 10.0
        spans = evaluate_burn_alerts(timeline_doc([10.0] * 100, shed=shed), SloSpec())
        page = next(s for s in spans if s.kind == "page:availability")
        # one span covering the burst, not five one-window spans
        assert page.windows >= 4
        assert [s for s in spans if s.kind == "page:availability"] == [page]

    def test_rejects_non_timeline_documents(self):
        with pytest.raises(ValueError, match="timeline"):
            evaluate_burn_alerts({"windows": {}}, SloSpec())

    def test_rejects_ragged_columns(self):
        doc = timeline_doc([10.0] * 10)
        doc["windows"]["shed"] = [0.0] * 7
        with pytest.raises(ValueError, match="entries"):
            evaluate_burn_alerts(doc, SloSpec())

    @settings(max_examples=50, deadline=None)
    @given(
        columns=st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, 20),
                st.integers(0, 5),
                st.integers(0, 20),
            ),
            min_size=1,
            max_size=40,
        ),
        window_s=st.sampled_from([0.001, 0.5, 2.0]),
    )
    def test_spans_always_well_formed(self, columns, window_s):
        completed, shed, lost, slow = (list(c) for c in zip(*columns))
        # slow completions cannot exceed completions
        slow = [min(s, c) for s, c in zip(slow, completed)]
        doc = timeline_doc(completed, shed=shed, lost=lost, slow=slow, window_s=window_s)
        spans = evaluate_burn_alerts(doc, SloSpec())
        assert_well_formed(spans)
        thresholds = {w.severity: w.burn_threshold for w in DEFAULT_BURN_WINDOWS}
        for span in spans:
            assert 0.0 <= span.open_s <= doc["t_end_s"]
            assert span.close_s <= doc["t_end_s"]
            assert span.burn_at_open >= thresholds[span.severity]
            assert span.peak_burn >= span.burn_at_open


class TestAlertSpan:
    def test_validation(self):
        with pytest.raises(ValueError, match="close_s"):
            AlertSpan("page", "latency", 2.0, 1.0, 8.0, 8.0, 1)
        with pytest.raises(ValueError, match="window"):
            AlertSpan("page", "latency", 1.0, 2.0, 8.0, 8.0, 0)

    def test_kind_and_dict_round_trip(self):
        span = AlertSpan("warn", "availability", 1.0, 2.0, 2.5, 3.0, 4)
        assert span.kind == "warn:availability"
        assert AlertSpan(**span.to_dict()) == span


class TestComplianceSummary:
    def test_all_targets_met(self):
        out = compliance_summary(
            SloSpec(),
            p95_latency_s=0.1,
            availability=1.0,
            shed_fraction=0.0,
        )
        assert out["ok"] is True
        assert out["pages"] == 0 and out["warns"] == 0

    def test_each_violation_flips_ok(self):
        base = dict(p95_latency_s=0.1, availability=1.0, shed_fraction=0.0)
        for key, bad in (
            ("p95_latency_s", 0.5),
            ("availability", 0.9),
            ("shed_fraction", 0.5),
        ):
            out = compliance_summary(SloSpec(), **{**base, key: bad})
            assert out["ok"] is False, key

    def test_alert_counts(self):
        spans = [
            AlertSpan("page", "availability", 0.0, 1.0, 9.0, 9.0, 1),
            AlertSpan("warn", "availability", 0.0, 2.0, 2.0, 3.0, 2),
            AlertSpan("warn", "latency", 1.0, 2.0, 2.0, 2.0, 1),
        ]
        out = compliance_summary(
            SloSpec(),
            p95_latency_s=0.1,
            availability=1.0,
            shed_fraction=0.0,
            alerts=spans,
        )
        assert out["pages"] == 1
        assert out["warns"] == 2


def small_report_doc() -> dict:
    samples = [0.0005, 0.001, 0.02]
    return {
        "scenario": "om-test",
        "kind": "fleet",
        "completed": 3,
        "shed": 1,
        "lost": 0,
        "retries": 2,
        "failures": 1,
        "generated_tokens": 18,
        "availability": 0.75,
        "goodput_rps": 10.0,
        "throughput_rps": 12.0,
        "makespan_s": 0.5,
        "shed_fraction": 0.25,
        "cost_usd": 1.25,
        "peak_replicas": 2,
        "latency_mean_s": sum(samples) / len(samples),
        "latency_hist": LatencyStats.from_samples(samples).histogram_dict(),
        "slo_attainment": {"default": 0.9},
        "slo": {"ok": False},
        "alerts": [
            {"severity": "page", "signal": "availability"},
            {"severity": "page", "signal": "availability"},
            {"severity": "warn", "signal": "latency"},
        ],
    }


class TestOpenMetrics:
    def test_exposition_round_trips(self):
        families = parse_openmetrics(openmetrics_text(small_report_doc()))
        assert families["repro_scenario"]["type"] == "gauge"
        name, labels, value = families["repro_scenario"]["samples"][0]
        assert labels == {"scenario": "om-test", "kind": "fleet"}
        counters = {
            "repro_requests_completed": 3.0,
            "repro_requests_shed": 1.0,
            "repro_request_retries": 2.0,
            "repro_replica_failures": 1.0,
            "repro_generated_tokens": 18.0,
        }
        for family, expect in counters.items():
            assert families[family]["samples"] == [(f"{family}_total", {}, expect)]

    def test_histogram_buckets_cumulative_and_complete(self):
        doc = small_report_doc()
        families = parse_openmetrics(openmetrics_text(doc))
        hist = families["repro_request_latency_seconds"]
        buckets = [
            (labels["le"], value)
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        ]
        assert len(buckets) == len(LATENCY_HIST_EDGES_S) + 1
        assert buckets[-1] == ("+Inf", 3.0)
        values = [v for _, v in buckets]
        assert values == sorted(values)
        count = next(v for n, _, v in hist["samples"] if n.endswith("_count"))
        assert count == doc["completed"]

    def test_alert_and_slo_families(self):
        families = parse_openmetrics(openmetrics_text(small_report_doc()))
        assert families["repro_slo_ok"]["samples"] == [("repro_slo_ok", {}, 0.0)]
        alerts = {
            (labels["severity"], labels["signal"]): value
            for _, labels, value in families["repro_alerts"]["samples"]
        }
        assert alerts == {("page", "availability"): 2.0, ("warn", "latency"): 1.0}
        attain = families["repro_slo_attainment_ratio"]["samples"]
        assert attain == [("repro_slo_attainment_ratio", {"class": "default"}, 0.9)]

    def test_monitored_run_exports_cleanly(self):
        report = run(monitored_scenario())
        families = parse_openmetrics(openmetrics_text(report.to_dict()))
        count = next(
            v
            for n, _, v in families["repro_request_latency_seconds"]["samples"]
            if n.endswith("_count")
        )
        assert count == report.completed == SERVING.num_requests
        assert "repro_slo_ok" in families

    @pytest.mark.parametrize(
        "mangle,match",
        (
            (lambda t: t.replace("# EOF\n", ""), "EOF"),
            (
                lambda t: t.replace(
                    "\n# HELP repro_scenario", "\n\n# HELP repro_scenario"
                ),
                "blank",
            ),
            (lambda t: "undeclared_metric 1\n" + t, "no TYPE"),
            (lambda t: t.replace("# TYPE repro_scenario gauge\n", ""), "before TYPE"),
            (lambda t: t.replace("repro_cost_usd 1.25", "repro_cost_usd nan"), "non-finite"),
            (lambda t: t.replace("repro_cost_usd 1.25", "repro_cost_usd"), "malformed"),
            (
                lambda t: t.replace("# EOF", "# TYPE repro_scenario gauge\n# EOF"),
                "duplicate TYPE",
            ),
        ),
    )
    def test_parser_rejects_mangled_expositions(self, mangle, match):
        text = mangle(openmetrics_text(small_report_doc()))
        with pytest.raises(ValueError, match=match):
            parse_openmetrics(text)

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
            "h_sum 0.5\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_openmetrics(text)

    def test_parser_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 4\n"
            "h_sum 0.5\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_openmetrics(text)

    def test_parser_rejects_missing_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 3\n'
            "h_count 3\n"
            "h_sum 0.5\n"
            "# EOF\n"
        )
        with pytest.raises(ValueError, match="Inf"):
            parse_openmetrics(text)


class TestRunFacadeSlo:
    def test_monitored_report_carries_slo_fields(self):
        report = run(monitored_scenario())
        assert report.slo["ok"] in (True, False)
        assert set(report.detection) == {
            "outages",
            "brownouts",
            "observed_mttr_s",
            "scored",
        }
        for a in report.alerts:
            AlertSpan(**a)  # serialized spans reconstruct

    def test_report_dict_round_trips_slo_fields(self):
        from repro.scenarios import SimReport

        report = run(monitored_scenario())
        clone = SimReport.from_json(json.dumps(report.to_dict()))
        assert clone.slo == report.slo
        assert clone.alerts == report.alerts
        assert clone.detection == report.detection

    def test_unmonitored_run_has_empty_slo_fields(self):
        report = run(monitored_scenario(telemetry=None))
        assert report.slo == {}
        assert report.alerts == []
        assert report.detection == {}

    def test_explicit_recorder_without_slow_threshold_warns(self):
        from repro.obs.recorder import TimelineRecorder

        with pytest.warns(UserWarning, match="slow_latency_s"):
            report = run(monitored_scenario(), recorder=TimelineRecorder())
        # monitoring still runs; only the latency burn signal is degraded
        assert report.slo["ok"] in (True, False)
        assert report.timeline is not None

    def test_make_recorder_recorder_does_not_warn(self):
        import warnings as _warnings

        from repro.scenarios import make_recorder

        s = monitored_scenario()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            report = run(s, recorder=make_recorder(s))
        assert report.slo["ok"] in (True, False)

    def test_supplied_detector_reused_and_tee_timeline_surfaces(self):
        from repro.obs.detect import SignalDetector
        from repro.obs.recorder import TeeRecorder
        from repro.scenarios import make_recorder

        class MarkedDetector(SignalDetector):
            def summary(self):
                out = super().summary()
                out["marker"] = True
                return out

        s = monitored_scenario()
        det = MarkedDetector()
        report = run(s, recorder=TeeRecorder((make_recorder(s), det)))
        # the caller's detector instance is the one scored — no second
        # detector tee'd on top of the supplied one
        assert report.detection["marker"] is True
        # a timeline recorder nested inside a tee still surfaces its doc
        assert report.timeline is not None
        assert report.alerts == run(s).alerts


class TestAlertTraceSpans:
    def test_chrome_trace_carries_alert_and_detection_spans(self, tmp_path):
        from repro.obs.trace import validate_chrome_trace
        from repro.scenarios import get_scenario, make_recorder

        s = get_scenario("fleet-bad-day-smoke")
        s = dataclasses.replace(s, telemetry=TelemetrySpec(slo=SloSpec()))
        rec = make_recorder(s)
        report = run(s, recorder=rec, keep_raw=False)
        assert report.alerts  # the bad day actually alerts
        doc = rec.to_chrome_trace(alerts=report.alerts, detections=report.detection)
        assert validate_chrome_trace(doc) > 0
        names = {e["name"] for e in doc["traceEvents"] if e.get("cat") == "alert"}
        # burn-rate spans are named severity:signal; observed detections
        # sit on the replica rows next to the chaos ground-truth spans
        assert any(":" in name for name in names)
        assert "observed-outage" in names
        out = rec.write_chrome_trace(
            tmp_path / "slo.trace.json",
            alerts=report.alerts,
            detections=report.detection,
        )
        assert validate_chrome_trace(json.loads(out.read_text())) == len(
            doc["traceEvents"]
        )


class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        monitored_scenario().save(path)
        return path

    def test_run_writes_parseable_openmetrics(self, tmp_path, spec_file, capsys):
        om = tmp_path / "metrics.om"
        out = tmp_path / "report.json"
        rc = self.run_cli(
            [
                "run",
                "--scenario",
                str(spec_file),
                "--out",
                str(out),
                "--openmetrics",
                str(om),
            ]
        )
        assert rc == 0
        families = parse_openmetrics(om.read_text())
        doc = json.loads(out.read_text())
        count = next(
            v
            for n, _, v in families["repro_request_latency_seconds"]["samples"]
            if n.endswith("_count")
        )
        assert count == doc["completed"]

    def test_run_prints_slo_summary(self, spec_file, capsys):
        assert self.run_cli(["run", "--scenario", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "SLO compliance" in out

    def test_report_renders_slo_for_monitored_reports(self, tmp_path, spec_file, capsys):
        out = tmp_path / "report.json"
        self.run_cli(["run", "--scenario", str(spec_file), "--out", str(out)])
        capsys.readouterr()
        assert self.run_cli(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "SLO compliance" in text

    def test_report_handles_slo_only_reports(self, tmp_path, spec_file, capsys):
        out = tmp_path / "report.json"
        self.run_cli(["run", "--scenario", str(spec_file), "--out", str(out)])
        doc = json.loads(out.read_text())
        del doc["timeline"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no timeline recorded" in text
        assert "SLO compliance" in text

    def test_report_errors_clearly_without_timeline_or_slo(
        self, tmp_path, spec_file, capsys
    ):
        out = tmp_path / "report.json"
        self.run_cli(["run", "--scenario", str(spec_file), "--out", str(out)])
        doc = json.loads(out.read_text())
        for key in ("timeline", "slo", "alerts", "detection"):
            doc.pop(key, None)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no timeline recorded" in err
        assert "Traceback" not in err
