"""Unit tests for the repro CLI."""

from __future__ import annotations

import json
import numpy as np
import pytest

from repro.cli import main
from repro.core.placement.base import Placement
from repro.scenarios import get_scenario, list_scenarios
from repro.trace.events import RoutingTrace


class TestRunCommand:
    def test_runs_registered_preset(self, capsys):
        assert main(["run", "fig10-end-to-end-smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig10-end-to-end-smoke" in out
        assert "exflow" in out
        assert "summary:" in out
        assert "GPU-h" in out

    def test_serving_preset_prints_latency(self, capsys):
        assert main(["run", "serve-poisson-smoke"]) == 0
        out = capsys.readouterr().out
        assert "p95 ms" in out
        assert "$" in out

    def test_fleet_tables_show_nonzero_gpu_hours(self, capsys):
        # a smoke run bills ~1e-4 GPU-h; fixed decimals printed it as 0.000
        assert main(["run", "serve-poisson-smoke"]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [
            i for i, line in enumerate(lines[:-1])
            if "GPU-h" in line.split() and lines[i + 1].startswith("---")
        ]
        assert len(headers) == 2  # the fleet table and the per-replica table
        for i in headers:
            end = lines[i].index("GPU-h") + len("GPU-h")  # cells are right-justified
            assert float(lines[i + 2][:end].split()[-1]) > 0.0

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["run", "serve-bursty-smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "serve-bursty-smoke"
        assert report["kind"] == "serving"
        assert report["completed"] > 0

    def test_runs_scenario_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", "--scenario", str(path)]) == 0
        assert "serve-poisson-smoke" in capsys.readouterr().out

    def test_positional_path_also_loads_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", str(path)]) == 0
        assert "serve-poisson-smoke" in capsys.readouterr().out

    def test_out_writes_report_and_spec(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        spec_path = tmp_path / "spec.json"
        code = main(
            [
                "run",
                "serve-poisson-smoke",
                "--out",
                str(report_path),
                "--out-spec",
                str(spec_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["kind"] == "serving"
        from repro.scenarios import Scenario

        assert Scenario.load(spec_path) == get_scenario("serve-poisson-smoke")

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_scenario_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
        assert "cannot load scenario" in capsys.readouterr().err
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["run", str(broken)]) == 2
        assert "cannot load scenario" in capsys.readouterr().err

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "rep.json"
        assert main(["run", "serve-poisson-smoke", "--out", str(bad)]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_json_with_out_keeps_stdout_machine_readable(self, tmp_path, capsys):
        out_path = tmp_path / "rep.json"
        code = main(
            ["run", "serve-poisson-smoke", "--json", "--out", str(out_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # the whole stdout stream must be one JSON document (confirmations
        # go to stderr)
        assert json.loads(captured.out)["scenario"] == "serve-poisson-smoke"
        assert "wrote report" in captured.err

    def test_metrics_on_batch_preset_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["run", "fig10-end-to-end-smoke", "--metrics", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kind 'batch'" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_name_and_file_are_mutually_exclusive(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        get_scenario("serve-poisson-smoke").save(path)
        assert main(["run", "serve-poisson-smoke", "--scenario", str(path)]) == 2
        assert main(["run"]) == 2


class TestPresetPrinters:
    """`repro run` renders the online, fleet, chaos and SLO tables."""

    _EXPECTED: ClassVar[dict[str, tuple[str, ...]]] = {
        "fig15-abrupt-smoke": (
            "kept transition mass",
            "drift=abrupt",
            "online re-placements",
        ),
        "fleet-bad-day-smoke": (
            "per-replica",
            "SLO ok",
            "autoscaler actions",
            "chaos: injected failures",
            "availability",
            "time-to-recover",
        ),
        "fleet-steady-day-smoke": ("per-replica", "SLO ok", "SLO compliance"),
    }

    @pytest.mark.parametrize("name", sorted(_EXPECTED))
    def test_tables_render_and_repeat_exactly(self, name, capsys):
        assert main(["run", name]) == 0
        first = capsys.readouterr().out
        for marker in self._EXPECTED[name]:
            assert marker in first
        assert main(["run", name]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_free_detection_line_is_not_vacuous(self, capsys):
        assert main(["run", "fleet-steady-day-smoke"]) == 0
        line = next(
            ln
            for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("detection vs ground truth")
        )
        assert "no observable outages, 0 false alarm(s)" in line
        assert "recall" not in line
        assert "latency" not in line


class TestScenariosCommand:
    def test_list_shows_every_preset(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in list_scenarios():
            assert name in out
        assert "kind" in out

    def test_default_action_is_list(self, capsys):
        assert main(["scenarios"]) == 0
        assert "registered scenarios" in capsys.readouterr().out

    def test_names_mode_is_script_friendly(self, capsys):
        assert main(["scenarios", "list", "--names", "--smoke-only"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == list(list_scenarios(smoke=True))
        assert all(name.endswith("-smoke") for name in lines)

    def test_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "fleet", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(get_scenario(n).kind == "fleet" for n in lines)

    def test_full_only_excludes_smoke(self, capsys):
        assert main(["scenarios", "list", "--full-only", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and not any(n.endswith("-smoke") for n in lines)

    def test_smoke_and_full_flags_conflict(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "list", "--smoke-only", "--full-only"])

    def test_json_mode_is_machine_readable(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == list(list_scenarios())
        for e in entries:
            s = get_scenario(e["name"])
            assert e["kind"] == s.kind
            assert e["smoke"] == s.is_smoke
            assert e["description"] == s.description
        by_name = {e["name"]: e for e in entries}
        assert by_name["fleet-bad-day"]["chaos"] is True
        assert by_name["fig10-end-to-end"]["chaos"] is False

    def test_json_respects_filters(self, capsys):
        assert main(["scenarios", "list", "--json", "--kind", "fleet", "--smoke-only"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and all(
            e["kind"] == "fleet" and e["smoke"] for e in entries
        )

    def test_json_and_names_conflict(self, capsys):
        assert main(["scenarios", "list", "--json", "--names"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestModels:
    def test_lists_presets(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt-m-350m-e32" in out
        assert "MoE-GPT-XL-1.3B-E16" in out


class TestProfile:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(
            ["profile", "--model", "gpt-m-350m-e8", "--tokens", "200", "--out", str(out)]
        )
        assert code == 0
        trace = RoutingTrace.load(out)
        assert trace.num_tokens == 200
        assert trace.num_experts == 8
        assert "scaled affinity" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["profile", "--tokens", "100", "--seed", "5", "--out", str(a)])
        main(["profile", "--tokens", "100", "--seed", "5", "--out", str(b)])
        assert np.array_equal(RoutingTrace.load(a).paths, RoutingTrace.load(b).paths)


class TestPlace:
    def test_solves_and_saves(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e32", "--tokens", "500", "--out", str(trace_path)])
        placement_path = tmp_path / "placement.npz"
        code = main(
            [
                "place",
                "--trace",
                str(trace_path),
                "--nodes",
                "2",
                "--gpus-per-node",
                "4",
                "--out",
                str(placement_path),
            ]
        )
        assert code == 0
        placement = Placement.load(placement_path)
        assert placement.num_gpus == 8
        assert "same-GPU" in capsys.readouterr().out

    def test_joint_solver_rejects_oversized_instance(self, tmp_path, capsys):
        """32 experts on 4 GPUs is far past the exact solver's state limit:
        one error line naming K, not a long solve."""
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e32", "--tokens", "100", "--out", str(trace_path)])
        capsys.readouterr()
        argv = ["place", "--trace", str(trace_path), "--nodes", "1", "--gpus-per-node", "4"]
        assert main([*argv, "--strategy", "ilp-joint"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ilp-joint: K=")
        assert "E=32 experts to G=4 GPUs" in err
        assert err.count("\n") == 1


class TestHeatmap:
    def test_renders(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e8", "--tokens", "300", "--out", str(trace_path)])
        assert main(["heatmap", "--trace", str(trace_path), "--layer", "0"]) == 0
        assert "affinity: layer 0 -> 1" in capsys.readouterr().out

    def test_layer_out_of_range(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.npz"
        main(["profile", "--model", "gpt-m-350m-e8", "--tokens", "100", "--out", str(trace_path)])
        assert main(["heatmap", "--trace", str(trace_path), "--layer", "99"]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["place", "--trace", "t.npz", "--strategy", "quantum"])

    @pytest.mark.parametrize("command", ["serve", "fleet", "simulate"])
    def test_removed_wrappers_are_invalid_choices(self, command, capsys):
        # `run` on a preset or an edited spec covers what these did
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBadInputFailsCleanly:
    """Every command reports bad input like `run`: an error line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["place", "--trace", "missing.npz"],
            ["heatmap", "--trace", "missing.npz"],
            ["profile", "--model", "nope", "--out", "t.npz"],
            ["profile", "--affinity", "1.5", "--out", "t.npz"],
            ["profile", "--tokens", "-5", "--out", "t.npz"],
        ],
        ids=[
            "place-missing-trace",
            "heatmap-missing-trace",
            "profile-unknown-model",
            "profile-affinity-out-of-range",
            "profile-negative-tokens",
        ],
    )
    def test_error_line_and_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "t.npz").exists()
