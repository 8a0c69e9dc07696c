"""Command-line interface: ``python -m repro <command>``.

Wraps the common workflows so the library is usable without writing Python:

* ``run`` — execute any scenario: a registered preset by name or a JSON
  spec file (``--scenario``).  The one entry point that covers batch
  comparisons, single-replica serving, online re-placement and fleets.
  ``--trace``/``--metrics`` export Chrome-trace and metric-timeline JSON.
  For an ad-hoc variant, write a preset's spec with ``--out-spec``, edit
  the JSON and run it back with ``--scenario``.
* ``report`` — terminal summary (headline + per-replica utilization) of
  an exported metrics timeline.
* ``scenarios`` — enumerate the registered presets (``scenarios list``).
* ``models`` — list the Table II model presets.
* ``profile`` — sample a routing trace (Markov router) to an ``.npz`` file.
* ``place`` — solve an expert placement from a trace file.
* ``heatmap`` — render a trace's layer-pair affinity heatmap.
* ``lint`` — the repro-specific static-analysis rules.

Output is deterministic: scenarios carry their seeds, and ``profile``
takes ``--seed``.  Bad input exits 2 with an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

import numpy as np

from repro.analysis.heatmap import ascii_heatmap
from repro.analysis.report import format_table
from repro.config import PAPER_MODELS, ClusterConfig, paper_model
from repro.core.affinity import affinity_matrix, scaled_affinity
from repro.core.placement.base import placement_locality
from repro.core.placement.registry import SOLVERS, solve_placement
from repro.engine.comparison import ComparisonRow
from repro.fleet.result import OnlineServingResult
from repro.obs.export import openmetrics_text
from repro.obs.recorder import TimelineRecorder
from repro.scenarios import (
    SCENARIO_KINDS,
    Scenario,
    get_scenario,
    list_scenarios,
    make_recorder,
)
from repro.scenarios import run as run_scenario
from repro.scenarios.report import SimReport
from repro.trace.events import RoutingTrace
from repro.trace.markov import MarkovRoutingModel

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExFlow reproduction: MoE inference with inter-layer expert affinity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="run a scenario: registered preset name or JSON spec file"
    )
    p.add_argument(
        "name",
        nargs="?",
        help="registered scenario name (see `repro scenarios list`)",
    )
    p.add_argument(
        "--scenario",
        metavar="FILE",
        help="JSON scenario spec (written by Scenario.save / `run --out-spec`)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the SimReport as JSON"
    )
    p.add_argument("--out", metavar="FILE", help="also write the report JSON here")
    p.add_argument(
        "--out-spec",
        metavar="FILE",
        help="write the resolved scenario spec JSON here (for reproduction)",
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record the run and write a Chrome-trace JSON (open in "
            "ui.perfetto.dev); serving and fleet scenarios only"
        ),
    )
    p.add_argument(
        "--metrics",
        metavar="FILE",
        help=(
            "record the run and write the per-window metric timeline JSON "
            "(readable with `repro report`); serving and fleet scenarios only"
        ),
    )
    p.add_argument(
        "--openmetrics",
        metavar="FILE",
        help=(
            "write the report as an OpenMetrics text exposition (counters, "
            "gauges, the request-latency histogram, SLO/alert gauges)"
        ),
    )

    p = sub.add_parser(
        "report", help="summarize a metrics/report JSON file in the terminal"
    )
    p.add_argument(
        "file",
        help=(
            "metrics JSON from `repro run --metrics` or a report JSON from "
            "`repro run --out` (needs a telemetry timeline)"
        ),
    )

    p = sub.add_parser("scenarios", help="enumerate the registered scenario presets")
    p.add_argument("action", nargs="?", default="list", choices=["list"])
    p.add_argument(
        "--kind",
        choices=list(SCENARIO_KINDS),
        help="only presets of this kind",
    )
    smoke_group = p.add_mutually_exclusive_group()
    smoke_group.add_argument(
        "--smoke-only", action="store_true", help="only CI-sized -smoke variants"
    )
    smoke_group.add_argument(
        "--full-only", action="store_true", help="exclude -smoke variants"
    )
    p.add_argument(
        "--names", action="store_true", help="bare names, one per line (for scripts)"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: JSON list of preset summaries",
    )

    sub.add_parser("models", help="list the paper's model presets")

    p = sub.add_parser("profile", help="sample a routing trace to an .npz file")
    p.add_argument("--model", default="gpt-m-350m-e32", help="paper model key")
    p.add_argument("--tokens", type=int, default=3000)
    p.add_argument("--affinity", type=float, default=0.85)
    p.add_argument("--collision", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .npz path")

    p = sub.add_parser("place", help="solve an expert placement from a trace")
    p.add_argument("--trace", required=True, help="input trace .npz")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--gpus-per-node", type=int, default=4)
    p.add_argument("--strategy", default="staged", choices=SOLVERS)
    p.add_argument("--out", help="optional placement .npz path")

    p = sub.add_parser("heatmap", help="render a trace's affinity heatmap")
    p.add_argument("--trace", required=True)
    p.add_argument("--layer", type=int, default=0)

    p = sub.add_parser(
        "lint",
        help="run the repro-specific static-analysis rules (RPL0xx)",
        description=(
            "AST-based checks for the invariants the reproduction rests on: "
            "seeded randomness, clock-free simulator logic, unit-suffix "
            "safety, frozen-spec hygiene, set-iteration determinism and "
            "seed threading.  Exit code 1 when any diagnostic is emitted."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "examples"],
        help="files/directories to lint (default: src benchmarks examples)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: JSON list of {path,line,col,code,message}",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )

    return parser


# -- result printers (shared by `run` and `report`) ---------------------------


def _print_batch_rows(rows: dict[str, ComparisonRow], title: str) -> None:
    table = [
        [
            label,
            row.result.throughput_tokens_per_s,
            row.speedup,
            row.comm_reduction,
            row.result.alltoall_fraction,
            row.result.gpu_stay_fraction,
        ]
        for label, row in rows.items()
    ]
    print(
        format_table(
            ["strategy", "tokens/s", "speedup", "comm cut", "alltoall share", "GPU-stay"],
            table,
            title=title,
        )
    )


def _print_fleet_result(scenario: Scenario, res: Any, title: str) -> None:
    """The tables of a serving, online or fleet run; ``res`` is its FleetResult."""
    rows = [
        [
            scenario.fleet.router if scenario.fleet is not None else "single replica",
            res.served,
            len(res.shed),
            f"{res.shed_fraction:.2%}",
            res.latency.p50_s * 1e3,
            res.latency.p95_s * 1e3,
            res.latency.p99_s * 1e3,
            f"{res.slo_attainment.get('interactive', 1.0):.1%}",
            res.throughput_rps,
            f"{res.gpu_hours:.3g}",
            res.usd_per_million_tokens,
        ]
    ]
    print(
        format_table(
            [
                "router",
                "served",
                "shed",
                "shed %",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "SLO ok",
                "req/s",
                "GPU-h",
                "$/1Mtok",
            ],
            rows,
            title=title,
        )
    )
    per_replica = [
        [
            s.replica_id,
            s.regime,
            s.final_state,
            s.served,
            s.decode_steps,
            s.mean_batch_size,
            f"{s.utilization:.1%}",
            s.busy_s,
            f"{s.gpu_hours:.3g}",
            s.replacements,
        ]
        for s in res.replicas
    ]
    print(
        format_table(
            [
                "replica",
                "regime",
                "state",
                "served",
                "steps",
                "mean batch",
                "util",
                "busy s",
                "GPU-h",
                "replacements",
            ],
            per_replica,
            title="per-replica",
        )
    )
    if res.scale_events:
        events = [
            [e.kind, e.time_s, f"{e.queue_per_replica:.1f}",
             e.replicas_before, e.replicas_after, e.cold_start_s * 1e3]
            for e in res.scale_events
        ]
        print(
            format_table(
                ["action", "t (s)", "queue/replica", "before", "after", "cold start ms"],
                events,
                title="autoscaler actions",
            )
        )
    if res.failures or res.lost or res.retries:
        fault_rows = [
            [
                f.kind,
                f.time_s,
                f.replica_id,
                f.lost_active,
                f.lost_queued,
                (
                    f"{(f.recovered_at_s - f.time_s) * 1e3:.2f}"
                    if f.recovered_at_s is not None
                    else "-"
                ),
            ]
            for f in res.failures
        ]
        if fault_rows:
            print(
                format_table(
                    ["fault", "t (s)", "replica", "lost act", "lost q", "recover ms"],
                    fault_rows,
                    title="chaos: injected failures",
                )
            )
        print(
            f"chaos: {len(res.lost)} request(s) lost after retries, "
            f"{res.retries} retry(ies), availability {res.availability:.2%}, "
            f"goodput {res.goodput_rps:.1f} req/s, "
            f"mean time-to-recover {res.mean_time_to_recover_s * 1e3:.2f} ms"
        )
    if not isinstance(res, OnlineServingResult):
        return
    timeline = res.kept_timeline
    drift_label = scenario.drift.kind if scenario.drift is not None else "none"
    print(
        f"drift={drift_label}: kept transition mass "
        f"{timeline[0].true_kept:.1%} -> {timeline[-1].true_kept:.1%} "
        f"over {res.replicas[0].decode_steps} steps"
    )
    if res.events:
        event_rows = [
            [
                e.step,
                f"{e.kept_before:.1%}",
                f"{e.kept_after:.1%}",
                e.moved_experts,
                e.stall_s * 1e3,
                "forced" if e.forced else "drop",
            ]
            for e in res.events
        ]
        print(
            format_table(
                ["step", "kept before", "kept after", "moved", "stall ms", "trigger"],
                event_rows,
                title=f"online re-placements — total stall {res.migration_stall_s * 1e3:.3f} ms",
            )
        )
    elif scenario.replacement is not None:
        print("online re-placement enabled: no migration was triggered")


def _print_slo_summary(
    slo: dict[str, Any], alerts: list[Any], detection: dict[str, Any]
) -> None:
    """Compliance, alert and detection tables for an SLO-monitored run."""
    if not slo:
        return
    ok = "ok" if slo.get("ok") else "VIOLATED"
    rows = [
        [
            "p95 latency",
            f"{float(slo.get('p95_observed_s', 0.0)) * 1e3:.2f} ms",
            f"{float(slo.get('p95_target_s', 0.0)) * 1e3:.2f} ms",
            "ok" if slo.get("p95_ok") else "VIOLATED",
        ],
        [
            "availability",
            f"{float(slo.get('availability_observed', 0.0)):.2%}",
            f">= {float(slo.get('availability_target', 0.0)):.2%}",
            "ok" if slo.get("availability_ok") else "VIOLATED",
        ],
        [
            "shed fraction",
            f"{float(slo.get('shed_fraction_observed', 0.0)):.2%}",
            f"<= {float(slo.get('max_shed_fraction', 0.0)):.2%}",
            "ok" if slo.get("shed_ok") else "VIOLATED",
        ],
    ]
    print(
        format_table(
            ["objective", "observed", "target", "status"],
            rows,
            title=(
                f"SLO compliance — {ok} "
                f"({slo.get('pages', 0)} page(s), {slo.get('warns', 0)} warn(s))"
            ),
        )
    )
    if alerts:
        alert_rows = [
            [
                a.get("severity"),
                a.get("signal"),
                f"{float(a.get('open_s', 0.0)) * 1e3:.3f}",
                f"{float(a.get('close_s', 0.0)) * 1e3:.3f}",
                f"{float(a.get('burn_at_open', 0.0)):.1f}x",
                f"{float(a.get('peak_burn', 0.0)):.1f}x",
                a.get("windows"),
            ]
            for a in alerts
            if isinstance(a, dict)
        ]
        print(
            format_table(
                ["severity", "signal", "open ms", "close ms", "burn@open", "peak", "windows"],
                alert_rows,
                title="burn-rate alerts",
            )
        )
    outages = detection.get("outages", []) if detection else []
    brownouts = detection.get("brownouts", []) if detection else []
    observed_rows = [
        [
            "outage",
            o.get("replica"),
            o.get("signal"),
            f"{float(o.get('detected_s', 0.0)) * 1e3:.3f}",
            f"{float(o.get('closed_s', 0.0)) * 1e3:.3f}",
            o.get("resolution"),
        ]
        for o in outages
        if isinstance(o, dict)
    ] + [
        [
            "brownout",
            b.get("replica"),
            f"z={float(b.get('peak_z', 0.0)):.1f}",
            f"{float(b.get('detected_s', 0.0)) * 1e3:.3f}",
            f"{float(b.get('closed_s', 0.0)) * 1e3:.3f}",
            b.get("resolution"),
        ]
        for b in brownouts
        if isinstance(b, dict)
    ]
    if observed_rows:
        print(
            format_table(
                ["event", "replica", "signal", "detected ms", "closed ms", "resolution"],
                observed_rows,
                title="signal-driven detections (no chaos channel)",
            )
        )
    scored = detection.get("scored") if detection else None
    if isinstance(scored, dict) and isinstance(scored.get("outages"), dict):
        so = scored["outages"]
        if not so.get("observable_events"):
            # recall and latency over zero events are vacuous
            print(
                "detection vs ground truth: no observable outages, "
                f"{so.get('false_alarms', 0)} false alarm(s)"
            )
            return
        lat = so.get("detection_latency", {})
        print(
            f"detection vs ground truth: {so.get('detected', 0)}/"
            f"{so.get('observable_events', 0)} observable outage(s) detected "
            f"(recall {float(so.get('recall', 0.0)):.0%}, precision "
            f"{float(so.get('precision', 0.0)):.0%}), median detection latency "
            f"{float(lat.get('median_s', 0.0)) * 1e3:.3f} ms"
        )


def _print_report(scenario: Scenario, report: SimReport) -> None:
    """Kind-appropriate tables plus the unified summary line."""
    base_title = (
        f"{scenario.model.name} — scenario `{scenario.name}` "
        f"({report.kind}) on {scenario.cluster.num_nodes}x"
        f"{scenario.cluster.gpus_per_node} GPUs"
    )
    if report.kind == "batch":
        _print_batch_rows(report.raw, base_title)
    else:
        _print_fleet_result(scenario, report.raw, base_title)
    if report.slo:
        _print_slo_summary(report.slo, report.alerts, report.detection)
    print(
        f"summary: {report.completed} served, {report.generated_tokens} tokens, "
        f"p95 {report.latency_p95_s * 1e3:.2f} ms, "
        f"{report.throughput_tokens_per_s:.0f} tokens/s, "
        f"{report.gpu_hours:.4f} GPU-h (${report.cost_usd:.4f}, "
        f"${report.usd_per_million_tokens:.2f}/1M tokens)"
    )


# -- commands -----------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.name is None) == (args.scenario is None):
        print(
            "error: give exactly one of a preset name or --scenario FILE",
            file=sys.stderr,
        )
        return 2
    spec_path = args.scenario
    if spec_path is None and (args.name.endswith(".json") or os.path.sep in args.name):
        spec_path = args.name
    if spec_path is not None:
        try:
            scenario = Scenario.load(spec_path)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"error: cannot load scenario {spec_path!r}: {exc}", file=sys.stderr)
            return 2
    else:
        scenario = get_scenario(args.name)
    recorder = None
    if args.trace or args.metrics:
        recorder = (
            make_recorder(scenario)
            if scenario.telemetry is not None
            else TimelineRecorder()
        )
    report = run_scenario(scenario, recorder=recorder)
    if args.json:
        print(report.to_json())
    else:
        _print_report(scenario, report)
    # confirmations go to stderr so --json output stays machine-readable
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report.to_json() + "\n")
            print(f"wrote report to {args.out}", file=sys.stderr)
        if args.out_spec:
            scenario.save(args.out_spec)
            print(f"wrote scenario spec to {args.out_spec}", file=sys.stderr)
        if args.trace:
            assert recorder is not None
            recorder.write_chrome_trace(
                args.trace, alerts=report.alerts, detections=report.detection
            )
            print(
                f"wrote Chrome trace to {args.trace} (open in ui.perfetto.dev)",
                file=sys.stderr,
            )
        if args.metrics:
            assert recorder is not None
            doc = {
                "scenario": scenario.name,
                "kind": scenario.kind,
                "metrics": recorder.timeline(),
            }
            with open(args.metrics, "w") as fh:
                fh.write(json.dumps(doc) + "\n")
            print(f"wrote metrics timeline to {args.metrics}", file=sys.stderr)
        if args.openmetrics:
            with open(args.openmetrics, "w") as fh:
                fh.write(openmetrics_text(report.to_dict()))
            print(
                f"wrote OpenMetrics exposition to {args.openmetrics}",
                file=sys.stderr,
            )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Terminal summary of a metrics timeline (or a report carrying one)."""
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print(f"error: {args.file!r} is not a JSON object", file=sys.stderr)
        return 2
    if "traceEvents" in doc:
        print(
            f"error: {args.file!r} is a Chrome-trace file — open it in "
            "ui.perfetto.dev or chrome://tracing.  `repro report` reads the "
            "metrics JSON from `repro run --metrics` (or a report from "
            "`repro run --out` with a telemetry timeline).",
            file=sys.stderr,
        )
        return 2
    timeline = None
    for key in ("metrics", "timeline"):
        if isinstance(doc.get(key), dict):
            timeline = doc[key]
            break
    slo = doc.get("slo") if isinstance(doc.get("slo"), dict) else {}
    alerts = doc.get("alerts") if isinstance(doc.get("alerts"), list) else []
    detection = doc.get("detection") if isinstance(doc.get("detection"), dict) else {}
    if timeline is None and not slo:
        print(
            f"error: {args.file!r} has no timeline recorded — rerun with "
            "`repro run --metrics FILE`, or give the scenario a telemetry "
            "section so `repro run --out` reports carry one",
            file=sys.stderr,
        )
        return 2

    def _f(value: object) -> float:
        return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else 0.0

    scenario = doc.get("scenario", "?")
    kind = doc.get("kind", "?")
    if timeline is not None:
        totals = timeline.get("totals", {})
        if not isinstance(totals, dict):
            totals = {}
        span_s = _f(timeline.get("t_end_s")) - _f(timeline.get("t0_s"))
        print(
            f"scenario `{scenario}` ({kind}): "
            f"{totals.get('admitted', 0)} admitted, "
            f"{totals.get('completed', 0)} completed, "
            f"{totals.get('shed', 0)} shed over {span_s:.3f} s"
        )
        print(
            f"timeline: {timeline.get('num_windows', 0)} windows of "
            f"{_f(timeline.get('window_s')):.6g} s, "
            f"{timeline.get('num_replicas', 0)} replica(s), "
            f"{totals.get('dropped_span_events', 0)} span event(s) dropped"
        )
        rows = []
        replicas = timeline.get("replicas")
        for r in replicas if isinstance(replicas, list) else []:
            if not isinstance(r, dict):
                continue
            rows.append(
                [
                    r.get("replica"),
                    r.get("regime"),
                    r.get("final_state"),
                    r.get("admitted"),
                    r.get("completed"),
                    r.get("steps"),
                    r.get("tokens"),
                    _f(r.get("busy_s")),
                    f"{_f(r.get('utilization')):.1%}",
                ]
            )
        if rows:
            print(
                format_table(
                    [
                        "replica",
                        "regime",
                        "state",
                        "admitted",
                        "completed",
                        "steps",
                        "tokens",
                        "busy s",
                        "util",
                    ],
                    rows,
                    title="per-replica utilization",
                )
            )
    else:
        print(
            f"scenario `{scenario}` ({kind}): no timeline recorded — rerun "
            "with `repro run --metrics` for per-window detail"
        )
    if slo:
        _print_slo_summary(slo, alerts, detection)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    smoke = None
    if args.smoke_only:
        smoke = True
    elif args.full_only:
        smoke = False
    names = list_scenarios(kind=args.kind, smoke=smoke)
    if args.names and args.json:
        print("error: --names and --json are mutually exclusive", file=sys.stderr)
        return 2
    if args.names:
        for name in names:
            print(name)
        return 0
    if args.json:
        entries = []
        for name in names:
            s = get_scenario(name)
            entries.append(
                {
                    "name": name,
                    "kind": s.kind,
                    "model": s.model.name,
                    "gpus": s.cluster.num_gpus,
                    "smoke": name.endswith("-smoke"),
                    "chaos": s.fleet is not None and s.fleet.chaos is not None,
                    "description": s.description,
                }
            )
        print(json.dumps(entries, indent=2))
        return 0
    rows = []
    for name in names:
        s = get_scenario(name)
        rows.append(
            [name, s.kind, s.model.name, s.cluster.num_gpus, s.description]
        )
    print(
        format_table(
            ["name", "kind", "model", "GPUs", "description"],
            rows,
            title=f"registered scenarios ({len(rows)})",
        )
    )
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = [
        [key, m.name, m.num_layers, m.num_experts, m.d_model, m.base_params]
        for key, m in sorted(PAPER_MODELS.items())
    ]
    print(
        format_table(
            ["key", "name", "layers", "experts", "d_model", "base"],
            rows,
            title="Table II model presets",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    model = paper_model(args.model)
    routing = MarkovRoutingModel.with_affinity(
        model.num_experts,
        model.num_moe_layers,
        args.affinity,
        rng=np.random.default_rng(args.seed),
        collision=args.collision,
    )
    trace = routing.sample(args.tokens, np.random.default_rng(args.seed + 1))
    trace.save(args.out)
    print(
        f"wrote {trace.num_tokens} tokens x {trace.num_layers} layers to {args.out} "
        f"(scaled affinity {scaled_affinity(trace):.3f})"
    )
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    trace = RoutingTrace.load(args.trace)
    cluster = ClusterConfig(num_nodes=args.nodes, gpus_per_node=args.gpus_per_node)
    placement = solve_placement(args.strategy, trace, cluster)
    stats = placement_locality(placement, trace, cluster)
    print(
        f"{args.strategy} placement on {cluster.num_gpus} GPUs: "
        f"{stats.gpu_stay_fraction:.1%} same-GPU, "
        f"{stats.node_stay_fraction:.1%} same-node, "
        f"{stats.crossings_per_token:.2f} crossings/token"
    )
    if args.out:
        placement.save(args.out)
        print(f"wrote placement to {args.out}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    trace = RoutingTrace.load(args.trace)
    if not 0 <= args.layer < trace.num_layers - 1:
        print(
            f"error: layer must be in [0, {trace.num_layers - 2}]", file=sys.stderr
        )
        return 2
    print(
        ascii_heatmap(
            affinity_matrix(trace, args.layer),
            title=f"affinity: layer {args.layer} -> {args.layer + 1} "
            f"({trace.num_tokens} tokens, source {trace.source or 'unknown'})",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # local import: the lint machinery is pure stdlib+repro and never needed
    # by the simulation entry points
    from repro.lint import RULES, lint_paths

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            scope = ", ".join(rule.scope) if rule.scope else "all paths"
            print(f"{code} {rule.name}: {rule.description} [{scope}]")
        return 0
    diagnostics = lint_paths(args.paths)
    if args.json:
        print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
    else:
        for diag in diagnostics:
            print(diag.format())
        if diagnostics:
            print(f"found {len(diagnostics)} diagnostic(s)")
    return 1 if diagnostics else 0


_COMMANDS = {
    "run": _cmd_run,
    "report": _cmd_report,
    "scenarios": _cmd_scenarios,
    "models": _cmd_models,
    "profile": _cmd_profile,
    "place": _cmd_place,
    "heatmap": _cmd_heatmap,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, KeyError, ValueError) as exc:
        # bad user input (a missing file, an unknown name, an out-of-range
        # value) gets one line on stderr, not a traceback
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
