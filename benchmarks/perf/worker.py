"""One benchmark operation in a fresh interpreter: set up, run, check, report.

``run.py`` starts one worker per operation, so each operation pays the
first-run-in-process cost a CLI user pays on every ``repro run``.  Usage,
from the repository root with ``src`` on ``PYTHONPATH``::

    python benchmarks/perf/worker.py --workload fleet-day --seed 0 [--trace] [--smoke]

The last line of stdout is one JSON object: ``setup_s`` (first statement
of :func:`main` to ready-to-run: ``import repro`` plus building the
Scenarios), ``run_wall_s`` (the calls into ``repro.run()`` plus exports),
``host_us_per_step``, ``peak_rss_mb``, the output ``digest``, the median
``probe_s`` of the speed probe timed around the operation, the simulated
counts ``sim`` and, with ``--trace``, the per-layer numbers ``layers``.
Times are raw; ``run.py`` rescales them.  A failed output check raises,
so the worker exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter
from typing import Any

# per-layer metric -> (span, field); the spans are installed by install_spans
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "fleet.requests.make_fleet_requests_s": ("fleet.requests.make_fleet_requests", "incl_s"),
    "engine.serving.make_arrivals_s": ("engine.serving.make_arrivals", "incl_s"),
    "trace.markov.with_affinity_s": ("trace.markov.with_affinity", "incl_s"),
    "core.placement.solve_s": ("core.placement.solve", "incl_s"),
    "core.placement.solve_calls": ("core.placement.solve", "calls"),
    "fleet.engine.loop_self_s": ("fleet.engine.loop", "self_s"),
    "fleet.reference.loop_self_s": ("fleet.reference.loop", "self_s"),
    "engine.serving.step_time_self_s": ("engine.serving.step_time", "self_s"),
    "engine.serving.steps": ("engine.serving.step_time", "calls"),
    "engine.serving.admission_time_s": ("engine.serving.admission_time", "incl_s"),
    "fleet.result.sample_paths_self_s": ("fleet.result.sample_paths", "self_s"),
    "trace.markov.sample_s": ("trace.markov.sample", "incl_s"),
    "trace.markov.sample_calls": ("trace.markov.sample", "calls"),
    "cluster.collectives.alltoall_s": ("cluster.collectives.alltoall", "incl_s"),
    "cluster.collectives.alltoall_calls": ("cluster.collectives.alltoall", "calls"),
    "cluster.collectives.allgather_s": ("cluster.collectives.allgather", "incl_s"),
    "cluster.collectives.allgather_calls": ("cluster.collectives.allgather", "calls"),
    "core.online.maybe_replace_self_s": ("core.online.maybe_replace", "self_s"),
    "core.affinity.estimator_update_s": ("core.affinity.estimator_update", "incl_s"),
    "core.placement.local_search_s": ("core.placement.local_search", "incl_s"),
    "core.placement.local_search_calls": ("core.placement.local_search", "calls"),
    "engine.serving.online_loop_self_s": ("engine.serving.online_loop", "self_s"),
    "engine.workload.make_decode_workload_s": ("engine.workload.make_decode_workload", "incl_s"),
    "engine.executor.simulate_inference_self_s": ("engine.executor.simulate_inference", "self_s"),
    "engine.executor.runs": ("engine.executor.simulate_inference", "calls"),
    "obs.recorder_hooks_s": ("obs.recorder_hooks", "incl_s"),
    "obs.recorder_hook_calls": ("obs.recorder_hooks", "calls"),
    "obs.detector_hooks_s": ("obs.detector_hooks", "incl_s"),
    "obs.slo.burn_alerts_s": ("obs.slo.burn_alerts", "incl_s"),
    "obs.chrome_trace_s": ("obs.chrome_trace", "incl_s"),
    "obs.openmetrics_s": ("obs.openmetrics", "incl_s"),
    "scenarios.run_self_s": ("scenarios.run", "self_s"),
}

# report fields a host-only change must leave bit-identical
DIGEST_FIELDS = (
    "completed",
    "shed",
    "lost",
    "generated_tokens",
    "makespan_s",
    "latency_p50_s",
    "latency_p95_s",
    "latency_p99_s",
    "availability",
    "detection",
)
DIGEST_EXTRAS = ("speedup_noaff", "speedup_exflow")

#: probe passes timed before and after the operation, and the loop length of one
PROBE_REPS = 4
PROBE_ITERS = 2000

# span -> (module, function): rebound wherever a repro module holds it
FUNCTION_SPANS = {
    "scenarios.run": ("repro.scenarios.runner", "run"),
    "fleet.requests.make_fleet_requests": ("repro.fleet.requests", "make_fleet_requests"),
    "engine.serving.make_arrivals": ("repro.engine.serving", "make_arrivals"),
    "core.placement.solve": ("repro.core.placement.registry", "solve_placement"),
    "core.placement.local_search": (
        "repro.core.placement.local_search", "local_search_placement"
    ),
    "fleet.engine.loop": ("repro.fleet.engine", "simulate_fleet_tick"),
    "fleet.reference.loop": ("repro.fleet.reference", "simulate_fleet_reference"),
    "fleet.result.sample_paths": ("repro.fleet.result", "sample_paths_grouped"),
    "engine.serving.online_loop": ("repro.engine.serving", "_simulate_online_serving"),
    "engine.workload.make_decode_workload": ("repro.engine.workload", "make_decode_workload"),
    "engine.executor.simulate_inference": ("repro.engine.executor", "simulate_inference"),
    "obs.slo.burn_alerts": ("repro.obs.slo", "evaluate_burn_alerts"),
    "cluster.collectives.alltoall": ("repro.cluster.collectives", "alltoall_matrix"),
    "cluster.collectives.allgather": ("repro.cluster.collectives", "allgather_cost"),
}
# span -> (module, class, method): patched on the class
METHOD_SPANS = {
    "trace.markov.with_affinity": ("repro.trace.markov", "MarkovRoutingModel", "with_affinity"),
    "trace.markov.sample": ("repro.trace.markov", "MarkovRoutingModel", "sample"),
    "engine.serving.step_time": ("repro.engine.serving", "PlacementStepTimer", "step_time"),
    "engine.serving.admission_time": (
        "repro.engine.serving", "PlacementStepTimer", "admission_time"
    ),
    "core.online.maybe_replace": ("repro.core.online", "OnlineReplacer", "maybe_replace"),
    "core.affinity.estimator_update": (
        "repro.core.affinity", "StreamingAffinityEstimator", "update"
    ),
}


def install_spans(tracer: Any) -> None:
    """Wrap the simulator's layer entry points (their modules are imported)."""
    import numpy as np

    distinct: set[bytes] = set()

    # every caller in src passes these arguments positionally
    def count_tokens(model: object, num_tokens: int, *args: object) -> None:
        tracer.add("trace.markov.sample_tokens", num_tokens)

    def count_payload(topo: object, bytes_per_rank: object) -> None:
        distinct.add(np.asarray(bytes_per_rank, dtype=np.float64).tobytes())
        tracer.counters["cluster.collectives.allgather_distinct"] = len(distinct)

    counters = {
        "trace.markov.sample": count_tokens,
        "cluster.collectives.allgather": count_payload,
    }
    for span, (module, func) in FUNCTION_SPANS.items():
        tracer.patch_function(module, func, span, counters.get(span))
    for span, (module, cls, method) in METHOD_SPANS.items():
        tracer.patch_method(getattr(sys.modules[module], cls), method, span, counters.get(span))


def export_chrome_trace(recorder: Any, report: Any) -> str:
    """What ``repro run --trace`` writes: validated Chrome-trace JSON."""
    from repro.obs import validate_chrome_trace

    doc = recorder.to_chrome_trace(alerts=report.alerts, detections=report.detection)
    validate_chrome_trace(doc)
    return json.dumps(doc) + "\n"


def export_openmetrics(report: Any) -> str:
    """What ``repro run --openmetrics`` writes."""
    from repro.obs import openmetrics_text

    return openmetrics_text(report.to_dict())


def run_op(scenarios: list[Any], tracer: Any) -> tuple[list[Any], list[str], Any]:
    """The timed operation: every Scenario through ``repro.run()``, plus exports.

    Scenarios with a telemetry section run as ``repro run --trace
    --openmetrics`` does: a ``make_recorder`` recorder, tee'd with the SLO
    detector ``run()`` would attach itself, then both exports.  Returns the
    reports, the OpenMetrics texts and the profiler (traced fleet ops).
    """
    import repro
    from repro.obs import TeeRecorder

    chrome, openmetrics = export_chrome_trace, export_openmetrics
    profiler = None
    if tracer is not None:
        chrome = tracer.wrap("obs.chrome_trace", chrome)
        openmetrics = tracer.wrap("obs.openmetrics", openmetrics)
        if any(s.kind == "fleet" for s in scenarios):
            profiler = repro.PhaseProfiler()
    reports, texts = [], []
    for s in scenarios:
        fleet_profiler = profiler if s.kind == "fleet" else None
        if s.telemetry is None:
            reports.append(repro.run(s, profiler=fleet_profiler))
            continue
        recorder = repro.make_recorder(s)
        detector = repro.SignalDetector()
        if tracer is not None:
            tracer.patch_hooks(recorder, "obs.recorder_hooks")
            tracer.patch_hooks(detector, "obs.detector_hooks")
        report = repro.run(
            s, recorder=TeeRecorder((recorder, detector)), profiler=fleet_profiler
        )
        chrome(recorder, report)
        texts.append(openmetrics(report))
        reports.append(report)
    return reports, texts, profiler


def submitted(s: Any) -> int:
    if s.batch is not None:
        return int(s.batch.total_requests(s.cluster.num_gpus))
    return int(s.serving.num_requests)


def check_outputs(scenarios: list[Any], reports: list[Any], texts: list[str]) -> None:
    """Conservation per report and an OpenMetrics round trip per monitored one."""
    from repro.obs import parse_openmetrics

    for s, r in zip(scenarios, reports, strict=True):
        if r.completed + r.shed + r.lost != submitted(s):
            raise RuntimeError(
                f"{s.name}: completed {r.completed} + shed {r.shed} + lost {r.lost} "
                f"!= submitted {submitted(s)}"
            )
    monitored = [r for s, r in zip(scenarios, reports, strict=True) if s.telemetry is not None]
    for r, text in zip(monitored, texts, strict=True):
        families = parse_openmetrics(text)
        for family, value in (
            ("repro_requests_completed", r.completed),
            ("repro_requests_shed", r.shed),
            ("repro_requests_lost", r.lost),
        ):
            got = families[family]["samples"][0][2]
            if got != value:
                raise RuntimeError(f"{r.scenario}: OpenMetrics {family} {got} != {value}")


def digest(reports: list[Any]) -> str:
    """SHA-256 over every report's simulated fields, floats at full precision."""
    rows = []
    for r in reports:
        row = {f: getattr(r, f) for f in DIGEST_FIELDS}
        row.update({k: r.extra[k] for k in DIGEST_EXTRAS if k in r.extra})
        rows.append(row)
    blob = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_counts(scenarios: list[Any], reports: list[Any]) -> dict[str, float]:
    steps = sum(r.decode_steps for r in reports)
    return {
        "sim.requests_submitted": sum(submitted(s) for s in scenarios),
        "sim.completed": sum(r.completed for r in reports),
        "sim.shed": sum(r.shed for r in reports),
        "sim.lost": sum(r.lost for r in reports),
        "sim.decode_steps": steps,
        # step-weighted mean of each report's mean batch size
        "sim.mean_batch": sum(r.mean_batch_size * r.decode_steps for r in reports) / steps,
    }


def layer_metrics(tracer: Any, profiler: Any, wall_s: float) -> dict[str, float]:
    out = {
        metric: getattr(tracer.span(span), field)
        for metric, (span, field) in SPAN_METRICS.items()
    }
    phases = profiler.profile().phase_s if profiler is not None else {}
    out["fleet.router_s"] = phases.get("routing", 0.0)
    out["fleet.admission_s"] = phases.get("admission", 0.0)
    out["fleet.bookkeeping_s"] = phases.get("bookkeeping", 0.0)
    calls = tracer.span("trace.markov.sample").calls
    tokens = tracer.counters.get("trace.markov.sample_tokens", 0.0)
    out["trace.markov.tokens_per_call"] = tokens / calls if calls else 0.0
    gathers = tracer.span("cluster.collectives.allgather").calls
    distinct = tracer.counters.get("cluster.collectives.allgather_distinct", 0.0)
    out["cluster.collectives.allgather_distinct_frac"] = distinct / gathers if gathers else 0.0
    # the root's own time plus time no span covered, as a share of the op
    root_self = tracer.span("scenarios.run").self_s
    out["unattributed_frac"] = (root_self + wall_s - tracer.top_s) / wall_s
    return out


def probe_times() -> list[float]:
    """Seconds of each pass of a fixed small-array numpy + dict loop (the probe).

    The probe's work never changes, so its time tracks how fast this
    shared machine runs right now; ``run.py`` rescales the operation's
    times by the median pass around it.
    """
    import numpy as np

    rows = np.random.default_rng(0).random((256, 16))
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_ITERS):
            block = np.cumsum(rows[i % 224 : i % 224 + 32], axis=1)
            acc += int(np.bincount((block[:, -1] * 4).astype(np.int64), minlength=64).max())
            acc += len({j: j ^ acc for j in range(30)})
        times.append(perf_counter() - t0)
    return times


def main() -> None:
    t0 = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import repro  # noqa: F401  (setup: the import a CLI user pays)
    from workloads import WORKLOADS

    scenarios = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s = perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_spans(tracer)
    probes = probe_times()
    t1 = perf_counter()
    reports, texts, profiler = run_op(scenarios, tracer)
    run_wall_s = perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes += probe_times()

    check_outputs(scenarios, reports, texts)
    sim = sim_counts(scenarios, reports)
    layers = None
    if tracer is not None:
        layers = {**layer_metrics(tracer, profiler, run_wall_s), **sim}
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "run_wall_s": run_wall_s,
                "host_us_per_step": 1e6 * run_wall_s / sim["sim.decode_steps"],
                "peak_rss_mb": peak_rss_mb,
                "digest": digest(reports),
                "probe_s": statistics.median(probes),
                "sim": sim,
                "layers": layers,
            }
        )
    )


if __name__ == "__main__":
    main()
