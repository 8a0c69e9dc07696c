"""Self-test of the host-performance benchmark harness.

Runs every workload once, traced, at its registered ``-smoke`` scale
through the real worker processes (``paper-grid`` also once untraced, for
the end-to-end metrics).  Asserts what the harness reports, never how fast
anything ran.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

import run as perf_run

# span-backed metric -> the workload meant to exercise it
EXERCISED_ON = {
    "fleet.requests.make_fleet_requests_s": "fleet-day",
    "engine.serving.make_arrivals_s": "fleet-day",
    "trace.markov.with_affinity_s": "paper-grid",
    "core.placement.solve_calls": "fleet-day",
    "fleet.engine.loop_self_s": "fleet-day",
    "fleet.reference.loop_self_s": "slo-watch",
    "fleet.router_s": "fleet-day",
    "fleet.admission_s": "fleet-day",
    "engine.serving.steps": "slo-watch",
    "engine.serving.admission_time_s": "drift-online",
    "fleet.result.sample_paths_self_s": "slo-watch",
    "trace.markov.sample_calls": "paper-grid",
    "cluster.collectives.alltoall_calls": "fleet-day",
    "cluster.collectives.allgather_calls": "slo-watch",
    "core.online.maybe_replace_self_s": "drift-online",
    "core.affinity.estimator_update_s": "drift-online",
    "core.placement.local_search_calls": "drift-online",
    "engine.serving.online_loop_self_s": "drift-online",
    "engine.workload.make_decode_workload_s": "paper-grid",
    "engine.executor.runs": "paper-grid",
    "obs.recorder_hook_calls": "slo-watch",
    "obs.detector_hooks_s": "slo-watch",
    "obs.slo.burn_alerts_s": "slo-watch",
    "obs.chrome_trace_s": "slo-watch",
    "obs.openmetrics_s": "slo-watch",
}


def _smoke_ops(workload: str) -> list[dict]:
    if workload == "paper-grid":
        return perf_run.measure(workload, 0, seconds=0, trace=True, smoke=True)
    return [perf_run.run_worker(workload, 0, traced=True, smoke=True)]


@pytest.fixture(scope="module")
def smoke_metrics() -> dict[str, dict]:
    names = [w["name"] for w in perf_run.SPEC["workloads"]]
    # two worker processes at a time keep the self-test short
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(names, pool.map(_smoke_ops, names), strict=True))
    for ops in runs.values():
        assert [op.get("error") for op in ops] == [None] * len(ops)
    return {name: perf_run.aggregate(ops) for name, ops in runs.items()}


def test_every_declared_metric_is_emitted_with_its_unit(smoke_metrics):
    metrics = smoke_metrics["paper-grid"]
    for m in perf_run.SPEC["end_to_end"] + perf_run.SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]


def test_each_span_fires_on_the_workload_meant_to_exercise_it(smoke_metrics):
    for metric, workload in EXERCISED_ON.items():
        assert smoke_metrics[workload][metric]["value"] > 0, (metric, workload)


def test_a_wrong_pinned_digest_fails_the_op():
    ops = perf_run.measure("paper-grid", 0, seconds=0, trace=False, smoke=True, pinned="0" * 64)
    assert len(ops) == 1
    assert ops[0]["error"].startswith("digest")
