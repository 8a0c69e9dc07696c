"""Bad-day benchmark — autoscaled vs static fleet under the same faults.

One seeded "bad day" (a replica crash, a spot preemption, a brownout
window) is replayed against two arms that differ only in autoscaling:

* **autoscaled** — the registered ``fleet-bad-day`` preset: three
  replicas with reactive queue-depth scaling up to eight, retry-with-
  backoff serving, and replacement replicas ordered through the priced
  cold-start path the moment a fault lands.
* **static** — the same scenario with autoscaling off, derived with
  ``dataclasses.replace`` so the workload, fault schedule and retry
  policy are byte-identical.

The offered load overloads the initial three replicas, so the static arm
spends the day shedding at the queue cap while the autoscaled arm grows
past the faults.  The committed artefact (``BENCH_chaos.json``) records
both arms' shed fraction, goodput, p95, unit cost and mean
time-to-recover; CI schema-checks it (goodput > 0 on both arms,
autoscaled availability >= static) and re-runs the smoke variant.

Runnable directly (``python benchmarks/bench_chaos.py``, add ``--smoke``
for the CI-sized variant) or through pytest
(``pytest benchmarks/bench_chaos.py -s``).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from repro.analysis.report import format_table
from repro.scenarios import run
from repro.scenarios.registry import fleet_bad_day
from repro.scenarios.report import SimReport


def _arms(smoke: bool):
    """The two scenario arms: identical bad day, autoscaling on/off."""
    autoscaled = fleet_bad_day(autoscale=True, smoke=smoke)
    static = fleet_bad_day(autoscale=False, smoke=smoke)
    assert autoscaled.fleet.chaos == static.fleet.chaos  # same faults, by construction
    assert autoscaled.serving == static.serving
    return {"autoscaled": autoscaled, "static": static}


def run_bad_day(smoke: bool = False) -> dict[str, SimReport]:
    """Run both arms; reports keyed by arm name."""
    return {
        arm: run(scenario, keep_raw=False)
        for arm, scenario in _arms(smoke).items()
    }


def _row(arm: str, r: SimReport) -> list:
    return [
        arm,
        r.completed,
        r.shed,
        f"{r.shed_fraction:.2%}",
        r.lost,
        r.retries,
        f"{r.availability:.2%}",
        r.goodput_rps,
        r.latency_p95_s * 1e3,
        r.usd_per_million_tokens,
        r.mean_time_to_recover_s * 1e3,
    ]


def _format(reports: dict[str, SimReport], smoke: bool) -> str:
    rows = [_row(arm, r) for arm, r in reports.items()]
    return format_table(
        [
            "arm",
            "served",
            "shed",
            "shed %",
            "lost",
            "retries",
            "avail",
            "goodput r/s",
            "p95 ms",
            "$/1Mtok",
            "recover ms",
        ],
        rows,
        title="Bad day: autoscaled vs static fleet under identical faults"
        + (" (smoke)" if smoke else ""),
    )


def _json_payload(reports: dict[str, SimReport], wall_s: float, smoke: bool) -> dict:
    """The ``BENCH_chaos.json`` record.

    Schema keys asserted by CI: ``bench``, ``smoke``, ``arms`` (each with
    ``availability``/``goodput_rps`` > 0), ``autoscaled_availability``,
    ``static_availability``.  Wall time is machine-dependent; the serving
    accounts are the cross-machine-comparable signal.
    """
    return {
        "bench": "chaos",
        "smoke": smoke,
        "wall_s": wall_s,
        "arms": {
            arm: {
                "scenario": r.scenario,
                "completed": r.completed,
                "shed": r.shed,
                "shed_fraction": r.shed_fraction,
                "failures": r.failures,
                "lost": r.lost,
                "retries": r.retries,
                "availability": r.availability,
                "goodput_rps": r.goodput_rps,
                "latency_p95_s": r.latency_p95_s,
                "usd_per_million_tokens": r.usd_per_million_tokens,
                "mean_time_to_recover_s": r.mean_time_to_recover_s,
                "peak_replicas": r.peak_replicas,
            }
            for arm, r in reports.items()
        },
        "autoscaled_availability": reports["autoscaled"].availability,
        "static_availability": reports["static"].availability,
    }


def _check(reports: dict[str, SimReport]) -> None:
    """The invariants CI re-asserts on the committed artefact."""
    auto, static = reports["autoscaled"], reports["static"]
    assert auto.goodput_rps > 0 and static.goodput_rps > 0
    assert auto.availability >= static.availability
    assert auto.failures >= 1  # the bad day actually happened
    assert auto.mean_time_to_recover_s > 0


def test_chaos(benchmark, results_dir):
    from conftest import publish, publish_json

    t0 = time.perf_counter()
    reports = run_bad_day(smoke=True)
    wall_s = time.perf_counter() - t0
    benchmark.pedantic(lambda: run_bad_day(smoke=True), rounds=1, iterations=1)
    _check(reports)
    publish(results_dir, "chaos_smoke", _format(reports, smoke=True))
    publish_json(results_dir, "BENCH_chaos_smoke", _json_payload(reports, wall_s, smoke=True))


def main() -> int:
    import argparse

    from conftest import publish_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized variant of the bad day"
    )
    args = parser.parse_args()

    t0 = time.perf_counter()
    reports = run_bad_day(smoke=args.smoke)
    wall_s = time.perf_counter() - t0
    table = _format(reports, smoke=args.smoke)
    print(table)
    _check(reports)

    results = Path(__file__).parent / "results"
    name = "BENCH_chaos_smoke" if args.smoke else "BENCH_chaos"
    out = publish_json(results, name, _json_payload(reports, wall_s, smoke=args.smoke))
    (results / ("chaos_smoke.txt" if args.smoke else "chaos.txt")).write_text(table + "\n")
    print(f"machine-readable trajectory: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
