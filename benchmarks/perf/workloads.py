"""The benchmark's workloads: benchmark seed -> the Scenarios one operation runs.

Every workload is derived from registered presets with
``dataclasses.replace``; the simulator only ever sees the generated
Scenarios.  The benchmark seed is added to each preset's own seed, so seed
0 keeps every preset's seed layout.  Sizes are cut so that about ten
operations fit into one timed run.  ``smoke=True`` swaps in the registered
``-smoke`` presets, unmodified, for the harness self-test.

Why these four (README.md has the layer map):

* ``fleet-day``: tick engine, autoscaled JSQ fleet, diurnal regime mix.
  The only workload where request set-up, routing and admission cost
  anything.
* ``slo-watch``: event-engine oracle with a recorder, the SLO detector and
  Chrome-trace/OpenMetrics export.  Many tiny priced steps; the only
  workload with observability work, and it bypasses the tick engine.
* ``drift-online``: the single-replica online loop with the streaming
  estimator and local-search re-solves.  Poisson arrivals: with the
  preset's bursty ones, the decode-step count of an arm moved by 2x from
  seed to seed.
* ``paper-grid``: the Fig 10 batch comparison.  Few large sampling calls
  and the batched executor; it bypasses every serving loop.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro import Scenario, SloSpec, TelemetrySpec, get_scenario
from repro.scenarios.registry import fig10_panel

#: fleet-scale-day's 1M-request day cut to one operation
FLEET_DAY_REQUESTS = 10_000
#: fleet-steady-day-smoke's clean arm cut to the bad day's cost
STEADY_DAY_REQUESTS = 300
#: requests per fig15 drift arm
DRIFT_REQUESTS = 200

#: the paper's seven Fig 10 panels: (model key, GPU counts)
PANELS = (
    ("gpt-m-350m-e8", (4, 8)),
    ("gpt-m-350m-e16", (4, 8, 16)),
    ("gpt-m-350m-e32", (8, 16, 32)),
    ("gpt-m-350m-e64", (8, 16, 32, 64)),
    ("gpt-m-470m-e32", (8, 16, 32)),
    ("gpt-m-590m-e32", (8, 16, 32)),
    ("gpt-xl-1.3b-e16", (8, 16)),
)


def _serving(preset: str, seed: int, **changes: object) -> Scenario:
    """``preset`` with ``seed`` added to its serving seed, plus ``changes``."""
    s = get_scenario(preset)
    serving = dataclasses.replace(s.serving, seed=s.serving.seed + seed, **changes)
    return dataclasses.replace(s, serving=serving)


def fleet_day(seed: int, smoke: bool) -> list[Scenario]:
    if smoke:
        return [_serving("fleet-scale-day-smoke", seed)]
    return [_serving("fleet-scale-day", seed, num_requests=FLEET_DAY_REQUESTS)]


def slo_watch(seed: int, smoke: bool) -> list[Scenario]:
    size = {} if smoke else {"num_requests": STEADY_DAY_REQUESTS}
    steady = _serving("fleet-steady-day-smoke", seed, **size)
    bad = _serving("fleet-bad-day-smoke", seed)
    return [steady, dataclasses.replace(bad, telemetry=TelemetrySpec(slo=SloSpec()))]


def drift_online(seed: int, smoke: bool) -> list[Scenario]:
    arms = ("gradual", "abrupt", "diurnal")
    if smoke:
        return [_serving(f"fig15-{d}-smoke", seed) for d in arms]
    return [
        _serving(f"fig15-{d}", seed, num_requests=DRIFT_REQUESTS, arrival="poisson")
        for d in arms
    ]


def paper_grid(seed: int, smoke: bool) -> list[Scenario]:
    if smoke:
        presets = ("fig10-end-to-end-smoke", "fig10-xl-smoke", "fig10-single-node-smoke")
        return [
            dataclasses.replace(s, seed=s.seed + 1000 * seed)
            for s in map(get_scenario, presets)
        ]
    # seed 0 gives each panel the registered presets' seed, its GPU count
    return [
        dataclasses.replace(fig10_panel(key, gpus), seed=gpus + 1000 * seed)
        for key, gpu_counts in PANELS
        for gpus in gpu_counts
    ]


WORKLOADS: dict[str, Callable[[int, bool], list[Scenario]]] = {
    "fleet-day": fleet_day,
    "slo-watch": slo_watch,
    "drift-online": drift_online,
    "paper-grid": paper_grid,
}
