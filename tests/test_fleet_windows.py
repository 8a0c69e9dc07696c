"""Multi-admit arrival windows: the tick engine commits whole admit runs.

Between two non-arrival events only an admit changes replica state, so
the tick engine evaluates a run of admits in one speculative array pass
(:mod:`repro.fleet.engine`).  Its correctness is still the oracle's:
these tests hold it to the event engine where admit runs and shed runs
alternate inside one window, pin the jsq water-fill kernel to repeated
:func:`~repro.fleet.router.jsq_select`, and count passes so the engine
cannot silently fall back to one pass per admit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import FleetConfig, ServingConfig
from repro.fleet import engine as tick_engine
from repro.fleet.router import jsq_select, jsq_waterfill
from repro.fleet.simulate import _simulate_fleet_cluster_serving
from repro.obs.recorder import MetricsRecorder, TeeRecorder, TimelineRecorder
from test_fleet_equivalence import CLUSTER, MODEL, ROUTERS, assert_identical


class _ArrivalLog(MetricsRecorder):
    """The enqueue/shed hook stream in call order."""

    def __init__(self) -> None:
        self.calls: list[tuple[object, ...]] = []

    def on_enqueue(self, t_s: float, rid: int, req_id: int) -> None:
        self.calls.append(("enqueue", t_s, rid, req_id))

    def on_shed(self, t_s: float, req_id: int, rid: int | None, reason: str) -> None:
        self.calls.append(("shed", t_s, req_id, rid, reason))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    loads=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    count=st.integers(1, 80),
)
def test_waterfill_matches_repeated_jsq(loads, count):
    base = np.array(loads, dtype=np.int64)
    live = base.copy()
    picks, prior = [], []
    for _ in range(count):
        p = jsq_select(live)
        picks.append(p)
        prior.append(int(live[p] - base[p]))
        live[p] += 1
    pos, got_prior = jsq_waterfill(base, count)
    assert pos.tolist() == picks
    assert got_prior.tolist() == prior


def _run_recorded(serving, fleet, engine):
    timeline, log = TimelineRecorder(), _ArrivalLog()
    result = _simulate_fleet_cluster_serving(
        MODEL,
        CLUSTER,
        serving,
        dataclasses.replace(fleet, engine=engine),
        recorder=TeeRecorder((timeline, log)),
    )
    return result, timeline.timeline(), log.calls


# short budget, fixed examples: the suite stays fast and never flakes
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    num_replicas=st.integers(1, 5),
    router=st.sampled_from(ROUTERS),
    max_queue=st.integers(1, 6),
    slo_ms=st.sampled_from([0.3, 0.6, 1.0, 2.0]),
    rate=st.sampled_from([5_000.0, 20_000.0, 80_000.0]),
    interactive=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 3),
)
def test_multi_admit_windows_match_oracle(
    num_replicas, router, max_queue, slo_ms, rate, interactive, seed
):
    serving = ServingConfig(
        arrival="bursty",
        arrival_rate_rps=rate,
        num_requests=90,
        generate_len=5,
        max_batch_requests=4,
        prompt_len=8,
        seed=seed,
    )
    fleet = FleetConfig(
        num_replicas=num_replicas,
        router=router,
        num_regimes=2,
        slo_ms=slo_ms,
        batch_slo_ms=4 * slo_ms,
        interactive_fraction=interactive,
        max_queue_per_replica=max_queue,
    )
    event, tl_event, log_event = _run_recorded(serving, fleet, "event")
    tick, tl_tick, log_tick = _run_recorded(serving, fleet, "tick")
    assert_identical(event, tick)
    assert tl_tick == tl_event
    assert log_tick == log_event


class _PassCounter:
    """Counts window passes, window calls and arrival-time wake-ups."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.passes = self.calls = self.wakes = 0
        self._inside = False
        cls = tick_engine._TickFleet
        until, window, start = cls._arrivals_until, cls._arrivals_window, cls._start_step

        def counted_until(fleet, bound_t):
            self.calls += 1
            self._inside = True
            try:
                return until(fleet, bound_t)
            finally:
                self._inside = False

        def counted_window(fleet, *args):
            self.passes += 1
            return window(fleet, *args)

        def counted_start(fleet, rid, t):
            self.wakes += self._inside
            return start(fleet, rid, t)

        monkeypatch.setattr(cls, "_arrivals_until", counted_until)
        monkeypatch.setattr(cls, "_arrivals_window", counted_window)
        monkeypatch.setattr(cls, "_start_step", counted_start)


def _admit_to_shed_switches(result) -> int:
    """Adjacent (admitted, shed) pairs in arrival order."""
    outcome = {c.request.req_id: (c.request.arrival_s, True) for c in result.completed}
    outcome.update({s.request.req_id: (s.request.arrival_s, False) for s in result.shed})
    admitted = [a for _, (_, a) in sorted(outcome.items(), key=lambda kv: (kv[1][0], kv[0]))]
    return sum(a and not b for a, b in zip(admitted, admitted[1:]))


def test_one_pass_per_window_not_per_arrival(monkeypatch):
    counter = _PassCounter(monkeypatch)
    result = repro.run("fleet-scale-day-smoke").raw
    assert counter.passes <= (
        counter.calls + counter.wakes + _admit_to_shed_switches(result)
    )


@pytest.mark.parametrize("router", ["jsq", "round-robin"])
def test_pass_count_bounded_under_shedding(monkeypatch, router):
    counter = _PassCounter(monkeypatch)
    overload = ServingConfig(
        arrival_rate_rps=50_000.0,
        num_requests=400,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=3,
    )
    fleet = FleetConfig(
        num_replicas=3,
        router=router,
        num_regimes=2,
        slo_ms=0.5,
        batch_slo_ms=1.0,
        max_queue_per_replica=16,
        engine="tick",
    )
    result = _simulate_fleet_cluster_serving(MODEL, CLUSTER, overload, fleet)
    switches = _admit_to_shed_switches(result)
    assert len(result.shed) > 0 and switches > 0
    assert counter.passes <= counter.calls + counter.wakes + switches
