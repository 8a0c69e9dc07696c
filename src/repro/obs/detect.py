"""Signal-driven fault detection from the recorder hook stream alone.

:class:`SignalDetector` is a :class:`~repro.obs.recorder.MetricsRecorder`
that plays the role of a monitoring frontend: it watches the *benign*
half of the hook stream — enqueue/admit/step/complete, replica lifecycle,
scaling — and infers outages and brownouts the way a real operator would,
without ever reading the chaos channel.  The ground-truth hooks
(``on_preempt``, ``on_fail``, ``on_retry``, ``on_lost``, ``on_recover``)
are deliberately no-ops here: a routed request stays *believed at* its
replica until an observed completion, which is exactly what makes a dead
replica visible (its believed census never drains while the fleet moves
on).

Signals:

* **Completion-gap / queue-stall watchdogs** (outages).  Per replica, an
  EWMA of raw step time sets the expectation of progress; a replica with
  believed work that has produced no admit/step/complete for
  ``gap_factor`` expected steps is declared down — ``completion-gap``
  when it holds an active batch, ``queue-stall`` when work is queued but
  nothing was ever admitted.  The watchdog sweeps on a fleet-wide EWMA
  step cadence, so detection cost is O(replicas) per expected step, not
  per hook.
* **EWMA step-time z-scores** (brownouts).  Per replica, step time is
  normalized by the replica's batch ratio (``max(1, batch/ewma_batch)``,
  so flash-crowd batch growth is not mistaken for slowness), then scored
  against an EWMA mean/variance with a relative floor (the simulator is
  near-deterministic, so raw variance can be ~0).  A run of consecutive
  high-z steps opens an observed brownout; the baselines freeze while one
  is open so the anomaly cannot poison its own reference, and a run of
  near-baseline steps closes it.

Everything is observation-only and deterministic: identical hook streams
produce identical detections in both fleet engines.

:func:`score_against_chaos` grades the detector against the injected
ground truth: per-event detection latency (observed MTTD), precision,
recall, and observed-vs-true MTTR.  A fault that destroyed no in-flight
work is excluded from the observable-event set — it is invisible to
request-level signals by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Mapping, Protocol, Sequence

from repro.chaos.spec import ChaosSpec
from repro.obs.recorder import MetricsRecorder

__all__ = [
    "ObservedBrownout",
    "ObservedOutage",
    "SignalDetector",
    "score_against_chaos",
]


@dataclass(frozen=True)
class ObservedOutage:
    """One replica-down interval as inferred from the benign hook stream.

    ``resolution``: ``replaced`` (a replica boot restored capacity),
    ``resumed`` (the replica produced progress again — the alarm was
    premature or the stall transient), or ``run-end`` (never recovered).
    """

    replica: int
    signal: str
    detected_s: float
    closed_s: float
    resolution: str
    last_progress_s: float

    def to_dict(self) -> dict[str, object]:
        return {
            "replica": self.replica,
            "signal": self.signal,
            "detected_s": self.detected_s,
            "closed_s": self.closed_s,
            "resolution": self.resolution,
            "last_progress_s": self.last_progress_s,
        }


@dataclass(frozen=True)
class ObservedBrownout:
    """One slow-replica interval inferred from step-time z-scores."""

    replica: int
    detected_s: float
    closed_s: float
    resolution: str
    peak_z: float

    def to_dict(self) -> dict[str, object]:
        return {
            "replica": self.replica,
            "detected_s": self.detected_s,
            "closed_s": self.closed_s,
            "resolution": self.resolution,
            "peak_z": self.peak_z,
        }


class _Watch:
    """Per-replica believed state, mirrored from benign hooks only."""

    __slots__ = (
        "rid",
        "state",
        "queue",
        "active",
        "last_progress_s",
        "steps",
        "ewma_raw_s",
        "norm_mean",
        "norm_var",
        "ewma_batch",
        "slow_streak",
        "calm_streak",
        "brownout_open_s",
        "brownout_peak_z",
        "outage_open",
    )

    def __init__(self, rid: int, state: str, t_s: float) -> None:
        self.rid = rid
        self.state = state
        self.queue = 0
        self.active = 0
        self.last_progress_s = t_s
        self.steps = 0
        self.ewma_raw_s: float | None = None
        self.norm_mean: float | None = None
        self.norm_var = 0.0
        self.ewma_batch: float | None = None
        self.slow_streak = 0
        self.calm_streak = 0
        self.brownout_open_s: float | None = None
        self.brownout_peak_z = 0.0
        self.outage_open: tuple[str, float, float] | None = None  # signal, detected_s, last_progress


class SignalDetector(MetricsRecorder):
    """Online outage/brownout detector over the benign hook stream.

    Defaults are tuned to page on a bad day and stay silent on a clean
    one (the Hypothesis false-positive guard holds them to that); every
    threshold is a constructor knob so benchmarks can probe sensitivity.
    ``rel_open=2.5`` sits between the largest legitimate normalized step
    ratio observed on steady traffic (~2.3x baseline, a prefill-heavy
    step) and the mildest injected brownout the chaos presets use (3x).
    """

    def __init__(
        self,
        *,
        ewma_alpha: float = 0.3,
        gap_factor: float = 12.0,
        outage_min_steps: int = 2,
        z_open: float = 6.0,
        rel_open: float = 2.5,
        rel_close: float = 1.25,
        z_floor_frac: float = 0.05,
        brownout_open_streak: int = 3,
        brownout_close_streak: int = 3,
        brownout_min_steps: int = 8,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if not gap_factor > 1.0:
            raise ValueError(f"gap_factor must be > 1, got {gap_factor}")
        if outage_min_steps < 1 or brownout_min_steps < 1:
            raise ValueError("min step counts must be >= 1")
        if brownout_open_streak < 1 or brownout_close_streak < 1:
            raise ValueError("streak lengths must be >= 1")
        if not z_open > 0.0 or not rel_open > 1.0 or not rel_close >= 1.0:
            raise ValueError("z_open must be > 0, rel_open > 1, rel_close >= 1")
        if not z_floor_frac > 0.0:
            raise ValueError(f"z_floor_frac must be > 0, got {z_floor_frac}")
        self._alpha = ewma_alpha
        self._gap_factor = gap_factor
        self._outage_min_steps = outage_min_steps
        self._z_open = z_open
        self._rel_open = rel_open
        self._rel_close = rel_close
        self._z_floor_frac = z_floor_frac
        self._open_streak = brownout_open_streak
        self._close_streak = brownout_close_streak
        self._brownout_min_steps = brownout_min_steps

        self._watches: list[_Watch] = []
        self._now = 0.0
        self._fleet_step_ewma: float | None = None
        self._next_sweep_s: float | None = None
        self._outages: list[ObservedOutage] = []
        self._brownouts: list[ObservedBrownout] = []

    # -- results -----------------------------------------------------------

    @property
    def outages(self) -> tuple[ObservedOutage, ...]:
        return tuple(sorted(self._outages, key=lambda o: (o.detected_s, o.replica)))

    @property
    def brownouts(self) -> tuple[ObservedBrownout, ...]:
        return tuple(sorted(self._brownouts, key=lambda b: (b.detected_s, b.replica)))

    def summary(self) -> dict[str, object]:
        """Observed-side aggregates (JSON-ready, no ground truth needed)."""
        recovered = [o for o in self._outages if o.resolution != "run-end"]
        mttr = [o.closed_s - o.detected_s for o in recovered]
        return {
            "outages": [o.to_dict() for o in self.outages],
            "brownouts": [b.to_dict() for b in self.brownouts],
            "observed_mttr_s": sum(mttr) / len(mttr) if mttr else 0.0,
        }

    # -- internal mechanics ------------------------------------------------

    def _close_outage(self, w: _Watch, t_s: float, resolution: str) -> None:
        if w.outage_open is None:
            return
        signal, detected_s, last_progress_s = w.outage_open
        w.outage_open = None
        self._outages.append(
            ObservedOutage(
                replica=w.rid,
                signal=signal,
                detected_s=detected_s,
                closed_s=max(t_s, detected_s),
                resolution=resolution,
                last_progress_s=last_progress_s,
            )
        )

    def _close_brownout(self, w: _Watch, t_s: float, resolution: str) -> None:
        if w.brownout_open_s is None:
            return
        self._brownouts.append(
            ObservedBrownout(
                replica=w.rid,
                detected_s=w.brownout_open_s,
                closed_s=max(t_s, w.brownout_open_s),
                resolution=resolution,
                peak_z=w.brownout_peak_z,
            )
        )
        w.brownout_open_s = None
        w.brownout_peak_z = 0.0

    def _progress(self, w: _Watch, t_s: float) -> None:
        w.last_progress_s = t_s
        if w.state == "written-off":
            # a replica we had given up on is demonstrably alive again
            w.state = "running"
        if w.outage_open is not None:
            self._close_outage(w, t_s, "resumed")

    def _sweep(self, t_s: float) -> None:
        for w in self._watches:
            if w.state not in ("running", "draining"):
                continue
            if w.outage_open is not None or w.steps < self._outage_min_steps:
                continue
            expect_s = w.ewma_raw_s
            if expect_s is None or not expect_s > 0.0:
                continue
            if w.active <= 0 and w.queue <= 0:
                continue
            if t_s - w.last_progress_s > self._gap_factor * expect_s:
                signal = "completion-gap" if w.active > 0 else "queue-stall"
                w.outage_open = (signal, t_s, w.last_progress_s)

    def _tick(self, t_s: float) -> None:
        """Advance the detector's clock; sweep on the fleet step cadence."""
        if t_s > self._now:
            self._now = t_s
        step_s = self._fleet_step_ewma
        if step_s is None or not step_s > 0.0:
            return
        if self._next_sweep_s is None:
            self._next_sweep_s = t_s + step_s
        elif t_s >= self._next_sweep_s:
            self._sweep(t_s)
            self._next_sweep_s = t_s + step_s

    # -- MetricsRecorder hooks (benign channel) ----------------------------

    def on_run_start(self, t_s: float, meta: Mapping[str, float]) -> None:
        self._now = t_s

    def on_replica_start(
        self, t_s: float, rid: int, regime: int, booting: bool, ready_s: float, billed_from_s: float
    ) -> None:
        self._tick(t_s)
        if rid != len(self._watches):
            raise ValueError(f"replica ids must arrive densely; got {rid}, expected {len(self._watches)}")
        self._watches.append(_Watch(rid, "booting" if booting else "running", max(t_s, ready_s)))

    def on_boot_ready(self, t_s: float, rid: int) -> None:
        self._tick(t_s)
        w = self._watches[rid]
        w.state = "running"
        w.last_progress_s = t_s
        # one replica's worth of capacity came back: the oldest believed
        # outage is considered replaced
        open_watches = [x for x in self._watches if x.outage_open is not None]
        if open_watches:
            oldest = min(open_watches, key=lambda x: (x.outage_open or ("", 0.0, 0.0))[1])
            self._close_outage(oldest, t_s, "replaced")
            # write the replaced replica off: its believed census still
            # holds the work that died with it, and re-alarming on that
            # phantom forever would page repeatedly for one incident.  Any
            # observed progress revives the watch (see ``_progress``).
            oldest.state = "written-off"

    def on_drain(self, t_s: float, rid: int) -> None:
        self._tick(t_s)
        self._watches[rid].state = "draining"

    def on_stop(self, t_s: float, rid: int) -> None:
        self._tick(t_s)
        w = self._watches[rid]
        w.state = "stopped"
        self._close_outage(w, t_s, "resumed")
        self._close_brownout(w, t_s, "cleared")

    def on_enqueue(self, t_s: float, rid: int, req_id: int) -> None:
        self._tick(t_s)
        self._watches[rid].queue += 1

    def on_requeue(self, t_s: float, rid: int, count: int) -> None:
        self._tick(t_s)
        self._watches[rid].queue -= count

    def on_shed(self, t_s: float, req_id: int, rid: int | None, reason: str) -> None:
        self._tick(t_s)

    def on_admit(self, t_s: float, rid: int, req_ids: Sequence[int], admission_s: float) -> None:
        self._tick(t_s)
        w = self._watches[rid]
        n = len(req_ids)
        w.queue -= n
        w.active += n
        self._progress(w, t_s)

    def on_step_end(self, t_s: float, rid: int, step_s: float, batch: int) -> None:
        self._tick(t_s)
        w = self._watches[rid]
        w.steps += 1
        self._progress(w, t_s)
        a = self._alpha
        self._fleet_step_ewma = (
            step_s
            if self._fleet_step_ewma is None
            else (1.0 - a) * self._fleet_step_ewma + a * step_s
        )
        if w.ewma_raw_s is None:
            w.ewma_raw_s = step_s
        elif w.brownout_open_s is None:
            w.ewma_raw_s = (1.0 - a) * w.ewma_raw_s + a * step_s
        # normalized step cost: batch growth is expected to slow steps,
        # batch shrink is not expected to speed them past the baseline
        if w.ewma_batch is None or not w.ewma_batch > 0.0:
            scale = 1.0
        else:
            scale = max(1.0, float(batch) / w.ewma_batch)
        x = step_s / scale
        if w.norm_mean is None:
            w.norm_mean = x
            w.norm_var = 0.0
            w.ewma_batch = float(batch)
            return
        mean = w.norm_mean
        floor = self._z_floor_frac * mean
        z = (x - mean) / math.sqrt(w.norm_var + floor * floor) if mean > 0.0 else 0.0
        slow = w.steps > self._brownout_min_steps and x > self._rel_open * mean and z > self._z_open
        calm = x <= self._rel_close * mean
        if w.brownout_open_s is None:
            if slow:
                # anomalous step: keep it out of the baselines so the
                # anomaly cannot normalize itself away mid-streak
                w.slow_streak += 1
                if w.slow_streak >= self._open_streak:
                    w.brownout_open_s = t_s
                    w.brownout_peak_z = z
                    w.slow_streak = 0
                    w.calm_streak = 0
            else:
                w.slow_streak = 0
                delta = x - mean
                w.norm_mean = mean + a * delta
                w.norm_var = (1.0 - a) * (w.norm_var + a * delta * delta)
                w.ewma_batch = (1.0 - a) * w.ewma_batch + a * float(batch)
        else:
            w.brownout_peak_z = max(w.brownout_peak_z, z)
            w.calm_streak = w.calm_streak + 1 if calm else 0
            if w.calm_streak >= self._close_streak:
                self._close_brownout(w, t_s, "cleared")
                w.calm_streak = 0

    def on_complete(
        self, t_s: float, rid: int, req_id: int, arrival_s: float, admitted_s: float, tokens: int
    ) -> None:
        self._tick(t_s)
        w = self._watches[rid]
        w.active -= 1
        self._progress(w, t_s)

    def on_scale(
        self,
        t_s: float,
        direction: str,
        queue_per_replica: float,
        replicas_before: int,
        replicas_after: int,
        cold_start_s: float,
    ) -> None:
        self._tick(t_s)

    # -- chaos-channel hooks (on_preempt, on_fail, on_retry, on_lost,
    # on_recover): deliberately blind, inherited as no-ops.  The detector
    # must infer faults from request-level signals; reading any of them
    # would be telling it the answer.

    def on_run_end(self, t_s: float) -> None:
        self._tick(t_s)
        for w in self._watches:
            self._close_outage(w, t_s, "run-end")
            self._close_brownout(w, t_s, "run-end")


class FailureLike(Protocol):
    """The ground-truth failure fields the scorer reads (duck-typed so
    :mod:`repro.obs` never imports :mod:`repro.fleet`)."""

    @property
    def time_s(self) -> float: ...

    @property
    def replica_id(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def lost_active(self) -> int: ...

    @property
    def lost_queued(self) -> int: ...

    @property
    def recovered_at_s(self) -> float | None: ...


def _latency_stats(latencies: Sequence[float]) -> dict[str, float]:
    if not latencies:
        return {"median_s": 0.0, "mean_s": 0.0, "max_s": 0.0}
    return {
        "median_s": float(median(latencies)),
        "mean_s": sum(latencies) / len(latencies),
        "max_s": max(latencies),
    }


def score_against_chaos(
    *,
    outages: Sequence[ObservedOutage],
    brownouts: Sequence[ObservedBrownout],
    failures: Sequence[FailureLike],
    chaos: ChaosSpec | None,
) -> dict[str, object]:
    """Grade observed detections against the injected ground truth.

    Outages: an injected failure is *observable* when it destroyed work
    (``lost_active + lost_queued > 0``); it counts as detected when an
    observed outage on the same replica opens at or after the fault time,
    each detection matching at most one fault.  Brownouts match on
    replica + interval overlap with the injected window.  Precision uses
    all observed events; recall uses observable ground-truth events.
    """
    observable = [f for f in failures if f.lost_active + f.lost_queued > 0]
    detections = sorted(outages, key=lambda o: (o.detected_s, o.replica))
    used = [False] * len(detections)
    latencies: list[float] = []
    matched = 0
    for f in sorted(observable, key=lambda f: (f.time_s, f.replica_id)):
        for i, o in enumerate(detections):
            if used[i] or o.replica != f.replica_id or o.detected_s < f.time_s:
                continue
            used[i] = True
            matched += 1
            latencies.append(o.detected_s - f.time_s)
            break

    true_windows = list(chaos.brownouts) if chaos is not None else []
    b_used = [False] * len(brownouts)
    b_latencies: list[float] = []
    b_matched = 0
    for spec in sorted(true_windows, key=lambda b: (b.start_s, b.replica)):
        end_s = spec.start_s + spec.duration_s
        for i, b in enumerate(brownouts):
            if b_used[i] or b.replica != spec.replica:
                continue
            if b.detected_s < end_s and b.closed_s > spec.start_s:
                b_used[i] = True
                b_matched += 1
                b_latencies.append(max(0.0, b.detected_s - spec.start_s))
                break

    recovered = [f for f in observable if f.recovered_at_s is not None]
    true_mttr = [float(f.recovered_at_s or 0.0) - f.time_s for f in recovered]
    obs_recovered = [o for o in outages if o.resolution != "run-end"]
    obs_mttr = [o.closed_s - o.detected_s for o in obs_recovered]
    return {
        "outages": {
            "true_events": len(failures),
            "observable_events": len(observable),
            "detected": matched,
            "observed_events": len(outages),
            "false_alarms": len(detections) - matched,
            "recall": matched / len(observable) if observable else 1.0,
            "precision": matched / len(detections) if detections else 1.0,
            "detection_latency": _latency_stats(latencies),
            "observed_mttr_s": sum(obs_mttr) / len(obs_mttr) if obs_mttr else 0.0,
            "true_mttr_s": sum(true_mttr) / len(true_mttr) if true_mttr else 0.0,
        },
        "brownouts": {
            "true_events": len(true_windows),
            "detected": b_matched,
            "observed_events": len(brownouts),
            "false_alarms": len(brownouts) - b_matched,
            "recall": b_matched / len(true_windows) if true_windows else 1.0,
            "precision": b_matched / len(brownouts) if brownouts else 1.0,
            "detection_latency": _latency_stats(b_latencies),
        },
    }
