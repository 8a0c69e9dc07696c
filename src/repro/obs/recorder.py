"""Metric recorders: the engine hook surface and the timeline sampler.

The simulators expose a small set of lifecycle hooks (arrival shed,
enqueue, admit, step end, completion, online re-placement, replica
boot/drain/stop, autoscale decisions, chaos faults).
:class:`MetricsRecorder` declares them once, as typed no-ops, and
:data:`HOOKS` lists their names; a recorder subclasses it and overrides
the hooks it cares about.  The engines only ever *call*
a recorder — recording is observation-only by contract, so a recorder
must never draw rng samples or alter float evaluation order (see
``DESIGN.md`` "Observability").  Both fleet engines call the same hooks
with the same arguments in the same order, which is what makes the
recorded streams — and therefore the timelines — bit-identical between
the event-heap oracle and the vectorized tick engine.  Engines skip hook
dispatch entirely when no recorder is attached; a bare
``MetricsRecorder()`` is the always-valid recorder that records nothing.

:class:`TimelineRecorder` folds the hook stream into:

* per-window time-series (queue depth, active batch, busy time, shed /
  admit / completion counts, rolling latency, replica census, cumulative
  cost) with a deterministic auto-sizing window: it starts tiny and
  doubles — pair-merging closed windows — whenever the horizon outgrows
  ``2 * max_windows`` windows, so memory is bounded without knowing the
  horizon up front and identical hook streams always produce identical
  timelines;
* bounded span logs (decode steps, replica boot/drain, request
  queue/decode lifecycles, shed instants, scale events) that
  :mod:`repro.obs.trace` turns into Chrome-trace JSON.

:class:`TeeRecorder` fans one hook stream out to several recorders.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.config import ClusterConfig

if TYPE_CHECKING:
    from repro.core.online import ReplacementEvent
    from repro.core.placement.base import Placement

__all__ = ["HOOKS", "MetricsRecorder", "TeeRecorder", "TimelineRecorder", "run_meta"]

#: Initial auto window width (seconds).  Tiny on purpose: the recorder
#: doubles it as the simulated horizon grows, so the final width is
#: always within 2x of ``horizon / max_windows`` regardless of scale.
_AUTO_WINDOW0_S = 2.0**-20


class MetricsRecorder:
    """Hook surface the simulators drive.  All times are simulated seconds.

    Every hook is a no-op here, so ``MetricsRecorder()`` records nothing
    and a subclass overrides only the hooks it reads.
    """

    def on_run_start(self, t_s: float, meta: Mapping[str, float]) -> None:
        """Run begins at ``t_s`` (first arrival).  ``meta`` carries cost
        constants (``num_gpus`` per replica, ``gpu_hour_usd``) when known;
        see :func:`run_meta`."""

    def on_replica_start(
        self, t_s: float, rid: int, regime: int, booting: bool, ready_s: float, billed_from_s: float
    ) -> None:
        """Replica ``rid`` exists from ``t_s``; routable at ``ready_s``."""

    def on_boot_ready(self, t_s: float, rid: int) -> None:
        """Booting replica ``rid`` became routable."""

    def on_drain(self, t_s: float, rid: int) -> None:
        """Replica ``rid`` stopped taking new work and is draining."""

    def on_stop(self, t_s: float, rid: int) -> None:
        """Replica ``rid`` stopped (and stopped billing)."""

    def on_enqueue(self, t_s: float, rid: int, req_id: int) -> None:
        """``req_id`` joined replica ``rid``'s queue."""

    def on_requeue(self, t_s: float, rid: int, count: int) -> None:
        """``count`` queued requests left replica ``rid`` (migration)."""

    def on_shed(self, t_s: float, req_id: int, rid: int | None, reason: str) -> None:
        """``req_id`` was refused (``rid`` is ``None`` when no replica was chosen)."""

    def on_admit(
        self, t_s: float, rid: int, req_ids: Sequence[int], admission_s: float
    ) -> None:
        """``req_ids`` joined replica ``rid``'s decode batch, costing ``admission_s``."""

    def on_step_end(self, t_s: float, rid: int, step_s: float, batch: int) -> None:
        """Replica ``rid`` finished a ``step_s``-long decode step over ``batch`` requests."""

    def on_complete(
        self, t_s: float, rid: int, req_id: int, arrival_s: float, admitted_s: float, tokens: int
    ) -> None:
        """``req_id`` generated its last token on replica ``rid``."""

    def on_replace(
        self, t_s: float, rid: int, placement: Placement, event: ReplacementEvent
    ) -> None:
        """Replica ``rid`` migrated to ``placement`` at ``t_s``; it resumes
        stepping after the ``event.stall_s`` migration stall."""

    def on_scale(
        self,
        t_s: float,
        direction: str,
        queue_per_replica: float,
        replicas_before: int,
        replicas_after: int,
        cold_start_s: float,
    ) -> None:
        """The autoscaler decided to scale ``direction`` (``up``/``down``)."""

    def on_preempt(self, t_s: float, rid: int, grace_s: float) -> None:
        """Replica ``rid`` received a preemption notice; drains for ``grace_s``."""

    def on_fail(
        self, t_s: float, rid: int, kind: str, lost_active: int, lost_queued: int
    ) -> None:
        """Replica ``rid`` failed hard (``kind``: crash/preempt), losing work."""

    def on_retry(
        self, t_s: float, req_id: int, rid: int, attempt: int, delay_s: float, was_active: bool
    ) -> None:
        """Attempt ``attempt`` of ``req_id`` died on ``rid``; re-enters routing
        after ``delay_s``.  ``was_active``: decoding (vs still queued)."""

    def on_lost(
        self, t_s: float, req_id: int, rid: int, attempts: int, reason: str, was_active: bool
    ) -> None:
        """``req_id`` exhausted its retry budget and is terminally lost."""

    def on_recover(self, t_s: float, rid: int, for_rid: int, cold_start_s: float) -> None:
        """Replacement replica ``rid`` went routable, recovering failed ``for_rid``."""

    def on_run_end(self, t_s: float) -> None:
        """The run ended at ``t_s``; no hook follows."""


#: Every hook name, in declaration order — the one list of the hook surface.
HOOKS: tuple[str, ...] = tuple(n for n in vars(MetricsRecorder) if n.startswith("on_"))


def run_meta(cluster: ClusterConfig) -> dict[str, float]:
    """The ``on_run_start`` meta for replicas of ``cluster``: the cost
    constants a recorder needs to price the run."""
    return {"num_gpus": float(cluster.num_gpus), "gpu_hour_usd": float(cluster.gpu_hour_usd)}


class _ReplicaTrack:
    """Live mirror of one replica's externally-visible counters."""

    __slots__ = (
        "rid",
        "regime",
        "state",
        "ready_s",
        "billed_from_s",
        "stopped_s",
        "drain_from_s",
        "queue",
        "active",
        "busy_s",
        "steps",
        "admitted",
        "completed",
        "tokens",
    )

    def __init__(self, rid: int, regime: int, state: str, ready_s: float, billed_from_s: float):
        self.rid = rid
        self.regime = regime
        self.state = state
        self.ready_s = ready_s
        self.billed_from_s = billed_from_s
        self.stopped_s: float | None = None
        self.drain_from_s: float | None = None
        self.queue = 0
        self.active = 0
        self.busy_s = 0.0
        self.steps = 0
        self.admitted = 0
        self.completed = 0
        self.tokens = 0


class TimelineRecorder(MetricsRecorder):
    """Folds the hook stream into per-window time-series and span logs.

    Single-use: attach one instance per simulation run.  ``window_s``
    pins the window width exactly (memory then grows with the horizon);
    leaving it ``None`` enables the deterministic doubling scheme, which
    keeps between ``max_windows`` and ``2 * max_windows`` windows alive.
    ``spans=False`` drops all span/instant logging (timelines only);
    ``max_span_events`` bounds total span memory — once exhausted,
    further span events are counted in ``dropped_span_events`` but not
    stored.  Scale events are always kept (there are few by construction).
    ``slow_latency_s`` adds a per-window count of completions slower than
    the threshold (the SLO burn evaluator's latency error signal); left
    ``None``, the ``slow`` column is all zeros.
    """

    def __init__(
        self,
        *,
        window_s: float | None = None,
        max_windows: int = 128,
        spans: bool = True,
        max_span_events: int = 20_000,
        slow_latency_s: float | None = None,
    ) -> None:
        if window_s is not None and not window_s > 0.0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if max_windows < 2:
            raise ValueError(f"max_windows must be >= 2, got {max_windows}")
        if max_span_events < 0:
            raise ValueError(f"max_span_events must be >= 0, got {max_span_events}")
        if slow_latency_s is not None and not slow_latency_s > 0.0:
            raise ValueError(f"slow_latency_s must be > 0, got {slow_latency_s}")
        self._slow_latency_s = slow_latency_s
        self._explicit_window = window_s
        self._window_s = window_s if window_s is not None else _AUTO_WINDOW0_S
        self._max_windows = max_windows
        self._spans = spans
        self._max_span_events = max_span_events

        self._t0: float | None = None
        self._t_end: float | None = None
        self._meta: dict[str, float] = {}
        self._reps: list[_ReplicaTrack] = []

        # closed-boundary snapshot columns (one entry per emitted boundary)
        self._b_t: list[float] = []
        self._b_queue: list[list[int]] = []
        self._b_active: list[list[int]] = []
        self._b_busy: list[list[float]] = []
        self._b_routable: list[int] = []
        self._b_booting: list[int] = []
        self._b_draining: list[int] = []
        self._b_failed: list[int] = []
        self._b_cost: list[float] = []
        self._b_cum_admitted: list[int] = []
        self._b_cum_completed: list[int] = []
        self._b_cum_shed: list[int] = []

        # closed-window counters (parallel to the boundary columns)
        self._w_admitted: list[int] = []
        self._w_completed: list[int] = []
        self._w_shed: list[int] = []
        self._w_lost: list[int] = []
        self._w_slow: list[int] = []
        self._w_lat_sum: list[float] = []
        self._w_lat_max: list[float] = []

        # open-window accumulators
        self._win_admitted = 0
        self._win_completed = 0
        self._win_shed = 0
        self._win_lost = 0
        self._win_slow = 0
        self._win_lat_sum = 0.0
        self._win_lat_max = 0.0

        # cumulative totals
        self._cum_admitted = 0
        self._cum_completed = 0
        self._cum_shed = 0
        self._cum_failures = 0
        self._cum_retries = 0
        self._cum_lost = 0
        self._cum_slow = 0

        # span logs (consumed by repro.obs.trace)
        self._span_steps: list[tuple[int, float, float, int]] = []  # rid, start_s, dur_s, batch
        self._span_boots: list[tuple[int, float, float]] = []  # rid, start_s, dur_s
        self._span_drains: list[tuple[int, float, float]] = []
        self._span_queue: list[tuple[int, int, float, float]] = []  # req, rid, start_s, dur_s
        self._span_decode: list[tuple[int, int, float, float]] = []
        self._span_sheds: list[tuple[float, int, int, str]] = []  # t_s, req, rid(-1=none), reason
        self._scale_events: list[tuple[float, str, float, int, int, float]] = []
        # chaos span logs: preempt/fail/retry/lost instants + outage windows
        self._span_preempts: list[tuple[float, int, float]] = []  # t_s, rid, grace_s
        self._span_fails: list[tuple[float, int, str, int, int]] = []  # t, rid, kind, act, q
        self._span_retries: list[tuple[float, int, int, int, float]] = []  # t, req, rid, n, delay
        self._span_losts: list[tuple[float, int, int, int, str]] = []  # t, req, rid, n, reason
        self._span_outages: list[tuple[int, float, float]] = []  # rid, start_s, dur_s
        self._open_outage: dict[int, float] = {}
        self._open_queue: dict[int, float] = {}
        self._open_decode: dict[int, tuple[float, int]] = {}
        self._span_used = 0
        self.dropped_span_events = 0

    # -- properties used by trace export / report printing ----------------

    @property
    def t0_s(self) -> float:
        return self._t0 if self._t0 is not None else 0.0

    @property
    def t_end_s(self) -> float:
        if self._t_end is not None:
            return self._t_end
        return self._b_t[-1] if self._b_t else self.t0_s

    @property
    def window_s(self) -> float:
        return self._window_s

    @property
    def num_replicas(self) -> int:
        return len(self._reps)

    @property
    def slow_latency_s(self) -> float | None:
        """The slow-completion threshold, or ``None`` when the ``slow``
        column is disabled (all zeros)."""
        return self._slow_latency_s

    # -- internal mechanics ------------------------------------------------

    def _take_span_budget(self) -> bool:
        if not self._spans:
            return False
        if self._span_used < self._max_span_events:
            self._span_used += 1
            return True
        self.dropped_span_events += 1
        return False

    def _cost_usd_at(self, b_s: float) -> float:
        gpus = self._meta.get("num_gpus", 0.0)
        usd_hour = self._meta.get("gpu_hour_usd", 0.0)
        if gpus <= 0.0 or usd_hour <= 0.0:
            return 0.0
        hours = 0.0
        for r in self._reps:
            stop_s = r.stopped_s if r.stopped_s is not None else b_s
            hours += max(0.0, min(b_s, stop_s) - r.billed_from_s)
        return hours * gpus * usd_hour / 3600.0

    def _emit_boundary(self, b_s: float) -> None:
        reps = self._reps
        self._b_t.append(b_s)
        self._b_queue.append([r.queue for r in reps])
        self._b_active.append([r.active for r in reps])
        self._b_busy.append([r.busy_s for r in reps])
        self._b_routable.append(sum(1 for r in reps if r.state == "running"))
        self._b_booting.append(sum(1 for r in reps if r.state == "booting"))
        self._b_draining.append(sum(1 for r in reps if r.state == "draining"))
        self._b_failed.append(sum(1 for r in reps if r.state == "failed"))
        self._b_cost.append(self._cost_usd_at(b_s))
        self._b_cum_admitted.append(self._cum_admitted)
        self._b_cum_completed.append(self._cum_completed)
        self._b_cum_shed.append(self._cum_shed)
        self._w_admitted.append(self._win_admitted)
        self._w_completed.append(self._win_completed)
        self._w_shed.append(self._win_shed)
        self._w_lost.append(self._win_lost)
        self._w_slow.append(self._win_slow)
        self._w_lat_sum.append(self._win_lat_sum)
        self._w_lat_max.append(self._win_lat_max)
        self._win_admitted = 0
        self._win_completed = 0
        self._win_shed = 0
        self._win_lost = 0
        self._win_slow = 0
        self._win_lat_sum = 0.0
        self._win_lat_max = 0.0

    def _double_window(self) -> None:
        """Double the window width, pair-merging already-closed windows."""
        if len(self._b_t) % 2:
            # fold the dangling newest sample back into the open window;
            # its snapshot is discarded (snapshots are instantaneous)
            self._b_t.pop()
            self._b_queue.pop()
            self._b_active.pop()
            self._b_busy.pop()
            self._b_routable.pop()
            self._b_booting.pop()
            self._b_draining.pop()
            self._b_failed.pop()
            self._b_cost.pop()
            self._b_cum_admitted.pop()
            self._b_cum_completed.pop()
            self._b_cum_shed.pop()
            self._win_admitted += self._w_admitted.pop()
            self._win_completed += self._w_completed.pop()
            self._win_shed += self._w_shed.pop()
            self._win_lost += self._w_lost.pop()
            self._win_slow += self._w_slow.pop()
            self._win_lat_sum += self._w_lat_sum.pop()
            self._win_lat_max = max(self._win_lat_max, self._w_lat_max.pop())
        # keep every second boundary (they sit on the doubled grid) ...
        self._b_t = self._b_t[1::2]
        self._b_queue = self._b_queue[1::2]
        self._b_active = self._b_active[1::2]
        self._b_busy = self._b_busy[1::2]
        self._b_routable = self._b_routable[1::2]
        self._b_booting = self._b_booting[1::2]
        self._b_draining = self._b_draining[1::2]
        self._b_failed = self._b_failed[1::2]
        self._b_cost = self._b_cost[1::2]
        self._b_cum_admitted = self._b_cum_admitted[1::2]
        self._b_cum_completed = self._b_cum_completed[1::2]
        self._b_cum_shed = self._b_cum_shed[1::2]
        # ... and pair-sum the closed windows
        self._w_admitted = [
            a + b for a, b in zip(self._w_admitted[0::2], self._w_admitted[1::2], strict=True)
        ]
        self._w_completed = [
            a + b for a, b in zip(self._w_completed[0::2], self._w_completed[1::2], strict=True)
        ]
        self._w_shed = [a + b for a, b in zip(self._w_shed[0::2], self._w_shed[1::2], strict=True)]
        self._w_lost = [a + b for a, b in zip(self._w_lost[0::2], self._w_lost[1::2], strict=True)]
        self._w_slow = [a + b for a, b in zip(self._w_slow[0::2], self._w_slow[1::2], strict=True)]
        self._w_lat_sum = [
            a + b for a, b in zip(self._w_lat_sum[0::2], self._w_lat_sum[1::2], strict=True)
        ]
        self._w_lat_max = [
            max(a, b) for a, b in zip(self._w_lat_max[0::2], self._w_lat_max[1::2], strict=True)
        ]
        self._window_s *= 2.0

    def _flush(self, t_s: float) -> None:
        """Close every window boundary strictly before ``t_s``."""
        t0 = self._t0
        if t0 is None:
            raise RuntimeError("on_run_start must be called before any other hook")
        if self._explicit_window is None:
            while t_s - t0 > 2.0 * self._max_windows * self._window_s:
                self._double_window()
        while t0 + (len(self._b_t) + 1) * self._window_s < t_s:
            self._emit_boundary(t0 + (len(self._b_t) + 1) * self._window_s)

    # -- MetricsRecorder hooks ---------------------------------------------

    def on_run_start(self, t_s: float, meta: Mapping[str, float]) -> None:
        if self._t0 is not None:
            raise RuntimeError("TimelineRecorder is single-use; already attached to a run")
        self._t0 = t_s
        self._meta = dict(meta)

    def on_replica_start(
        self, t_s: float, rid: int, regime: int, booting: bool, ready_s: float, billed_from_s: float
    ) -> None:
        self._flush(t_s)
        if rid != len(self._reps):
            raise ValueError(f"replica ids must arrive densely; got {rid}, expected {len(self._reps)}")
        state = "booting" if booting else "running"
        self._reps.append(_ReplicaTrack(rid, regime, state, ready_s, billed_from_s))
        if booting and self._take_span_budget():
            self._span_boots.append((rid, t_s, max(0.0, ready_s - t_s)))

    def on_boot_ready(self, t_s: float, rid: int) -> None:
        self._flush(t_s)
        self._reps[rid].state = "running"

    def on_drain(self, t_s: float, rid: int) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.state = "draining"
        r.drain_from_s = t_s

    def on_stop(self, t_s: float, rid: int) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.state = "stopped"
        r.stopped_s = t_s
        if r.drain_from_s is not None and self._take_span_budget():
            self._span_drains.append((rid, r.drain_from_s, t_s - r.drain_from_s))
            r.drain_from_s = None

    def on_enqueue(self, t_s: float, rid: int, req_id: int) -> None:
        self._flush(t_s)
        self._reps[rid].queue += 1
        # a migrated request keeps its original enqueue time (still waiting)
        if self._spans and req_id not in self._open_queue:
            self._open_queue[req_id] = t_s

    def on_requeue(self, t_s: float, rid: int, count: int) -> None:
        self._flush(t_s)
        self._reps[rid].queue -= count

    def on_shed(self, t_s: float, req_id: int, rid: int | None, reason: str) -> None:
        self._flush(t_s)
        self._cum_shed += 1
        self._win_shed += 1
        if self._take_span_budget():
            self._span_sheds.append((t_s, req_id, -1 if rid is None else rid, reason))

    def on_admit(self, t_s: float, rid: int, req_ids: Sequence[int], admission_s: float) -> None:
        self._flush(t_s)
        n = len(req_ids)
        r = self._reps[rid]
        r.queue -= n
        r.active += n
        r.busy_s += admission_s
        r.admitted += n
        self._cum_admitted += n
        self._win_admitted += n
        if self._spans:
            for req_id in req_ids:
                start_s = self._open_queue.pop(req_id, None)
                if start_s is not None and self._take_span_budget():
                    self._span_queue.append((req_id, rid, start_s, t_s - start_s))
                if self._take_span_budget():
                    self._open_decode[req_id] = (t_s, rid)

    def on_step_end(self, t_s: float, rid: int, step_s: float, batch: int) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.busy_s += step_s
        r.steps += 1
        if self._take_span_budget():
            self._span_steps.append((rid, t_s - step_s, step_s, batch))

    def on_complete(
        self, t_s: float, rid: int, req_id: int, arrival_s: float, admitted_s: float, tokens: int
    ) -> None:
        self._flush(t_s)
        latency_s = t_s - arrival_s
        self._cum_completed += 1
        self._win_completed += 1
        self._win_lat_sum += latency_s
        self._win_lat_max = max(self._win_lat_max, latency_s)
        if self._slow_latency_s is not None and latency_s > self._slow_latency_s:
            self._cum_slow += 1
            self._win_slow += 1
        r = self._reps[rid]
        r.active -= 1
        r.completed += 1
        r.tokens += tokens
        if self._spans:
            opened = self._open_decode.pop(req_id, None)
            if opened is not None:
                start_s, _ = opened
                self._span_decode.append((req_id, rid, start_s, t_s - start_s))

    def on_scale(
        self,
        t_s: float,
        direction: str,
        queue_per_replica: float,
        replicas_before: int,
        replicas_after: int,
        cold_start_s: float,
    ) -> None:
        self._flush(t_s)
        self._scale_events.append(
            (t_s, direction, queue_per_replica, replicas_before, replicas_after, cold_start_s)
        )

    def on_preempt(self, t_s: float, rid: int, grace_s: float) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.state = "draining"
        r.drain_from_s = t_s
        if self._take_span_budget():
            self._span_preempts.append((t_s, rid, grace_s))

    def on_fail(
        self, t_s: float, rid: int, kind: str, lost_active: int, lost_queued: int
    ) -> None:
        # census counters (queue/active) are adjusted by the per-request
        # on_retry/on_lost hooks that follow, not here — one owner each
        self._flush(t_s)
        r = self._reps[rid]
        if r.drain_from_s is not None:
            if self._take_span_budget():
                self._span_drains.append((rid, r.drain_from_s, t_s - r.drain_from_s))
            r.drain_from_s = None
        r.state = "failed"
        r.stopped_s = t_s
        self._cum_failures += 1
        if self._take_span_budget():
            self._span_fails.append((t_s, rid, kind, lost_active, lost_queued))
        if self._spans:
            self._open_outage[rid] = t_s

    def on_retry(
        self, t_s: float, req_id: int, rid: int, attempt: int, delay_s: float, was_active: bool
    ) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        if was_active:
            r.active -= 1
        else:
            r.queue -= 1
        self._cum_retries += 1
        if self._spans:
            # the aborted attempt's decode span is discarded (it produced
            # nothing); a still-queued request keeps its original wait start
            self._open_decode.pop(req_id, None)
        if self._take_span_budget():
            self._span_retries.append((t_s, req_id, rid, attempt, delay_s))

    def on_lost(
        self, t_s: float, req_id: int, rid: int, attempts: int, reason: str, was_active: bool
    ) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        if was_active:
            r.active -= 1
        else:
            r.queue -= 1
        self._cum_lost += 1
        self._win_lost += 1
        if self._spans:
            self._open_decode.pop(req_id, None)
            self._open_queue.pop(req_id, None)
        if self._take_span_budget():
            self._span_losts.append((t_s, req_id, rid, attempts, reason))

    def on_recover(self, t_s: float, rid: int, for_rid: int, cold_start_s: float) -> None:
        self._flush(t_s)
        start_s = self._open_outage.pop(for_rid, None)
        if start_s is not None and self._take_span_budget():
            self._span_outages.append((for_rid, start_s, t_s - start_s))

    def on_run_end(self, t_s: float) -> None:
        self._flush(t_s)
        if not self._b_t or self._b_t[-1] < t_s:
            self._emit_boundary(t_s)  # final (possibly partial) window
        for r in self._reps:
            if r.drain_from_s is not None and self._take_span_budget():
                self._span_drains.append((r.rid, r.drain_from_s, t_s - r.drain_from_s))
                r.drain_from_s = None
        for rid in sorted(self._open_outage):  # unrecovered failures span to run end
            if self._take_span_budget():
                self._span_outages.append((rid, self._open_outage[rid], t_s - self._open_outage[rid]))
        self._open_outage.clear()
        self._t_end = t_s

    # -- exports -----------------------------------------------------------

    def replica_rows(self) -> list[dict[str, object]]:
        """Per-replica lifetime summary (the ``repro report`` table)."""
        t_end = self.t_end_s
        rows: list[dict[str, object]] = []
        for r in self._reps:
            stop_s = r.stopped_s if r.stopped_s is not None else t_end
            life_s = max(0.0, stop_s - r.ready_s)
            util = min(1.0, r.busy_s / life_s) if life_s > 0.0 else 0.0
            rows.append(
                {
                    "replica": r.rid,
                    "regime": r.regime,
                    "final_state": r.state,
                    "admitted": r.admitted,
                    "completed": r.completed,
                    "steps": r.steps,
                    "tokens": r.tokens,
                    "busy_s": r.busy_s,
                    "utilization": util,
                    "ready_s": r.ready_s,
                    "stopped_s": r.stopped_s,
                }
            )
        return rows

    def timeline(self) -> dict[str, object]:
        """The per-window time-series document (JSON-ready, deterministic)."""
        t0 = self.t0_s
        n_reps = len(self._reps)

        def padded(cols: list[list[int]] | list[list[float]], fill: int | float) -> list[list[int | float]]:
            return [[*col, *([fill] * (n_reps - len(col)))] for col in cols]

        lat_mean = [
            (s / c if c else 0.0) for s, c in zip(self._w_lat_sum, self._w_completed, strict=True)
        ]
        return {
            "t0_s": t0,
            "t_end_s": self.t_end_s,
            "window_s": self._window_s,
            "num_windows": len(self._b_t),
            "num_replicas": n_reps,
            "time_s": [b - t0 for b in self._b_t],
            "totals": {
                "admitted": self._cum_admitted,
                "completed": self._cum_completed,
                "shed": self._cum_shed,
                "failures": self._cum_failures,
                "retries": self._cum_retries,
                "lost": self._cum_lost,
                "slow": self._cum_slow,
                "dropped_span_events": self.dropped_span_events,
            },
            "windows": {
                "admitted": list(self._w_admitted),
                "completed": list(self._w_completed),
                "shed": list(self._w_shed),
                "lost": list(self._w_lost),
                "slow": list(self._w_slow),
                "latency_mean_s": lat_mean,
                "latency_max_s": list(self._w_lat_max),
                "queue_total": [sum(q) for q in self._b_queue],
                "active_total": [sum(a) for a in self._b_active],
                "routable": list(self._b_routable),
                "booting": list(self._b_booting),
                "draining": list(self._b_draining),
                "failed": list(self._b_failed),
                "cum_admitted": list(self._b_cum_admitted),
                "cum_completed": list(self._b_cum_completed),
                "cum_shed": list(self._b_cum_shed),
                "cost_usd": list(self._b_cost),
            },
            "per_replica": {
                "queue": padded(self._b_queue, 0),
                "active": padded(self._b_active, 0),
                "busy_s": padded(self._b_busy, 0.0),
            },
            "replicas": self.replica_rows(),
        }

    def to_chrome_trace(
        self,
        *,
        alerts: Sequence[Mapping[str, object]] | None = None,
        detections: Mapping[str, object] | None = None,
    ) -> dict[str, object]:
        """Assemble the Chrome-trace JSON document (see repro.obs.trace).

        ``alerts`` / ``detections`` take the matching ``SimReport`` fields
        and add ``cat: "alert"`` spans next to the chaos ground truth.
        """
        from repro.obs.trace import chrome_trace

        return chrome_trace(self, alerts=alerts, detections=detections)

    def write_chrome_trace(
        self,
        path: str | Path,
        *,
        alerts: Sequence[Mapping[str, object]] | None = None,
        detections: Mapping[str, object] | None = None,
    ) -> Path:
        from repro.obs.trace import write_chrome_trace

        return write_chrome_trace(
            self.to_chrome_trace(alerts=alerts, detections=detections), path
        )


class TeeRecorder(MetricsRecorder):
    """Fans every hook out to several recorders, in order.

    The engines take exactly one recorder slot; a tee is how a timeline
    sampler and an online detector watch the same run.  Like every
    recorder it is observation-only — it adds no hooks, reorders nothing,
    and each child sees the identical stream the engines emitted.  Each
    child's hooks are looked up on the instance when the tee is built, so
    hooks overridden on a child instance before then are the ones called.
    """

    def __init__(self, recorders: Sequence[MetricsRecorder]) -> None:
        self.recorders = tuple(recorders)
        for name in HOOKS:
            setattr(self, name, _fan_out(tuple(getattr(r, name) for r in self.recorders)))


def _fan_out(hooks: tuple[Callable[..., None], ...]) -> Callable[..., None]:
    def fan(*args: Any, **kwargs: Any) -> None:
        for hook in hooks:
            hook(*args, **kwargs)

    return fan
