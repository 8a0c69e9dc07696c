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
  queue/decode lifecycles, shed instants, chaos faults, scale events)
  that :mod:`repro.obs.trace` turns into Chrome-trace JSON.

Two tables declare both, once: ``_WINDOW_COUNTERS`` and
``_WINDOW_SNAPSHOTS`` are the timeline's columns, ``_SPAN_KINDS`` the
span kinds with their Chrome-trace category, phase and argument names.
A new column or span kind is one table row plus the hook that feeds it.

:class:`TeeRecorder` fans one hook stream out to several recorders.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

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


@dataclass(slots=True)
class _ReplicaTrack:
    """Live mirror of one replica's externally-visible counters."""

    rid: int
    regime: int
    state: str
    ready_s: float
    billed_from_s: float
    stopped_s: float | None = None
    drain_from_s: float | None = None
    queue: int = 0
    active: int = 0
    busy_s: float = 0.0
    steps: int = 0
    admitted: int = 0
    completed: int = 0
    tokens: int = 0


class _SpanKind(NamedTuple):
    """One span log of :class:`TimelineRecorder` and its Chrome-trace form.

    A row is ``(tid, ts_s, *values)`` for an instant (``ph`` ``"i"``) and
    ``(tid, ts_s, dur_s, *values)`` for a complete span (``"X"``) or an
    async request span (``"b"``: a ``b``/``e`` pair keyed by its first
    value, the request id).  ``args`` names the values; a ``{}`` in an
    instant's ``name`` is filled from its first value, which is then no
    argument.
    """

    name: str
    cat: str
    ph: str
    args: tuple[str, ...] = ()


#: Every span kind, in Chrome-trace export order: the one place a span
#: kind is declared.  Hooks append rows under these keys.
_SPAN_KINDS: dict[str, _SpanKind] = {
    "step": _SpanKind("step", "replica", "X", ("batch",)),
    "boot": _SpanKind("boot", "replica", "X"),
    "drain": _SpanKind("drain", "replica", "X"),
    "queue": _SpanKind("queue", "request", "b", ("req", "replica")),
    "decode": _SpanKind("decode", "request", "b", ("req", "replica")),
    "shed": _SpanKind("shed", "admission", "i", ("req", "reason")),
    "outage": _SpanKind("outage", "chaos", "X"),
    "preempt": _SpanKind("preempt", "chaos", "i", ("grace_s",)),
    "fail": _SpanKind("fail", "chaos", "i", ("kind", "lost_active", "lost_queued")),
    "retry": _SpanKind("retry", "chaos", "i", ("req", "attempt", "delay_s")),
    "lost": _SpanKind("lost", "chaos", "i", ("req", "attempts", "reason")),
    "scale": _SpanKind(
        "scale-{}",
        "autoscaler",
        "i",
        ("queue_per_replica", "replicas_before", "replicas_after", "cold_start_s"),
    ),
}


class _Snapshot(NamedTuple):
    """A window column read off the recorder at each closed boundary."""

    read: Callable[[TimelineRecorder, float], Any]
    #: per-replica columns (lists): pad for replicas that start later
    pad: int | float | None = None
    #: also publish the per-boundary sum as ``<name>_total``
    total: bool = False


def _census(state: str) -> _Snapshot:
    return _Snapshot(lambda rec, b_s: [r.state for r in rec._reps].count(state))


#: Window counters, name -> (zero, pair-merge): hooks add to the open
#: window's counter, and closed windows merge pairwise when the window
#: doubles.  With the snapshots below, this is the one place a timeline
#: column is declared; ``timeline()["windows"]`` lists counters first.
_WINDOW_COUNTERS: dict[str, tuple[int | float, Callable[[Any, Any], Any]]] = {
    "admitted": (0, operator.add),
    "completed": (0, operator.add),
    "shed": (0, operator.add),
    "lost": (0, operator.add),
    "slow": (0, operator.add),
    "latency_sum_s": (0.0, operator.add),  # published as latency_mean_s
    "latency_max_s": (0.0, max),
}

#: Window snapshots: on doubling, every second boundary's is kept.
_WINDOW_SNAPSHOTS: dict[str, _Snapshot] = {
    "queue": _Snapshot(lambda rec, b_s: [r.queue for r in rec._reps], pad=0, total=True),
    "active": _Snapshot(lambda rec, b_s: [r.active for r in rec._reps], pad=0, total=True),
    "busy_s": _Snapshot(lambda rec, b_s: [r.busy_s for r in rec._reps], pad=0.0),
    "routable": _census("running"),
    "booting": _census("booting"),
    "draining": _census("draining"),
    "failed": _census("failed"),
    "cum_admitted": _Snapshot(lambda rec, b_s: rec._totals["admitted"]),
    "cum_completed": _Snapshot(lambda rec, b_s: rec._totals["completed"]),
    "cum_shed": _Snapshot(lambda rec, b_s: rec._totals["shed"]),
    "cost_usd": _Snapshot(lambda rec, b_s: rec._cost_usd_at(b_s)),
}

_OPEN_WINDOW = {name: zero for name, (zero, _) in _WINDOW_COUNTERS.items()}
_MERGES = tuple(merge for _, merge in _WINDOW_COUNTERS.values())
_READS = tuple(col.read for col in _WINDOW_SNAPSHOTS.values())
_N_COUNTERS = len(_WINDOW_COUNTERS)


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

        # closed windows, one row each: (boundary_s, *counters, *snapshots)
        self._windows: list[tuple[Any, ...]] = []
        self._win = dict(_OPEN_WINDOW)  # the open window's counters
        # cumulative totals, in timeline()["totals"] order
        self._totals = dict.fromkeys(
            ("admitted", "completed", "shed", "failures", "retries", "lost", "slow"), 0
        )

        # span logs, one flat row per span (consumed by repro.obs.trace)
        self._span_rows: dict[str, list[tuple[Any, ...]]] = {k: [] for k in _SPAN_KINDS}
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
        return float(self._windows[-1][0]) if self._windows else self.t0_s

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

    def _span(self, kind: str, *row: Any) -> bool:
        """Log one ``kind`` row if the span budget allows; report whether it did."""
        if self._take_span_budget():
            self._span_rows[kind].append(row)
            return True
        return False

    def _cost_usd_at(self, b_s: float) -> float:
        gpus = self._meta.get("num_gpus", 0.0)
        usd_hour = self._meta.get("gpu_hour_usd", 0.0)
        if gpus <= 0.0 or usd_hour <= 0.0:
            return 0.0
        hours = 0.0
        for r in self._reps:  # runs at every boundary: no min/max calls
            stop_s = r.stopped_s if r.stopped_s is not None and r.stopped_s < b_s else b_s
            if stop_s > r.billed_from_s:
                hours += stop_s - r.billed_from_s
        return hours * gpus * usd_hour / 3600.0

    def _emit_boundary(self, b_s: float) -> None:
        snaps = [read(self, b_s) for read in _READS]
        self._windows.append((b_s, *self._win.values(), *snaps))
        self._win = dict(_OPEN_WINDOW)

    def _double_window(self) -> None:
        """Double the window width, pair-merging already-closed windows."""
        if len(self._windows) % 2:
            # fold the dangling newest window's counters back into the open
            # window; its snapshot is discarded (snapshots are instantaneous)
            last = self._windows.pop()[1 : 1 + _N_COUNTERS]
            self._win = {
                k: merge(v, w)
                for (k, v), merge, w in zip(self._win.items(), _MERGES, last, strict=True)
            }
        # keep every second boundary (they sit on the doubled grid) and
        # pair-merge the closed windows' counters
        b_t, counters, snapshots = self._columns()
        merged = [map(m, c[0::2], c[1::2]) for m, c in zip(_MERGES, counters, strict=True)]
        kept = [c[1::2] for c in snapshots]
        self._windows = list(zip(b_t[1::2], *merged, *kept, strict=True))
        self._window_s *= 2.0

    def _columns(self) -> tuple[tuple[Any, ...], list[tuple[Any, ...]], list[tuple[Any, ...]]]:
        """The closed windows as columns: boundary times, counters, snapshots."""
        n_cols = 1 + _N_COUNTERS + len(_WINDOW_SNAPSHOTS)
        b_t, *cols = list(zip(*self._windows, strict=True)) or [() for _ in range(n_cols)]
        return b_t, cols[:_N_COUNTERS], cols[_N_COUNTERS:]

    def _flush(self, t_s: float) -> None:
        """Close every window boundary strictly before ``t_s``."""
        t0 = self._t0
        if t0 is None:
            raise RuntimeError("on_run_start must be called before any other hook")
        if self._explicit_window is None:
            while t_s - t0 > 2.0 * self._max_windows * self._window_s:
                self._double_window()
        while t0 + (len(self._windows) + 1) * self._window_s < t_s:
            self._emit_boundary(t0 + (len(self._windows) + 1) * self._window_s)

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
        if booting:
            self._span("boot", rid, t_s, max(0.0, ready_s - t_s))

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
        if r.drain_from_s is not None:
            self._span("drain", rid, r.drain_from_s, t_s - r.drain_from_s)
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
        self._totals["shed"] += 1
        self._win["shed"] += 1
        self._span("shed", 0 if rid is None else rid, t_s, req_id, reason)

    def on_admit(self, t_s: float, rid: int, req_ids: Sequence[int], admission_s: float) -> None:
        self._flush(t_s)
        n = len(req_ids)
        r = self._reps[rid]
        r.queue -= n
        r.active += n
        r.busy_s += admission_s
        r.admitted += n
        self._totals["admitted"] += n
        self._win["admitted"] += n
        if self._spans:
            for req_id in req_ids:
                start_s = self._open_queue.pop(req_id, None)
                if start_s is not None:
                    self._span("queue", rid, start_s, t_s - start_s, req_id, rid)
                if self._take_span_budget():
                    self._open_decode[req_id] = (t_s, rid)

    def on_step_end(self, t_s: float, rid: int, step_s: float, batch: int) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.busy_s += step_s
        r.steps += 1
        self._span("step", rid, t_s - step_s, step_s, batch)

    def on_complete(
        self, t_s: float, rid: int, req_id: int, arrival_s: float, admitted_s: float, tokens: int
    ) -> None:
        self._flush(t_s)
        latency_s = t_s - arrival_s
        win = self._win
        self._totals["completed"] += 1
        win["completed"] += 1
        win["latency_sum_s"] += latency_s
        win["latency_max_s"] = max(win["latency_max_s"], latency_s)
        if self._slow_latency_s is not None and latency_s > self._slow_latency_s:
            self._totals["slow"] += 1
            win["slow"] += 1
        r = self._reps[rid]
        r.active -= 1
        r.completed += 1
        r.tokens += tokens
        if self._spans:
            opened = self._open_decode.pop(req_id, None)
            if opened is not None:
                start_s, _ = opened
                self._span_rows["decode"].append((rid, start_s, t_s - start_s, req_id, rid))

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
        self._span_rows["scale"].append(
            (0, t_s, direction, queue_per_replica, replicas_before, replicas_after, cold_start_s)
        )

    def on_preempt(self, t_s: float, rid: int, grace_s: float) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        r.state = "draining"
        r.drain_from_s = t_s
        self._span("preempt", rid, t_s, grace_s)

    def on_fail(
        self, t_s: float, rid: int, kind: str, lost_active: int, lost_queued: int
    ) -> None:
        # census counters (queue/active) are adjusted by the per-request
        # on_retry/on_lost hooks that follow, not here — one owner each
        self._flush(t_s)
        r = self._reps[rid]
        if r.drain_from_s is not None:
            self._span("drain", rid, r.drain_from_s, t_s - r.drain_from_s)
            r.drain_from_s = None
        r.state = "failed"
        r.stopped_s = t_s
        self._totals["failures"] += 1
        self._span("fail", rid, t_s, kind, lost_active, lost_queued)
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
        self._totals["retries"] += 1
        if self._spans:
            # the aborted attempt's decode span is discarded (it produced
            # nothing); a still-queued request keeps its original wait start
            self._open_decode.pop(req_id, None)
        self._span("retry", rid, t_s, req_id, attempt, delay_s)

    def on_lost(
        self, t_s: float, req_id: int, rid: int, attempts: int, reason: str, was_active: bool
    ) -> None:
        self._flush(t_s)
        r = self._reps[rid]
        if was_active:
            r.active -= 1
        else:
            r.queue -= 1
        self._totals["lost"] += 1
        self._win["lost"] += 1
        if self._spans:
            self._open_decode.pop(req_id, None)
            self._open_queue.pop(req_id, None)
        self._span("lost", rid, t_s, req_id, attempts, reason)

    def on_recover(self, t_s: float, rid: int, for_rid: int, cold_start_s: float) -> None:
        self._flush(t_s)
        start_s = self._open_outage.pop(for_rid, None)
        if start_s is not None:
            self._span("outage", for_rid, start_s, t_s - start_s)

    def on_run_end(self, t_s: float) -> None:
        self._flush(t_s)
        if not self._windows or self._windows[-1][0] < t_s:
            self._emit_boundary(t_s)  # final (possibly partial) window
        for r in self._reps:
            if r.drain_from_s is not None:
                self._span("drain", r.rid, r.drain_from_s, t_s - r.drain_from_s)
                r.drain_from_s = None
        for rid in sorted(self._open_outage):  # unrecovered failures span to run end
            self._span("outage", rid, self._open_outage[rid], t_s - self._open_outage[rid])
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

    def span_rows(self) -> list[tuple[_SpanKind, list[tuple[Any, ...]]]]:
        """Every span log with its kind, in span-kind declaration order."""
        return [(_SPAN_KINDS[k], rows) for k, rows in self._span_rows.items()]

    def timeline(self) -> dict[str, object]:
        """The per-window time-series document (JSON-ready, deterministic)."""
        t0 = self.t0_s
        n_reps = len(self._reps)
        b_t, counters, snapshots = self._columns()
        windows: dict[str, list[Any]] = {}
        for name, col in zip(_WINDOW_COUNTERS, counters, strict=True):
            if name == "latency_sum_s":
                completed = windows["completed"]
                name, col = "latency_mean_s", tuple(
                    (s / c if c else 0.0) for s, c in zip(col, completed, strict=True)
                )
            windows[name] = list(col)
        per_replica: dict[str, list[Any]] = {}
        for (name, snap), col in zip(_WINDOW_SNAPSHOTS.items(), snapshots, strict=True):
            if snap.pad is None:
                windows[name] = list(col)
                continue
            if snap.total:
                windows[f"{name}_total"] = [sum(v) for v in col]
            per_replica[name] = [[*v, *([snap.pad] * (n_reps - len(v)))] for v in col]
        return {
            "t0_s": t0,
            "t_end_s": self.t_end_s,
            "window_s": self._window_s,
            "num_windows": len(self._windows),
            "num_replicas": n_reps,
            "time_s": [b - t0 for b in b_t],
            "totals": {**self._totals, "dropped_span_events": self.dropped_span_events},
            "windows": windows,
            "per_replica": per_replica,
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
