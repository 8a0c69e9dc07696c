"""One model replica: a fully-priced cluster with queue and batch state.

A :class:`Replica` is a complete expert-parallel deployment — its own
placement (possibly fit to a different routing regime than its peers),
priced per decode step by the shared
:class:`~repro.engine.serving.PlacementStepTimer`, optionally running its
own PR-2 online re-placement loop.  The fleet simulator drives replicas
through an explicit lifecycle state machine::

    PENDING ──> BOOTING ──> RUNNING ──> DRAINING ──> STOPPED
       │           │           │            │
       │           └───────────┼────────────┼──> FAILED
       └── (t=0 replicas skip the boot) ────┘

``PENDING`` is the instant between construction and the first transition
(t=0 replicas go straight to ``RUNNING``; scaled-up and recovery replicas
go through ``BOOTING`` while the priced cold start elapses).  ``RUNNING``
is the only routable state.  ``DRAINING`` replicas (scale-down victims
and preemption-noticed spot replicas) finish queued work and receive
nothing new; a clean drain ends in ``STOPPED``.  ``FAILED`` is the chaos
subsystem's terminal state — a crash or an expired preemption grace
period — and loses whatever work was still on the replica.  Legal
transitions live in :data:`STATE_TRANSITIONS` and are enforced by
:meth:`Replica.transition_to`.

The replica owns per-priority wait queues (admission is FCFS *within* a
class, strict priority *across* classes) and the continuous-batching
active set; all timing decisions stay in the simulator, which is the only
place the clock lives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.core.online import OnlineReplacer
from repro.core.placement.base import Placement
from repro.fleet.requests import FleetRequest

__all__ = [
    "ReplicaState",
    "STATE_TRANSITIONS",
    "Replica",
    "ReplicaStats",
    "ActiveEntry",
    "ArrayQueue",
]

# EWMA smoothing for the observed step-time estimate admission control
# reads; one step contributes 25% so the estimate tracks load shifts within
# a few steps without flapping on a single expensive iteration
_STEP_EWMA_ALPHA = 0.25


class ReplicaState(str, Enum):
    PENDING = "pending"
    BOOTING = "booting"
    RUNNING = "running"
    # alias kept for call sites written before the lifecycle grew FAILED;
    # same member object, so `state is ReplicaState.RUNNING` still holds
    ACTIVE = "running"
    DRAINING = "draining"
    FAILED = "failed"
    STOPPED = "stopped"


#: Legal lifecycle moves.  FAILED and STOPPED are terminal.
STATE_TRANSITIONS: dict[ReplicaState, tuple[ReplicaState, ...]] = {
    ReplicaState.PENDING: (ReplicaState.BOOTING, ReplicaState.RUNNING),
    ReplicaState.BOOTING: (ReplicaState.RUNNING, ReplicaState.FAILED),
    ReplicaState.RUNNING: (ReplicaState.DRAINING, ReplicaState.FAILED),
    ReplicaState.DRAINING: (ReplicaState.STOPPED, ReplicaState.FAILED),
    ReplicaState.FAILED: (),
    ReplicaState.STOPPED: (),
}


class ArrayQueue:
    """Array-backed FIFO of request indices: one replica priority lane.

    The tick engine (:mod:`repro.fleet.engine`) keeps requests as rows of
    numpy arrays rather than objects, so its wait queues hold *indices*
    into those arrays.  This is the array counterpart of the ``deque``
    lanes a :class:`Replica` owns: O(1) amortized push, bulk pop of the
    ``k`` oldest entries as one slice, and a zero-copy :meth:`view` of the
    queued indices (which the autoscaler's regime census reads without
    draining anything).

    The buffer is kept contiguous (popped space is reclaimed by
    compacting on overflow, doubling only when actually full), so every
    read is a plain slice — no ring-buffer wraparound on the hot path.
    """

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buf = np.empty(capacity, dtype=np.int64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def push(self, index: int) -> None:
        """Append one request index at the tail."""
        if self._tail == self._buf.shape[0]:
            live = self._buf[self._head : self._tail]
            if self._head == 0:  # genuinely full: double
                grown = np.empty(2 * self._buf.shape[0], dtype=np.int64)
                grown[: live.size] = live
                self._buf = grown
            else:  # reclaim popped space at the front
                self._buf[: live.size] = live
            self._tail = live.size
            self._head = 0
        self._buf[self._tail] = index
        self._tail += 1

    def pop_many(self, k: int) -> np.ndarray:
        """Remove and return (a copy of) the ``k`` oldest indices (FCFS)."""
        k = min(k, len(self))
        out = self._buf[self._head : self._head + k].copy()
        self._head += k
        return out

    def drain(self) -> np.ndarray:
        """Remove and return every queued index, oldest first."""
        return self.pop_many(len(self))

    def view(self) -> np.ndarray:
        """Zero-copy window over the queued indices (oldest first)."""
        return self._buf[self._head : self._tail]


class ActiveEntry:
    """Mutable per-request decode state inside a replica's batch."""

    __slots__ = ("request", "tokens_remaining", "admitted_s", "home_gpu", "generated")

    def __init__(self, request: FleetRequest, admitted_s: float, home_gpu: int) -> None:
        self.request = request
        self.tokens_remaining = request.generate_len
        self.admitted_s = admitted_s
        self.home_gpu = home_gpu
        self.generated = 0


@dataclass(frozen=True)
class ReplicaStats:
    """Final per-replica account reported in a fleet result."""

    replica_id: int
    regime: int
    final_state: str
    served: int
    decode_steps: int
    busy_s: float
    mean_batch_size: float
    replacements: int
    migration_stall_s: float
    booted_at_s: float
    stopped_at_s: float | None
    gpu_hours: float = 0.0
    #: busy fraction of the replica's routable lifetime (boot-ready →
    #: stop/sim-end), clamped to 1.0; 0.0 when the lifetime is empty
    utilization: float = 0.0


class Replica:
    """Queue + batch + placement state of one fleet member."""

    def __init__(
        self,
        replica_id: int,
        placement: Placement,
        regime: int,
        max_batch_requests: int,
        num_gpus: int,
        num_priorities: int = 2,
        state: ReplicaState = ReplicaState.RUNNING,
        booted_at_s: float = 0.0,
        replacer: OnlineReplacer | None = None,
        billed_from_s: float | None = None,
    ) -> None:
        if max_batch_requests <= 0:
            raise ValueError("max_batch_requests must be positive")
        if num_priorities < 1:
            raise ValueError("num_priorities must be >= 1")
        self.replica_id = replica_id
        self.placement = placement
        self.placement_version = 0
        self.regime = regime
        self.max_batch = max_batch_requests
        self.num_gpus = num_gpus
        # every replica is born PENDING and immediately moved to its first
        # real state through the transition table
        self.state = ReplicaState.PENDING
        self.transition_to(state)
        # bumped when a crash/preempt-kill cancels the in-flight step, so
        # the event engine can discard the stale step-end event on pop
        self.epoch = 0
        self.booted_at_s = booted_at_s
        # billing starts at the scale-up *decision* (the GPUs are reserved
        # while the replica boots), which precedes booted_at_s by the cold
        # start; for t=0 replicas the two coincide
        self.billed_from_s = booted_at_s if billed_from_s is None else billed_from_s
        self.stopped_at_s: float | None = None
        self.replacer = replacer

        self.queues: tuple[deque, ...] = tuple(deque() for _ in range(num_priorities))
        self.active: list[ActiveEntry] = []
        self.stepping = False

        self.steps = 0
        self.busy_s = 0.0
        self.weighted_batch = 0.0
        self.served = 0
        self.migration_stall_s = 0.0
        self.replacements = 0
        self.est_step_s: float | None = None
        self._admit_counter = 0

    # -- load accounting -------------------------------------------------------

    @property
    def queue_len(self) -> int:
        return sum(len(q) for q in self.queues)

    @property
    def load(self) -> int:
        """Requests on this replica (waiting + decoding) — the JSQ signal."""
        return self.queue_len + len(self.active)

    @property
    def routable(self) -> bool:
        return self.state is ReplicaState.RUNNING

    # -- lifecycle -------------------------------------------------------------

    def transition_to(self, state: ReplicaState) -> None:
        """Move to ``state``, enforcing :data:`STATE_TRANSITIONS`."""
        if state not in STATE_TRANSITIONS[self.state]:
            raise RuntimeError(
                f"illegal replica transition {self.state.value} -> {state.value}"
            )
        self.state = state

    # -- queue / batch transitions ---------------------------------------------

    def enqueue(self, request: FleetRequest) -> None:
        if self.state not in (ReplicaState.RUNNING, ReplicaState.DRAINING):
            raise RuntimeError(f"cannot enqueue on a {self.state.value} replica")
        pri = min(request.priority, len(self.queues) - 1)
        self.queues[pri].append(request)

    def admit_up_to_capacity(self, now: float) -> list[ActiveEntry]:
        """Move queued requests into the batch: priority order, FCFS within.

        Home GPUs round-robin over the replica's data-parallel ranks.
        """
        admitted: list[ActiveEntry] = []
        for q in self.queues:
            while q and len(self.active) < self.max_batch:
                req = q.popleft()
                entry = ActiveEntry(req, now, self._admit_counter % self.num_gpus)
                self._admit_counter += 1
                self.active.append(entry)
                admitted.append(entry)
            if len(self.active) >= self.max_batch:
                break
        return admitted

    def admit_with_timeout(
        self, now: float, expired: Callable[[FleetRequest], bool]
    ) -> tuple[list[ActiveEntry], list[FleetRequest]]:
        """:meth:`admit_up_to_capacity`, dropping attempts that timed out.

        ``expired(request) -> bool`` is evaluated lazily as each request
        reaches the head of its lane; a timed-out request consumes no
        batch slot and is returned (pop order) for the caller to retry or
        record lost.  Used when the chaos retry policy sets a per-attempt
        timeout.
        """
        admitted: list[ActiveEntry] = []
        timed_out: list[FleetRequest] = []
        for q in self.queues:
            while q and len(self.active) < self.max_batch:
                req = q.popleft()
                if expired(req):
                    timed_out.append(req)
                    continue
                entry = ActiveEntry(req, now, self._admit_counter % self.num_gpus)
                self._admit_counter += 1
                self.active.append(entry)
                admitted.append(entry)
            if len(self.active) >= self.max_batch:
                break
        return admitted, timed_out

    def note_step(self, dt: float, batch_size: int) -> None:
        """Account one completed decode step of ``batch_size`` requests."""
        self.steps += 1
        self.busy_s += dt
        self.weighted_batch += batch_size * dt
        if self.est_step_s is None:
            self.est_step_s = dt
        else:
            self.est_step_s += _STEP_EWMA_ALPHA * (dt - self.est_step_s)

    def note_admission(self, dt: float) -> None:
        """Account the one-time admission charge (coherent prompt AllGather)."""
        self.busy_s += dt
        self.weighted_batch += len(self.active) * dt

    def take_queued(self) -> list[FleetRequest]:
        """Remove and return every queued (not yet admitted) request.

        Scale-down migration: the simulator hands these back to the router
        so they don't wait out the drain.  Priority order is preserved
        (class 0 first, FCFS within a class); the active decode batch is
        untouched.
        """
        taken: list[FleetRequest] = []
        for q in self.queues:
            taken.extend(q)
            q.clear()
        return taken

    @property
    def drained(self) -> bool:
        return not self.active and self.queue_len == 0

    def gpu_hours(self, end_s: float) -> float:
        """GPU-hours billed to this replica up to simulation time ``end_s``.

        The meter runs from the scale-up decision (``billed_from_s``)
        until the replica stops — or until ``end_s`` for replicas still
        live when the simulation ends.
        """
        stop = self.stopped_at_s if self.stopped_at_s is not None else end_s
        return max(0.0, stop - self.billed_from_s) * self.num_gpus / 3600.0

    def stats(self, end_s: float) -> ReplicaStats:
        # same expression as the tick engine's _stats_at, so the two
        # engines report bit-identical utilization
        stop = self.stopped_at_s if self.stopped_at_s is not None else end_s
        life_s = stop - self.booted_at_s
        return ReplicaStats(
            replica_id=self.replica_id,
            regime=self.regime,
            final_state=self.state.value,
            served=self.served,
            decode_steps=self.steps,
            busy_s=self.busy_s,
            mean_batch_size=self.weighted_batch / self.busy_s if self.busy_s > 0 else 0.0,
            replacements=self.replacements,
            migration_stall_s=self.migration_stall_s,
            booted_at_s=self.booted_at_s,
            stopped_at_s=self.stopped_at_s,
            gpu_hours=self.gpu_hours(end_s),
            utilization=min(1.0, self.busy_s / life_s) if life_s > 0 else 0.0,
        )
