"""SLO-aware admission control: deadlines, priority classes, load shedding.

Under overload an open system has exactly two choices: queue (and blow
every deadline) or shed (and keep the admitted traffic inside SLO).  The
fleet admits per-request at routing time:

* each request belongs to a :class:`PriorityClass` with a latency SLO;
* the controller predicts the request's completion latency on the replica
  the router chose — queueing delay from the replica's current backlog
  plus service time, both priced with the replica's EWMA step-time
  estimate (so the prediction tracks the *measured* speed of that
  replica's placement under current traffic, not a static constant);
* a request whose predicted latency exceeds ``shed_slack x SLO`` is shed
  immediately (better a fast negative than a useless late answer), as is
  anything arriving at a replica whose wait queue hit the hard cap.

Priority enters twice: classes carry different SLOs (batch tolerates far
more queueing before shedding), and replicas admit strictly by class, so
interactive requests overtake queued batch work at every step boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FleetConfig
from repro.fleet.replica import Replica
from repro.fleet.requests import FleetRequest

__all__ = [
    "PriorityClass",
    "default_priority_classes",
    "AdmissionController",
    "ADMIT",
    "SHED_QUEUE_FULL",
    "SHED_DEADLINE",
    "SHED_REASONS",
]

#: Codes returned by :meth:`AdmissionController.assess_codes`; index into
#: :data:`SHED_REASONS` for the scalar path's string reasons.
ADMIT: int = 0
SHED_QUEUE_FULL: int = 1
SHED_DEADLINE: int = 2
SHED_REASONS: tuple[None, str, str] = (None, "queue-full", "deadline")


@dataclass(frozen=True)
class PriorityClass:
    """One admission class: a name, an SLO, and its queueing rank (0 first)."""

    name: str
    slo_s: float
    rank: int

    def __post_init__(self) -> None:
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if self.rank < 0:
            raise ValueError("rank must be >= 0")


def default_priority_classes(fleet: FleetConfig) -> tuple[PriorityClass, ...]:
    """The fleet's two standard classes: interactive (0) and batch (1)."""
    return (
        PriorityClass("interactive", fleet.slo_s, 0),
        PriorityClass("batch", fleet.batch_slo_s, 1),
    )


class AdmissionController:
    """Decide admit-or-shed for each routed request."""

    def __init__(
        self,
        classes: tuple[PriorityClass, ...],
        shed_slack: float = 1.0,
        max_queue_per_replica: int = 256,
    ) -> None:
        if not classes:
            raise ValueError("need at least one priority class")
        ranks = sorted(c.rank for c in classes)
        if ranks != list(range(len(classes))):
            raise ValueError("class ranks must be exactly 0..n-1")
        if shed_slack <= 0:
            raise ValueError("shed_slack must be positive")
        if max_queue_per_replica <= 0:
            raise ValueError("max_queue_per_replica must be positive")
        self.classes = tuple(sorted(classes, key=lambda c: c.rank))
        self.shed_slack = shed_slack
        self.max_queue_per_replica = max_queue_per_replica

    @classmethod
    def from_config(cls, fleet: FleetConfig) -> "AdmissionController":
        return cls(
            default_priority_classes(fleet),
            shed_slack=fleet.shed_slack,
            max_queue_per_replica=fleet.max_queue_per_replica,
        )

    def class_of(self, request: FleetRequest) -> PriorityClass:
        return self.classes[min(request.priority, len(self.classes) - 1)]

    def predicted_latency_s(
        self, replica: Replica, request: FleetRequest
    ) -> float | None:
        """Estimated completion latency if ``request`` joins ``replica`` now.

        Continuous batching frees ``max_batch`` slots every
        ``generate_len`` steps in steady state, so the backlog ahead drains
        at roughly ``max_batch / (generate_len * step_s)`` requests per
        second; service itself is ``generate_len`` steps.  Returns ``None``
        until the replica has measured at least one step (a cold replica
        admits optimistically — there is nothing to predict from).
        """
        est = replica.est_step_s
        if est is None:
            return None
        gen = request.generate_len
        wait_s = replica.queue_len * gen * est / replica.max_batch
        service_s = gen * est
        return wait_s + service_s

    def assess(
        self, request: FleetRequest, replica: Replica, now: float
    ) -> str | None:
        """Return a shed reason, or ``None`` to admit."""
        if replica.queue_len >= self.max_queue_per_replica:
            return "queue-full"
        predicted = self.predicted_latency_s(replica, request)
        if predicted is not None:
            slo = self.class_of(request).slo_s
            if predicted > self.shed_slack * slo:
                return "deadline"
        return None

    def slo_met(self, request: FleetRequest, latency_s: float) -> bool:
        return latency_s <= self.class_of(request).slo_s

    # -- whole-batch evaluation (the tick engine's path) -----------------------

    def slo_by_priority(self, priorities: np.ndarray) -> np.ndarray:
        """Per-request SLO seconds from priority labels (class-clamped)."""
        slos = np.array([c.slo_s for c in self.classes], dtype=np.float64)
        return slos[np.minimum(priorities, len(self.classes) - 1)]

    def predicted_latency_batch(
        self,
        gen_lens: np.ndarray,
        queue_lens: np.ndarray,
        est_step_s: np.ndarray,
        max_batch: np.ndarray | int,
    ) -> np.ndarray:
        """Vectorized :meth:`predicted_latency_s` over one arrival batch.

        Row ``i`` predicts request ``i`` joining its routed replica, whose
        queue depth / step estimate / batch cap arrive as parallel arrays
        (``est_step_s`` uses NaN where a replica has not measured a step
        yet — the "admit optimistically" case, since NaN propagates and
        never exceeds a deadline).  The expression mirrors the scalar
        path's operation order exactly so both engines shed identically.
        """
        return queue_lens * gen_lens * est_step_s / max_batch + gen_lens * est_step_s

    def assess_codes(
        self,
        gen_lens: np.ndarray,
        slo_s: np.ndarray,
        queue_lens: np.ndarray,
        est_step_s: np.ndarray,
        max_batch: np.ndarray | int,
    ) -> np.ndarray:
        """Vectorized :meth:`assess`: one int8 code per request.

        ``ADMIT`` (0) admits; :data:`SHED_REASONS` maps nonzero codes to
        the scalar path's shed-reason strings.  The queue-full check wins
        over the deadline check, as in the scalar path.
        """
        codes = np.zeros(gen_lens.shape[0], dtype=np.int8)
        predicted = self.predicted_latency_batch(
            gen_lens, queue_lens, est_step_s, max_batch
        )
        # NaN predictions (cold replica) fail this comparison → admit
        codes[predicted > self.shed_slack * slo_s] = SHED_DEADLINE
        codes[queue_lens >= self.max_queue_per_replica] = SHED_QUEUE_FULL
        return codes
