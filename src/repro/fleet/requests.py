"""Fleet-level request types and traffic builders.

A fleet serves a *mixture* of workloads: requests belong to routing
regimes (which Markov affinity structure their tokens follow — the signal
affinity-aware routing exploits) and to priority classes (which SLO
admission enforces).  :class:`FleetRequest` carries both on top of the
serving layer's :class:`~repro.engine.serving.Request`.

Two traffic builders extend the arrival-process family for fleet
scenarios:

* :func:`make_fleet_requests` — decorate any arrival sequence with regime
  and priority labels (optionally with a time-varying regime mix, which is
  how traffic drift enters the fleet).
* :func:`flash_crowd_arrivals` — a piecewise-rate Poisson process whose
  rate multiplies by ``flash_factor`` inside one window: the canonical
  autoscaler stress (a product launch, a viral link).  Implemented with
  Lewis-Shedler thinning so the draw is exact and deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import FleetConfig, ServingConfig
from repro.engine.serving import Request

__all__ = [
    "FleetRequest",
    "FleetCompleted",
    "ShedRecord",
    "LostRecord",
    "FailureRecord",
    "flash_crowd_arrivals",
    "make_fleet_requests",
]


@dataclass(frozen=True)
class FleetRequest(Request):
    """A serving request labelled with its routing regime and priority.

    ``regime`` indexes the fleet's Markov regime list (which transition
    structure this request's tokens follow); ``priority`` indexes the
    admission controller's class list, 0 being the most urgent.
    """

    regime: int = 0
    priority: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.regime < 0:
            raise ValueError("regime must be >= 0")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")


@dataclass(frozen=True)
class FleetCompleted:
    """A served fleet request with its scheduling timeline."""

    request: FleetRequest
    admitted_s: float
    finished_s: float
    replica_id: int

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.request.arrival_s

    @property
    def queue_s(self) -> float:
        return self.admitted_s - self.request.arrival_s


@dataclass(frozen=True)
class ShedRecord:
    """One request the admission controller refused."""

    request: FleetRequest
    time_s: float
    reason: str
    replica_id: int | None = None


@dataclass(frozen=True)
class LostRecord:
    """A request whose retry budget ran out — the chaos terminal outcome.

    Distinct from a :class:`ShedRecord`: shedding is admission *refusing*
    work it predicts will miss its SLO, loss is accepted work destroyed by
    faults (crash, preemption kill, or per-attempt timeout — ``reason``)
    after ``attempts`` tries.  ``replica_id`` is the replica on which the
    final attempt died.
    """

    request: FleetRequest
    time_s: float
    replica_id: int
    attempts: int
    reason: str


@dataclass(frozen=True)
class FailureRecord:
    """One injected replica failure and its recovery, for the fleet account.

    ``kind`` is ``"crash"`` or ``"preempt"``.  For preemptions, ``time_s``
    is the *notice* time and the lost counts are whatever the grace period
    failed to drain (both zero for a clean drain).  ``recovered_at_s`` is
    when the ordered replacement replica went routable, or ``None`` when
    recovery was disabled or never completed before the run ended.
    """

    time_s: float
    replica_id: int
    kind: str
    lost_active: int
    lost_queued: int
    recovered_at_s: float | None = None


def flash_crowd_arrivals(
    cfg: ServingConfig,
    flash_factor: float,
    flash_start_s: float,
    flash_duration_s: float,
    rng: np.random.Generator | None = None,
) -> list[Request]:
    """Poisson arrivals whose rate jumps ``flash_factor``-fold in a window.

    Outside ``[flash_start_s, flash_start_s + flash_duration_s)`` the rate
    is ``cfg.arrival_rate_rps``; inside it is multiplied by
    ``flash_factor``.  Thinning against the peak rate keeps the process
    exact across the boundary (no gap straddles two rates).
    """
    for name, v in (
        ("flash_factor", flash_factor),
        ("flash_start_s", flash_start_s),
        ("flash_duration_s", flash_duration_s),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if flash_factor < 1.0:
        raise ValueError("flash_factor must be >= 1")
    if flash_duration_s <= 0 or flash_start_s < 0:
        raise ValueError("flash window must have positive duration and start >= 0")
    rng = rng or np.random.default_rng(cfg.seed)
    lam_max = cfg.arrival_rate_rps * flash_factor
    requests: list[Request] = []
    now = 0.0
    while len(requests) < cfg.num_requests:
        now += float(rng.exponential(1.0 / lam_max))
        in_flash = flash_start_s <= now < flash_start_s + flash_duration_s
        lam = lam_max if in_flash else cfg.arrival_rate_rps
        if rng.random() < lam / lam_max:
            requests.append(
                Request(len(requests), now, cfg.prompt_len, cfg.generate_len)
            )
    return requests


def _regime_weights(
    times: Sequence[float],
    k: int,
    regime_weight_at: Callable[[float], Sequence[float]],
) -> np.ndarray:
    """The ``(N, k)`` mixture matrix, validated as ``Generator.choice`` would.

    ``choice`` rejects NaN, a negative entry, or a Kahan-summed row more
    than ``sqrt(eps)`` from 1.  The sum check is mirrored column by column
    so the same rows fail; it is tighter than the ``np.isclose`` test the
    per-request loop ran first, so it subsumes it.
    """
    msg = f"regime_weight_at must return {k} probabilities summing to 1"
    rows = [regime_weight_at(t) for t in times]
    try:
        w = np.array(rows, dtype=np.float64)
    except ValueError as exc:  # ragged rows
        raise ValueError(msg) from exc
    if w.shape != (len(times), k):
        raise ValueError(msg)
    total = w[:, 0].copy()
    comp = np.zeros_like(total)
    for j in range(1, k):
        y = w[:, j] - comp
        t = total + y
        comp = (t - total) - y
        total = t
    bad = (w < 0).any(axis=1) | ~(np.abs(total - 1.0) <= np.sqrt(np.finfo(np.float64).eps))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{msg}; got {w[i].tolist()} at t={times[i]}")
    return w


def make_fleet_requests(
    base: Sequence[Request],
    fleet: FleetConfig,
    rng: np.random.Generator | None = None,
    regime_weight_at: Callable[[float], Sequence[float]] | None = None,
) -> list[FleetRequest]:
    """Label an arrival sequence with regimes and priority classes.

    ``regime_weight_at(t)`` returns the regime mixture probabilities at
    arrival time ``t`` (length ``fleet.num_regimes``); omitted, the mix is
    uniform and stationary.  Priorities are Bernoulli draws at
    ``fleet.interactive_fraction`` (class 0 = interactive, 1 = batch).

    Per request the stream holds one regime draw (none when there is one
    regime) then one priority draw.  A weighted regime draw is
    ``Generator.choice(k, p=w)``: one double ``u``, and the regime is the
    count of ``cumsum(w) / sum`` entries ``<= u``.  So the single-regime
    and weighted mixes label columnwise from one ``rng.random`` block,
    bit-identical to drawing request by request.  The uniform mix draws
    ``rng.integers``, whose bit consumption is not a fixed number of
    doubles, so it stays a per-request loop.
    """
    rng = rng or np.random.default_rng(0)
    k = fleet.num_regimes
    n = len(base)
    if n == 0:
        return []
    if k == 1:
        regimes = np.zeros(n, dtype=np.int64)
        u_pri = rng.random(n)
    elif regime_weight_at is None:
        draws = [(int(rng.integers(k)), rng.random()) for _ in range(n)]
        regimes = np.array([r for r, _ in draws], dtype=np.int64)
        u_pri = np.array([u for _, u in draws], dtype=np.float64)
    else:
        w = _regime_weights([q.arrival_s for q in base], k, regime_weight_at)
        u = rng.random(2 * n)
        cdf = np.cumsum(w, axis=1)
        cdf /= cdf[:, -1:]
        regimes = (cdf <= u[0::2, None]).sum(axis=1)
        u_pri = u[1::2]
    priorities = np.where(u_pri < fleet.interactive_fraction, 0, 1)
    return [
        FleetRequest(
            req_id=q.req_id,
            arrival_s=q.arrival_s,
            prompt_len=q.prompt_len,
            generate_len=q.generate_len,
            regime=regime,
            priority=priority,
        )
        for q, regime, priority in zip(
            base, regimes.tolist(), priorities.tolist(), strict=True
        )
    ]
