"""Front-end request routing across fleet replicas.

Four policies, from the classical load-balancing ladder up to the
placement-aware one the affinity angle of the paper enables:

* **round-robin** — cycle over routable replicas; ignores both load and
  placement.  The baseline every figure compares against.
* **jsq** (join-shortest-queue) — full-information load balancing: send to
  the replica with the fewest resident requests.
* **p2c** (power-of-two-choices) — sample two replicas uniformly, join the
  less loaded.  The Mitzenmacher result: almost all of JSQ's tail benefit
  at O(1) state, and what production routers actually deploy.
* **affinity** — *placement-aware* routing: score each replica by the
  kept-transition mass its placement achieves under the request's routing
  regime (:func:`~repro.core.online.model_kept_mass` — the same objective
  the placement solver maximises), discounted by a congestion penalty
  proportional to relative load.  Replicas whose placements were fit to
  the request's regime serve its tokens with fewer inter-GPU crossings, so
  each decode step is cheaper — routing and placement compose.

Kept-mass scores are cached per ``(replica, regime)`` against the
placement object's identity, so an online re-placement (new placement
object) invalidates exactly that replica's rows — and a router reused
across simulations never serves a stale score for a new run's placements.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import ROUTER_KINDS
from repro.core.online import model_kept_mass
from repro.engine.workload import DriftScenario
from repro.fleet.replica import Replica
from repro.fleet.requests import FleetRequest
from repro.trace.markov import MarkovRoutingModel

__all__ = [
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "PowerOfTwoRouter",
    "AffinityRouter",
    "make_router",
    "ROUTER_KINDS",
    "jsq_select",
    "jsq_waterfill",
    "p2c_select",
    "affinity_select",
    "rr_positions",
]


# -- array selection kernels ---------------------------------------------------
#
# The tick engine's scoring cores: it keeps replica state as arrays and has
# no Replica objects to hand, so it routes with these kernels where the
# oracle calls ``Router.choose``.  All operate on parallel arrays over one
# *candidate snapshot*: position i describes candidate i, ``ids`` carries
# replica ids for tie-breaks.


def jsq_select(loads: np.ndarray) -> int:
    """Join-shortest-queue over candidates sorted by id: first minimum."""
    return int(np.argmin(loads))


def jsq_waterfill(loads: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` JSQ picks when every pick adds one to its load.

    Returns ``(positions, prior)``: candidate positions in pick order, and
    how many times each pick's candidate was picked before it.  Repeated
    :func:`jsq_select` fills the lowest level first, lowest position first
    within a level, so pick order is ``(level, position)`` and ``prior`` is
    ``level - loads[position]``.  The fill stops at the first level ``x``
    with ``sum(max(0, x - loads)) >= count``.
    """
    n = loads.shape[0]
    ls = np.sort(loads)
    below = np.cumsum(ls)
    # picks made below each sorted load: sum(max(0, ls[j] - loads))
    filled = np.arange(n, dtype=np.int64) * ls - (below - ls)
    j = int(np.searchsorted(filled, count, side="left")) - 1
    top = -((-(count + int(below[j]))) // (j + 1))  # ceil((count + S) / (j + 1))
    reps = np.maximum(0, top - loads)
    pos = np.repeat(np.arange(n, dtype=np.int64), reps)
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    prior = np.arange(pos.size, dtype=np.int64) - starts
    order = np.argsort((loads[pos] + prior) * n + pos)[:count]  # (level, position)
    return pos[order], prior[order]


def rr_positions(start: int, count: int, num_candidates: int) -> np.ndarray:
    """The next ``count`` round-robin slots of an id-ordered candidate list."""
    return (start + np.arange(count, dtype=np.int64)) % num_candidates


def p2c_select(loads: np.ndarray, ids: np.ndarray, rng: np.random.Generator) -> int:
    """Draw two distinct candidates, keep the less loaded (ties: lower id)."""
    n = loads.shape[0]
    if n == 1:
        return 0
    i, j = rng.choice(n, size=2, replace=False)
    a, b = int(i), int(j)
    if (loads[b], ids[b]) < (loads[a], ids[a]):
        return b
    return a


def affinity_select(scores: np.ndarray, loads: np.ndarray, ids: np.ndarray) -> int:
    """Highest score; ties toward the lighter candidate, then the lower id."""
    best = np.flatnonzero(scores == scores.max())
    if best.size > 1:
        best = best[loads[best] == loads[best].min()]
        if best.size > 1:
            return int(best[np.argmin(ids[best])])
    return int(best[0])


class Router:
    """Pick a replica for each arriving request."""

    name = "base"

    def choose(
        self,
        request: FleetRequest,
        replicas: Sequence[Replica],
        rng: np.random.Generator,
    ) -> Replica:
        raise NotImplementedError

    @staticmethod
    def _check(replicas: Sequence[Replica]) -> None:
        if not replicas:
            raise ValueError("router needs at least one routable replica")


class RoundRobinRouter(Router):
    """Cycle over the routable replicas in id order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(
        self,
        request: FleetRequest,
        replicas: Sequence[Replica],
        rng: np.random.Generator,
    ) -> Replica:
        self._check(replicas)
        ordered = sorted(replicas, key=lambda r: r.replica_id)
        chosen = ordered[self._next % len(ordered)]
        self._next += 1
        return chosen



class JoinShortestQueueRouter(Router):
    """Full-information least-loaded routing (ties to the lowest id)."""

    name = "jsq"

    def choose(
        self,
        request: FleetRequest,
        replicas: Sequence[Replica],
        rng: np.random.Generator,
    ) -> Replica:
        self._check(replicas)
        return min(replicas, key=lambda r: (r.load, r.replica_id))



class PowerOfTwoRouter(Router):
    """Sample two replicas, join the less loaded one."""

    name = "p2c"

    def choose(
        self,
        request: FleetRequest,
        replicas: Sequence[Replica],
        rng: np.random.Generator,
    ) -> Replica:
        self._check(replicas)
        if len(replicas) == 1:
            return replicas[0]
        i, j = rng.choice(len(replicas), size=2, replace=False)
        a, b = replicas[int(i)], replicas[int(j)]
        return min(a, b, key=lambda r: (r.load, r.replica_id))



class AffinityRouter(Router):
    """Score replicas by kept mass under the request's regime, minus load.

    ``score(r) = kept_mass(r.placement, regime) - load_weight * load(r)/cap``

    With ``load_weight = 0`` this is pure placement matching (and can herd
    all traffic of one regime onto one replica); the default — shared with
    :class:`~repro.config.FleetConfig.affinity_load_weight` — trades one
    full batch of backlog against one unit of kept mass, so a
    matched-but-congested replica spills instead of herding.
    """

    name = "affinity"

    def __init__(
        self,
        regimes: Sequence[MarkovRoutingModel],
        load_weight: float = 1.0,
    ) -> None:
        if not regimes:
            raise ValueError("affinity routing needs at least one regime model")
        if load_weight < 0:
            raise ValueError("load_weight must be >= 0")
        self.regimes = tuple(regimes)
        self.load_weight = load_weight
        # (replica_id, regime) -> (placement object, score); the stored
        # placement is compared by identity so replacements — or a new
        # simulation reusing this router with fresh replicas — recompute
        self._kept_cache: dict[tuple[int, int], tuple[object, float]] = {}

    def kept_mass(self, replica: Replica, regime: int) -> float:
        """Cached kept-transition mass of a replica under one regime."""
        if not 0 <= regime < len(self.regimes):
            raise ValueError(f"regime {regime} out of range [0, {len(self.regimes)})")
        key = (replica.replica_id, regime)
        hit = self._kept_cache.get(key)
        if hit is not None and hit[0] is replica.placement:
            return hit[1]
        score = model_kept_mass(replica.placement, self.regimes[regime])
        self._kept_cache[key] = (replica.placement, score)
        return score

    def choose(
        self,
        request: FleetRequest,
        replicas: Sequence[Replica],
        rng: np.random.Generator,
    ) -> Replica:
        self._check(replicas)
        regime = request.regime

        def score(r: Replica) -> float:
            return self.kept_mass(r, regime) - self.load_weight * r.load / r.max_batch

        # max score; ties broken toward the lighter replica, then id
        return max(replicas, key=lambda r: (score(r), -r.load, -r.replica_id))


def make_router(
    kind: str,
    regimes: Sequence[DriftScenario] | None = None,
    load_weight: float = 1.0,
) -> Router:
    """Build the router policy ``kind`` names (see :data:`ROUTER_KINDS`)."""
    if kind == "round-robin":
        return RoundRobinRouter()
    if kind == "jsq":
        return JoinShortestQueueRouter()
    if kind == "p2c":
        return PowerOfTwoRouter()
    if kind == "affinity":
        if regimes is None:
            raise ValueError("affinity routing requires the regime model list")
        # scored against each regime at t=0, the model its placement was fit to
        return AffinityRouter([m.model_at(0.0) for m in regimes], load_weight=load_weight)
    raise ValueError(f"unknown router {kind!r}; choose from {ROUTER_KINDS}")
