"""Decode workload construction for the engine.

A :class:`DecodeWorkload` gives each generation iteration an (R, L) expert
path matrix (R = total requests, L = MoE layers) plus each request's home
GPU.  Workloads can be synthesised from a Markov routing model (any size,
fast) or sliced from a real model generation trace.

The drift scenario family (:class:`DriftScenario` and friends) extends the
static Markov generators to *time-varying* routing: the fleet engines ask
each regime's ``model_at(t)`` for the routing model governing the decode
step starting at simulation time ``t``, which is how workload drift — the
thing online re-placement exists to absorb — enters the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.config import ClusterConfig, InferenceConfig, ModelConfig
from repro.trace.events import RoutingTrace
from repro.trace.markov import MarkovRoutingModel

__all__ = [
    "DecodeWorkload",
    "make_decode_workload",
    "workload_from_trace",
    "DriftScenario",
    "GradualDrift",
    "AbruptDrift",
    "DiurnalDrift",
    "DRIFT_KINDS",
    "make_drift_scenario",
]


@dataclass(frozen=True)
class DecodeWorkload:
    """Routing decisions of every request across all generation iterations.

    Attributes
    ----------
    paths:
        (iterations, R, L) expert ids — iteration-major.
    home_gpu:
        (R,) data-parallel home of each request.
    num_experts:
        Experts per layer.
    prompt_len:
        Context length at the first decode iteration (attention cost grows
        from here).
    """

    paths: np.ndarray
    home_gpu: np.ndarray
    num_experts: int
    prompt_len: int
    secondary_paths: np.ndarray | None = None

    def __post_init__(self) -> None:
        paths = np.asarray(self.paths, dtype=np.int64)
        home = np.asarray(self.home_gpu, dtype=np.int64)
        if paths.ndim != 3:
            raise ValueError(f"paths must be (iters, requests, layers), got {paths.shape}")
        if home.shape != (paths.shape[1],):
            raise ValueError("home_gpu must have one entry per request")
        if home.size and home.min() < 0:
            raise ValueError(f"home_gpu ranks must be >= 0, got {int(home.min())}")
        if paths.size and (paths.min() < 0 or paths.max() >= self.num_experts):
            raise ValueError("expert id out of range")
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "home_gpu", home)
        if self.secondary_paths is not None:
            sec = np.asarray(self.secondary_paths, dtype=np.int64)
            if sec.shape != paths.shape:
                raise ValueError("secondary_paths must match paths shape")
            if sec.size and (sec.min() < 0 or sec.max() >= self.num_experts):
                raise ValueError("secondary expert id out of range")
            object.__setattr__(self, "secondary_paths", sec)

    @property
    def iterations(self) -> int:
        return self.paths.shape[0]

    @property
    def num_requests(self) -> int:
        return self.paths.shape[1]

    @property
    def num_layers(self) -> int:
        return self.paths.shape[2]

    def flat_trace(self) -> RoutingTrace:
        """All iterations' paths stacked into one trace (for locality eval)."""
        flat = self.paths.reshape(-1, self.num_layers)
        return RoutingTrace(flat, self.num_experts, source="workload")


def make_decode_workload(
    model: ModelConfig,
    cluster: ClusterConfig,
    infer: InferenceConfig,
    routing: MarkovRoutingModel | None = None,
    affinity: float = 0.85,
    rng: np.random.Generator | None = None,
) -> DecodeWorkload:
    """Synthesise a decode workload with realistic affinity structure.

    When ``routing`` is omitted, a Markov model with the given ``affinity``
    strength is built over the model's MoE layer count — 0.85 matches the
    concentration the paper's heatmaps show for trained checkpoints.  With
    top-2 gating, secondary experts are drawn from the same transition rows
    (so the second choice shares the primary's affinity structure).
    """
    rng = rng or np.random.default_rng(infer.seed)
    if routing is None:
        routing = MarkovRoutingModel.with_affinity(
            model.num_experts, model.num_moe_layers, affinity, rng=rng
        )
    if routing.num_experts != model.num_experts:
        raise ValueError("routing model expert count differs from model config")
    if routing.num_layers != model.num_moe_layers:
        raise ValueError("routing model layer count differs from model config")

    r = infer.total_requests(cluster.num_gpus)
    iters = infer.generate_len
    trace = routing.sample(r * iters, rng)
    paths = trace.paths.reshape(iters, r, model.num_moe_layers)
    home = np.repeat(np.arange(cluster.num_gpus), infer.requests_per_gpu)

    secondary = None
    if model.gating.k == 2:
        alt = routing.sample(r * iters, rng).paths
        secondary = alt.reshape(iters, r, model.num_moe_layers)
    return DecodeWorkload(paths, home, model.num_experts, infer.prompt_len, secondary)


def workload_from_trace(
    trace: RoutingTrace,
    cluster: ClusterConfig,
    infer: InferenceConfig,
) -> DecodeWorkload:
    """Slice a recorded trace into per-iteration decode batches.

    Rows are consumed iteration-major; the trace must contain at least
    ``iterations * total_requests`` rows.
    """
    r = infer.total_requests(cluster.num_gpus)
    need = r * infer.generate_len
    if trace.num_tokens < need:
        raise ValueError(
            f"trace has {trace.num_tokens} tokens; workload needs {need} "
            f"({infer.generate_len} iterations x {r} requests)"
        )
    paths = trace.paths[:need].reshape(infer.generate_len, r, trace.num_layers)
    home = np.repeat(np.arange(cluster.num_gpus), infer.requests_per_gpu)
    return DecodeWorkload(paths, home, trace.num_experts, infer.prompt_len)


# -- drift scenarios ----------------------------------------------------------


class DriftScenario(Protocol):
    """Time-varying routing: ``model_at(t)`` is the regime at sim time ``t``.

    A :class:`MarkovRoutingModel` is the constant case: its ``model_at``
    returns the model itself.  Implementations must be deterministic
    functions of ``t`` (the online serving simulation may evaluate the same
    instant more than once — e.g. to score both the static and online
    placements against one regime).
    """

    def model_at(self, t: float) -> MarkovRoutingModel: ...

    @property
    def num_experts(self) -> int:
        return self.model_at(0.0).num_experts

    @property
    def num_layers(self) -> int:
        return self.model_at(0.0).num_layers


@dataclass
class _BlendedDrift(DriftScenario):
    """Shared machinery: convex blend between two regimes, cached.

    ``weight_at(t)`` in [0, 1] selects the mix: 0 is pure ``start``, 1 is
    pure ``end``.  Row-stochasticity survives convex combination, so every
    intermediate blend is itself a valid Markov router.  Blends are
    quantised to 1/64 steps and cached — the fleet engines ask for a model
    every decode step, and rebuilding (L-1, E, E) stacks per step would
    dominate the simulation.
    """

    start: MarkovRoutingModel
    end: MarkovRoutingModel
    _cache: dict[int, MarkovRoutingModel] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _QUANT = 64

    def __post_init__(self) -> None:
        if (
            self.start.num_experts != self.end.num_experts
            or self.start.num_layers != self.end.num_layers
        ):
            raise ValueError("drift endpoints disagree on trace shape")

    def weight_at(self, t: float) -> float:
        raise NotImplementedError

    def model_at(self, t: float) -> MarkovRoutingModel:
        w = min(1.0, max(0.0, self.weight_at(t)))
        q = int(round(w * self._QUANT))
        cached = self._cache.get(q)
        if cached is not None:
            return cached
        wq = q / self._QUANT
        if wq == 0.0:
            model = self.start
        elif wq == 1.0:
            model = self.end
        else:
            transitions = (1.0 - wq) * self.start.transitions + wq * self.end.transitions
            e = self.start.num_experts
            pa = self.start.prior if self.start.prior is not None else np.full(e, 1.0 / e)
            pb = self.end.prior if self.end.prior is not None else np.full(e, 1.0 / e)
            model = MarkovRoutingModel(transitions, (1.0 - wq) * pa + wq * pb)
        self._cache[q] = model
        return model


@dataclass
class GradualDrift(_BlendedDrift):
    """Linear Markov interpolation from ``start`` to ``end`` over a ramp.

    Before ``t_start`` the routing is purely the old regime; between
    ``t_start`` and ``t_end`` the transition stacks interpolate linearly;
    after ``t_end`` the new regime holds.  Models slow preference shifts
    (topic mix rotating over hours).
    """

    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.t_end > self.t_start:
            raise ValueError("t_end must be after t_start")

    def weight_at(self, t: float) -> float:
        return (t - self.t_start) / (self.t_end - self.t_start)


@dataclass
class AbruptDrift(_BlendedDrift):
    """Regime switch: old routing before ``switch_t``, new after.

    The hardest case for a static placement — all affinity structure the
    solve relied on is invalidated in one step (a viral prompt template, a
    model-facing product launch).
    """

    switch_t: float = 0.0

    def weight_at(self, t: float) -> float:
        return 0.0 if t < self.switch_t else 1.0


@dataclass
class DiurnalDrift(_BlendedDrift):
    """Smooth periodic mixture between two regimes (day/night traffic).

    The blend weight is ``(1 - cos(2*pi*t / period)) / 2`` — starts at the
    ``start`` regime, peaks at ``end`` mid-period, returns.  Tests whether
    the policy re-adapts repeatedly without thrashing.
    """

    period_s: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")

    def weight_at(self, t: float) -> float:
        return 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period_s))


DRIFT_KINDS: tuple[str, ...] = ("none", "gradual", "abrupt", "diurnal")


def make_drift_scenario(
    kind: str,
    num_experts: int,
    num_layers: int,
    horizon_s: float,
    affinity: float = 0.85,
    seed: int = 0,
) -> DriftScenario:
    """Build a named drift scenario over a serving horizon.

    Two independent Markov regimes of equal affinity *strength* but
    unrelated *structure* (different successor permutations) are drawn from
    ``seed`` and ``seed + 101``; the drift kind decides how traffic moves
    between them across ``horizon_s`` (the expected serving span — e.g.
    ``num_requests / arrival_rate``):

    * ``none`` — regime A throughout (control arm): the model itself.
    * ``gradual`` — linear interpolation across the middle half.
    * ``abrupt`` — hard switch at the midpoint.
    * ``diurnal`` — cosine mixture with period ``horizon_s / 2`` (two full
      day/night cycles per run).
    """
    if kind not in DRIFT_KINDS:
        raise ValueError(f"unknown drift kind {kind!r}; choose from {DRIFT_KINDS}")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    a = MarkovRoutingModel.with_affinity(
        num_experts, num_layers, affinity, rng=np.random.default_rng(seed)
    )
    if kind == "none":
        return a
    b = MarkovRoutingModel.with_affinity(
        num_experts, num_layers, affinity, rng=np.random.default_rng(seed + 101)
    )
    if kind == "gradual":
        return GradualDrift(a, b, t_start=0.25 * horizon_s, t_end=0.75 * horizon_s)
    if kind == "abrupt":
        return AbruptDrift(a, b, switch_t=0.5 * horizon_s)
    return DiurnalDrift(a, b, period_s=0.5 * horizon_s)
