"""Request-level serving layer: arrivals, continuous batching, tail latency.

The batch engine answers "how long does one lockstep decode iteration
take"; this module answers the production question layered on top of it:
what latency distribution do *users* see when requests arrive continuously
— the "heavy traffic from millions of users" scenario family.

Three pieces compose:

* **Arrival processes** — :func:`poisson_arrivals` (memoryless open-loop
  traffic) and :func:`bursty_arrivals` (a two-state Markov-modulated
  Poisson process: flash-crowd bursts at ``burst_factor`` times the base
  rate, with the calm state slowed so the long-run mean rate is preserved).
* **Step pricers** — :func:`engine_step_time` probes the vectorized engine
  (:func:`repro.engine.executor.simulate_inference`) at a handful of batch
  sizes and returns a :class:`StepCurve` that interpolates them, so a
  step is priced with the full placement-aware compute + collective cost
  model rather than a made-up constant.  Drifting routing and live
  re-placement need a per-step price instead: :class:`PlacementStepTimer`
  prices each step from its sampled routing under the current placement.
* **Online tracking** — :func:`_simulate_online_serving` runs a
  one-replica fleet engine (:mod:`repro.fleet.engine`) with a
  :class:`PlacementStepTimer` under drifting routing and tees a kept-mass
  tracker into its hook stream, so the result also carries the kept-mass
  timeline, the re-placement events and the final placement.

Continuous batching itself (waiting requests join at step boundaries
whenever a slot is free, finished requests leave immediately) is the fleet
engines' replica loop.  The public way in is :func:`repro.run`: a
``serving`` Scenario runs a curve-priced one-replica fleet, an ``online``
one goes through :func:`_simulate_online_serving`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Sequence

import numpy as np

from repro.cluster.collectives import allgather_cost, alltoall_matrix
from repro.cluster.topology import Topology
from repro.config import (
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
    check_dtype_bytes,
)
from repro.core.online import ReplacementEvent, model_kept_mass
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.costs import CostModel
from repro.engine.executor import route_counts, simulate_inference
from repro.engine.workload import DecodeWorkload, DriftScenario, make_decode_workload
from repro.obs.recorder import MetricsRecorder, TeeRecorder
from repro.trace.events import int64_array
from repro.trace.markov import MarkovRoutingModel

if TYPE_CHECKING:
    from repro.fleet.requests import FleetRequest
    from repro.fleet.result import FleetResult, OnlineServingResult

__all__ = [
    "Request",
    "poisson_arrivals",
    "bursty_arrivals",
    "make_arrivals",
    "StepCurve",
    "engine_step_time",
    "PlacementStepTimer",
    "KeptSample",
]


@dataclass(frozen=True)
class Request:
    """One user request entering the serving system."""

    req_id: int
    arrival_s: float
    prompt_len: int
    generate_len: int

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.prompt_len <= 0 or self.generate_len <= 0:
            raise ValueError("prompt_len and generate_len must be positive")


# -- arrival processes --------------------------------------------------------


def poisson_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> list[Request]:
    """Memoryless arrivals: exponential inter-arrival gaps at the mean rate."""
    rng = rng or np.random.default_rng(cfg.seed)
    gaps = rng.exponential(1.0 / cfg.arrival_rate_rps, size=cfg.num_requests)
    times = np.cumsum(gaps)
    return [
        Request(i, float(times[i]), cfg.prompt_len, cfg.generate_len)
        for i in range(cfg.num_requests)
    ]


def bursty_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> list[Request]:
    """Markov-modulated Poisson arrivals with rate-preserving bursts.

    A two-state chain alternates between a *burst* state (instantaneous
    rate ``arrival_rate_rps * burst_factor``) and a *calm* state whose rate
    is solved so the long-run mean inter-arrival gap equals
    ``1 / arrival_rate_rps``; the stationary probability of the burst state
    is ``burst_fraction`` and ``burst_persistence`` sets dwell lengths.
    """
    rng = rng or np.random.default_rng(cfg.seed)
    p, bf = cfg.burst_fraction, cfg.burst_factor
    burst_rate = cfg.arrival_rate_rps * bf
    # solve the calm rate so E[gap] = p/burst_rate + (1-p)/calm_rate = 1/rate;
    # denom > 0 for every ServingConfig-valid shape (p < 1, burst_factor >= 1)
    denom = 1.0 / cfg.arrival_rate_rps - p / burst_rate
    calm_rate = (1.0 - p) / denom
    # stationary pi_burst = p given stay-probabilities (s_b, s_c);
    # feasibility (s_c >= 0) is guaranteed by ServingConfig validation
    s_b = cfg.burst_persistence
    s_c = 1.0 - p * (1.0 - s_b) / (1.0 - p) if p > 0 else 1.0

    requests = []
    now = 0.0
    in_burst = bool(rng.random() < p)
    for i in range(cfg.num_requests):
        rate = burst_rate if in_burst else calm_rate
        now += float(rng.exponential(1.0 / rate))
        requests.append(Request(i, now, cfg.prompt_len, cfg.generate_len))
        stay = s_b if in_burst else s_c
        if rng.random() >= stay:
            in_burst = not in_burst
    return requests


def make_arrivals(
    cfg: ServingConfig, rng: np.random.Generator | None = None
) -> list[Request]:
    """Build the arrival sequence ``cfg.arrival`` names."""
    if cfg.arrival == "poisson":
        return poisson_arrivals(cfg, rng)
    return bursty_arrivals(cfg, rng)


# -- step curves and continuous batching --------------------------------------


@dataclass(frozen=True, eq=False)
class StepCurve:
    """Price a decode step from its batch size alone: a calibrated curve.

    ``curve(batch_size)`` interpolates piecewise-linearly between the
    probed ``(batch_sizes, step_seconds)`` points and clamps outside them.
    As a fleet pricer it reads no token paths (the engines skip drawing
    them), and admission is free: the curve is a marginal slope, so the
    coherent modes' prompt AllGather is already excluded.  ``routing`` and
    ``placement`` are what the curve was calibrated on; a curve-priced
    fleet runs them as its one regime and placement.
    """

    batch_sizes: np.ndarray
    step_seconds: np.ndarray
    routing: MarkovRoutingModel
    placement: Placement
    #: the fleet engines sample token paths only for pricers that read them
    needs_paths: ClassVar[bool] = False

    def __call__(self, batch_size: int) -> float:
        if batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        return float(np.interp(float(batch_size), self.batch_sizes, self.step_seconds))

    def step_time(
        self, paths: np.ndarray | None, home_gpu: np.ndarray, context_lens: np.ndarray,
        placement: Placement, secondary_paths: np.ndarray | None = None,
    ) -> float:
        return self(len(home_gpu))

    def admission_time(self, home_gpu: np.ndarray, prompt_lens: np.ndarray) -> float:
        return 0.0


def engine_step_time(
    model: ModelConfig,
    cluster: ClusterConfig,
    mode: ExecutionMode = ExecutionMode.EXFLOW,
    prompt_len: int = 64,
    affinity: float = 0.85,
    placement_strategy: str = "staged",
    probe_requests_per_gpu: Sequence[int] = (1, 2, 4, 8),
    calibration_generate_len: int = 4,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> StepCurve:
    """Calibrate a :class:`StepCurve` against the vectorized engine.

    Runs two short engine simulations per probe batch size (the batched
    executor makes each probe cheap): one full-length run and one on its
    exact iteration-prefix, and takes the *marginal* seconds per decode
    iteration — the slope between the two — so one-time costs (the
    coherent modes' before-inference prompt AllGather) and the shared
    prefix cancel exactly instead of being amortised into every step.
    The curve interpolates piecewise-linearly over total batch size.
    Probes share one routing model and one placement, so the curve isolates
    the batch-size effect.  Batch sizes outside the probed range clamp to
    the nearest probe — pass probes covering your admission cap.
    """
    probes = sorted(set(int(b) for b in probe_requests_per_gpu))
    if not probes or probes[0] < 1:
        raise ValueError("probe_requests_per_gpu must be positive integers")

    routing = MarkovRoutingModel.with_affinity(
        model.num_experts,
        model.num_moe_layers,
        affinity,
        rng=np.random.default_rng(seed),
    )
    if mode.uses_affinity_placement:
        profile = routing.sample(2048, np.random.default_rng(seed + 1))
        placement = solve_placement(placement_strategy, profile, cluster)
    else:
        placement = vanilla_placement(
            model.num_moe_layers, model.num_experts, cluster.num_gpus
        )

    batch_sizes = []
    step_seconds = []
    for b in probes:
        infer = InferenceConfig(
            requests_per_gpu=b,
            prompt_len=prompt_len,
            generate_len=2 * calibration_generate_len,
            mode=mode,
            seed=seed,
        )
        # disjoint seed offset: must not replay the placement-profile stream
        # (seed + 1), or the smallest probe would be scored on the very
        # token paths the affinity placement was fit to
        hi_workload = make_decode_workload(
            model,
            cluster,
            infer,
            routing=routing,
            rng=np.random.default_rng(seed + 1000 + b),
        )
        # the lo run is the exact iteration-prefix of the hi run (secondary
        # paths included), so the hi - lo difference isolates the marginal
        # cost of the extra iterations with no workload re-draw noise
        lo_workload = DecodeWorkload(
            hi_workload.paths[:calibration_generate_len],
            hi_workload.home_gpu,
            hi_workload.num_experts,
            hi_workload.prompt_len,
            None
            if hi_workload.secondary_paths is None
            else hi_workload.secondary_paths[:calibration_generate_len],
        )
        hi = simulate_inference(
            model, cluster, infer, placement, hi_workload, cost_model
        ).total_time_s
        lo = simulate_inference(
            model, cluster, infer, placement, lo_workload, cost_model
        ).total_time_s
        batch_sizes.append(b * cluster.num_gpus)
        step_seconds.append((hi - lo) / calibration_generate_len)

    return StepCurve(
        np.asarray(batch_sizes, dtype=np.float64),
        np.asarray(step_seconds, dtype=np.float64),
        routing,
        placement,
    )


# -- online drift-aware serving -----------------------------------------------


#: entries each of a timer's price memos holds; a full memo is cleared
_MEMO_CAP = 1 << 16


def _remember(memo: dict[bytes, float], key: bytes, time_s: float) -> None:
    """Store ``time_s`` under ``key``, clearing ``memo`` first when it is full."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = time_s


class PlacementStepTimer:
    """Price one continuous-batching decode step from that step's routing.

    :func:`engine_step_time` calibrates a ``step_time(batch_size)`` curve
    against one frozen routing model and one frozen placement — exactly
    right for a closed-loop benchmark, structurally wrong for the online
    setting where both the routing *and* the placement change mid-run.
    This timer instead prices each step directly: given the step's (B, L)
    expert paths, each request's home GPU and context length, and the
    *current* placement, it does the batched engine's per-step arithmetic
    (lockstep per-GPU maxima for compute, pairwise-exchange Alltoall for
    dispatch, ring AllGather for context coherence) for a single decode
    iteration.  On a one-iteration workload it matches
    :func:`repro.engine.executor.simulate_inference` to 1e-12, not bit for
    bit (the engine adds up its total in another order), up to the
    one-time prompt AllGather, which :meth:`admission_time` prices
    separately (the fleet engines charge it when requests join the batch).

    A step counts all its token routes with one
    :func:`~repro.engine.executor.route_counts` call, and prices each
    layer's Alltoall from an exact memo keyed on that layer's (G, G) token
    counts; AllGathers are memoised by payload.  Misses go
    through the module-global collectives, and each memo is cleared when
    it reaches ``_MEMO_CAP`` entries.
    """

    #: the fleet engines sample token paths only for pricers that read them
    needs_paths: ClassVar[bool] = True

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterConfig,
        mode: ExecutionMode = ExecutionMode.EXFLOW,
        dtype_bytes: int = 2,
        cost_model: CostModel | None = None,
    ) -> None:
        check_dtype_bytes(dtype_bytes)
        self.model = model
        self.cluster = cluster
        self.mode = mode
        self.topo = Topology(cluster)
        self.cost = cost_model or CostModel(model, gpu_flops=cluster.gpu_flops)
        self.token_bytes = self.cost.token_bytes(dtype_bytes)
        self.coherent = mode.uses_context_coherence
        # AllGather seconds by payload: few distinct payloads recur
        self._allgather_memo: dict[tuple[float, ...], float] = {}
        # Alltoall seconds by one layer's int64 (G, G) token counts
        self._alltoall_memo: dict[bytes, float] = {}
        # layer indices, and (layer, gpu) keys of the attention bincount
        self._layers = np.arange(model.num_moe_layers, dtype=np.int64)[None, :]
        self._row = self._layers * cluster.num_gpus

    def _allgather_s(self, payload: Sequence[float]) -> float:
        """Seconds of one context AllGather of ``payload``, memoised exactly.

        The price is a pure function of the (G,) payload bytes, so keying
        on their values returns the very float a fresh call would (an int
        and the equal float are one key, as they are one float64).  A miss
        calls the module-global :func:`allgather_cost`.
        """
        key = tuple(payload)
        time_s = self._allgather_memo.get(key)
        if time_s is None:
            time_s = allgather_cost(self.topo, np.array(key, dtype=np.float64)).time_s
            _remember(self._allgather_memo, key, time_s)
        return time_s

    def _alltoall_s(self, counts: np.ndarray) -> list[float]:
        """Seconds of each layer's Alltoall, memoised exactly.

        ``counts`` is (n, G*G) int64: row ``i`` holds one layer's tokens
        from rank ``src`` to rank ``dst`` at ``src * G + dst``, with a zero
        diagonal.  A slice of a stacked :func:`alltoall_matrix` call prices
        bit-identically to a single call, so a layer's seconds are a pure
        function of its row and keying on the row's bytes returns the very
        float a fresh call would.  All misses go through one stacked call
        to the module-global :func:`alltoall_matrix`.
        """
        memo = self._alltoall_memo
        width = counts.shape[1] * counts.itemsize
        buf = counts.tobytes()
        keys = [buf[i : i + width] for i in range(0, len(buf), width)]
        try:
            return [memo[key] for key in keys]
        except KeyError:  # one row per distinct missing key
            miss = {key: i for i, key in enumerate(keys) if key not in memo}
        g = self.cluster.num_gpus
        traffic = counts[list(miss.values())].astype(np.float64) * self.token_bytes
        priced = {
            key: res.time_s
            for key, res in zip(
                miss, alltoall_matrix(self.topo, traffic.reshape(-1, g, g)), strict=True
            )
        }
        times = [priced[key] if key in priced else memo[key] for key in keys]
        for key, time_s in priced.items():
            _remember(memo, key, time_s)
        return times

    def _check_inputs(
        self, paths: np.ndarray | None, home_gpu: np.ndarray, context_lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """Validated ``(paths, home, homes, ctxs)``: the last two are lists."""
        if paths is None:
            raise ValueError("PlacementStepTimer prices a step from its token paths")
        paths = int64_array(paths, "paths")
        home = int64_array(home_gpu, "home_gpu")
        ctx = int64_array(context_lens, "context_lens")
        L = self.model.num_moe_layers
        if paths.ndim != 2 or paths.shape[1] != L:
            raise ValueError(f"paths must be (batch, {L}), got {paths.shape}")
        if paths.shape[0] == 0:
            raise ValueError("step needs at least one active request")
        if home.shape != (paths.shape[0],) or ctx.shape != (paths.shape[0],):
            raise ValueError("home_gpu and context_lens must have one entry per request")
        # one reduction checks both ends: a negative id views as >= 2**63
        if paths.view(np.uint64).max() >= self.model.num_experts:
            raise ValueError("expert id out of range")
        homes, ctxs = home.tolist(), ctx.tolist()
        if min(homes) < 0 or max(homes) >= self.cluster.num_gpus:
            raise ValueError("home GPU rank out of range")
        if min(ctxs) < 1:
            raise ValueError("context lengths must be >= 1")
        return paths, home, homes, ctxs

    def step_time(
        self,
        paths: np.ndarray | None,
        home_gpu: np.ndarray,
        context_lens: np.ndarray,
        placement: Placement,
        secondary_paths: np.ndarray | None = None,
    ) -> float:
        """Seconds for one decode iteration of the given batch.

        ``paths`` is (B, L) expert ids for the active batch, ``home_gpu``
        (B,) data-parallel homes, ``context_lens`` (B,) per-request context
        lengths (continuous batching means they differ — attention is
        priced per token, not per lockstep iteration).
        """
        paths, home, homes, ctxs = self._check_inputs(paths, home_gpu, context_lens)
        if placement.num_layers != self.model.num_moe_layers:
            raise ValueError("placement layer count does not match model")
        if placement.num_experts != self.model.num_experts:
            raise ValueError("placement expert count does not match model")
        if placement.num_gpus != self.cluster.num_gpus:
            raise ValueError("placement GPU count does not match cluster")

        L = paths.shape[1]
        g = self.cluster.num_gpus
        cost = self.cost
        gpu_path = placement.gpu_of[self._layers, paths]  # (B, L)
        sec_path: np.ndarray | None = None
        if secondary_paths is not None and self.model.gating.k == 2:
            sec = int64_array(secondary_paths, "secondary_paths")
            if sec.shape != paths.shape:
                raise ValueError("secondary_paths must match paths shape")
            if sec.view(np.uint64).max() >= self.model.num_experts:
                raise ValueError("secondary expert id out of range")
            sec_path = placement.gpu_of[self._layers, sec]
        loc, occupancy, a2a = route_counts(gpu_path, home, sec_path, self.coherent, g)

        # compute: lockstep per-GPU maxima per layer, attention priced per
        # token at its own context length (weighted bincount, b-major like
        # loc); the integer maxima sums are exact, and a Python int times a
        # float is the double numpy's int64 times float64 gives
        att_flops = np.array([cost.attention_flops(c) for c in ctxs])
        att_per = np.bincount(
            (self._row + loc).ravel(), weights=att_flops.repeat(L), minlength=L * g
        ).reshape(L, g)
        attention_s = float(
            att_per.max(axis=1).sum() / (cost.gpu_flops * cost.attention_efficiency)
        )
        resident_max, ffn_max = map(sum, occupancy.max(axis=2).tolist())
        gating_s = resident_max * cost.gating_flops() / (cost.gpu_flops * cost.gating_efficiency)
        ffn_s = ffn_max * cost.ffn_flops() / (cost.gpu_flops * cost.ffn_efficiency)

        # communication: per-layer dispatch Alltoall (+ combine for vanilla),
        # plus the coherent modes' one per-iteration context AllGather
        layer_s = self._alltoall_s(a2a)
        comm_s = sum(layer_s[:L])
        if self.coherent:
            comm_s += self._allgather_s([homes.count(r) * self.token_bytes for r in range(g)])
        else:
            comm_s += sum(layer_s[L:])

        return attention_s + gating_s + ffn_s + comm_s

    def admission_time(self, home_gpu: np.ndarray, prompt_lens: np.ndarray) -> float:
        """One-time cost of admitting requests into the running batch.

        Coherent modes must replicate each new request's prompt context to
        all ranks (the before-inference AllGather); vanilla keeps contexts
        home-resident, so admission is free.
        """
        home = int64_array(home_gpu, "home_gpu")
        plen = int64_array(prompt_lens, "prompt_lens")
        if home.ndim != 1 or home.shape != plen.shape:
            raise ValueError("home_gpu and prompt_lens must be aligned 1-D arrays")
        if home.size == 0:
            return 0.0
        if home.min() < 0 or home.max() >= self.cluster.num_gpus:
            raise ValueError("home GPU rank out of range")
        if plen.min() < 0:
            raise ValueError("prompt lengths must be >= 0")
        if not self.coherent:
            return 0.0
        payload = np.bincount(
            home, weights=plen.astype(np.float64), minlength=self.cluster.num_gpus
        )
        return self._allgather_s((payload * self.token_bytes).tolist())


@dataclass(frozen=True)
class KeptSample:
    """One point of the kept-transition-mass timeline.

    ``true_kept`` scores the then-current placement against the *true*
    instantaneous routing regime (analytic, estimator-free).
    """

    step: int
    time_s: float
    true_kept: float


class _KeptMassTracker(MetricsRecorder):
    """Rebuilds the online result's kept-mass timeline from the hook stream.

    Samples the one replica's true kept mass on every 4th step end, right
    after each migration stall under the new placement, and once more at
    the run's end if its last step was not sampled.  It also collects the
    migration events and the final placement.

    A sample depends only on the placement and the routing object
    ``drift.model_at`` returns, and consecutive samples mostly get the same
    (cached) blend, so the last sample's kept mass is reused while both
    stay the same.
    """

    def __init__(self, drift: DriftScenario, placement: Placement) -> None:
        self.drift = drift
        self.final_placement = placement
        self.steps = 0
        self.last_step_s = 0.0
        self.events: list[ReplacementEvent] = []
        self.kept_timeline: list[KeptSample] = []
        # (routing, kept) of the last sample under final_placement
        self._last_kept: tuple[MarkovRoutingModel, float] | None = None

    def _sample(self, t_s: float) -> None:
        routing = self.drift.model_at(t_s)
        if self._last_kept is not None and self._last_kept[0] is routing:
            kept = self._last_kept[1]
        else:
            kept = model_kept_mass(self.final_placement, routing)
            self._last_kept = (routing, kept)
        self.kept_timeline.append(KeptSample(self.steps, t_s, kept))

    def on_step_end(self, t_s: float, rid: int, step_s: float, batch: int) -> None:
        self.steps += 1
        self.last_step_s = t_s
        if self.steps % 4 == 0:
            self._sample(t_s)

    def on_replace(
        self, t_s: float, rid: int, placement: Placement, event: ReplacementEvent
    ) -> None:
        self.final_placement = placement
        self._last_kept = None
        self.events.append(event)
        self._sample(t_s + event.stall_s)

    def on_run_end(self, t_s: float) -> None:
        if not self.kept_timeline or self.kept_timeline[-1].step != self.steps:
            self._sample(self.last_step_s)




def _simulate_online_serving(
    engine: Callable[..., FleetResult],
    requests: Iterable[FleetRequest],
    model: ModelConfig,
    cluster: ClusterConfig,
    regimes: Sequence[DriftScenario],
    placements: Sequence[Placement],
    fleet: FleetConfig,
    recorder: MetricsRecorder | None = None,
    **kwargs: Any,
) -> OnlineServingResult:
    """Run a one-replica fleet ``engine`` with the kept-mass tracker tee'd in.

    The arguments are the engine's own; the tracker rides next to
    ``recorder`` and follows ``regimes[0]`` under ``placements[0]`` and
    every placement the replica migrates to.  Returns the engine's
    :class:`~repro.fleet.result.FleetResult` extended with the kept-mass
    timeline, the re-placement events and the final placement.
    """
    # imported here: the fleet modules import this one
    from repro.fleet.result import OnlineServingResult

    tracker = _KeptMassTracker(regimes[0], placements[0])
    res = engine(
        requests, model, cluster, regimes, placements, fleet,
        recorder=tracker if recorder is None else TeeRecorder((recorder, tracker)),
        **kwargs,
    )
    return OnlineServingResult(
        **vars(res),
        events=tuple(tracker.events),
        kept_timeline=tuple(tracker.kept_timeline),
        final_placement=tracker.final_placement,
    )
