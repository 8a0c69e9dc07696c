"""Property tests for the request-level serving layer."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, TelemetrySpec, get_scenario, run
from repro.cluster.collectives import allgather_cost, alltoall_matrix
from repro.config import (
    ClusterConfig,
    ExecutionMode,
    GatingKind,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
)
from repro.core.placement.base import Placement
from repro.core.placement.registry import solve_placement
from repro.engine.metrics import LatencyStats
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.serving import (
    PlacementStepTimer,
    Request,
    StepCurve,
    bursty_arrivals,
    engine_step_time,
    make_arrivals,
    poisson_arrivals,
)
from repro.fleet import FleetRequest, simulate_fleet_tick
from repro.trace.markov import MarkovRoutingModel
from fleet_runs import one_replica_fleet


@pytest.fixture
def cfg() -> ServingConfig:
    return ServingConfig(
        arrival_rate_rps=100.0, num_requests=200, generate_len=8, max_batch_requests=16
    )


class TestLatencyStats:
    def test_empty_sample(self):
        s = LatencyStats.from_samples([])
        assert s.count == 0 and s.mean_s == 0.0 and s.p99_s == 0.0

    def test_percentiles_ordered(self, rng):
        s = LatencyStats.from_samples(rng.exponential(1.0, size=500))
        assert s.p50_s <= s.p95_s <= s.p99_s <= s.max_s
        assert s.count == 500

    def test_constant_sample(self):
        s = LatencyStats.from_samples([2.0] * 10)
        assert s.p50_s == s.p95_s == s.p99_s == s.max_s == s.mean_s == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([1.0, -0.5])


class TestArrivals:
    def test_poisson_shape_and_order(self, cfg):
        reqs = poisson_arrivals(cfg)
        assert len(reqs) == cfg.num_requests
        times = [q.arrival_s for q in reqs]
        assert times == sorted(times)
        assert all(q.generate_len == cfg.generate_len for q in reqs)

    def test_poisson_deterministic(self, cfg):
        a = poisson_arrivals(cfg)
        b = poisson_arrivals(cfg)
        assert a == b

    def test_poisson_mean_rate(self):
        cfg = ServingConfig(arrival_rate_rps=50.0, num_requests=4000)
        reqs = poisson_arrivals(cfg)
        measured = len(reqs) / reqs[-1].arrival_s
        assert 0.8 * 50.0 < measured < 1.25 * 50.0

    def test_bursty_mean_rate_preserved(self):
        cfg = ServingConfig(
            arrival="bursty", arrival_rate_rps=50.0, num_requests=4000,
            burst_factor=5.0, burst_fraction=0.3,
        )
        reqs = bursty_arrivals(cfg)
        measured = len(reqs) / reqs[-1].arrival_s
        # the MMPP calm rate is solved to preserve the long-run mean
        assert 0.7 * 50.0 < measured < 1.4 * 50.0

    @pytest.mark.parametrize(
        "shape",
        [
            # boundary: burst state at the base rate (denom -> (1-p)/rate)
            {"burst_factor": 1.0, "burst_fraction": 0.5, "burst_persistence": 0.5},
            # extreme rate multiplier with near-permanent dwell
            {"burst_factor": 100.0, "burst_fraction": 0.25, "burst_persistence": 0.99},
            # almost-always-bursting regime
            {"burst_factor": 8.0, "burst_fraction": 0.9, "burst_persistence": 0.95},
            # boundary: zero burst fraction degenerates to pure Poisson
            {"burst_factor": 50.0, "burst_fraction": 0.0, "burst_persistence": 0.0},
            # memoryless state switching (persistence 0)
            {"burst_factor": 4.0, "burst_fraction": 0.5, "burst_persistence": 0.0},
            # pathological multiplier
            {"burst_factor": 1000.0, "burst_fraction": 0.7, "burst_persistence": 0.8},
        ],
    )
    def test_bursty_long_run_rate_preserved(self, shape):
        """Property: the MMPP calm-rate solve must keep the long-run mean
        arrival rate at cfg.arrival_rate_rps for *every* feasible burst
        shape, including the boundary cases.  Averaged over seeds so the
        tolerance can be tight without flaking on one heavy-tailed draw."""
        rate = 50.0
        ratios = []
        for seed in range(8):
            cfg = ServingConfig(
                arrival="bursty",
                arrival_rate_rps=rate,
                num_requests=8000,
                seed=seed,
                **shape,
            )
            reqs = bursty_arrivals(cfg)
            ratios.append(len(reqs) / reqs[-1].arrival_s / rate)
        assert 0.95 < np.mean(ratios) < 1.05

    def test_bursty_gap_mean_matches_analytic(self):
        """The per-gap expectation itself is exact: E[gap] = 1/rate."""
        cfg = ServingConfig(
            arrival="bursty",
            arrival_rate_rps=200.0,
            num_requests=30000,
            burst_factor=6.0,
            burst_fraction=0.4,
            burst_persistence=0.9,
            seed=1,
        )
        gaps = np.diff([0.0, *(q.arrival_s for q in bursty_arrivals(cfg))])
        assert gaps.mean() == pytest.approx(1.0 / 200.0, rel=0.05)

    def test_bursty_has_fatter_gap_tail(self):
        base = ServingConfig(arrival_rate_rps=100.0, num_requests=3000, seed=5)
        burst = dataclasses.replace(
            base, arrival="bursty", burst_factor=8.0, burst_fraction=0.3
        )
        def gaps(reqs):
            return np.diff([q.arrival_s for q in reqs])

        g_pois, g_burst = gaps(make_arrivals(base)), gaps(make_arrivals(burst))
        # same mean scale, but modulated arrivals have higher variance
        assert g_burst.var() > g_pois.var()

    def test_dispatch_by_name(self, cfg):
        assert make_arrivals(cfg) == poisson_arrivals(cfg)
        bc = dataclasses.replace(cfg, arrival="bursty")
        assert make_arrivals(bc) == bursty_arrivals(bc)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(0, -1.0, 8, 8)
        with pytest.raises(ValueError):
            Request(0, 0.0, 0, 8)


class TestArrivalDeterminism:
    """Property: arrivals are a pure function of ServingConfig.

    The whole benchmark methodology leans on this — the same seed must
    yield byte-identical arrival sequences for every process family, so
    static/online (and fleet) arms serve literally the same traffic.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        arrival=st.sampled_from(["poisson", "bursty"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=0.5, max_value=500.0),
        n=st.integers(min_value=1, max_value=150),
        burst_factor=st.floats(min_value=1.0, max_value=50.0),
        burst_fraction=st.floats(min_value=0.0, max_value=0.6),
    )
    def test_same_seed_same_sequence(
        self, arrival, seed, rate, n, burst_factor, burst_fraction
    ):
        cfg = ServingConfig(
            arrival=arrival,
            arrival_rate_rps=rate,
            num_requests=n,
            burst_factor=burst_factor,
            burst_fraction=burst_fraction,
            seed=seed,
        )
        a = make_arrivals(cfg)
        b = make_arrivals(cfg)
        assert a == b  # Request is frozen: equality is field-for-field

    @settings(max_examples=40, deadline=None)
    @given(
        arrival=st.sampled_from(["poisson", "bursty"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=0.5, max_value=500.0),
        n=st.integers(min_value=2, max_value=150),
    )
    def test_times_strictly_increasing_ids_sequential(self, arrival, seed, rate, n):
        cfg = ServingConfig(
            arrival=arrival, arrival_rate_rps=rate, num_requests=n, seed=seed
        )
        reqs = make_arrivals(cfg)
        times = np.array([q.arrival_s for q in reqs])
        assert (np.diff(times) > 0).all()
        assert [q.req_id for q in reqs] == list(range(n))

    def test_different_seeds_differ(self):
        base = ServingConfig(arrival_rate_rps=100.0, num_requests=50, seed=0)
        other = dataclasses.replace(base, seed=1)
        assert make_arrivals(base) != make_arrivals(other)


class TestServingConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival": "uniform"},
            {"arrival_rate_rps": 0.0},
            {"num_requests": 0},
            {"burst_factor": 0.5},
            {"burst_fraction": 1.0},
            {"burst_persistence": 1.0},
            {"max_batch_requests": 0},
            {"prompt_len": 0},
            {"generate_len": -1},
            # infeasible two-state chain: no calm-state stay probability
            # can realize this burst fraction at this persistence
            {"burst_fraction": 0.95, "burst_persistence": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


@pytest.fixture
def serve(small_model, small_cluster):
    """A one-replica tick fleet on the small model, priced by a flat curve."""
    routing = MarkovRoutingModel.with_affinity(
        small_model.num_experts, small_model.num_moe_layers, 0.85,
        rng=np.random.default_rng(0),
    )
    placement = vanilla_placement(
        small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
    )

    def serve(requests, seconds, max_batch_requests=64):
        curve = StepCurve(np.array([1.0]), np.array([seconds]), routing, placement)
        reqs = [
            FleetRequest(q.req_id, q.arrival_s, q.prompt_len, q.generate_len) for q in requests
        ]
        return simulate_fleet_tick(
            reqs, small_model, small_cluster, [routing], [placement], one_replica_fleet(len(reqs)),
            max_batch_requests=max_batch_requests, timer=curve,
        )

    return serve


class TestContinuousBatching:
    def test_all_requests_complete(self, cfg, serve):
        res = serve(poisson_arrivals(cfg), 1e-3, 16)
        assert len(res.completed) == cfg.num_requests
        assert res.generated_tokens == cfg.num_requests * cfg.generate_len

    def test_empty_input(self, serve):
        res = serve([], 1e-3)
        assert res.completed == () and res.replicas == ()

    def test_zero_makespan_throughput_is_zero(self, serve):
        """Regression: zero-span results used to report inf throughput."""
        res = serve([], 1e-3)
        assert res.makespan_s == 0.0
        assert res.throughput_rps == 0.0
        assert res.throughput_tokens_per_s == 0.0
        assert np.isfinite(res.throughput_rps)

    def test_unloaded_latency_is_pure_service(self, serve):
        req = Request(0, 1.0, 8, 10)
        res = serve([req], 2e-3, 4)
        c = res.completed[0]
        assert c.queue_s == 0.0
        assert c.latency_s == pytest.approx(10 * 2e-3)

    def test_latency_lower_bound(self, cfg, serve):
        """No request can finish faster than generate_len decode steps."""
        res = serve(poisson_arrivals(cfg), 1e-3, 16)
        for c in res.completed:
            assert c.latency_s >= cfg.generate_len * 1e-3 - 1e-12
            assert c.queue_s >= 0.0

    def test_percentiles_ordered(self, cfg, serve):
        res = serve(poisson_arrivals(cfg), 1e-3, 16)
        s = res.latency
        assert s.p50_s <= s.p95_s <= s.p99_s <= s.max_s

    def test_batching_beats_serial(self, cfg, serve):
        """With a flat step cost, continuous batching must raise throughput."""
        reqs = poisson_arrivals(cfg)
        batched = serve(reqs, 1e-3, 16)
        serial = serve(reqs, 1e-3, 1)
        assert batched.throughput_tokens_per_s > serial.throughput_tokens_per_s
        assert batched.latency.mean_s < serial.latency.mean_s

    def test_more_load_more_latency(self, serve):
        lo = ServingConfig(arrival_rate_rps=20.0, num_requests=200, generate_len=8)
        hi = dataclasses.replace(lo, arrival_rate_rps=2000.0)
        res_lo = serve(poisson_arrivals(lo), 1e-3, 8)
        res_hi = serve(poisson_arrivals(hi), 1e-3, 8)
        assert res_hi.latency.mean_s >= res_lo.latency.mean_s
        assert res_hi.queue.mean_s >= res_lo.queue.mean_s

    def test_batch_cap_respected(self, cfg, serve):
        res = serve(poisson_arrivals(cfg), 1e-3, 4)
        assert res.replicas[0].mean_batch_size <= 4.0 + 1e-9

    def test_mean_batch_and_utilization_bounds(self, cfg, serve):
        replica = serve(poisson_arrivals(cfg), 1e-3, 16).replicas[0]
        assert 0.0 < replica.mean_batch_size <= 16.0
        assert 0.0 < replica.utilization <= 1.0

    def test_rejects_bad_step_time(self, cfg, serve):
        with pytest.raises(ValueError):
            serve(poisson_arrivals(cfg), 0.0, 16)
        with pytest.raises(ValueError):
            serve(poisson_arrivals(cfg), 1e-3, 0)

    def test_deterministic(self, cfg, serve):
        a = serve(poisson_arrivals(cfg), 1e-3, 16)
        b = serve(poisson_arrivals(cfg), 1e-3, 16)
        assert a.latency == b.latency and a.makespan_s == b.makespan_s


class TestEngineCalibration:
    @pytest.fixture
    def tiny(self, small_model, small_cluster):
        return small_model, small_cluster

    def test_step_time_positive_and_monotone_probes(self, tiny):
        model, cluster = tiny
        step = engine_step_time(
            model, cluster, mode=ExecutionMode.VANILLA,
            probe_requests_per_gpu=(1, 4), calibration_generate_len=2,
        )
        assert step(1) > 0
        # more tokens per step can never be cheaper under lockstep maxima
        assert step(4 * cluster.num_gpus) >= step(cluster.num_gpus)

    def test_interpolates_between_probes(self, tiny):
        model, cluster = tiny
        step = engine_step_time(
            model, cluster, mode=ExecutionMode.VANILLA,
            probe_requests_per_gpu=(1, 4), calibration_generate_len=2,
        )
        lo, hi = step(cluster.num_gpus), step(4 * cluster.num_gpus)
        mid = step(2 * cluster.num_gpus)
        assert min(lo, hi) - 1e-15 <= mid <= max(lo, hi) + 1e-15

    def test_rejects_bad_probes(self, tiny):
        model, cluster = tiny
        with pytest.raises(ValueError):
            engine_step_time(model, cluster, probe_requests_per_gpu=(0,))
        with pytest.raises(ValueError):
            engine_step_time(model, cluster, probe_requests_per_gpu=(-999,))
        with pytest.raises(ValueError):
            engine_step_time(model, cluster, probe_requests_per_gpu=())

    def test_probe_streams_disjoint_from_placement_profile(self, tiny):
        """Audit: the probe workloads (seed + 1000 + b) must never replay
        the placement-profile stream (seed + 1) or the routing-build stream
        (seed) — otherwise the smallest probe would be scored on the very
        token paths the affinity placement was fit to.  Probes are
        validated >= 1, so the offsets are disjoint for every b; this pins
        the contract across the whole admissible probe range."""
        seed = 0
        reserved = {seed, seed + 1}
        for b in range(1, 4097):
            assert seed + 1000 + b not in reserved

        # behavioural check for the smallest probe: its workload draws a
        # different token stream than the profile the placement was fit to
        model, cluster = tiny
        from repro.engine.workload import make_decode_workload

        routing = MarkovRoutingModel.with_affinity(
            model.num_experts, model.num_moe_layers, 0.85,
            rng=np.random.default_rng(seed),
        )
        profile = routing.sample(2048, np.random.default_rng(seed + 1))
        infer = InferenceConfig(requests_per_gpu=1, prompt_len=16, generate_len=8)
        probe_wl = make_decode_workload(
            model, cluster, infer, routing=routing,
            rng=np.random.default_rng(seed + 1000 + 1),
        )
        flat = probe_wl.paths.reshape(-1, model.num_moe_layers)
        assert not np.array_equal(flat, profile.paths[: len(flat)])

    def test_compute_floor_dominated(self, tiny):
        """Calibrated step time must exceed the single-GPU compute floor
        divided by the GPU count (communication and imbalance only add)."""
        from repro.engine.costs import CostModel

        model, cluster = tiny
        step = engine_step_time(
            model, cluster, mode=ExecutionMode.VANILLA,
            probe_requests_per_gpu=(2,), calibration_generate_len=2, prompt_len=16,
        )
        cost = CostModel(model, gpu_flops=cluster.gpu_flops)
        floor = cost.decode_step_time(2, 16) / cluster.num_gpus
        assert step(2 * cluster.num_gpus) > floor


def _serve_scenario(model, cluster, serving):
    """``run()``'s FleetResult for a serving Scenario of these sections."""
    return run(Scenario(name="test-serve", model=model, cluster=cluster, serving=serving)).raw


class TestClusterServing:
    def test_end_to_end_tiny(self, small_model, small_cluster):
        serving = ServingConfig(
            arrival_rate_rps=500.0, num_requests=40, generate_len=4,
            max_batch_requests=8, prompt_len=8, seed=3,
        )
        res = _serve_scenario(small_model, small_cluster, serving)
        assert len(res.completed) == 40
        assert res.latency.p50_s <= res.latency.p99_s
        assert res.throughput_tokens_per_s > 0

    def test_deterministic_given_seed(self, small_model, small_cluster):
        serving = ServingConfig(
            arrival="bursty", arrival_rate_rps=300.0, num_requests=30,
            generate_len=4, max_batch_requests=8, prompt_len=8, seed=9,
        )
        a = _serve_scenario(small_model, small_cluster, serving)
        b = _serve_scenario(small_model, small_cluster, serving)
        assert a.latency == b.latency
        assert a.makespan_s == b.makespan_s


def _timer_calls(seed: int = 5) -> list[tuple[str, tuple]]:
    """A random step/admission sequence on a 2x2 cluster; home vectors recur."""
    rng = np.random.default_rng(seed)
    calls: list[tuple[str, tuple]] = []
    for _ in range(40):
        b = int(rng.integers(1, 6))
        home = rng.integers(0, 2, size=b) if rng.random() < 0.5 else rng.integers(0, 4, size=b)
        paths = rng.integers(0, 8, size=(b, 4))
        ctx = rng.integers(1, 64, size=b)
        calls.append(("step", (paths, home, ctx)))
        if rng.random() < 0.4:
            calls.append(("admit", (home, rng.integers(0, 3, size=b) * 8)))
    return calls


def _run_calls(timer, calls, placement) -> list[float]:
    out = []
    for kind, args in calls:
        if kind == "step":
            out.append(timer.step_time(*args, placement))
        else:
            out.append(timer.admission_time(*args))
    return out


class TestPlacementStepTimerMemo:
    """The memoised AllGather returns exactly the float a fresh timer would."""

    @pytest.fixture
    def setup(self, small_model, small_cluster):
        placement = vanilla_placement(4, 8, small_cluster.num_gpus)
        return small_model, small_cluster, placement

    @pytest.mark.parametrize(
        ("mode", "pinned"),
        [
            (ExecutionMode.EXFLOW, "775edb56f3e86b5f"),
            (ExecutionMode.VANILLA, "2011374c09ff247e"),
        ],
    )
    def test_memoised_timer_matches_fresh_timer(self, setup, mode, pinned):
        model, cluster, placement = setup
        calls = _timer_calls()
        timer = PlacementStepTimer(model, cluster, mode=mode)
        memo = _run_calls(timer, calls, placement)
        fresh = [
            _run_calls(PlacementStepTimer(model, cluster, mode=mode), [call], placement)[0]
            for call in calls
        ]
        assert memo == fresh
        # the sequence's floats as priced before the memo existed
        digest = hashlib.sha256(np.array(memo).tobytes()).hexdigest()[:16]
        assert digest == pinned

    def test_repeated_payload_skips_allgather(self, setup, monkeypatch):
        import repro.engine.serving as serving

        model, cluster, placement = setup
        seen: list[bytes] = []
        real = serving.allgather_cost

        def counting(topo, payload):
            seen.append(np.asarray(payload).tobytes())
            return real(topo, payload)

        monkeypatch.setattr(serving, "allgather_cost", counting)
        timer = PlacementStepTimer(model, cluster, mode=ExecutionMode.EXFLOW)
        _run_calls(timer, _timer_calls(), placement)
        assert seen  # misses still go through the module-global collective
        assert len(seen) == len(set(seen))
        paths = np.zeros((2, 4), dtype=np.int64)
        home = np.array([0, 3])
        plen = np.array([8, 1000])
        first = timer.step_time(paths, home, np.array([5, 9]), placement)
        admit = timer.admission_time(home, plen)
        calls = len(seen)
        assert timer.step_time(paths, home, np.array([7, 2]), placement) != first
        assert timer.admission_time(home, plen) == admit
        assert len(seen) == calls

    def test_admission_validates_at_boundary(self, setup):
        model, cluster, _ = setup
        coherent = PlacementStepTimer(model, cluster, mode=ExecutionMode.EXFLOW)
        vanilla = PlacementStepTimer(model, cluster, mode=ExecutionMode.VANILLA)
        for timer in (coherent, vanilla):
            with pytest.raises(ValueError, match="home GPU rank out of range"):
                timer.admission_time(np.array([0, cluster.num_gpus]), np.array([4, 4]))
            with pytest.raises(ValueError, match="home GPU rank out of range"):
                timer.admission_time(np.array([-1]), np.array([4]))
            with pytest.raises(ValueError, match="prompt lengths"):
                timer.admission_time(np.array([0, 1]), np.array([4, -1]))
            with pytest.raises(ValueError, match="aligned"):
                timer.admission_time(np.array([0, 1]), np.array([4]))
        # nothing invalid reached the memo
        assert coherent._allgather_memo == {}


def _pinned_price_calls(seed: int) -> list[tuple[str, tuple]]:
    """Steps with batches of 1 to 64 and top-2 secondaries, plus admissions,
    for a 12-layer, 16-expert model on a 2x4 cluster."""
    rng = np.random.default_rng(seed)
    calls: list[tuple[str, tuple]] = []
    for b in [1, 2, 3, 5, 8, 13, 21, 34, 64, *rng.integers(1, 65, size=11).tolist()]:
        paths = rng.integers(0, 16, size=(b, 12))
        secondary = (paths + rng.integers(1, 16, size=(b, 12))) % 16
        home = rng.integers(0, 8, size=b)
        ctx = rng.integers(1, 2048, size=b)
        calls.append(("step", (paths, home, ctx, secondary)))
        calls.append(("admit", (home, rng.integers(0, 512, size=b))))
    return calls


class TestStepPricePin:
    """Every step and admission float of three modes, pinned by digest.

    Each mode prices one call sequence with top-1 and top-2 gating, under a
    vanilla and an affinity-solved placement, with 12 MoE layers (enough
    for numpy's unrolled sums) on 8 GPUs.  A refactor of the step pricer
    must leave every float, so every digest, as it is.
    """

    @pytest.mark.parametrize(
        ("mode", "pinned"),
        [
            (ExecutionMode.EXFLOW, "484145618a9f9fdb"),
            (ExecutionMode.CONTEXT_COHERENT, "484145618a9f9fdb"),
            (ExecutionMode.VANILLA, "0a76ba61d576c993"),
        ],
    )
    def test_prices_match_pin(self, mode, pinned):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
        routing = MarkovRoutingModel.with_affinity(
            16, 12, affinity=0.8, rng=np.random.default_rng(3)
        )
        solved = solve_placement(
            "greedy", routing.sample(2000, np.random.default_rng(4)), cluster
        )
        prices: list[float] = []
        for gating in (GatingKind.TOP1, GatingKind.TOP2):
            model = ModelConfig(
                name="pin", num_layers=12, num_experts=16, d_model=64, num_heads=4,
                gating=gating,
            )
            timer = PlacementStepTimer(model, cluster, mode=mode)
            for placement in (vanilla_placement(12, 16, 8), solved):
                for kind, args in _pinned_price_calls(seed=17):
                    if kind == "step":
                        paths, home, ctx, sec = args
                        prices.append(timer.step_time(paths, home, ctx, placement, sec))
                    else:
                        prices.append(timer.admission_time(*args))
        digest = hashlib.sha256(np.array(prices).tobytes()).hexdigest()[:16]
        assert digest == pinned


def _dense_step_time(timer, paths, home, ctx, placement, secondary_paths=None) -> float:
    """The step pricer as it was before the one-bincount layout and the
    Alltoall memo: float (L, G, G) stacks and a fresh pricing of every
    collective.  Kept as the reference the lean pricer must equal."""
    paths = np.asarray(paths, dtype=np.int64)
    home = np.asarray(home, dtype=np.int64)
    ctx = np.asarray(ctx, dtype=np.int64)
    b, L = paths.shape
    g = timer.cluster.num_gpus
    cost = timer.cost
    layer_idx = np.arange(L, dtype=np.int64)
    gpu_path = placement.gpu_of[layer_idx[None, :], paths]
    top2 = secondary_paths is not None and timer.model.gating.k == 2
    if top2:
        sec_path = placement.gpu_of[layer_idx[None, :], np.asarray(secondary_paths)]
    if timer.coherent:
        loc = np.empty((b, L), dtype=np.int64)
        loc[:, 0] = home
        loc[:, 1:] = gpu_path[:, :-1]
    else:
        loc = np.broadcast_to(home[:, None], (b, L))
    keys = layer_idx[None, :] * g + loc

    att_flops = np.asarray(cost.attention_flops(ctx), dtype=np.float64)
    att_per = np.bincount(
        keys.ravel(),
        weights=np.broadcast_to(att_flops[:, None], (b, L)).ravel(),
        minlength=L * g,
    ).reshape(L, g)
    attention_s = float(
        att_per.max(axis=1).sum() / (cost.gpu_flops * cost.attention_efficiency)
    )
    resident = np.bincount(keys.ravel(), minlength=L * g).reshape(L, g)
    gating_s = float(
        resident.max(axis=1).sum()
        * cost.gating_flops()
        / (cost.gpu_flops * cost.gating_efficiency)
    )
    ffn_counts = np.bincount(
        (layer_idx[None, :] * g + gpu_path).ravel(), minlength=L * g
    ).reshape(L, g)
    if top2:
        ffn_counts = ffn_counts + np.bincount(
            (layer_idx[None, :] * g + sec_path).ravel(), minlength=L * g
        ).reshape(L, g)
    ffn_s = float(
        ffn_counts.max(axis=1).sum() * cost.ffn_flops() / (cost.gpu_flops * cost.ffn_efficiency)
    )

    def stacks(src, dst):
        base = layer_idx[None, :] * (g * g)
        counts = np.bincount((base + src * g + dst).ravel(), minlength=L * g * g)
        out = counts.reshape(L, g, g).astype(np.float64) * timer.token_bytes
        diag = np.arange(g)
        out[:, diag, diag] = 0.0
        return out

    dispatch = stacks(loc, gpu_path)
    if top2:
        dispatch += stacks(loc, sec_path)
        dispatch += stacks(sec_path, gpu_path)
    comm_s = sum(res.time_s for res in alltoall_matrix(timer.topo, dispatch))
    if timer.coherent:
        payload = np.bincount(home, minlength=g).astype(np.float64) * timer.token_bytes
        comm_s += allgather_cost(timer.topo, payload).time_s
    else:
        combine = stacks(gpu_path, np.broadcast_to(home[:, None], (b, L)))
        comm_s += sum(res.time_s for res in alltoall_matrix(timer.topo, combine))
    return attention_s + gating_s + ffn_s + float(comm_s)


_LEAN_CLUSTERS = {1: (1, 1), 2: (1, 2), 4: (2, 2), 8: (2, 4)}
# one timer per (mode, top-2, G), reused across examples so its memos hit
_REUSED_TIMERS: dict[tuple, PlacementStepTimer] = {}


def _lean_setup(mode, top2, gpus):
    model = ModelConfig(
        name="lean", num_layers=4, num_experts=8, d_model=32, num_heads=4,
        gating=GatingKind.TOP2 if top2 else GatingKind.TOP1,
    )
    nodes, per_node = _LEAN_CLUSTERS[gpus]
    cluster = ClusterConfig(num_nodes=nodes, gpus_per_node=per_node)
    key = (mode, top2, gpus)
    if key not in _REUSED_TIMERS:
        _REUSED_TIMERS[key] = PlacementStepTimer(model, cluster, mode=mode)
    return model, cluster, _REUSED_TIMERS[key]


def _random_step(rng, model, gpus, batch):
    """A balanced random placement and one step's (paths, home, ctx, secondary)."""
    L, E = model.num_moe_layers, model.num_experts
    slots = np.repeat(np.arange(gpus), E // gpus)
    placement = Placement(np.stack([rng.permutation(slots) for _ in range(L)]), gpus)
    # a narrow expert range makes count patterns recur between examples
    hi = int(rng.choice([2, E]))
    paths = rng.integers(0, hi, size=(batch, L))
    secondary = (paths + rng.integers(1, E, size=(batch, L))) % E
    home = rng.integers(0, gpus, size=batch)
    ctx = rng.integers(1, 300, size=batch)
    return placement, paths, home, ctx, secondary


class TestLeanStepPricer:
    """The one-bincount, Alltoall-memoised pricer equals the dense-stack one."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from(
            [ExecutionMode.EXFLOW, ExecutionMode.CONTEXT_COHERENT, ExecutionMode.VANILLA]
        ),
        top2=st.booleans(),
        gpus=st.sampled_from(sorted(_LEAN_CLUSTERS)),
        batch=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_reference(self, mode, top2, gpus, batch, seed):
        model, cluster, reused = _lean_setup(mode, top2, gpus)
        rng = np.random.default_rng(seed)
        placement, paths, home, ctx, secondary = _random_step(rng, model, gpus, batch)
        sec = secondary if top2 else None
        expected = _dense_step_time(reused, paths, home, ctx, placement, sec)
        fresh = PlacementStepTimer(model, cluster, mode=mode)
        assert fresh.step_time(paths, home, ctx, placement, sec) == expected
        assert reused.step_time(paths, home, ctx, placement, sec) == expected
        # the second call of the same step is all memo hits
        assert reused.step_time(paths, home, ctx, placement, sec) == expected

    def test_memo_bound(self, small_model, small_cluster, monkeypatch):
        import repro.engine.serving as serving

        cap = 5
        monkeypatch.setattr(serving, "_MEMO_CAP", cap)
        priced: set[bytes] = set()
        real = serving.alltoall_matrix

        def counting(topo, traffic):
            priced.update(t.tobytes() for t in np.asarray(traffic))
            return real(topo, traffic)

        monkeypatch.setattr(serving, "alltoall_matrix", counting)
        g = small_cluster.num_gpus
        rng = np.random.default_rng(11)
        for mode in (ExecutionMode.EXFLOW, ExecutionMode.VANILLA):
            timer = PlacementStepTimer(small_model, small_cluster, mode=mode)
            for _ in range(30):
                placement, paths, home, ctx, _ = _random_step(
                    rng, small_model, g, int(rng.integers(1, 9))
                )
                got = timer.step_time(paths, home, ctx, placement)
                assert len(timer._alltoall_memo) <= cap
                assert len(timer._allgather_memo) <= cap
                fresh = PlacementStepTimer(small_model, small_cluster, mode=mode)
                assert got == fresh.step_time(paths, home, ctx, placement)
                assert got == _dense_step_time(timer, paths, home, ctx, placement)
        assert len(priced) > 4 * cap


class TestPlacementStepTimerIntegralInputs:
    """Ids, ranks and lengths are counts: a fraction is an error, not a floor."""

    @pytest.fixture
    def setup(self, small_model, small_cluster):
        placement = vanilla_placement(4, 8, small_cluster.num_gpus)
        top2 = dataclasses.replace(small_model, gating=GatingKind.TOP2)
        timer = PlacementStepTimer(top2, small_cluster, mode=ExecutionMode.VANILLA)
        paths = np.random.default_rng(0).integers(0, 8, size=(2, 4))
        return timer, placement, paths

    @pytest.mark.parametrize(
        ("name", "delta"),
        [
            ("paths", 0.7),
            ("home_gpu", 0.2),
            ("context_lens", 0.9),
            ("secondary_paths", 0.5),
            ("context_lens", np.nan),
        ],
    )
    def test_step_time_rejects_fractions(self, setup, name, delta):
        timer, placement, paths = setup
        args = {
            "paths": paths,
            "home_gpu": np.array([0, 1]),
            "context_lens": np.array([5, 5]),
            "secondary_paths": paths,
        }
        args[name] = args[name] + delta
        with pytest.raises(ValueError, match=f"{name} must hold finite integers"):
            timer.step_time(placement=placement, **args)

    def test_integral_floats_price_as_ints(self, setup):
        timer, placement, paths = setup
        price = timer.step_time(paths, [0, 1], [5, 5], placement)
        assert timer.step_time(paths.astype(float), [0.0, 1.0], [5.0, 5.0], placement) == price
        with pytest.raises(ValueError, match="paths must hold finite integers"):
            timer.step_time(paths + 0.7, [0.2, 1.9], [5.9, 5.2], placement)

    @pytest.mark.parametrize(
        ("name", "index", "value", "match"),
        [
            ("paths", (1, 3), -1, "expert id out of range"),
            ("paths", (0, 0), 8, "expert id out of range"),
            ("home_gpu", 1, -1, "home GPU rank out of range"),
            ("home_gpu", 0, 4, "home GPU rank out of range"),
            ("context_lens", 1, 0, "context lengths must be >= 1"),
            # -1 used to wrap to the last expert, and 8 to raise IndexError
            ("secondary_paths", (1, 3), -1, "secondary expert id out of range"),
            ("secondary_paths", (0, 2), 8, "secondary expert id out of range"),
        ],
    )
    def test_step_time_rejects_out_of_range(self, setup, name, index, value, match):
        timer, placement, paths = setup
        args = {
            "paths": paths.copy(),
            "home_gpu": np.array([0, 1]),
            "context_lens": np.array([5, 5]),
            "secondary_paths": (paths + 1) % 8,
        }
        timer.step_time(placement=placement, **args)
        args[name][index] = value
        for mode in (ExecutionMode.EXFLOW, ExecutionMode.VANILLA):
            moded = PlacementStepTimer(timer.model, timer.cluster, mode=mode)
            with pytest.raises(ValueError, match=match):
                moded.step_time(placement=placement, **args)

    @pytest.mark.parametrize(
        ("name", "home", "plen"),
        [("home_gpu", [0.5, 1.0], [4, 4]), ("prompt_lens", [0, 1], [4.5, 4.0]),
         ("prompt_lens", [0, 1], [4.0, np.inf])],
    )
    def test_admission_time_rejects_fractions(self, setup, name, home, plen):
        timer, _, _ = setup
        for mode in (ExecutionMode.EXFLOW, ExecutionMode.VANILLA):
            moded = PlacementStepTimer(timer.model, timer.cluster, mode=mode)
            with pytest.raises(ValueError, match=f"{name} must hold finite integers"):
                moded.admission_time(np.array(home), np.array(plen))


class TestPlacementStepTimerDtype:
    @pytest.mark.parametrize("dtype_bytes", [0, -2, 3, float("nan"), 16])
    def test_rejects_bad_dtype_bytes(self, small_model, small_cluster, dtype_bytes):
        with pytest.raises(ValueError, match="dtype_bytes must be 1, 2, 4 or 8"):
            PlacementStepTimer(small_model, small_cluster, dtype_bytes=dtype_bytes)

    @pytest.mark.parametrize("dtype_bytes", [1, 2, 4, 8])
    def test_accepts_inference_config_precisions(self, small_model, small_cluster, dtype_bytes):
        timer = PlacementStepTimer(small_model, small_cluster, dtype_bytes=dtype_bytes)
        assert timer.token_bytes == small_model.d_model * dtype_bytes


# The serve smoke presets' report fields, pinned before the serving scenario
# kind moved onto the one-replica fleet engine: the perf benchmark's digest
# fields plus the step, batch, throughput and latency-histogram account
# (non-empty buckets), for the two presets and serve-bursty-smoke under every
# mode and serving seeds 0-2.  Every value must reproduce bit for bit.
SERVE_SMOKE_PINNED = {
    ("serve-poisson-smoke", "exflow", 0): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.12304185360337011, "latency_p50_s": 0.002082746880000005, "latency_p95_s": 0.0025572929135021087, "latency_p99_s": 0.002589056291294297, "availability": 1.0, "detection": {}, "decode_steps": 99, "mean_batch_size": 1.292929292929292, "throughput_rps": 260.0741053784281, "throughput_tokens_per_s": 1040.2964215137124, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "vanilla", 0): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.0976585845258665, "latency_p50_s": 0.004386994904244018, "latency_p95_s": 0.0049821920459176584, "latency_p99_s": 0.00504285638959175, "availability": 1.0, "detection": {}, "decode_steps": 72, "mean_batch_size": 1.7923884616700714, "throughput_rps": 327.6721668183125, "throughput_tokens_per_s": 1310.68866727325, "latency_hist": {"<0.005s": 30, "<0.01s": 2}},
    ("serve-bursty-smoke", "vanilla", 1): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.09773995037687189, "latency_p50_s": 0.004181717746049085, "latency_p95_s": 0.004682976431820907, "latency_p99_s": 0.004703166943437145, "availability": 1.0, "detection": {}, "decode_steps": 79, "mean_batch_size": 1.620253164556963, "throughput_rps": 327.39938864929206, "throughput_tokens_per_s": 1309.5975545971683, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "vanilla", 2): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.0522139747512715, "latency_p50_s": 0.004790372009433198, "latency_p95_s": 0.006225043266673657, "latency_p99_s": 0.006455001574303166, "availability": 1.0, "detection": {}, "decode_steps": 42, "mean_batch_size": 3.3442002738036543, "throughput_rps": 612.8627470411213, "throughput_tokens_per_s": 2451.4509881644854, "latency_hist": {"<0.005s": 20, "<0.01s": 12}},
    ("serve-bursty-smoke", "context_coherent", 0): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.09670676855485974, "latency_p50_s": 0.003187732085814767, "latency_p95_s": 0.0037158857453010877, "latency_p99_s": 0.0037417691886019143, "availability": 1.0, "detection": {}, "decode_steps": 83, "mean_batch_size": 1.542168674698792, "throughput_rps": 330.89721100387163, "throughput_tokens_per_s": 1323.5888440154865, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "context_coherent", 1): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.09685191540442739, "latency_p50_s": 0.0030944948371317282, "latency_p95_s": 0.003615475042524969, "latency_p99_s": 0.0036309295240775016, "availability": 1.0, "detection": {}, "decode_steps": 89, "mean_batch_size": 1.4382022471910088, "throughput_rps": 330.401312832861, "throughput_tokens_per_s": 1321.605251331444, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "context_coherent", 2): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.05088341420371587, "latency_p50_s": 0.003380437649723459, "latency_p95_s": 0.003817065979463228, "latency_p99_s": 0.003956068327987741, "availability": 1.0, "detection": {}, "decode_steps": 52, "mean_batch_size": 2.5365799471509813, "throughput_rps": 628.8886172591605, "throughput_tokens_per_s": 2515.554469036642, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "exflow", 0): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.09559857556343627, "latency_p50_s": 0.002089448740702368, "latency_p95_s": 0.0025754231971416085, "latency_p99_s": 0.002596800104157477, "availability": 1.0, "detection": {}, "decode_steps": 93, "mean_batch_size": 1.3763440860215037, "throughput_rps": 334.73302098278424, "throughput_tokens_per_s": 1338.932083931137, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "exflow", 1): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.0962930665084274, "latency_p50_s": 0.002413124322277414, "latency_p95_s": 0.0028875552477852684, "latency_p99_s": 0.002945576215289565, "availability": 1.0, "detection": {}, "decode_steps": 94, "mean_batch_size": 1.3617021276595724, "throughput_rps": 332.31883831635395, "throughput_tokens_per_s": 1329.2753532654158, "latency_hist": {"<0.005s": 32}},
    ("serve-bursty-smoke", "exflow", 2): {"completed": 32, "shed": 0, "lost": 0, "generated_tokens": 128, "makespan_s": 0.050582480249397196, "latency_p50_s": 0.0026284690212796807, "latency_p95_s": 0.002919164306072, "latency_p99_s": 0.0029832423040197214, "availability": 1.0, "detection": {}, "decode_steps": 62, "mean_batch_size": 2.0792755518725228, "throughput_rps": 632.6301091252114, "throughput_tokens_per_s": 2530.520436500846, "latency_hist": {"<0.005s": 32}},
}


@pytest.mark.parametrize("preset, mode, seed", sorted(SERVE_SMOKE_PINNED))
def test_serve_smoke_reports_are_pinned(preset, mode, seed):
    spec = get_scenario(preset)
    spec = dataclasses.replace(
        spec,
        mode=ExecutionMode(mode),
        serving=dataclasses.replace(spec.serving, seed=seed),
    )
    report = run(spec)
    pinned = dict(SERVE_SMOKE_PINNED[(preset, mode, seed)])
    hist = pinned.pop("latency_hist")
    assert {f: getattr(report, f) for f in pinned} == pinned
    assert report.latency_hist == {b: hist.get(b, 0) for b in report.latency_hist}
    assert sum(hist.values()) == report.completed


@pytest.mark.parametrize("preset", ["serve-poisson-smoke", "serve-bursty-smoke"])
def test_recorded_queue_gauge_counts_waiting_requests(preset):
    """Regression: the serving kind used to emit ``on_enqueue`` at the next
    step boundary instead of at arrival, so its timeline read an empty
    queue in windows where requests were in fact waiting.  At every window
    boundary ``t`` the gauge must count the requests with
    ``arrival_s <= t < admitted_s``."""
    spec = dataclasses.replace(get_scenario(preset), telemetry=TelemetrySpec())
    report = run(spec)
    tl = report.timeline
    done = report.raw.completed
    waiting = []
    for rel_s in tl["time_s"]:
        t = tl["t0_s"] + rel_s
        waiting.append(sum(c.request.arrival_s <= t < c.admitted_s for c in done))
    assert tl["windows"]["queue_total"] == waiting
    assert any(waiting)
