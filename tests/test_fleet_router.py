"""Unit tests for the fleet routing policies."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import model_kept_mass
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.fleet.replica import ArrayQueue, Replica, ReplicaState
from repro.fleet.requests import FleetRequest
from repro.fleet.router import (
    AffinityRouter,
    JoinShortestQueueRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    affinity_select,
    jsq_select,
    make_router,
    p2c_select,
    rr_positions,
)
from repro.trace.markov import MarkovRoutingModel

L, E, G = 4, 8, 4


def _replica(rid: int, regime: int = 0, placement=None) -> Replica:
    return Replica(
        replica_id=rid,
        placement=placement or vanilla_placement(L, E, G),
        regime=regime,
        max_batch_requests=8,
        num_gpus=G,
    )


def _req(i: int = 0, regime: int = 0) -> FleetRequest:
    return FleetRequest(i, float(i), 8, 4, regime=regime)


def _load(replica: Replica, n: int) -> None:
    for i in range(n):
        replica.enqueue(_req(1000 + i))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRoundRobin:
    def test_cycles_in_id_order(self, rng):
        router = RoundRobinRouter()
        reps = [_replica(i) for i in range(3)]
        picks = [router.choose(_req(i), reps, rng).replica_id for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_survives_membership_change(self, rng):
        router = RoundRobinRouter()
        reps = [_replica(i) for i in range(3)]
        router.choose(_req(0), reps, rng)
        picks = {router.choose(_req(i), reps[:2], rng).replica_id for i in range(4)}
        assert picks <= {0, 1}

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            RoundRobinRouter().choose(_req(), [], rng)


class TestJoinShortestQueue:
    def test_picks_least_loaded(self, rng):
        reps = [_replica(i) for i in range(3)]
        _load(reps[0], 3)
        _load(reps[2], 1)
        assert JoinShortestQueueRouter().choose(_req(), reps, rng).replica_id == 1

    def test_counts_active_too(self, rng):
        reps = [_replica(0), _replica(1)]
        _load(reps[0], 2)
        reps[0].admit_up_to_capacity(0.0)  # 2 active, 0 queued
        _load(reps[1], 1)  # 0 active, 1 queued
        assert JoinShortestQueueRouter().choose(_req(), reps, rng).replica_id == 1

    def test_tie_breaks_lowest_id(self, rng):
        reps = [_replica(i) for i in range(3)]
        assert JoinShortestQueueRouter().choose(_req(), reps, rng).replica_id == 0


class TestPowerOfTwo:
    def test_single_replica(self, rng):
        reps = [_replica(0)]
        assert PowerOfTwoRouter().choose(_req(), reps, rng).replica_id == 0

    def test_picks_lighter_of_pair(self):
        reps = [_replica(0), _replica(1)]
        _load(reps[0], 5)
        rng = np.random.default_rng(1)
        router = PowerOfTwoRouter()
        # with two replicas both are always sampled: lighter one must win
        for i in range(10):
            assert router.choose(_req(i), reps, rng).replica_id == 1

    def test_never_picks_worst_of_sampled_pair(self):
        reps = [_replica(i) for i in range(4)]
        loads = {0: 6, 1: 4, 2: 2, 3: 0}
        for rid, n in loads.items():
            _load(reps[rid], n)
        router = PowerOfTwoRouter()
        rng = np.random.default_rng(2)
        # replica 0 is the heaviest: it can only be chosen against... nothing
        picks = [router.choose(_req(i), reps, rng).replica_id for i in range(50)]
        assert 0 not in picks


class TestAffinityRouter:
    @pytest.fixture
    def regimes(self):
        return [
            MarkovRoutingModel.with_affinity(E, L, 0.9, rng=np.random.default_rng(s))
            for s in (11, 222)
        ]

    @pytest.fixture
    def fitted(self, regimes):
        """One placement fit to each regime."""
        return [
            greedy_placement(m.sample(1500, np.random.default_rng(7 + i)), G)
            for i, m in enumerate(regimes)
        ]

    def test_routes_to_matching_placement(self, rng, regimes, fitted):
        reps = [_replica(0, 0, fitted[0]), _replica(1, 1, fitted[1])]
        router = AffinityRouter(regimes, load_weight=0.0)
        # sanity: each placement really keeps more mass under its own regime
        for k in (0, 1):
            own = model_kept_mass(fitted[k], regimes[k])
            other = model_kept_mass(fitted[1 - k], regimes[k])
            assert own > other
        assert router.choose(_req(0, regime=0), reps, rng).replica_id == 0
        assert router.choose(_req(1, regime=1), reps, rng).replica_id == 1

    def test_load_penalty_spills_to_unmatched(self, rng, regimes, fitted):
        reps = [_replica(0, 0, fitted[0]), _replica(1, 1, fitted[1])]
        gap = model_kept_mass(fitted[0], regimes[0]) - model_kept_mass(
            fitted[1], regimes[0]
        )
        router = AffinityRouter(regimes, load_weight=2.0 * gap * reps[0].max_batch)
        _load(reps[0], 1)  # any load now outweighs the kept-mass edge
        assert router.choose(_req(0, regime=0), reps, rng).replica_id == 1

    def test_cache_invalidated_by_placement_identity(self, regimes, fitted):
        router = AffinityRouter(regimes)
        r = _replica(0, 0, fitted[0])
        before = router.kept_mass(r, 0)
        r.placement = fitted[1]  # online re-placement swaps the object
        after = router.kept_mass(r, 0)
        assert before != after
        assert after == pytest.approx(model_kept_mass(fitted[1], regimes[0]))

    def test_cache_safe_across_simulation_reuse(self, regimes, fitted):
        """Regression: a router reused for a second simulation must not
        serve the first run's score for a fresh replica with the same id."""
        router = AffinityRouter(regimes)
        run1 = _replica(0, 0, fitted[0])
        router.kept_mass(run1, 0)
        run2 = _replica(0, 1, fitted[1])  # same replica_id, new placement
        assert router.kept_mass(run2, 0) == pytest.approx(
            model_kept_mass(fitted[1], regimes[0])
        )

    def test_out_of_range_regime_raises(self, rng, regimes, fitted):
        """Regression: out-of-range regimes used to clamp silently to the
        last regime — a labelling bug would just reshape traffic.  Now it
        is a configuration error."""
        reps = [_replica(0, 0, fitted[0]), _replica(1, 1, fitted[1])]
        router = AffinityRouter(regimes, load_weight=0.0)
        with pytest.raises(ValueError, match="regime 99 out of range"):
            router.choose(_req(0, regime=99), reps, rng)

    def test_validation(self, regimes):
        with pytest.raises(ValueError):
            AffinityRouter([])
        with pytest.raises(ValueError):
            AffinityRouter(regimes, load_weight=-0.1)
        with pytest.raises(ValueError):
            AffinityRouter(regimes).kept_mass(_replica(0), 5)


@functools.lru_cache(maxsize=1)
def _affinity_fixtures():
    """Two regimes + one fitted placement each, built once for hypothesis."""
    regimes = tuple(
        MarkovRoutingModel.with_affinity(E, L, 0.9, rng=np.random.default_rng(s))
        for s in (11, 222)
    )
    fitted = tuple(
        greedy_placement(m.sample(1500, np.random.default_rng(7 + i)), G)
        for i, m in enumerate(regimes)
    )
    return regimes, fitted


class TestKernelsMatchScalar:
    """Property: on a frozen snapshot, the array kernels the tick engine
    routes with pick the same replica, request by request, as scalar
    ``choose`` on ``Replica`` objects (the oracle's path), for every
    router kind."""

    @given(
        kind=st.sampled_from(["round-robin", "jsq", "p2c", "affinity"]),
        num_replicas=st.integers(1, 6),
        num_requests=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_equals_scalar(self, kind, num_replicas, num_requests, seed):
        regimes, fitted = _affinity_fixtures()
        rng = np.random.default_rng(seed)
        reps = []
        for rid in range(num_replicas):
            r = _replica(rid, rid % 2, fitted[rid % 2])
            for i in range(int(rng.integers(0, 6))):
                r.enqueue(_req(100 * rid + i))
            if rng.integers(0, 2):
                r.admit_up_to_capacity(0.0)  # split load across queue/batch
            reps.append(r)
        requests = [
            _req(i, regime=int(rng.integers(0, len(regimes))))
            for i in range(num_requests)
        ]
        # the tick engine's snapshot: id-ordered arrays, no Replica objects
        ids = np.array([r.replica_id for r in reps], dtype=np.int64)
        loads = np.array([r.load for r in reps], dtype=np.int64)
        caps = np.array([r.max_batch for r in reps], dtype=np.int64)

        router = AffinityRouter(regimes) if kind == "affinity" else make_router(kind)
        start = int(rng.integers(0, 7))  # round-robin joins mid-cycle
        if kind == "round-robin":
            for _ in range(start):
                router.choose(requests[0], reps, rng)
        scalar_rng = np.random.default_rng(seed + 1)
        scalar = [router.choose(q, reps, scalar_rng).replica_id for q in requests]

        kernel_rng = np.random.default_rng(seed + 1)
        if kind == "round-robin":
            picks = rr_positions(start, num_requests, ids.size).tolist()
        elif kind == "jsq":
            picks = [jsq_select(loads)] * num_requests
        elif kind == "p2c":
            picks = [p2c_select(loads, ids, kernel_rng) for _ in requests]
        else:
            picks = []
            for q in requests:
                kept = np.array(
                    [model_kept_mass(r.placement, regimes[q.regime]) for r in reps]
                )
                scores = kept - (router.load_weight * loads) / caps
                picks.append(affinity_select(scores, loads, ids))
        assert [int(ids[p]) for p in picks] == scalar


class TestMakeRouter:
    def test_builds_each_kind(self, regimes=None):
        regimes = [MarkovRoutingModel.with_affinity(E, L, 0.5)]
        assert make_router("round-robin").name == "round-robin"
        assert make_router("jsq").name == "jsq"
        assert make_router("p2c").name == "p2c"
        assert make_router("affinity", regimes=regimes).name == "affinity"

    def test_affinity_requires_regimes(self):
        with pytest.raises(ValueError):
            make_router("affinity")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_router("random")


class TestReplicaGuards:
    def test_enqueue_rejected_when_not_servable(self):
        r = _replica(0)
        r.state = ReplicaState.BOOTING
        with pytest.raises(RuntimeError):
            r.enqueue(_req())

    def test_draining_still_accepts_queued_work(self):
        r = _replica(0)
        r.state = ReplicaState.DRAINING
        r.enqueue(_req())  # drain path keeps serving what it already owns
        assert r.queue_len == 1

    def test_admit_respects_cap_and_priority(self):
        r = _replica(0)
        for i in range(6):
            r.enqueue(FleetRequest(i, 0.0, 8, 4, priority=1))
        r.enqueue(FleetRequest(6, 0.0, 8, 4, priority=0))
        r.max_batch = 4
        admitted = r.admit_up_to_capacity(1.0)
        assert len(admitted) == 4
        # the interactive request jumped the whole batch queue
        assert admitted[0].request.req_id == 6
        assert r.queue_len == 3

    def test_home_gpus_round_robin(self):
        r = _replica(0)
        for i in range(5):
            r.enqueue(_req(i))
        homes = [e.home_gpu for e in r.admit_up_to_capacity(0.0)]
        assert homes == [0, 1, 2, 3, 0]


class TestArrayQueue:
    def test_fifo_across_growth(self):
        q = ArrayQueue(capacity=2)
        for i in range(100):
            q.push(i)
        assert len(q) == 100
        assert q.pop_many(30).tolist() == list(range(30))
        assert q.pop_many(5).tolist() == list(range(30, 35))
        assert len(q) == 65

    def test_pop_many_clamps_to_size(self):
        q = ArrayQueue()
        q.push(7)
        got = q.pop_many(10)
        assert got.tolist() == [7]
        assert len(q) == 0
        assert q.pop_many(3).size == 0

    def test_compaction_reclaims_popped_space(self):
        q = ArrayQueue(capacity=4)
        for i in range(4):
            q.push(i)
        q.pop_many(3)
        for i in range(4, 7):
            q.push(i)  # forces compaction, not growth
        assert q.view().tolist() == [3, 4, 5, 6]
        assert q._buf.shape[0] == 4

    def test_interleaved_push_pop_keeps_order(self):
        q = ArrayQueue(capacity=3)
        expect = []
        got = []
        for i in range(50):
            q.push(i)
            expect.append(i)
            if i % 3 == 2:
                got.extend(q.pop_many(2).tolist())
        got.extend(q.drain().tolist())
        assert got == expect

    def test_view_is_zero_copy_window(self):
        q = ArrayQueue()
        for i in range(5):
            q.push(10 * i)
        v = q.view()
        assert v.tolist() == [0, 10, 20, 30, 40]
        assert v.base is q._buf

    def test_drain_empties(self):
        q = ArrayQueue()
        for i in range(8):
            q.push(i)
        assert q.drain().tolist() == list(range(8))
        assert len(q) == 0
        assert q.drain().size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayQueue(capacity=0)
