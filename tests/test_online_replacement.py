"""Tests for online drift-aware re-placement.

Covers the full loop: the streaming affinity estimator (decayed counts,
convergence, regime-switch forgetting), the CountTrace solver bridge, the
kept-mass monitors, the migration cost model, the replacement policy and
replacer, the drift scenario generators, the placement-aware step timer
(checked against the batched engine), and the online serving simulation
end to end.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.collectives import allgather_cost
from repro.cluster.topology import Topology
from repro.config import (
    ClusterConfig,
    ExecutionMode,
    GatingKind,
    InferenceConfig,
    ModelConfig,
    ServingConfig,
)
from repro.core.affinity import StreamingAffinityEstimator
from repro.core.online import (
    OnlineReplacer,
    ReplacementEvent,
    ReplacementPolicy,
    kept_mass_fraction,
    model_kept_mass,
    plan_migration,
)
from repro.core.placement.registry import solve_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.executor import simulate_inference
from repro.engine.serving import (
    PlacementStepTimer,
    _KeptMassTracker,
    _simulate_online_serving,
    poisson_arrivals,
)
from repro.engine.workload import (
    AbruptDrift,
    DRIFT_KINDS,
    DiurnalDrift,
    GradualDrift,
    make_decode_workload,
    make_drift_scenario,
)
from repro.fleet import FleetRequest, simulate_fleet_tick
from repro.scenarios import DriftSpec, ReplacementSpec, Scenario, get_scenario
from repro.scenarios import run as run_scenario
from repro.trace.events import CountTrace
from repro.trace.markov import MarkovRoutingModel
from fleet_runs import one_replica_fleet


@pytest.fixture
def regime_a() -> MarkovRoutingModel:
    return MarkovRoutingModel.with_affinity(8, 4, 0.9, rng=np.random.default_rng(3))


@pytest.fixture
def regime_b() -> MarkovRoutingModel:
    return MarkovRoutingModel.with_affinity(8, 4, 0.9, rng=np.random.default_rng(104))


class TestCountTrace:
    def test_shape_and_access(self):
        counts = np.ones((3, 4, 4))
        ct = CountTrace(counts)
        assert ct.num_layers == 4 and ct.num_experts == 4
        assert ct.total_mass == pytest.approx(48.0)
        assert np.array_equal(ct.transition_counts(2), np.ones((4, 4)))
        assert np.array_equal(ct.transition_counts(1, 2), np.ones((4, 4)))

    def test_conditional_rows_stochastic(self):
        rng = np.random.default_rng(0)
        ct = CountTrace(rng.random((2, 5, 5)))
        cond = ct.conditional_matrix(0)
        assert np.allclose(cond.sum(axis=1), 1.0)

    def test_unobserved_rows_uniform(self):
        counts = np.zeros((1, 4, 4))
        counts[0, 0, 1] = 2.0
        cond = CountTrace(counts).conditional_matrix(0)
        assert cond[0, 1] == 1.0
        assert np.allclose(cond[3], 0.25)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CountTrace(np.ones((3, 4)))
        with pytest.raises(ValueError):
            CountTrace(np.ones((2, 3, 4)))
        with pytest.raises(ValueError):
            CountTrace(-np.ones((1, 4, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        # ``counts.min() < 0`` is false for NaN; the swap search used to die
        # on such a trace with a bare AssertionError from its sanity check
        counts = np.ones((2, 4, 4))
        counts[1, 2, 3] = value
        with pytest.raises(ValueError, match="finite"):
            CountTrace(counts)

    def test_multi_hop_rejected(self):
        ct = CountTrace(np.ones((3, 4, 4)))
        with pytest.raises(ValueError):
            ct.transition_counts(0, 2)
        with pytest.raises(IndexError):
            ct.transition_counts(3)

    def test_solvers_accept_count_trace(self, regime_a):
        """The whole point: a CountTrace drops into the solver family."""
        est = StreamingAffinityEstimator(8, 4, halflife_tokens=1000)
        est.update(regime_a.sample(1500, np.random.default_rng(0)).paths)
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        for strategy in ("greedy", "ilp", "staged", "local-search"):
            p = solve_placement(strategy, est.as_trace(), cluster)
            assert p.num_gpus == 4


class TestStreamingEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingAffinityEstimator(0, 4)
        with pytest.raises(ValueError):
            StreamingAffinityEstimator(8, 1)
        with pytest.raises(ValueError):
            StreamingAffinityEstimator(8, 4, halflife_tokens=0)
        est = StreamingAffinityEstimator(8, 4)
        with pytest.raises(ValueError):
            est.update(np.zeros((5, 3), dtype=int))  # wrong layer count
        with pytest.raises(ValueError):
            est.update(np.full((5, 4), 8))  # expert id out of range

    @pytest.mark.parametrize("halflife", [np.nan, -np.inf])
    def test_rejects_non_finite_halflife(self, halflife):
        # a NaN decay made every kept-mass check compare false
        with pytest.raises(ValueError, match="halflife_tokens"):
            StreamingAffinityEstimator(8, 4, halflife_tokens=halflife)

    def test_infinite_halflife_never_forgets(self):
        est = StreamingAffinityEstimator(4, 3, halflife_tokens=np.inf)
        paths = np.zeros((5, 3), dtype=int)
        est.update(paths)
        est.update(paths)
        assert est.effective_tokens == 10.0

    def test_empty_update_is_noop(self):
        est = StreamingAffinityEstimator(8, 4)
        est.update(np.empty((0, 4), dtype=int))
        assert est.effective_tokens == 0.0
        assert est.counts_stack().sum() == 0.0

    def test_effective_tokens_saturates_below_total(self):
        est = StreamingAffinityEstimator(4, 3, halflife_tokens=100)
        rng = np.random.default_rng(0)
        m = MarkovRoutingModel.with_affinity(4, 3, 0.5)
        for _ in range(30):
            est.update(m.sample(50, rng).paths)
        assert est.total_tokens == 1500
        # geometric sum: effective mass is bounded by ~halflife / ln 2
        assert est.effective_tokens < 1500
        assert est.effective_tokens < 100 / np.log(2) + 50

    def test_converges_to_stationary_transitions(self, regime_a):
        """Decayed conditionals approach the fixed router's true matrices."""
        est = StreamingAffinityEstimator(8, 4, halflife_tokens=4000)
        rng = np.random.default_rng(1)
        for _ in range(40):
            est.update(regime_a.sample(200, rng).paths)
        for j in range(3):
            err = np.abs(est.conditional_matrix(j) - regime_a.transitions[j]).max()
            assert err < 0.1

    def test_regime_switch_forgotten_within_window(self, regime_a, regime_b):
        """After ~4 halflives of new traffic the old regime is gone."""
        halflife = 250
        est = StreamingAffinityEstimator(8, 4, halflife_tokens=halflife)
        rng = np.random.default_rng(2)
        for _ in range(20):
            est.update(regime_a.sample(100, rng).paths)

        def dist_to(model):
            return max(
                np.abs(est.conditional_matrix(j) - model.transitions[j]).max()
                for j in range(3)
            )

        assert dist_to(regime_a) < dist_to(regime_b)
        for _ in range(10):  # 1000 tokens = 4 halflives of regime B
            est.update(regime_b.sample(100, rng).paths)
        assert dist_to(regime_b) < dist_to(regime_a)

    def test_as_trace_snapshot_independent(self):
        est = StreamingAffinityEstimator(4, 3)
        est.update(np.zeros((10, 3), dtype=int))
        snap = est.as_trace()
        before = snap.counts.copy()
        est.update(np.ones((10, 3), dtype=int))
        assert np.array_equal(snap.counts, before)

    def test_reset(self):
        est = StreamingAffinityEstimator(4, 3)
        est.update(np.zeros((10, 3), dtype=int))
        est.reset()
        assert est.effective_tokens == 0.0 and est.counts_stack().sum() == 0.0
        assert est.total_tokens == 10  # lifetime counter survives


class TestKeptMass:
    def test_estimator_matches_analytic(self, regime_a):
        """Streaming kept mass converges to the analytic model kept mass."""
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        trace = regime_a.sample(3000, np.random.default_rng(5))
        placement = solve_placement("staged", trace, cluster)
        est = StreamingAffinityEstimator(8, 4, halflife_tokens=5000)
        rng = np.random.default_rng(6)
        for _ in range(30):
            est.update(regime_a.sample(200, rng).paths)
        streamed = kept_mass_fraction(placement, est.counts_stack())
        analytic = model_kept_mass(placement, regime_a)
        assert streamed == pytest.approx(analytic, abs=0.05)

    def test_empty_window_is_one(self):
        p = vanilla_placement(4, 8, 2)
        assert kept_mass_fraction(p, np.zeros((3, 8, 8))) == 1.0

    def test_shape_mismatch_rejected(self, regime_a):
        p = vanilla_placement(4, 8, 2)
        with pytest.raises(ValueError):
            kept_mass_fraction(p, np.zeros((2, 8, 8)))
        with pytest.raises(ValueError):
            model_kept_mass(vanilla_placement(3, 8, 2), regime_a)

    def test_single_gpu_keeps_everything(self, regime_a):
        p = vanilla_placement(4, 8, 1)
        assert model_kept_mass(p, regime_a) == pytest.approx(1.0)


class TestKeptMassTracker:
    def test_replacement_resamples_the_same_blend(self, regime_a):
        """A re-placement between two samples at one routing object must
        score the new placement, not reuse the old placement's kept mass."""
        old = vanilla_placement(4, 8, 4)
        trace = regime_a.sample(2000, np.random.default_rng(0))
        new = solve_placement("ilp", trace, ClusterConfig(num_nodes=2, gpus_per_node=2))
        kept_old, kept_new = model_kept_mass(old, regime_a), model_kept_mass(new, regime_a)
        assert kept_old != kept_new
        event = ReplacementEvent(4, 0.004, kept_old, kept_new, 6, 1024, 0.001, False)

        tracker = _KeptMassTracker(regime_a, old)  # constant drift: one routing object
        for step in range(8):
            tracker.on_step_end(0.001 * (step + 1), 0, 0.001, 2)
            if step == 3:
                tracker.on_replace(0.004, 0, new, event)
        assert [s.step for s in tracker.kept_timeline] == [4, 4, 8]
        assert [s.true_kept for s in tracker.kept_timeline] == [kept_old, kept_new, kept_new]


class TestMigration:
    @pytest.fixture
    def tiny_model(self):
        return ModelConfig(name="m", num_layers=4, num_experts=8, d_model=32, num_heads=4)

    def test_noop_for_identical_placements(self, tiny_model):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        p = vanilla_placement(4, 8, 4)
        plan = plan_migration(p, p, cluster, tiny_model)
        assert plan.is_noop and plan.stall_s == 0.0 and plan.moved_bytes == 0

    def test_single_expert_move_priced_by_link(self, tiny_model):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        old = vanilla_placement(4, 8, 4)
        # swap two experts between GPUs 0 and 1 (same node) on one layer
        new_gpus = old.gpu_of[0].copy()
        new_gpus[[0, 2]] = new_gpus[[2, 0]]
        new = old.relabel_layer(0, new_gpus)
        plan = plan_migration(old, new, cluster, tiny_model)
        assert plan.moved_experts == 2
        assert plan.moved_bytes == 2 * tiny_model.expert_bytes()
        # both transfers touch GPUs 0 and 1, so they serialize at endpoints
        link = cluster.intra_link
        expected = 2 * link.transfer_time(tiny_model.expert_bytes())
        assert plan.stall_s == pytest.approx(expected)

    def test_inter_node_moves_cost_more(self, tiny_model):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        old = vanilla_placement(4, 8, 4)
        intra = old.relabel_layer(0, np.array([1, 1, 0, 0, 2, 2, 3, 3]))
        inter = old.relabel_layer(0, np.array([2, 2, 1, 1, 0, 0, 3, 3]))
        t_intra = plan_migration(old, intra, cluster, tiny_model).stall_s
        t_inter = plan_migration(old, inter, cluster, tiny_model).stall_s
        assert t_inter > t_intra

    def test_rejects_mismatched_shapes(self, tiny_model):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        with pytest.raises(ValueError):
            plan_migration(
                vanilla_placement(4, 8, 4), vanilla_placement(3, 8, 4), cluster, tiny_model
            )
        with pytest.raises(ValueError):
            plan_migration(
                vanilla_placement(4, 8, 2),
                vanilla_placement(4, 8, 2),
                cluster,
                tiny_model,
            )


class TestReplacementPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_every_steps": 0},
            {"kept_mass_drop": 0.0},
            {"kept_mass_drop": 1.0},
            {"min_effective_tokens": -1},
            {"cooldown_steps": -1},
            {"replace_every_steps": 0},
            {"solver_passes": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ReplacementPolicy(**kwargs)

    @pytest.mark.parametrize("field", ["min_effective_tokens", "kept_mass_drop"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        # a NaN sample floor used to disable the floor silently
        with pytest.raises(ValueError, match=field):
            ReplacementPolicy(**{field: value})

    def test_defaults_valid(self):
        ReplacementPolicy()


class TestOnlineReplacer:
    @pytest.fixture
    def setup(self, regime_a):
        model = ModelConfig(name="m", num_layers=4, num_experts=8, d_model=32, num_heads=4)
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        trace = regime_a.sample(2000, np.random.default_rng(7))
        placement = solve_placement("staged", trace, cluster)
        return model, cluster, placement

    def _replacer(self, model, cluster, **policy_kw):
        defaults = dict(
            check_every_steps=1,
            kept_mass_drop=0.15,
            min_effective_tokens=100,
            cooldown_steps=2,
            solver_passes=6,
        )
        defaults.update(policy_kw)
        return OnlineReplacer(
            model,
            cluster,
            policy=ReplacementPolicy(**defaults),
            estimator=StreamingAffinityEstimator(8, 4, halflife_tokens=200),
            rng=np.random.default_rng(8),
        )

    def test_no_trigger_under_stationary_traffic(self, setup, regime_a):
        model, cluster, placement = setup
        rep = self._replacer(model, cluster)
        rng = np.random.default_rng(9)
        for step in range(1, 30):
            rep.observe(regime_a.sample(50, rng).paths)
            assert rep.maybe_replace(step, float(step), placement) is None
        assert rep.events == []

    def test_detects_regime_switch_within_window(self, setup, regime_a, regime_b):
        """A switch must trigger a migration within the estimator window."""
        model, cluster, placement = setup
        rep = self._replacer(model, cluster)
        rng = np.random.default_rng(10)
        for step in range(1, 11):
            rep.observe(regime_a.sample(50, rng).paths)
            rep.maybe_replace(step, float(step), placement)
        assert rep.events == []

        replaced_at = None
        current = placement
        for step in range(11, 40):  # 50 tokens/step; window halflife = 200
            rep.observe(regime_b.sample(50, rng).paths)
            result = rep.maybe_replace(step, float(step), current)
            if result is not None:
                current, event = result
                replaced_at = step
                break
        assert replaced_at is not None and replaced_at <= 30
        assert event.kept_after > event.kept_before
        assert event.moved_experts > 0 and event.stall_s > 0
        assert current.strategy == "online"
        # the migrated placement really serves regime B better
        assert model_kept_mass(current, regime_b) > model_kept_mass(placement, regime_b)

    def test_cooldown_blocks_back_to_back_migrations(self, setup, regime_a, regime_b):
        model, cluster, placement = setup
        rep = self._replacer(model, cluster, cooldown_steps=1000)
        rng = np.random.default_rng(11)
        for step in range(1, 11):
            rep.observe(regime_a.sample(50, rng).paths)
            rep.maybe_replace(step, float(step), placement)
        current = placement
        for step in range(11, 60):
            rep.observe(regime_b.sample(50, rng).paths)
            result = rep.maybe_replace(step, float(step), current)
            if result is not None:
                current = result[0]
        assert len(rep.events) <= 1

    def test_forced_cadence_skips_pointless_migrations(self, setup, regime_a):
        """--replace-every must not thrash when the placement is already
        optimal for the live traffic: a forced solve that finds nothing
        better migrates nothing."""
        model, cluster, placement = setup
        rep = self._replacer(model, cluster, replace_every_steps=5, cooldown_steps=0)
        rng = np.random.default_rng(12)
        for step in range(1, 26):
            rep.observe(regime_a.sample(100, rng).paths)
            result = rep.maybe_replace(step, float(step), placement)
            if result is not None:
                placement, _ = result
        # stationary traffic on a near-optimal start: at most one touch-up
        assert len(rep.events) <= 1

    def test_forced_cadence_not_gated_by_check_cadence(self, setup, regime_a, regime_b):
        """Regression: --replace-every N must be evaluated at every multiple
        of N, even when N is not a multiple of check_every_steps —
        otherwise the forced cadence silently becomes lcm(N, check)."""
        model, cluster, placement = setup
        rep = self._replacer(
            model,
            cluster,
            check_every_steps=8,
            replace_every_steps=10,  # not a multiple of 8
            kept_mass_drop=0.9,  # degradation trigger effectively disabled
            cooldown_steps=0,
            min_effective_tokens=100,
        )
        rng = np.random.default_rng(13)
        for step in range(1, 10):
            rep.observe(regime_a.sample(100, rng).paths)
            rep.maybe_replace(step, float(step), placement)
        # drift the traffic: with the drop trigger disabled, only the forced
        # cadence can migrate — and its steps (10, 20, 30) are never
        # multiples of check_every_steps=8
        for step in range(10, 31):
            rep.observe(regime_b.sample(100, rng).paths)
            result = rep.maybe_replace(step, float(step), placement)
            if result is not None:
                placement = result[0]
        assert rep.events, "forced cadence never fired off the check cadence"
        assert all(e.step % 10 == 0 for e in rep.events)
        assert all(e.step % 8 != 0 for e in rep.events)

    def test_estimator_shape_must_match_model(self, setup):
        model, cluster, _ = setup
        with pytest.raises(ValueError):
            OnlineReplacer(
                model, cluster, estimator=StreamingAffinityEstimator(16, 4)
            )


class TestDriftScenarios:
    def test_static_routing(self, regime_a):
        s = regime_a  # a fixed router is its own constant drift scenario
        assert s.model_at(0.0) is regime_a and s.model_at(1e9) is regime_a
        assert s.num_experts == 8 and s.num_layers == 4
        assert isinstance(make_drift_scenario("none", 8, 4, horizon_s=1.0), MarkovRoutingModel)

    def test_abrupt_switch(self, regime_a, regime_b):
        s = AbruptDrift(regime_a, regime_b, switch_t=10.0)
        assert s.model_at(9.99) is regime_a
        assert s.model_at(10.0) is regime_b

    def test_gradual_endpoints_and_midpoint(self, regime_a, regime_b):
        s = GradualDrift(regime_a, regime_b, t_start=0.0, t_end=10.0)
        assert s.model_at(-5.0) is regime_a
        assert s.model_at(15.0) is regime_b
        mid = s.model_at(5.0)
        expected = 0.5 * regime_a.transitions + 0.5 * regime_b.transitions
        assert np.allclose(mid.transitions, expected)
        assert np.allclose(mid.transitions.sum(axis=2), 1.0)

    def test_gradual_cache_reuses_quantised_blends(self, regime_a, regime_b):
        s = GradualDrift(regime_a, regime_b, t_start=0.0, t_end=10.0)
        assert s.model_at(5.0) is s.model_at(5.001)

    def test_diurnal_periodicity(self, regime_a, regime_b):
        s = DiurnalDrift(regime_a, regime_b, period_s=10.0)
        assert s.model_at(0.0) is regime_a
        assert s.model_at(5.0) is regime_b  # half period: full swing
        assert s.model_at(10.0) is regime_a

    def test_validation(self, regime_a, regime_b):
        small = MarkovRoutingModel.with_affinity(4, 4, 0.5)
        with pytest.raises(ValueError):
            AbruptDrift(regime_a, small, switch_t=1.0)
        with pytest.raises(ValueError):
            GradualDrift(regime_a, regime_b, t_start=5.0, t_end=5.0)
        with pytest.raises(ValueError):
            DiurnalDrift(regime_a, regime_b, period_s=0.0)

    def test_factory(self):
        for kind in DRIFT_KINDS:
            s = make_drift_scenario(kind, 8, 4, horizon_s=10.0, seed=1)
            assert s.num_experts == 8 and s.num_layers == 4
        with pytest.raises(ValueError):
            make_drift_scenario("sideways", 8, 4, horizon_s=10.0)
        with pytest.raises(ValueError):
            make_drift_scenario("abrupt", 8, 4, horizon_s=0.0)

    def test_factory_regimes_differ(self):
        s = make_drift_scenario("abrupt", 8, 4, horizon_s=10.0, seed=2)
        assert not np.allclose(s.model_at(0.0).transitions, s.model_at(9.0).transitions)


class TestPlacementStepTimer:
    @pytest.fixture
    def setup(self, small_model, small_cluster, regime_a):
        trace = regime_a.sample(2000, np.random.default_rng(1))
        placement = solve_placement("staged", trace, small_cluster)
        return small_model, small_cluster, regime_a, placement

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.EXFLOW, ExecutionMode.CONTEXT_COHERENT, ExecutionMode.VANILLA]
    )
    def test_matches_engine_single_iteration(self, setup, mode):
        """On a one-iteration workload the timer must reproduce the batched
        engine's step cost to 1e-12 (up to the one-time prompt AllGather the
        coherent modes charge before inference).  Not bit for bit: the
        engine adds its seconds one layer at a time, the timer per quantity
        over all layers, so the last bits can differ."""
        model, cluster, routing, placement = setup
        infer = InferenceConfig(
            requests_per_gpu=3, prompt_len=16, generate_len=1, mode=mode
        )
        wl = make_decode_workload(
            model, cluster, infer, routing=routing, rng=np.random.default_rng(5)
        )
        run = simulate_inference(model, cluster, infer, placement, wl)
        timer = PlacementStepTimer(model, cluster, mode=mode)
        ctx = np.full(wl.num_requests, infer.prompt_len)
        step = timer.step_time(wl.paths[0], wl.home_gpu, ctx, placement)
        expected = run.total_time_s
        if mode.uses_context_coherence:
            payload = np.bincount(wl.home_gpu, minlength=cluster.num_gpus).astype(float)
            payload *= infer.prompt_len * timer.token_bytes
            expected -= allgather_cost(Topology(cluster), payload).time_s
        assert step == pytest.approx(expected, rel=1e-12)

    def test_matches_engine_top2(self, small_cluster, regime_a):
        model = ModelConfig(
            name="t2", num_layers=4, num_experts=8, d_model=32, num_heads=4,
            gating=GatingKind.TOP2,
        )
        infer = InferenceConfig(
            requests_per_gpu=2, prompt_len=8, generate_len=1, mode=ExecutionMode.VANILLA
        )
        wl = make_decode_workload(
            model, small_cluster, infer, routing=regime_a, rng=np.random.default_rng(6)
        )
        placement = vanilla_placement(4, 8, small_cluster.num_gpus)
        run = simulate_inference(model, small_cluster, infer, placement, wl)
        timer = PlacementStepTimer(model, small_cluster, mode=ExecutionMode.VANILLA)
        ctx = np.full(wl.num_requests, infer.prompt_len)
        step = timer.step_time(
            wl.paths[0], wl.home_gpu, ctx, placement, wl.secondary_paths[0]
        )
        assert step == pytest.approx(run.total_time_s, rel=1e-12)

    def test_admission_free_for_vanilla(self, setup):
        model, cluster, _, _ = setup
        timer = PlacementStepTimer(model, cluster, mode=ExecutionMode.VANILLA)
        assert timer.admission_time(np.array([0, 1]), np.array([16, 16])) == 0.0

    def test_admission_positive_for_coherent(self, setup):
        model, cluster, _, _ = setup
        timer = PlacementStepTimer(model, cluster, mode=ExecutionMode.EXFLOW)
        adm = timer.admission_time(np.array([0, 1]), np.array([16, 16]))
        assert adm > 0
        # more prompt tokens cost more to replicate
        assert timer.admission_time(np.array([0, 1]), np.array([64, 64])) > adm

    def test_input_validation(self, setup):
        model, cluster, _, placement = setup
        timer = PlacementStepTimer(model, cluster)
        ok_paths = np.zeros((2, model.num_moe_layers), dtype=int)
        home = np.zeros(2, dtype=int)
        ctx = np.full(2, 8)
        with pytest.raises(ValueError):
            timer.step_time(np.zeros((0, 4), dtype=int), home[:0], ctx[:0], placement)
        with pytest.raises(ValueError):
            timer.step_time(ok_paths[:, :2], home, ctx, placement)
        with pytest.raises(ValueError):
            timer.step_time(np.full((2, 4), 8), home, ctx, placement)
        with pytest.raises(ValueError):
            timer.step_time(ok_paths, np.array([0, 99]), ctx, placement)
        with pytest.raises(ValueError):
            timer.step_time(ok_paths, home, np.zeros(2, dtype=int), placement)


def _online(model, cluster, serving, drift, policy=None, halflife_tokens=None):
    """``run()``'s result for an online Scenario; static when ``policy`` is None."""
    replacement = None if policy is None else ReplacementSpec(policy, halflife_tokens)
    s = Scenario(
        name="test-online", model=model, cluster=cluster, serving=serving,
        drift=DriftSpec(drift), replacement=replacement,
    )
    return run_scenario(s).raw


def _one_replica(requests, model, cluster, drift, placement):
    """``_simulate_online_serving`` on a static one-replica tick fleet."""
    reqs = [FleetRequest(q.req_id, q.arrival_s, q.prompt_len, q.generate_len) for q in requests]
    return _simulate_online_serving(
        simulate_fleet_tick, reqs, model, cluster, [drift], [placement],
        one_replica_fleet(len(reqs)), timer=PlacementStepTimer(model, cluster),
    )


class TestOnlineServing:
    @pytest.fixture
    def setup(self, small_model, small_cluster):
        serving = ServingConfig(
            arrival_rate_rps=1500.0,
            num_requests=60,
            generate_len=6,
            max_batch_requests=12,
            prompt_len=8,
            seed=3,
        )
        return small_model, small_cluster, serving

    def test_all_requests_complete_static(self, setup):
        model, cluster, serving = setup
        res = _online(model, cluster, serving, "abrupt")
        assert len(res.completed) == serving.num_requests
        assert res.events == () and res.migration_stall_s == 0.0
        assert res.latency.p50_s <= res.latency.p99_s
        assert res.kept_timeline[0].time_s <= res.kept_timeline[-1].time_s

    def test_deterministic_given_seed(self, setup):
        model, cluster, serving = setup
        policy = ReplacementPolicy(
            check_every_steps=4, min_effective_tokens=64, cooldown_steps=8
        )
        a = _online(model, cluster, serving, "abrupt", policy, halflife_tokens=128)
        b = _online(model, cluster, serving, "abrupt", policy, halflife_tokens=128)
        assert a.latency == b.latency
        assert a.events == b.events
        assert np.array_equal(a.final_placement.gpu_of, b.final_placement.gpu_of)

    def test_online_recovers_kept_mass_after_abrupt_drift(self, setup):
        model, cluster, serving = setup
        serving = dataclasses.replace(serving, num_requests=160, generate_len=10)
        policy = ReplacementPolicy(
            check_every_steps=4,
            kept_mass_drop=0.1,
            min_effective_tokens=64,
            cooldown_steps=8,
            solver_passes=6,
        )
        static = _online(model, cluster, serving, "abrupt")
        online = _online(model, cluster, serving, "abrupt", policy, halflife_tokens=128)
        assert online.num_replacements >= 1
        assert online.migration_stall_s == pytest.approx(
            sum(e.stall_s for e in online.events)
        )
        def tail(r):
            return np.mean([s.true_kept for s in r.kept_timeline[-5:]])

        assert tail(online) > tail(static) + 0.05

    def test_migration_stall_charged_to_timeline(self, setup):
        """With replacements forced on stationary-free drift, the online arm's
        busy time stays step work only while makespan absorbs the stalls."""
        model, cluster, serving = setup
        policy = ReplacementPolicy(
            check_every_steps=4, min_effective_tokens=32, cooldown_steps=4
        )
        online = _online(model, cluster, serving, "abrupt", policy, halflife_tokens=64)
        if online.events:
            replica = online.replicas[0]
            assert online.makespan_s >= replica.busy_s
            assert replica.utilization < 1.0 or online.migration_stall_s == 0

    def test_empty_requests(self, small_model, small_cluster):
        drift = make_drift_scenario(
            "none", small_model.num_experts, small_model.num_moe_layers, horizon_s=1.0
        )
        placement = vanilla_placement(
            small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
        )
        res = _one_replica([], small_model, small_cluster, drift, placement)
        assert res.completed == () and res.kept_timeline == () and res.events == ()
        assert res.final_placement is placement

    def test_drift_shape_mismatch_rejected(self, small_model, small_cluster):
        drift = make_drift_scenario("none", 16, 4, horizon_s=1.0)
        placement = vanilla_placement(
            small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
        )
        with pytest.raises(ValueError):
            _one_replica(
                poisson_arrivals(ServingConfig(num_requests=4)),
                small_model,
                small_cluster,
                drift,
                placement,
            )

    def test_static_no_drift_matches_nothing_lost(self, setup):
        """Without drift the kept-mass timeline is flat (placement stays
        matched to traffic) — the control arm of the whole subsystem."""
        model, cluster, serving = setup
        res = _online(model, cluster, serving, "none")
        kepts = [s.true_kept for s in res.kept_timeline]
        assert max(kepts) - min(kepts) < 1e-9


# The fig15 smoke presets' report fields, pinned before the online scenario
# kind moved onto the one-replica fleet engine: the perf benchmark's digest
# fields plus the step, replacement and kept-mass account.  Every value must
# reproduce bit for bit.
FIG15_SMOKE_PINNED = {
    ("gradual", "online"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.18353711745562581, "latency_p50_s": 0.00041297312, "latency_p95_s": 0.0009349000915385582, "latency_p99_s": 0.0010359652189914856, "availability": 1.0, "detection": {}, "decode_steps": 1518, "num_replacements": 2, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.5805555555555556},
    ("gradual", "static"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.18369908460229256, "latency_p50_s": 0.0004796473810173077, "latency_p95_s": 0.0010576231804180609, "latency_p99_s": 0.001108167874698241, "availability": 1.0, "detection": {}, "decode_steps": 1477, "num_replacements": 0, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.14375},
    ("abrupt", "online"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.18343548979340354, "latency_p50_s": 0.00040749525244926366, "latency_p95_s": 0.0008084740753688715, "latency_p99_s": 0.0008752208023134288, "availability": 1.0, "detection": {}, "decode_steps": 1527, "num_replacements": 2, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.6986111111111112},
    ("abrupt", "static"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.18369908460229256, "latency_p50_s": 0.000488057813333366, "latency_p95_s": 0.00105690169906901, "latency_p99_s": 0.001108167874698241, "availability": 1.0, "detection": {}, "decode_steps": 1482, "num_replacements": 0, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.14375},
    ("diurnal", "online"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.1834723036885146, "latency_p50_s": 0.0004169739733333386, "latency_p95_s": 0.0009390374367608018, "latency_p99_s": 0.0010184320650003407, "availability": 1.0, "detection": {}, "decode_steps": 1519, "num_replacements": 5, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.6085937500000002},
    ("diurnal", "static"): {"completed": 160, "shed": 0, "lost": 0, "generated_tokens": 1920, "makespan_s": 0.18348593673276942, "latency_p50_s": 0.00044857315818249907, "latency_p95_s": 0.0009552973500214666, "latency_p99_s": 0.001011958836437813, "availability": 1.0, "detection": {}, "decode_steps": 1499, "num_replacements": 0, "kept_mass_initial": 0.6513888888888889, "kept_mass_final": 0.6196614583333334},
}


@pytest.mark.parametrize("drift, arm", sorted(FIG15_SMOKE_PINNED))
def test_fig15_smoke_reports_are_pinned(drift, arm):
    spec = get_scenario(f"fig15-{drift}-smoke")
    if arm == "static":
        spec = dataclasses.replace(spec, replacement=None)
    report = run_scenario(spec)
    pinned = FIG15_SMOKE_PINNED[(drift, arm)]
    assert {f: getattr(report, f) for f in pinned} == pinned
