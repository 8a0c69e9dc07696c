"""Unit tests for cold-start pricing, the reactive autoscaler, scale-down
request migration and fleet cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ClusterConfig, FleetConfig, ModelConfig, ServingConfig
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.fleet.autoscaler import ReactiveAutoscaler, price_cold_start
from repro.fleet.replica import ReplicaState
from repro.trace.markov import MarkovRoutingModel
from fleet_runs import fleet_result


@pytest.fixture(scope="module")
def model():
    return ModelConfig(name="as-test", num_layers=4, num_experts=8, d_model=64, num_heads=4)


@pytest.fixture(scope="module")
def cluster():
    return ClusterConfig(num_nodes=2, gpus_per_node=2)


class TestColdStart:
    def test_vanilla_target_has_no_shuffle(self, model, cluster):
        flat = vanilla_placement(model.num_moe_layers, model.num_experts, cluster.num_gpus)
        cost = price_cold_start(model, cluster, flat)
        assert cost.placement_shuffle_s == 0.0
        assert cost.weight_load_s > 0.0
        assert cost.total_s == cost.weight_load_s

    def test_weight_load_is_one_shard_over_inter_link(self, model, cluster):
        flat = vanilla_placement(model.num_moe_layers, model.num_experts, cluster.num_gpus)
        cost = price_cold_start(model, cluster, flat)
        shard = (
            cluster.experts_per_gpu(model.num_experts)
            * model.num_moe_layers
            * model.expert_bytes()
        )
        assert cost.weight_load_s == pytest.approx(cluster.inter_link.transfer_time(shard))

    def test_affinity_target_pays_shuffle(self, model, cluster):
        trace = MarkovRoutingModel.with_affinity(8, 4, 0.9).sample(
            1000, np.random.default_rng(0)
        )
        fitted = greedy_placement(trace, cluster.num_gpus)
        assert (fitted.gpu_of != vanilla_placement(4, 8, 4).gpu_of).any()
        cost = price_cold_start(model, cluster, fitted)
        assert cost.placement_shuffle_s > 0.0

    def test_overhead_adds(self, model, cluster):
        flat = vanilla_placement(model.num_moe_layers, model.num_experts, cluster.num_gpus)
        base = price_cold_start(model, cluster, flat)
        padded = price_cold_start(model, cluster, flat, boot_overhead_s=0.5)
        assert padded.total_s == pytest.approx(base.total_s + 0.5)
        with pytest.raises(ValueError):
            price_cold_start(model, cluster, flat, boot_overhead_s=-1.0)


def _fleet(**kwargs) -> FleetConfig:
    defaults = dict(
        num_replicas=2,
        autoscale=True,
        min_replicas=1,
        max_replicas=4,
        scale_up_queue_per_replica=4.0,
        scale_down_queue_per_replica=0.5,
        scale_dwell_checks=2,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


class TestReactiveAutoscaler:
    def test_requires_dwell_before_up(self):
        scaler = ReactiveAutoscaler(_fleet())
        assert scaler.decide(queued=20, live=2, booting=0) is None  # 1st over
        assert scaler.decide(queued=20, live=2, booting=0) == "up"  # 2nd over

    def test_calm_tick_resets_dwell(self):
        scaler = ReactiveAutoscaler(_fleet())
        assert scaler.decide(20, 2, 0) is None
        assert scaler.decide(4, 2, 0) is None  # between thresholds: reset
        assert scaler.decide(20, 2, 0) is None  # counting from scratch
        assert scaler.decide(20, 2, 0) == "up"

    def test_booting_counts_toward_capacity(self):
        scaler = ReactiveAutoscaler(_fleet(scale_dwell_checks=1))
        # 20 queued over 2 live would trigger, but 3 booting absorb it
        assert scaler.decide(20, 2, 3) is None

    def test_max_replicas_caps_up(self):
        scaler = ReactiveAutoscaler(_fleet(scale_dwell_checks=1, max_replicas=2))
        assert scaler.decide(50, 2, 0) is None

    def test_scale_down_after_dwell(self):
        scaler = ReactiveAutoscaler(_fleet())
        assert scaler.decide(0, 3, 0) is None
        assert scaler.decide(0, 3, 0) == "down"

    def test_never_below_min(self):
        scaler = ReactiveAutoscaler(_fleet(scale_dwell_checks=1, min_replicas=2))
        assert scaler.decide(0, 2, 0) is None

    def test_pending_boot_blocks_down(self):
        scaler = ReactiveAutoscaler(_fleet(scale_dwell_checks=1))
        assert scaler.decide(0, 3, 1) is None

    def test_action_resets_its_counter(self):
        scaler = ReactiveAutoscaler(_fleet())
        scaler.decide(20, 2, 0)
        assert scaler.decide(20, 2, 0) == "up"
        # immediately after acting, dwell starts over
        assert scaler.decide(20, 2, 1) is None


def _drain_run(model, cluster, migrate: bool, queue_cap: int = 1000):
    """A burst that leaves deep queues, then silence: scale-down fires while
    the victim replica still holds queued-but-unadmitted requests."""
    serving = ServingConfig(
        arrival_rate_rps=30000.0,
        num_requests=220,
        generate_len=6,
        max_batch_requests=4,
        prompt_len=8,
        seed=11,
    )
    fleet = FleetConfig(
        num_replicas=2,
        router="jsq",
        autoscale=True,
        min_replicas=1,
        max_replicas=2,
        slo_ms=10000.0,  # no shedding: isolate the drain behaviour
        batch_slo_ms=100000.0,
        max_queue_per_replica=queue_cap,
        autoscale_check_every_s=0.001,
        scale_up_queue_per_replica=500.0,
        scale_down_queue_per_replica=40.0,
        scale_dwell_checks=1,
        migrate_on_drain=migrate,
    )
    return fleet_result(model, cluster, serving, fleet)


class TestScaleDownMigration:
    @pytest.fixture(scope="class")
    def runs(self, model, cluster):
        with_migration = _drain_run(model, cluster, migrate=True)
        without = _drain_run(model, cluster, migrate=False)
        return with_migration, without

    def _drained(self, res):
        stopped = [
            r for r in res.replicas if r.final_state == ReplicaState.STOPPED.value
        ]
        assert stopped, "scenario must actually drain a replica"
        return stopped[0]

    def test_drain_time_shrinks(self, runs):
        with_migration, without = runs
        fast = self._drained(with_migration)
        slow = self._drained(without)
        # same replica drains in both arms (identical prefix up to the
        # decision); handing its queue back must stop it strictly earlier
        assert fast.replica_id == slow.replica_id
        assert fast.stopped_at_s < slow.stopped_at_s
        # the migrated queue moved elsewhere, so the victim serves fewer
        assert fast.served < slow.served

    def test_no_request_is_lost(self, runs):
        for res in runs:
            assert res.served == 220
            assert res.shed == ()

    def test_migration_preserves_total_service(self, runs):
        with_migration, without = runs
        assert with_migration.served == without.served
        # every migrated request completes on a surviving replica
        assert sum(r.served for r in with_migration.replicas) == with_migration.served

    def test_migration_with_tight_cap_conserves_requests(self, model, cluster):
        # a cap small enough that survivors can't absorb the whole orphan
        # queue: overflow stays on the victim and drains in place; requests
        # are never lost to migration (any shed is arrival-time admission)
        res = _drain_run(model, cluster, migrate=True, queue_cap=48)
        assert res.served + len(res.shed) == 220
        assert {s.reason for s in res.shed} <= {"queue-full", "deadline"}
        assert sum(r.served for r in res.replicas) == res.served


class TestFleetCostAccounting:
    def test_static_fleet_bills_replicas_for_makespan(self, model, cluster):
        serving = ServingConfig(
            arrival_rate_rps=900.0,
            num_requests=40,
            generate_len=4,
            max_batch_requests=8,
            prompt_len=8,
            seed=0,
        )
        res = fleet_result(
            model, cluster, serving, FleetConfig(num_replicas=2, router="jsq")
        )
        expected_hours = 2 * cluster.num_gpus * res.makespan_s / 3600.0
        assert res.gpu_hours == pytest.approx(expected_hours)
        assert res.cost_usd == pytest.approx(res.gpu_hours * cluster.gpu_hour_usd)
        assert res.usd_per_million_tokens == pytest.approx(
            res.cost_usd / (res.generated_tokens / 1e6)
        )
        assert res.generated_tokens == sum(
            c.request.generate_len for c in res.completed
        )
        per_replica = sum(r.gpu_hours for r in res.replicas)
        assert per_replica == pytest.approx(res.gpu_hours)

    def test_drained_replica_stops_billing(self, model, cluster):
        res = _drain_run(model, cluster, migrate=True)
        drained = [
            r for r in res.replicas if r.final_state == ReplicaState.STOPPED.value
        ][0]
        live = [
            r for r in res.replicas if r.final_state == ReplicaState.ACTIVE.value
        ][0]
        assert drained.gpu_hours < live.gpu_hours

    def test_zero_price_cluster_costs_nothing(self, model):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2, gpu_hour_usd=0.0)
        serving = ServingConfig(
            arrival_rate_rps=900.0,
            num_requests=20,
            generate_len=4,
            max_batch_requests=8,
            prompt_len=8,
        )
        res = fleet_result(
            model, cluster, serving, FleetConfig(num_replicas=1, router="jsq")
        )
        assert res.gpu_hours > 0
        assert res.cost_usd == 0.0
        assert res.usd_per_million_tokens == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, gpus_per_node=2, gpu_hour_usd=-1.0)


class TestFleetConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_replicas": 0},
            {"router": "random"},
            {"num_regimes": 0},
            {"slo_ms": 0.0},
            {"slo_ms": 500.0, "batch_slo_ms": 100.0},
            {"interactive_fraction": 1.5},
            {"shed_slack": 0.0},
            {"max_queue_per_replica": 0},
            {"min_replicas": 0},
            {"num_replicas": 9, "max_replicas": 8},
            {"min_replicas": 5, "num_replicas": 4},
            {"scale_down_queue_per_replica": -1.0},
            {"scale_up_queue_per_replica": 0.2, "scale_down_queue_per_replica": 0.5},
            {"autoscale_check_every_s": 0.0},
            {"scale_dwell_checks": 0},
            {"boot_overhead_s": -0.1},
            {"affinity_load_weight": -0.1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)

    def test_defaults_valid(self):
        fleet = FleetConfig()
        assert fleet.router in ("round-robin", "jsq", "p2c", "affinity")
        assert fleet.slo_s == pytest.approx(0.4)
        assert fleet.batch_slo_s == pytest.approx(4.0)
