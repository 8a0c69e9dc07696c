"""Unit tests for repro.engine.executor."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionMode, GatingKind, InferenceConfig
from repro.core.placement.vanilla import vanilla_placement
from repro.engine.executor import _key_bases, route_counts, simulate_inference
from repro.engine.reference import _traffic_from_moves
from repro.engine.workload import DecodeWorkload, make_decode_workload


@pytest.fixture
def baseline_placement(small_model, small_cluster):
    return vanilla_placement(
        small_model.num_moe_layers, small_model.num_experts, small_cluster.num_gpus
    )


@pytest.fixture
def workload(small_model, small_cluster, small_infer):
    return make_decode_workload(small_model, small_cluster, small_infer)


def run(small_model, small_cluster, small_infer, placement, workload, mode):
    cfg = dataclasses.replace(small_infer, mode=mode)
    return simulate_inference(small_model, small_cluster, cfg, placement, workload)


class TestTrafficFromMoves:
    def test_counts_and_diagonal(self):
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 0, 1, 0])
        t = _traffic_from_moves(src, dst, 3, 10.0)
        assert t[0, 1] == 10.0
        assert t[0, 0] == 0.0  # diagonal zeroed (local)
        assert t[1, 1] == 0.0
        assert t[2, 0] == 10.0
        assert t.sum() == 20.0


class TestRouteCounts:
    """The Fig 4 route-count kernel against a per-step brute force."""

    # fixed seed and a short budget: every run draws the same examples
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        g=st.sampled_from([1, 2, 4, 8]),
        coherent=st.booleans(),
        top2=st.booleans(),
        iteration_block=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_step_brute_force(self, g, coherent, top2, iteration_block, seed):
        rng = np.random.default_rng(seed)
        iters, r, layers = (int(n) for n in rng.integers(1, [4, 9, 5]))
        # (I, R, L) for a block of iterations, (B, L) for one serving step
        shape = (iters, r, layers) if iteration_block else (r, layers)
        gpu_path = rng.integers(0, g, size=shape)
        sec_path = rng.integers(0, g, size=shape) if top2 else None
        home = rng.integers(0, g, size=r)
        loc, occupancy, a2a = route_counts(gpu_path, home, sec_path, coherent, g)

        per_it = gpu_path.reshape(-1, r, layers)
        locs = np.broadcast_to(loc, shape).reshape(per_it.shape)
        secs = None if sec_path is None else sec_path.reshape(per_it.shape)
        steps = per_it.shape[0] * layers
        assert loc.shape == (shape if coherent else (r, 1))
        assert occupancy.shape == (2, steps, g)
        assert a2a.shape == ((1 if coherent else 2) * steps, g * g)
        a2a = a2a.reshape(-1, steps, g, g)
        for it in range(per_it.shape[0]):
            here = home
            for j in range(layers):
                t = it * layers + j
                expert = per_it[it, :, j]
                np.testing.assert_array_equal(locs[it, :, j], here)
                np.testing.assert_array_equal(occupancy[0, t], np.bincount(here, minlength=g))
                ffn = np.bincount(expert, minlength=g)
                dispatch = _traffic_from_moves(here, expert, g, 1.0)
                if secs is not None:
                    sec = secs[it, :, j]
                    ffn += np.bincount(sec, minlength=g)
                    dispatch += _traffic_from_moves(here, sec, g, 1.0)
                    dispatch += _traffic_from_moves(sec, expert, g, 1.0)
                np.testing.assert_array_equal(occupancy[1, t], ffn)
                np.testing.assert_array_equal(a2a[0, t], dispatch)
                if not coherent:
                    combine = _traffic_from_moves(expert, home, g, 1.0)
                    np.testing.assert_array_equal(a2a[1, t], combine)
                here = expert if coherent else home

    def test_key_bases_are_read_only(self):
        for base in _key_bases((3,), 4, 2):
            assert not base.flags.writeable
            with pytest.raises(ValueError):
                base += 1


class TestModes:
    def test_vanilla_has_two_alltoalls_per_layer(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        res = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.VANILLA)
        expected = 2 * small_model.num_moe_layers * workload.iterations
        assert res.ledger.count_by_op["alltoall"] == expected
        assert "allgather" not in res.ledger.count_by_op

    def test_coherent_has_one_alltoall_per_layer(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        res = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.CONTEXT_COHERENT)
        expected = small_model.num_moe_layers * workload.iterations
        assert res.ledger.count_by_op["alltoall"] == expected
        # 1 initial context gather + one per iteration
        assert res.ledger.count_by_op["allgather"] == workload.iterations + 1

    def test_coherent_cheaper_comm(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        van = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.VANILLA)
        coh = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.CONTEXT_COHERENT)
        assert coh.breakdown.comm_s < van.breakdown.comm_s
        assert coh.breakdown.alltoall_s < van.breakdown.alltoall_s

    def test_identical_compute_tokens(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        """Both modes process the same tokens; expert FFN time is identical
        (same placement -> same per-GPU loads)."""
        van = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.VANILLA)
        coh = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.CONTEXT_COHERENT)
        assert van.breakdown.expert_ffn_s == pytest.approx(coh.breakdown.expert_ffn_s)
        assert van.generated_tokens == coh.generated_tokens

    def test_affinity_placement_reduces_alltoall(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        from repro.core.placement.staged import staged_placement

        aff = staged_placement(workload.flat_trace(), small_cluster)
        base = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                   ExecutionMode.CONTEXT_COHERENT)
        opt = run(small_model, small_cluster, small_infer, aff, workload,
                  ExecutionMode.EXFLOW)
        assert opt.breakdown.alltoall_s < base.breakdown.alltoall_s
        assert opt.gpu_stay_fraction > base.gpu_stay_fraction

    def test_locality_fractions_bounded(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        res = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.EXFLOW)
        assert 0.0 <= res.gpu_stay_fraction <= 1.0
        assert res.node_stay_fraction >= res.gpu_stay_fraction

    def test_generated_token_count(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        res = run(small_model, small_cluster, small_infer, baseline_placement, workload,
                  ExecutionMode.VANILLA)
        assert res.generated_tokens == workload.iterations * workload.num_requests
        assert res.iterations == workload.iterations


class TestTop2:
    def test_top2_increases_traffic(self, small_cluster, small_infer, small_model):
        top2_model = dataclasses.replace(small_model, gating=GatingKind.TOP2)
        placement = vanilla_placement(
            top2_model.num_moe_layers, top2_model.num_experts, small_cluster.num_gpus
        )
        w1 = make_decode_workload(small_model, small_cluster, small_infer)
        w2 = DecodeWorkload(
            w1.paths, w1.home_gpu, w1.num_experts, w1.prompt_len, secondary_paths=w1.paths
        )
        r1 = run(small_model, small_cluster, small_infer, placement, w1,
                 ExecutionMode.VANILLA)
        r2 = run(top2_model, small_cluster, small_infer, placement, w2,
                 ExecutionMode.VANILLA)
        assert r2.ledger.total_bytes > r1.ledger.total_bytes
        assert r2.breakdown.expert_ffn_s > r1.breakdown.expert_ffn_s


class TestValidation:
    def test_placement_model_mismatch(self, small_model, small_cluster, small_infer, workload):
        bad = vanilla_placement(small_model.num_moe_layers, 16, small_cluster.num_gpus)
        with pytest.raises(ValueError):
            simulate_inference(small_model, small_cluster, small_infer, bad, workload)

    def test_placement_cluster_mismatch(self, small_model, small_cluster, small_infer, workload):
        bad = vanilla_placement(small_model.num_moe_layers, small_model.num_experts, 8)
        with pytest.raises(ValueError):
            simulate_inference(small_model, small_cluster, small_infer, bad, workload)

    def test_workload_layer_mismatch(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        bad = DecodeWorkload(
            workload.paths[:, :, :2], workload.home_gpu, workload.num_experts, 8
        )
        with pytest.raises(ValueError):
            simulate_inference(
                small_model, small_cluster, small_infer, baseline_placement, bad
            )

    def test_home_gpu_out_of_range(
        self, small_model, small_cluster, small_infer, baseline_placement, workload
    ):
        bad = DecodeWorkload(
            workload.paths, workload.home_gpu + 10, workload.num_experts, 8
        )
        with pytest.raises(ValueError):
            simulate_inference(
                small_model, small_cluster, small_infer, baseline_placement, bad
            )


class TestSingleGpu:
    def test_no_communication(self, small_model):
        from repro.config import ClusterConfig

        cluster = ClusterConfig(num_nodes=1, gpus_per_node=1)
        infer = InferenceConfig(requests_per_gpu=2, prompt_len=4, generate_len=2)
        placement = vanilla_placement(small_model.num_moe_layers, small_model.num_experts, 1)
        workload = make_decode_workload(small_model, cluster, infer)
        res = simulate_inference(small_model, cluster, infer, placement, workload)
        assert res.breakdown.alltoall_s == 0.0
        assert res.gpu_stay_fraction == 1.0
