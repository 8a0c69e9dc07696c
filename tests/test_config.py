"""Unit tests for repro.config."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    PAPER_MODELS,
    ClusterConfig,
    ExecutionMode,
    FleetConfig,
    GatingKind,
    InferenceConfig,
    LinkSpec,
    ModelConfig,
    ServingConfig,
    geometric_mean,
    paper_model,
    scaled_proxy,
    validate_deployment,
    wilkes3,
)


class TestGatingKind:
    def test_top1_k(self):
        assert GatingKind.TOP1.k == 1

    def test_top2_k(self):
        assert GatingKind.TOP2.k == 2


class TestExecutionMode:
    def test_vanilla_has_no_coherence(self):
        assert not ExecutionMode.VANILLA.uses_context_coherence

    def test_coherent_modes(self):
        assert ExecutionMode.CONTEXT_COHERENT.uses_context_coherence
        assert ExecutionMode.EXFLOW.uses_context_coherence

    def test_only_exflow_uses_affinity(self):
        assert ExecutionMode.EXFLOW.uses_affinity_placement
        assert not ExecutionMode.CONTEXT_COHERENT.uses_affinity_placement
        assert not ExecutionMode.VANILLA.uses_affinity_placement


class TestModelConfig:
    def test_d_ff_default_mult(self, small_model):
        assert small_model.d_ff == 4 * small_model.d_model

    def test_moe_every_block_by_default(self, small_model):
        assert small_model.num_moe_layers == small_model.num_layers
        assert small_model.moe_layer_indices == tuple(range(small_model.num_layers))

    def test_moe_every_two(self):
        cfg = ModelConfig("m", num_layers=6, num_experts=4, d_model=32, moe_every=2)
        assert cfg.num_moe_layers == 3
        assert cfg.moe_layer_indices == (1, 3, 5)

    def test_expert_params(self):
        cfg = ModelConfig("m", num_layers=2, num_experts=4, d_model=16)
        assert cfg.expert_params == 2 * 16 * 64
        assert cfg.total_expert_params == cfg.expert_params * 4 * 2

    def test_expert_bytes_fp16(self):
        cfg = ModelConfig("m", num_layers=2, num_experts=4, d_model=16)
        assert cfg.expert_bytes() == cfg.expert_params * 2

    def test_with_experts(self, small_model):
        bigger = small_model.with_experts(16)
        assert bigger.num_experts == 16
        assert bigger.num_layers == small_model.num_layers

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_layers", 0),
            ("num_experts", 0),
            ("d_model", 0),
            ("moe_every", 0),
            ("capacity_factor", -1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        kwargs = dict(name="m", num_layers=2, num_experts=4, d_model=32)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig("m", num_layers=2, num_experts=4, d_model=30, num_heads=4)


class TestLinkSpec:
    def test_transfer_time_alpha_beta(self):
        link = LinkSpec("l", latency_s=1e-6, bandwidth_Bps=1e9)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_bytes_free(self):
        link = LinkSpec("l", latency_s=1e-6, bandwidth_Bps=1e9)
        assert link.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        link = LinkSpec("l", latency_s=0.0, bandwidth_Bps=1e9)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            LinkSpec("l", latency_s=-1.0, bandwidth_Bps=1e9)
        with pytest.raises(ValueError):
            LinkSpec("l", latency_s=0.0, bandwidth_Bps=0.0)


class TestClusterConfig:
    def test_num_gpus(self):
        assert ClusterConfig(num_nodes=3, gpus_per_node=4).num_gpus == 12

    def test_node_of(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=4)
        assert c.node_of(0) == 0
        assert c.node_of(3) == 0
        assert c.node_of(4) == 1

    def test_node_of_out_of_range(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=2)
        with pytest.raises(IndexError):
            c.node_of(4)

    def test_gpus_of_node(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=3)
        assert list(c.gpus_of_node(1)) == [3, 4, 5]

    def test_link_tiers(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=2)
        assert c.link_between(0, 0) is c.local_link
        assert c.link_between(0, 1) is c.intra_link
        assert c.link_between(0, 2) is c.inter_link

    def test_experts_per_gpu(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=2)
        assert c.experts_per_gpu(8) == 2
        assert c.experts_per_node(8) == 4

    def test_experts_per_gpu_indivisible(self):
        c = ClusterConfig(num_nodes=2, gpus_per_node=2)
        with pytest.raises(ValueError):
            c.experts_per_gpu(6)

    def test_gpu_pairs_count(self):
        c = ClusterConfig(num_nodes=1, gpus_per_node=3)
        assert len(list(c.gpu_pairs())) == 6


class TestInferenceConfig:
    def test_totals(self):
        cfg = InferenceConfig(requests_per_gpu=2, prompt_len=10, generate_len=5)
        assert cfg.total_requests(4) == 8
        assert cfg.total_context_len() == 15

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            InferenceConfig(dtype_bytes=3)

    @pytest.mark.parametrize("field", ["requests_per_gpu", "prompt_len", "generate_len"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            InferenceConfig(**{field: 0})


class TestPaperPresets:
    def test_seven_variants(self):
        assert len(PAPER_MODELS) == 7

    def test_350m_family(self):
        for e in (8, 16, 32, 64):
            m = paper_model(f"gpt-m-350m-e{e}")
            assert m.num_experts == e
            assert m.num_layers == 24
            assert m.d_model == 1024

    def test_deep_variants(self):
        assert paper_model("gpt-m-470m-e32").num_layers == 32
        assert paper_model("gpt-m-590m-e32").num_layers == 40

    def test_xl(self):
        xl = paper_model("gpt-xl-1.3b-e16")
        assert xl.d_model == 2048
        assert xl.num_experts == 16

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            paper_model("nope")

    def test_wilkes3_shape(self):
        c = wilkes3(4)
        assert c.num_nodes == 4
        assert c.gpus_per_node == 4

    def test_scaled_proxy_keeps_structure(self):
        m = scaled_proxy(paper_model("gpt-m-350m-e32"), d_model=64)
        assert m.num_experts == 32
        assert m.num_layers == 24
        assert m.d_model == 64
        assert m.d_model % m.num_heads == 0

    def test_validate_deployment_ok(self):
        validate_deployment(paper_model("gpt-m-350m-e32"), wilkes3(4))

    def test_validate_deployment_indivisible(self):
        with pytest.raises(ValueError):
            validate_deployment(paper_model("gpt-m-350m-e8"), wilkes3(4))


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


# every float field of the two traffic/deployment configs
_FLOAT_FIELDS = [
    (ServingConfig, name)
    for name in ("arrival_rate_rps", "burst_factor", "burst_fraction", "burst_persistence")
] + [
    (FleetConfig, name)
    for name in (
        "slo_ms",
        "batch_slo_ms",
        "interactive_fraction",
        "shed_slack",
        "scale_up_queue_per_replica",
        "scale_down_queue_per_replica",
        "autoscale_check_every_s",
        "boot_overhead_s",
        "affinity_load_weight",
    )
]
# +inf SLOs mean "no deadline" and stay legal
_INF_OK = {"slo_ms", "batch_slo_ms"}


class TestNonFiniteFloats:
    """NaN passes range checks like ``x <= 0``; the configs reject it (and
    ±inf) by name instead of failing deep inside an engine."""

    @pytest.mark.parametrize(
        ("cls", "field", "value"),
        [
            pytest.param(cls, field, value, id=f"{cls.__name__}-{field}-{value}")
            for cls, field in _FLOAT_FIELDS
            for value in (math.nan, math.inf, -math.inf)
            if not (field in _INF_OK and value == math.inf)
        ],
    )
    def test_rejected_by_name(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cls(**{field: value})

    def test_infinite_slos_accepted(self):
        fleet = FleetConfig(slo_ms=math.inf, batch_slo_ms=math.inf)
        assert fleet.slo_s == fleet.batch_slo_s == math.inf
        assert FleetConfig(batch_slo_ms=math.inf).batch_slo_s == math.inf
