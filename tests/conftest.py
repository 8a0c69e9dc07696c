"""Shared fixtures: small, fast model/cluster/trace instances.

Everything here is deterministic (fixed seeds) and sized for sub-second
tests; the benchmarks use paper-scale configurations instead.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.config import ClusterConfig, InferenceConfig, ModelConfig
from repro.trace.datasets import make_corpus
from repro.trace.markov import MarkovRoutingModel

# CI runs with HYPOTHESIS_PROFILE=ci: every run draws the same examples, so a
# red run reproduces, and a failure prints the blob that replays it.  Local
# runs keep the default profile's random exploration.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_model() -> ModelConfig:
    """4 MoE layers x 8 experts, tiny hidden size."""
    return ModelConfig(
        name="test-small",
        num_layers=4,
        num_experts=8,
        d_model=32,
        vocab_size=128,
        num_heads=4,
    )


@pytest.fixture
def small_cluster() -> ClusterConfig:
    """2 nodes x 2 GPUs."""
    return ClusterConfig(num_nodes=2, gpus_per_node=2)


@pytest.fixture
def small_infer() -> InferenceConfig:
    return InferenceConfig(requests_per_gpu=2, prompt_len=8, generate_len=4)


@pytest.fixture
def affinity_routing(small_model) -> MarkovRoutingModel:
    """Strong-affinity Markov router matching the small model's shape."""
    return MarkovRoutingModel.with_affinity(
        small_model.num_experts,
        small_model.num_moe_layers,
        affinity=0.9,
        rng=np.random.default_rng(7),
    )


@pytest.fixture
def affinity_trace(affinity_routing, rng):
    return affinity_routing.sample(2000, rng)


@pytest.fixture
def uniform_trace(small_model, rng):
    """Memoryless routing — the no-affinity null case."""
    routing = MarkovRoutingModel.with_affinity(
        small_model.num_experts, small_model.num_moe_layers, affinity=0.0
    )
    return routing.sample(2000, rng)


@pytest.fixture
def pile_corpus():
    return make_corpus("pile", vocab_size=128, num_topics=8)
