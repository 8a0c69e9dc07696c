"""Unit tests for repro.trace.events (RoutingTrace)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.events import RoutingTrace


@pytest.fixture
def trace() -> RoutingTrace:
    paths = np.array(
        [
            [0, 1, 2],
            [0, 1, 2],
            [1, 1, 0],
            [2, 0, 0],
        ]
    )
    return RoutingTrace(paths, num_experts=3, source="unit")


class TestConstruction:
    def test_shape(self, trace):
        assert trace.num_tokens == 4
        assert trace.num_layers == 3
        assert len(trace) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RoutingTrace(np.array([[0, 3]]), num_experts=3)
        with pytest.raises(ValueError):
            RoutingTrace(np.array([[-1, 0]]), num_experts=3)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            RoutingTrace(np.zeros(5, dtype=int), num_experts=3)

    def test_rejects_bad_expert_count(self):
        with pytest.raises(ValueError):
            RoutingTrace(np.zeros((2, 2), dtype=int), num_experts=0)

    @pytest.mark.parametrize("bad", [[[0.5, 1.9]], [[0.0, np.nan]], [[1.0, np.inf]]])
    def test_rejects_non_integral_ids(self, bad):
        # the int64 cast used to truncate [[0.5, 1.9]] to [[0, 1]]
        with pytest.raises(ValueError, match="paths must hold finite integers"):
            RoutingTrace(np.array(bad), num_experts=3)

    def test_accepts_integral_floats_and_empty(self):
        trace = RoutingTrace(np.array([[0.0, 2.0]]), num_experts=3)
        assert trace.paths.dtype == np.int64
        assert trace.paths.tolist() == [[0, 2]]
        assert RoutingTrace(np.empty((0, 3)), num_experts=3).num_tokens == 0


class TestStats:
    def test_layer_histogram(self, trace):
        assert trace.layer_histogram(0).tolist() == [2, 1, 1]

    def test_layer_distribution_sums_to_one(self, trace):
        assert trace.layer_distribution(1).sum() == pytest.approx(1.0)

    def test_transition_counts(self, trace):
        counts = trace.transition_counts(0)
        assert counts[0, 1] == 2  # two tokens 0 -> 1
        assert counts[1, 1] == 1
        assert counts[2, 0] == 1
        assert counts.sum() == 4

    def test_transition_counts_multi_hop(self, trace):
        counts = trace.transition_counts(0, 2)
        assert counts[0, 2] == 2
        assert counts.sum() == 4

    def test_conditional_matrix_rows_stochastic(self, trace):
        m = trace.conditional_matrix(0)
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_conditional_matrix_unseen_rows_uniform(self):
        paths = np.array([[0, 1]])
        trace = RoutingTrace(paths, num_experts=4)
        m = trace.conditional_matrix(0)
        # experts 1..3 never observed at layer 0 -> uniform rows
        assert np.allclose(m[1], 0.25)

    def test_all_conditional_matrices_shape(self, trace):
        stack = trace.all_conditional_matrices()
        assert stack.shape == (2, 3, 3)

    def test_layer_out_of_range(self, trace):
        with pytest.raises(IndexError):
            trace.layer_histogram(3)
        with pytest.raises(IndexError):
            trace.transition_counts(2)


class TestComposition:
    def test_subsample_size(self, trace, rng):
        sub = trace.subsample(2, rng)
        assert sub.num_tokens == 2
        assert sub.num_experts == trace.num_experts

    def test_subsample_larger_is_identity(self, trace, rng):
        assert trace.subsample(100, rng) is trace

    def test_subsample_negative(self, trace):
        with pytest.raises(ValueError):
            trace.subsample(-1)

    def test_concat(self, trace):
        both = trace.concat(trace)
        assert both.num_tokens == 8

    def test_concat_mismatch(self, trace):
        other = RoutingTrace(np.zeros((2, 3), dtype=int), num_experts=5)
        with pytest.raises(ValueError):
            trace.concat(other)
        other2 = RoutingTrace(np.zeros((2, 2), dtype=int), num_experts=3)
        with pytest.raises(ValueError):
            trace.concat(other2)

    def test_split_partitions(self, trace, rng):
        a, b = trace.split(0.5, rng)
        assert a.num_tokens + b.num_tokens == trace.num_tokens

    def test_split_bad_fraction(self, trace):
        with pytest.raises(ValueError):
            trace.split(1.0)


class TestPersistence:
    def test_save_load_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = RoutingTrace.load(path)
        assert np.array_equal(loaded.paths, trace.paths)
        assert loaded.num_experts == trace.num_experts
        assert loaded.source == "unit"

    def test_bytes_roundtrip(self, trace):
        blob = trace.to_bytes()
        loaded = RoutingTrace.from_bytes(blob)
        assert np.array_equal(loaded.paths, trace.paths)
        assert loaded.source == trace.source
