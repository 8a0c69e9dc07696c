"""Unit tests for repro.trace.markov."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.trace.markov import MarkovRoutingModel, make_affinity_transitions


class TestTransitions:
    def test_row_stochastic(self):
        t = make_affinity_transitions(8, 4, affinity=0.7)
        assert t.shape == (3, 8, 8)
        assert np.allclose(t.sum(axis=2), 1.0)

    def test_zero_affinity_uniform(self):
        t = make_affinity_transitions(8, 3, affinity=0.0)
        assert np.allclose(t, 1.0 / 8)

    def test_full_affinity_concentrated(self):
        t = make_affinity_transitions(8, 3, affinity=1.0, successors=1)
        # each row is a one-hot permutation row
        assert np.allclose(t.max(axis=2), 1.0)
        # columns balanced: each expert is someone's successor exactly once
        assert np.allclose(t.sum(axis=1), 1.0)

    def test_successor_count_controls_spread(self):
        t1 = make_affinity_transitions(16, 2, affinity=1.0, successors=1)
        t4 = make_affinity_transitions(16, 2, affinity=1.0, successors=4)
        assert t1.max() > t4.max()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_affinity_transitions(8, 3, affinity=1.5)
        with pytest.raises(ValueError):
            make_affinity_transitions(8, 3, affinity=0.5, successors=0)
        with pytest.raises(ValueError):
            make_affinity_transitions(8, 1, affinity=0.5)


class TestMarkovModel:
    def test_sample_shape(self):
        model = MarkovRoutingModel.with_affinity(8, 5, 0.8)
        trace = model.sample(100)
        assert trace.num_tokens == 100
        assert trace.num_layers == 5
        assert trace.num_experts == 8

    def test_sample_deterministic(self):
        model = MarkovRoutingModel.with_affinity(8, 4, 0.8)
        a = model.sample(50, np.random.default_rng(3))
        b = model.sample(50, np.random.default_rng(3))
        assert np.array_equal(a.paths, b.paths)

    def test_empirical_matches_transitions(self):
        """Sampled conditional frequencies converge to the model."""
        model = MarkovRoutingModel.with_affinity(4, 2, 0.9, rng=np.random.default_rng(1))
        trace = model.sample(60000, np.random.default_rng(2))
        est = trace.conditional_matrix(0)
        assert np.abs(est - model.transitions[0]).max() < 0.03

    def test_prior_respected(self):
        prior = np.array([1.0, 0.0, 0.0, 0.0])
        t = make_affinity_transitions(4, 2, 0.0)
        model = MarkovRoutingModel(t, prior=prior)
        trace = model.sample(200, np.random.default_rng(0))
        assert (trace.paths[:, 0] == 0).all()

    def test_stationary_distribution(self):
        model = MarkovRoutingModel.with_affinity(4, 3, 0.5, rng=np.random.default_rng(5))
        d0 = model.stationary_distribution(0)
        d2 = model.stationary_distribution(2)
        assert d0.sum() == pytest.approx(1.0)
        assert d2.sum() == pytest.approx(1.0)

    def test_validation(self):
        bad = np.ones((2, 3, 3))  # rows sum to 3
        with pytest.raises(ValueError):
            MarkovRoutingModel(bad)
        with pytest.raises(ValueError):
            MarkovRoutingModel(np.ones((3, 3)) / 3)  # wrong ndim
        t = make_affinity_transitions(3, 2, 0.5)
        with pytest.raises(ValueError):
            MarkovRoutingModel(t, prior=np.array([0.5, 0.5]))  # wrong size

    def test_zero_tokens(self):
        model = MarkovRoutingModel.with_affinity(4, 3, 0.5)
        assert model.sample(0).num_tokens == 0

    def test_affinity_dial_orders_concentration(self):
        """Higher affinity -> more concentrated conditional matrices."""
        rng = np.random.default_rng(0)
        weak = MarkovRoutingModel.with_affinity(8, 3, 0.2, rng=np.random.default_rng(1))
        strong = MarkovRoutingModel.with_affinity(8, 3, 0.9, rng=np.random.default_rng(1))
        tw = weak.sample(5000, rng).conditional_matrix(0).max(axis=1).mean()
        ts = strong.sample(5000, rng).conditional_matrix(0).max(axis=1).mean()
        assert ts > tw


class TestSamplerPinned:
    """The cached-CDF, one-draw sampler reproduces the per-layer-draw paths.

    Digests, first rows and the generator's next double were recorded with
    the sampler that drew one ``N``-vector per layer and cumsum'd gathered
    rows; the stream must match draw for draw.
    """

    @staticmethod
    def _model(prior: bool) -> MarkovRoutingModel:
        m = MarkovRoutingModel.with_affinity(8, 5, 0.7, rng=np.random.default_rng(11))
        if prior:
            p = np.random.default_rng(12).random(8)
            m = MarkovRoutingModel(m.transitions, p / p.sum())
        return m

    NEXT = {0: 0.8349816305020089, 1: 0.9227256864229143,
            7: 0.5942656805385423, 500: 0.05565698400795982}

    @pytest.mark.parametrize(
        ("prior", "n", "digest", "head"),
        [
            (False, 0, "e3b0c44298fc1c14", []),
            (False, 1, "af89e0567e26897a", [[7, 6, 2, 5, 1]]),
            (False, 7, "9c8d1c6435149691", [[5, 7, 6, 6, 1], [3, 1, 7, 7, 2]]),
            (False, 500, "99acf0065ced2690", [[1, 1, 2, 1, 0], [0, 3, 1, 3, 3]]),
            (True, 0, "e3b0c44298fc1c14", []),
            (True, 1, "6e192e0160ed87ca", [[6, 0, 7, 7, 0]]),
            (True, 7, "df029e950febc709", [[4, 7, 6, 6, 1], [3, 1, 7, 7, 2]]),
            (True, 500, "a6645bce23f2b18c", [[1, 1, 2, 1, 0], [0, 3, 1, 3, 3]]),
        ],
    )
    def test_paths_and_generator_state(self, prior, n, digest, head):
        model = self._model(prior)
        rng = np.random.default_rng(100 + n)
        paths = model.sample(n, rng).paths
        got = hashlib.sha256(np.ascontiguousarray(paths, dtype=np.int64).tobytes())
        assert got.hexdigest()[:16] == digest
        assert paths[:2].tolist() == head
        assert rng.random() == self.NEXT[n]

    def test_repeat_calls_reuse_cache(self):
        model = self._model(prior=True)
        a = model.sample(50, np.random.default_rng(3)).paths
        cdfs = model._cdfs
        b = model.sample(50, np.random.default_rng(3)).paths
        assert model._cdfs is cdfs
        np.testing.assert_array_equal(a, b)
