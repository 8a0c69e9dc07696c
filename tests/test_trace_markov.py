"""Unit tests for repro.trace.markov."""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.markov as markov
from repro.trace.markov import MarkovRoutingModel, make_affinity_transitions

WALK = markov._WALK_MAX_TOKENS


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
    rows; the stream must match draw for draw.  n = 16 and 17 straddle
    ``_WALK_MAX_TOKENS``: the largest walked call and the smallest
    vectorised one.
    """

    @staticmethod
    def _model(prior: bool) -> MarkovRoutingModel:
        m = MarkovRoutingModel.with_affinity(8, 5, 0.7, rng=np.random.default_rng(11))
        if prior:
            p = np.random.default_rng(12).random(8)
            m = MarkovRoutingModel(m.transitions, p / p.sum())
        return m

    NEXT = {0: 0.8349816305020089, 1: 0.9227256864229143,
            7: 0.5942656805385423, 16: 0.9558445492401806,
            17: 0.7318101234672969, 500: 0.05565698400795982}

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
            (False, 16, "62a52806877970c9", [[1, 6, 1, 3, 3], [7, 6, 1, 2, 4]]),
            (False, 17, "2afae01b8f788931", [[7, 6, 0, 4, 6], [1, 1, 7, 7, 3]]),
            (True, 16, "02ad4acc9b30d95d", [[1, 6, 1, 3, 3], [6, 4, 5, 6, 7]]),
            (True, 17, "82009b25e5d364ee", [[6, 0, 3, 3, 5], [1, 1, 7, 7, 3]]),
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


def _both_paths(model, n, rng_factory):
    """(paths, rng) of a walked and a vectorised ``n``-token call, fresh rng each."""
    out = []
    for threshold in (n, n - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "_WALK_MAX_TOKENS", threshold)
            rng = rng_factory()
            out.append((model.sample(n, rng).paths, rng))
    return out


class TestWalkEquivalence:
    """Small calls walk the CDFs with ``bisect``; the result is the vectorised one."""

    def test_pins_straddle_the_threshold(self):
        assert WALK == 16
        assert {16, 17} <= set(TestSamplerPinned.NEXT)

    @settings(max_examples=60, deadline=None)
    @given(
        e=st.integers(1, 64),
        L=st.integers(2, 24),
        affinity=st.sampled_from([0.0, 0.3, 1.0]),
        collision=st.sampled_from([0.0, 0.5, 1.0]),
        successors=st.integers(1, 3),
        zeros=st.integers(0, 63),
        n=st.integers(0, 2 * WALK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_equals_vectorised(self, e, L, affinity, collision, successors, zeros, n, seed):
        gen = np.random.default_rng(seed)
        t = make_affinity_transitions(
            e, L, affinity, min(successors, e), rng=gen, collision=collision
        )
        prior = gen.random(e)
        prior[gen.permutation(e)[: min(zeros, e - 1)]] = 0.0
        for model in (MarkovRoutingModel(t), MarkovRoutingModel(t, prior / prior.sum())):
            (walked, walked_rng), (vec, vec_rng) = _both_paths(
                model, n, lambda: np.random.default_rng(seed + 1)
            )
            assert walked.shape == (n, L)
            np.testing.assert_array_equal(walked, vec)
            assert walked_rng.bit_generator.state == vec_rng.bit_generator.state


class _FixedUniforms:
    """Duck-typed generator whose ``random(shape)`` returns chosen doubles."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, shape: tuple[int, int]) -> np.ndarray:
        assert shape == self.u.shape
        return self.u.copy()


class TestWalkTiesAndClamping:
    """Uniforms on CDF entries, at 0 and just below 1, and a row short of 1."""

    TOP = np.nextafter(1.0, 0.0)

    @staticmethod
    def _model() -> MarkovRoutingModel:
        t = np.empty((2, 4, 4))
        t[0] = 0.25
        t[1] = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],  # CDF repeats 0 and 1
            [0.25, 0.25, 0.25, 0.25 - 5e-9],  # sums to 1 - 5e-9: allclose accepts it
            [0.0, 0.0, 0.0, 1.0],
        ]
        return MarkovRoutingModel(t, prior=np.array([0.5, 0.0, 0.25, 0.25]))

    @staticmethod
    def _direct(model: MarkovRoutingModel, u: np.ndarray) -> np.ndarray:
        """The formula both paths implement, one token at a time."""
        e = model.num_experts
        cdf0, cdfs = model._cdfs
        rows = []
        for col in u.T:
            cur = min(int(np.searchsorted(cdf0, col[0], side="right")), e - 1)
            row = [cur]
            for j, x in enumerate(col[1:]):
                cur = min(int((cdfs[j, cur] < x).sum()), e - 1)
                row.append(cur)
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(-1, model.num_layers)

    def _check(self, model: MarkovRoutingModel, u: np.ndarray) -> np.ndarray:
        want = self._direct(model, u)
        (walked, _), (vec, _) = _both_paths(model, u.shape[1], lambda: _FixedUniforms(u))
        np.testing.assert_array_equal(walked, want)
        np.testing.assert_array_equal(vec, want)
        return want

    def test_every_tie_and_extreme(self):
        model = self._model()
        cdf0, cdfs = model._cdfs
        values = np.unique(np.concatenate([cdf0, cdfs.ravel(), [0.0, self.TOP]]))
        values = values[values < 1.0]  # a generator's doubles lie in [0, 1)
        grid = np.stack(np.meshgrid(values, values, values, indexing="ij")).reshape(3, -1)
        for start in range(0, grid.shape[1], WALK):
            self._check(model, grid[:, start : start + WALK])

    def test_short_row_clamps_to_last_expert(self):
        model = self._model()
        # expert 0 (u = 0), expert 2 of the uniform row, then every entry of
        # the short row lies below u: the count is 4, clamped to 3
        u = np.array([[0.0], [0.6], [self.TOP]])
        assert (model._cdfs[1][1, 2] < self.TOP).all()
        assert self._check(model, u).tolist() == [[0, 2, 3]]

    def test_ties_follow_the_vectorised_sides(self):
        model = self._model()
        # prior CDF [.5, .5, .75, 1]: u = .5 counts entries <= u, so expert 2
        # (never the zero-mass expert 1); transition CDF [.25, .5, .75, 1]:
        # u = .5 counts entries < u, so expert 1; row 1 of the next layer has
        # CDF [0, .5, 1, 1], where u = .5 counts one entry
        u = np.array([[0.5, 0.5], [0.5, 0.25], [0.5, 0.0]])
        assert self._check(model, u).tolist() == [[2, 1, 1], [2, 0, 0]]


class TestModelCopies:
    def test_sampled_model_pickles_and_copies(self):
        model = MarkovRoutingModel.with_affinity(8, 4, 0.7)
        model.sample(3)  # builds the cached memoryviews
        want = model.sample(40, np.random.default_rng(1)).paths
        small = model.sample(3, np.random.default_rng(1)).paths
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
            np.testing.assert_array_equal(clone.sample(40, np.random.default_rng(1)).paths, want)
            np.testing.assert_array_equal(clone.sample(3, np.random.default_rng(1)).paths, small)
