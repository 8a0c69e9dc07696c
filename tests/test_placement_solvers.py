"""Unit tests for the placement solvers (vanilla/greedy/ilp/staged/local)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.config import ClusterConfig
from repro.core.placement.base import Placement, placement_locality
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.ilp import (
    _slot_assignment,
    assignment_solve,
    chain_objective,
    ilp_placement,
    joint_ilp_placement,
)
from repro.core.placement.local_search import _mass_into, _mass_out, local_search_placement
from repro.core.placement.registry import SOLVERS, solve_placement
from repro.core.placement.staged import staged_placement
from repro.core.placement.vanilla import vanilla_placement
from repro.trace.events import CountTrace, RoutingTrace
from repro.trace.markov import MarkovRoutingModel


def _weights(trace):
    return [trace.transition_counts(j).astype(float) for j in range(trace.num_layers - 1)]


class TestVanilla:
    def test_contiguous_blocks(self):
        p = vanilla_placement(3, 8, 4)
        assert p.gpu_of[0].tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_same_every_layer(self):
        p = vanilla_placement(5, 8, 2)
        assert (p.gpu_of == p.gpu_of[0]).all()

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            vanilla_placement(2, 6, 4)


class TestAssignmentSolve:
    def test_identity_benefit(self):
        """Diagonal benefit -> each expert goes to its own column group."""
        benefit = np.eye(4)
        groups = assignment_solve(benefit, 4)
        assert groups.tolist() == [0, 1, 2, 3]

    def test_capacity_respected(self):
        benefit = np.zeros((8, 2))
        benefit[:, 0] = 1.0  # everyone prefers group 0
        groups = assignment_solve(benefit, 2)
        assert np.bincount(groups, minlength=2).tolist() == [4, 4]

    def test_maximises_total_benefit(self):
        rng = np.random.default_rng(0)
        benefit = rng.random((6, 3))
        groups = assignment_solve(benefit, 3)
        got = benefit[np.arange(6), groups].sum()
        # brute-force optimum over all balanced assignments
        from itertools import permutations

        best = 0.0
        for perm in permutations(range(6)):
            g = np.empty(6, dtype=int)
            for slot, expert in enumerate(perm):
                g[expert] = slot // 2
            best = max(best, benefit[np.arange(6), g].sum())
        assert got == pytest.approx(best)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            assignment_solve(np.zeros((4, 3)), 2)
        with pytest.raises(ValueError):
            assignment_solve(np.zeros((5, 2)), 2)
        with pytest.raises(ValueError):
            assignment_solve(np.zeros((4, 0)), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        benefit = np.ones((4, 2))
        benefit[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            assignment_solve(benefit, 2)


@st.composite
def tie_heavy_benefits(draw):
    """(benefit, G): small-range integers or rounded floats, so ties are
    common, or wide floats for non-trivial dual updates; some rows forced
    to all-zero, of either sign."""
    g = draw(st.integers(1, 8))
    cap = draw(st.integers(1, 8))
    e = g * cap
    cell = draw(
        st.sampled_from(
            [
                st.integers(-2, 3).map(float),
                st.floats(-4, 4).map(lambda x: round(x, 1)),
                st.sampled_from([0.0, -0.0, 1.0]),
                st.floats(-1e3, 1e3),
            ]
        )
    )
    benefit = draw(arrays(np.float64, (e, g), elements=cell))
    zero_rows = draw(st.lists(st.integers(0, e - 1), max_size=3))
    benefit[zero_rows] = draw(st.sampled_from([0.0, -0.0]))
    return benefit, g


class TestAssignmentSolveMatchesScipy:
    """The in-house solver returns exactly what SciPy's
    ``linear_sum_assignment`` returns on the slot-expanded matrix, ties
    included: placements and the perf digests depend on its tie-breaks.
    SciPy is the test oracle only; the library does not import it."""

    @staticmethod
    def scipy_slots(benefit: np.ndarray, cap: int) -> list[int]:
        rows, cols = linear_sum_assignment(np.repeat(benefit, cap, axis=1), maximize=True)
        assert rows.tolist() == list(range(benefit.shape[0]))
        return cols.tolist()

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_benefits())
    @example((np.zeros((16, 2)), 2))
    @example((np.full((8, 4), -0.0), 4))
    @example((np.eye(6)[:, :3] + np.eye(6)[:, 3:], 3))
    def test_equals_linear_sum_assignment(self, case):
        benefit, g = case
        cap = benefit.shape[0] // g
        expected = self.scipy_slots(benefit, cap)
        assert _slot_assignment((-benefit).tolist(), cap) == expected
        assert assignment_solve(benefit, g).tolist() == [j // cap for j in expected]


class TestChainObjective:
    def test_counts_kept_mass(self):
        gpu_of = np.array([[0, 1], [0, 1]])
        w = [np.array([[3.0, 1.0], [2.0, 5.0]])]
        # kept: (0->0) 3 and (1->1) 5
        assert chain_objective(gpu_of, w) == 8.0


@pytest.fixture
def chain_trace():
    """Deterministic cyclic-shift routing: expert i -> i+1 (mod E)."""
    e, L, n = 8, 4, 400
    start = np.tile(np.arange(e), n // e)
    paths = np.stack([(start + j) % e for j in range(L)], axis=1)
    return RoutingTrace(paths, num_experts=e)


class TestILPChain:
    def test_perfect_on_deterministic_chain(self, chain_trace):
        """A shift chain admits a zero-crossing placement; the solver must
        find it."""
        p = ilp_placement(chain_trace, num_gpus=4)
        stats = placement_locality(p, chain_trace)
        assert stats.gpu_stay_fraction == pytest.approx(1.0)

    def test_beats_vanilla_on_affinity(self, affinity_trace):
        ilp = ilp_placement(affinity_trace, num_gpus=4)
        van = vanilla_placement(affinity_trace.num_layers, affinity_trace.num_experts, 4)
        s_ilp = placement_locality(ilp, affinity_trace).gpu_stay_fraction
        s_van = placement_locality(van, affinity_trace).gpu_stay_fraction
        assert s_ilp > s_van + 0.15

    def test_valid_placement(self, affinity_trace):
        p = ilp_placement(affinity_trace, num_gpus=2)
        assert p.num_gpus == 2  # Placement validates balance on build

    def test_sweeps_never_hurt(self, affinity_trace):
        w = _weights(affinity_trace)
        p0 = ilp_placement(affinity_trace, num_gpus=4, sweeps=0)
        p3 = ilp_placement(affinity_trace, num_gpus=4, sweeps=3)
        assert chain_objective(p3.gpu_of, w) >= chain_objective(p0.gpu_of, w) - 1e-9

    def test_single_gpu_trivial(self, affinity_trace):
        p = ilp_placement(affinity_trace, num_gpus=1)
        assert (p.gpu_of == 0).all()

    def test_indivisible_rejected(self, affinity_trace):
        with pytest.raises(ValueError):
            ilp_placement(affinity_trace, num_gpus=3)


class TestJointILP:
    def test_matches_or_beats_chain(self):
        """The DP is exact, so its objective is >= the chained solver's.
        Integer counts sum exactly, so no tolerance is needed."""
        model = MarkovRoutingModel.with_affinity(4, 3, 0.8, rng=np.random.default_rng(3))
        trace = model.sample(500, np.random.default_rng(4))
        w = _weights(trace)
        joint = joint_ilp_placement(trace, num_gpus=2)
        chain = ilp_placement(trace, num_gpus=2)
        assert chain_objective(joint.gpu_of, w) >= chain_objective(chain.gpu_of, w)

    def test_perfect_chain_instance(self, chain_trace):
        p = joint_ilp_placement(chain_trace, num_gpus=2)
        assert placement_locality(p, chain_trace).gpu_stay_fraction == pytest.approx(1.0)

    @pytest.mark.parametrize(
        ("e", "g", "layers", "seed"),
        [*[(4, 2, 3, s) for s in range(5)], (6, 3, 2, 0), (4, 4, 3, 1)],
    )
    def test_equals_brute_force(self, e, g, layers, seed):
        """Enumerating every per-layer assignment finds the same optimum."""
        model = MarkovRoutingModel.with_affinity(e, layers, 0.7, rng=np.random.default_rng(seed))
        trace = model.sample(300, np.random.default_rng(seed + 100))
        w = _weights(trace)
        balanced = set(itertools.permutations(np.repeat(np.arange(g), e // g)))
        best = max(
            chain_objective(np.array(gpu_of), w)
            for gpu_of in itertools.product(sorted(balanced), repeat=layers)
        )
        assert chain_objective(joint_ilp_placement(trace, num_gpus=g).gpu_of, w) == best

    @pytest.mark.parametrize(("e", "g", "k"), [(16, 4, 63_063_000), (8, 8, 40_320)])
    def test_too_many_states_rejected(self, e, g, k):
        trace = RoutingTrace(np.zeros((4, 2), dtype=np.int64), num_experts=e)
        with pytest.raises(ValueError, match=f"K={k} .* E={e} experts to G={g} GPUs"):
            joint_ilp_placement(trace, num_gpus=g)

    def test_indivisible_rejected(self, affinity_trace):
        with pytest.raises(ValueError, match="not divisible"):
            joint_ilp_placement(affinity_trace, num_gpus=3)

    @settings(max_examples=30, deadline=None)
    @given(
        # (experts, GPUs, nodes), K from 6 up to 2,520
        shape=st.sampled_from(
            [(4, 2, 1), (4, 2, 2), (4, 4, 2), (6, 2, 2), (6, 3, 1), (6, 6, 3), (8, 2, 1), (8, 4, 2)]
        ),
        layers=st.integers(2, 4),
        affinity=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @example(shape=(8, 4, 2), layers=4, affinity=0.8, seed=0)  # the largest K
    def test_at_least_every_registered_solver(self, shape, layers, affinity, seed):
        e, g, nodes = shape
        model = MarkovRoutingModel.with_affinity(
            e, layers, affinity, rng=np.random.default_rng(seed)
        )
        trace = model.sample(200, np.random.default_rng(seed + 1))
        cluster = ClusterConfig(num_nodes=nodes, gpus_per_node=g // nodes)
        w = _weights(trace)
        best = chain_objective(solve_placement("ilp-joint", trace, cluster).gpu_of, w)
        for strategy in SOLVERS:
            p = solve_placement(strategy, trace, cluster)
            assert best >= chain_objective(p.gpu_of, w) - 1e-9, strategy


class TestGreedy:
    def test_tied_benefits_assign_deterministically(self):
        """Regression: equal-benefit (expert, gpu) pairs must resolve by
        ascending flat index (stable sort), not by whatever order numpy's
        default introsort happens to produce on this version.

        The trace visits every (layer-0, layer-1) expert pair exactly once,
        so with the contiguous layer-0 seed every layer-1 expert receives
        identical mass from every GPU — all benefits tie.  Stable order then
        assigns expert i to GPU i // cap, i.e. the contiguous blocks."""
        e = 4
        pairs = np.array([(i, p) for i in range(e) for p in range(e)])
        trace = RoutingTrace(pairs, num_experts=e)
        placement = greedy_placement(trace, num_gpus=2)
        assert placement.gpu_of[0].tolist() == [0, 0, 1, 1]
        assert placement.gpu_of[1].tolist() == [0, 0, 1, 1]

    def test_deterministic_across_calls(self, affinity_trace):
        a = greedy_placement(affinity_trace, num_gpus=4)
        b = greedy_placement(affinity_trace, num_gpus=4)
        assert np.array_equal(a.gpu_of, b.gpu_of)

    def test_valid_and_better_than_vanilla(self, affinity_trace):
        g = greedy_placement(affinity_trace, num_gpus=4)
        v = vanilla_placement(affinity_trace.num_layers, affinity_trace.num_experts, 4)
        s_g = placement_locality(g, affinity_trace).gpu_stay_fraction
        s_v = placement_locality(v, affinity_trace).gpu_stay_fraction
        assert s_g > s_v

    def test_ilp_at_least_greedy(self, affinity_trace):
        """The global solver should not lose to the local heuristic."""
        w = _weights(affinity_trace)
        g = greedy_placement(affinity_trace, num_gpus=4)
        i = ilp_placement(affinity_trace, num_gpus=4)
        assert chain_objective(i.gpu_of, w) >= chain_objective(g.gpu_of, w) - 1e-9


class TestLocalSearch:
    def test_never_worse_than_start(self, affinity_trace):
        w = _weights(affinity_trace)
        start = vanilla_placement(affinity_trace.num_layers, affinity_trace.num_experts, 4)
        refined = local_search_placement(affinity_trace, 4, start=start)
        assert chain_objective(refined.gpu_of, w) >= chain_objective(start.gpu_of, w)

    def test_improves_on_affinity(self, affinity_trace):
        start = vanilla_placement(affinity_trace.num_layers, affinity_trace.num_experts, 4)
        refined = local_search_placement(affinity_trace, 4, start=start)
        s0 = placement_locality(start, affinity_trace).gpu_stay_fraction
        s1 = placement_locality(refined, affinity_trace).gpu_stay_fraction
        assert s1 > s0

    def test_shape_mismatch_rejected(self, affinity_trace):
        bad = vanilla_placement(2, affinity_trace.num_experts, 4)
        with pytest.raises(ValueError):
            local_search_placement(affinity_trace, 4, start=bad)

    @pytest.mark.parametrize("passes", [0, -1])
    def test_no_passes_rejected(self, affinity_trace, passes):
        # used to return the start placement unsearched
        with pytest.raises(ValueError, match="max_passes"):
            local_search_placement(affinity_trace, 4, max_passes=passes)

    @pytest.mark.parametrize("start_gpus", [2, 8])
    def test_gpu_count_mismatch_rejected(self, affinity_trace, start_gpus):
        # used to fail late, as a formula-9 load-balance or rank-range error
        start = vanilla_placement(
            affinity_trace.num_layers, affinity_trace.num_experts, start_gpus
        )
        with pytest.raises(ValueError, match="num_gpus=4"):
            local_search_placement(affinity_trace, 4, start=start)


def _reference_swap_delta(gpu_of, weights, layer, a, b):
    """The per-pair masked-sum delta the group-mass search replaced."""
    ga, gb = gpu_of[layer, a], gpu_of[layer, b]
    if ga == gb:
        return 0.0
    delta = 0.0
    if layer > 0:
        w = weights[layer - 1]
        prev = gpu_of[layer - 1]
        delta += w[prev == gb, a].sum() - w[prev == ga, a].sum()
        delta += w[prev == ga, b].sum() - w[prev == gb, b].sum()
    if layer < gpu_of.shape[0] - 1:
        w = weights[layer]
        nxt = gpu_of[layer + 1]
        delta += w[a, nxt == gb].sum() - w[a, nxt == ga].sum()
        delta += w[b, nxt == ga].sum() - w[b, nxt == gb].sum()
    return float(delta)


def _reference_local_search(trace, num_gpus, start, max_passes, rng):
    """The swap search as it was before group-mass deltas: the oracle."""
    e, L = trace.num_experts, trace.num_layers
    weights = _weights(trace)
    gpu_of = start.gpu_of.copy()
    pairs = [(a, b) for a in range(e) for b in range(a + 1, e)]
    for _ in range(max_passes):
        improved = False
        for layer in range(L):
            for idx in rng.permutation(len(pairs)):
                a, b = pairs[idx]
                if gpu_of[layer, a] == gpu_of[layer, b]:
                    continue
                if _reference_swap_delta(gpu_of, weights, layer, a, b) > 1e-12:
                    gpu_of[layer, a], gpu_of[layer, b] = gpu_of[layer, b], gpu_of[layer, a]
                    improved = True
        if not improved:
            break
    return Placement(gpu_of, num_gpus, strategy="local-search")


def _search_counts(kind, shape, rng):
    if kind == "integer":  # tie-heavy: many swaps have a zero delta
        return rng.integers(0, 4, shape).astype(np.float64)
    if kind == "decayed":  # fractional, like the streaming estimator's window
        return rng.integers(0, 50, shape) * 0.99 ** rng.integers(0, 400, shape)
    return np.where(rng.random(shape) < 0.1, rng.integers(1, 1000, shape), 0).astype(float)


class TestLocalSearchMatchesReference:
    """The group-mass search must take every decision the per-pair
    masked-sum search took: same placement, same generator state after."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        num_layers=st.integers(2, 4),
        # (GPUs, experts per GPU), at most 24 experts
        shape=st.sampled_from([1, 2, 3, 4, 8]).flatmap(
            lambda g: st.tuples(st.just(g), st.integers(1, 24 // g))
        ),
        kind=st.sampled_from(["integer", "decayed", "sparse"]),
        seed=st.integers(0, 2**16),
        max_passes=st.integers(1, 4),
        warm=st.booleans(),
    )
    # >= 8 experts per GPU: numpy's pairwise summation path
    @example(num_layers=2, shape=(2, 12), kind="decayed", seed=1, max_passes=4, warm=True)
    @example(num_layers=3, shape=(2, 16), kind="sparse", seed=4, max_passes=3, warm=False)
    @example(num_layers=3, shape=(1, 8), kind="integer", seed=2, max_passes=2, warm=True)
    @example(num_layers=3, shape=(8, 1), kind="integer", seed=3, max_passes=4, warm=True)
    def test_same_placement_and_rng_state(self, num_layers, shape, kind, seed, max_passes, warm):
        num_gpus, per_gpu = shape
        e = num_gpus * per_gpu
        data_rng = np.random.default_rng(seed)
        trace = CountTrace(_search_counts(kind, (num_layers - 1, e, e), data_rng))
        if warm:
            ranks = np.repeat(np.arange(num_gpus), per_gpu)
            gpu_of = np.stack([data_rng.permutation(ranks) for _ in range(num_layers)])
            start = Placement(gpu_of, num_gpus)
        else:
            start = vanilla_placement(num_layers, e, num_gpus)
        rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        new = local_search_placement(trace, num_gpus, start, max_passes, rng_new)
        ref = _reference_local_search(trace, num_gpus, start, max_passes, rng_ref)
        assert np.array_equal(new.gpu_of, ref.gpu_of)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("per_gpu", [1, 7, 8, 12, 33])
    def test_group_mass_tables_equal_masked_sums(self, per_gpu):
        """Every table entry is bit for bit the masked 1-D sum it replaces,
        including numpy's pairwise summation from 8 experts per GPU."""
        num_gpus = 3
        e = num_gpus * per_gpu
        rng = np.random.default_rng(per_gpu)
        w = _search_counts("decayed", (e, e), rng)
        ranks = rng.permutation(np.repeat(np.arange(num_gpus), per_gpu))
        into = _mass_into(w, ranks, num_gpus)
        out = _mass_out(w, ranks, num_gpus)
        for x in range(e):
            for g in range(num_gpus):
                assert into[x][g] == w[ranks == g, x].sum()
                assert out[x][g] == w[x, ranks == g].sum()


class TestStaged:
    def test_valid_on_hierarchy(self, affinity_trace):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        p = staged_placement(affinity_trace, cluster)
        assert p.num_gpus == 4
        assert p.strategy == "staged"

    def test_prioritises_node_locality(self, affinity_trace):
        """Staged placement must match flat ILP on node-stay fraction
        (its stage-1 objective) while remaining balanced per GPU."""
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        staged = staged_placement(affinity_trace, cluster)
        flat = ilp_placement(affinity_trace, cluster.num_gpus)
        s_staged = placement_locality(staged, affinity_trace, cluster)
        s_flat = placement_locality(flat, affinity_trace, cluster)
        assert s_staged.node_stay_fraction >= s_flat.node_stay_fraction - 0.02

    def test_single_node_falls_back(self, affinity_trace):
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        p = staged_placement(affinity_trace, cluster)
        assert p.num_gpus == 4

    def test_one_gpu_per_node(self, affinity_trace):
        cluster = ClusterConfig(num_nodes=4, gpus_per_node=1)
        p = staged_placement(affinity_trace, cluster)
        assert p.num_gpus == 4

    @pytest.mark.parametrize(
        "shape", [(1, 4), (4, 1)], ids=["single-node", "one-gpu-per-node"]
    )
    def test_fallback_preserves_placement_metadata(self, affinity_trace, shape):
        """Both degenerate hierarchies must return a placement whose
        metadata matches the normal staged path: strategy provenance
        relabelled to 'staged', GPU count taken from the cluster, and the
        solved assignment identical to the flat chained solver's."""
        nodes, gpn = shape
        cluster = ClusterConfig(num_nodes=nodes, gpus_per_node=gpn)
        p = staged_placement(affinity_trace, cluster, sweeps=2)
        flat = ilp_placement(affinity_trace, cluster.num_gpus, sweeps=2)
        assert p.strategy == "staged"
        assert p.num_gpus == cluster.num_gpus
        assert np.array_equal(p.gpu_of, flat.gpu_of)
        # the relabel must not cost objective: same solve, different label
        w = _weights(affinity_trace)
        assert chain_objective(p.gpu_of, w) == chain_objective(flat.gpu_of, w)


class TestRegistry:
    def test_all_solvers_listed(self):
        assert set(SOLVERS) == {
            "vanilla",
            "greedy",
            "ilp",
            "ilp-joint",
            "staged",
            "local-search",
        }

    @pytest.mark.parametrize("strategy", ["vanilla", "greedy", "ilp", "staged", "local-search"])
    def test_solve_placement_dispatch(self, strategy, affinity_trace):
        cluster = ClusterConfig(num_nodes=2, gpus_per_node=2)
        p = solve_placement(strategy, affinity_trace, cluster)
        assert p.num_gpus == 4
        assert p.num_experts == affinity_trace.num_experts

    def test_unknown_strategy(self, affinity_trace):
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=2)
        with pytest.raises(ValueError):
            solve_placement("quantum", affinity_trace, cluster)
