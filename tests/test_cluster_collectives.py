"""Unit tests for repro.cluster.collectives."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster.collectives import (
    allgather_cost,
    allreduce_cost,
    alltoall_cost,
    alltoall_matrix,
    broadcast_cost,
)
from repro.cluster.topology import Tier, Topology
from repro.config import ClusterConfig


@pytest.fixture
def topo() -> Topology:
    return Topology(ClusterConfig(num_nodes=2, gpus_per_node=2))


@pytest.fixture
def big_topo() -> Topology:
    return Topology(ClusterConfig(num_nodes=4, gpus_per_node=4))


class TestAlltoallMatrix:
    def test_zero_traffic_costs_nothing(self, topo):
        res = alltoall_matrix(topo, np.zeros((4, 4)))
        assert res.time_s == 0.0
        assert res.cross_gpu_bytes == 0.0

    def test_diagonal_only_is_free(self, topo):
        traffic = np.zeros((4, 4))
        np.fill_diagonal(traffic, 1e6)
        res = alltoall_matrix(topo, traffic)
        assert res.time_s == 0.0
        assert res.bytes_by_tier[Tier.LOCAL] == pytest.approx(4e6)

    def test_monotone_in_bytes(self, topo):
        t1 = np.full((4, 4), 1e5)
        np.fill_diagonal(t1, 0)
        t2 = t1 * 10
        r1, r2 = alltoall_matrix(topo, t1), alltoall_matrix(topo, t2)
        assert r2.time_s > r1.time_s

    def test_inter_node_dearer_than_intra(self, topo):
        intra = np.zeros((4, 4))
        intra[0, 1] = 1e7  # same node
        inter = np.zeros((4, 4))
        inter[0, 2] = 1e7  # cross node
        assert alltoall_matrix(topo, inter).time_s > alltoall_matrix(topo, intra).time_s

    def test_single_gpu_all_local(self):
        topo = Topology(ClusterConfig(num_nodes=1, gpus_per_node=1))
        res = alltoall_matrix(topo, np.array([[123.0]]))
        assert res.time_s == 0.0
        assert res.bytes_by_tier[Tier.LOCAL] == 123.0

    def test_bytes_classified(self, topo):
        traffic = np.zeros((4, 4))
        traffic[0, 1] = 100.0  # intra
        traffic[0, 2] = 200.0  # inter
        res = alltoall_matrix(topo, traffic)
        assert res.bytes_by_tier[Tier.INTRA] == 100.0
        assert res.bytes_by_tier[Tier.INTER] == 200.0
        assert res.inter_node_bytes == 200.0

    def test_rounds(self, topo):
        traffic = np.full((4, 4), 1.0)
        res = alltoall_matrix(topo, traffic)
        assert res.rounds == 3

    def test_rejects_negative(self, topo):
        t = np.zeros((4, 4))
        t[1, 0] = -1
        with pytest.raises(ValueError):
            alltoall_matrix(topo, t)

    def test_rejects_wrong_shape(self, topo):
        with pytest.raises(ValueError):
            alltoall_matrix(topo, np.zeros((2, 2)))


class TestAlltoallUniform:
    def test_matches_matrix_version(self, topo):
        traffic = np.full((4, 4), 1e6)
        np.fill_diagonal(traffic, 0.0)
        assert alltoall_cost(topo, 1e6).time_s == pytest.approx(
            alltoall_matrix(topo, traffic).time_s
        )

    def test_scales_with_gpu_count(self, topo, big_topo):
        small = alltoall_cost(topo, 1e6)
        big = alltoall_cost(big_topo, 1e6)
        assert big.time_s > small.time_s

    def test_rejects_negative(self, topo):
        with pytest.raises(ValueError):
            alltoall_cost(topo, -1.0)


class TestAllgather:
    def test_uniform_contributions(self, topo):
        res = allgather_cost(topo, 1e6)
        assert res.time_s > 0
        assert res.rounds == 3
        # ring moves every contribution across G-1 links
        assert res.total_bytes == pytest.approx(3 * 4e6)

    def test_heterogeneous_contributions(self, topo):
        res = allgather_cost(topo, np.array([1e6, 0.0, 0.0, 0.0]))
        assert res.total_bytes == pytest.approx(3e6)

    def test_zero_contribution_free(self, topo):
        res = allgather_cost(topo, 0.0)
        assert res.time_s == 0.0

    def test_single_gpu(self):
        topo = Topology(ClusterConfig(num_nodes=1, gpus_per_node=1))
        assert allgather_cost(topo, 1e6).time_s == 0.0

    def test_no_dearer_than_equivalent_alltoall(self, topo):
        """AllGather of n bytes/rank moves the same volume as Alltoall of n
        per peer; the ring schedule should never cost more than the pairwise
        exchange (both are gated by the slowest tier each round)."""
        ag = allgather_cost(topo, 1e6)
        a2a = alltoall_cost(topo, 1e6)
        assert ag.time_s <= a2a.time_s + 1e-12

    def test_rejects_negative(self, topo):
        with pytest.raises(ValueError):
            allgather_cost(topo, np.array([1.0, -1.0, 0.0, 0.0]))


class TestAllreduce:
    def test_positive_cost(self, topo):
        assert allreduce_cost(topo, 1e6).time_s > 0

    def test_steps(self, topo):
        assert allreduce_cost(topo, 1e6).rounds == 6  # 2*(G-1)

    def test_zero_free(self, topo):
        assert allreduce_cost(topo, 0.0).time_s == 0.0

    def test_rejects_negative(self, topo):
        with pytest.raises(ValueError):
            allreduce_cost(topo, -5.0)


class TestBroadcast:
    def test_log_rounds(self, big_topo):
        res = broadcast_cost(big_topo, 1e6)
        assert res.rounds == 4  # ceil(log2 16)

    def test_all_ranks_receive(self, topo):
        res = broadcast_cost(topo, 1e6)
        # G-1 receivers, each gets the full payload
        assert res.total_bytes == pytest.approx(3e6)

    def test_root_out_of_range(self, topo):
        with pytest.raises(IndexError):
            broadcast_cost(topo, 1.0, root=4)

    def test_root_relabelling(self, topo):
        r0 = broadcast_cost(topo, 1e6, root=0)
        r2 = broadcast_cost(topo, 1e6, root=2)
        assert r0.total_bytes == pytest.approx(r2.total_bytes)


class TestCollectiveResult:
    def test_combine_adds(self, topo):
        a = alltoall_cost(topo, 1e5)
        b = allgather_cost(topo, 1e5)
        c = a.combine(b)
        assert c.time_s == pytest.approx(a.time_s + b.time_s)
        assert c.total_bytes == pytest.approx(a.total_bytes + b.total_bytes)
        assert c.rounds == a.rounds + b.rounds


class TestNonFiniteRejected:
    """NaN or infinite bytes cannot be priced; they used to cost 0.0 s."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_alltoall_single(self, topo, bad):
        traffic = np.full((4, 4), bad)
        np.fill_diagonal(traffic, 0.0)
        with pytest.raises(ValueError, match="finite"):
            alltoall_matrix(topo, traffic)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_alltoall_stacked(self, topo, bad):
        stack = np.zeros((3, 4, 4))
        stack[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            alltoall_matrix(topo, stack)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_allgather_single(self, topo, bad):
        with pytest.raises(ValueError, match="finite"):
            allgather_cost(topo, bad)
        with pytest.raises(ValueError, match="finite"):
            allgather_cost(topo, np.array([1.0, bad, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_allgather_stacked(self, topo, bad):
        contrib = np.ones((3, 4))
        contrib[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            allgather_cost(topo, contrib)

    def test_single_gpu_rejects_too(self):
        topo = Topology(ClusterConfig(num_nodes=1, gpus_per_node=1))
        with pytest.raises(ValueError, match="finite"):
            alltoall_matrix(topo, np.array([[np.nan]]))
        with pytest.raises(ValueError, match="finite"):
            allgather_cost(topo, np.inf)


def _random_stacks(g: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-integer (6, G, G) traffic and (6, G) contributions with idle rounds."""
    rng = np.random.default_rng(seed)
    traffic = rng.random((6, g, g)) * 1e6
    traffic[rng.random((6, g, g)) < 0.5] = 0.0
    traffic[2] = 0.0  # every round idle
    ranks = np.arange(g)
    traffic[4, ranks, (ranks + 1) % g] = 0.0  # round 1 idle, the others busy
    contrib = rng.random((6, g)) * 1e6
    contrib[rng.random((6, g)) < 0.4] = 0.0
    contrib[3] = 0.0
    return traffic, contrib


def _results_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(np.float64(r.time_s).tobytes())
        h.update(repr(sorted((int(t), v) for t, v in r.bytes_by_tier.items())).encode())
        h.update(str(r.rounds).encode())
    return h.hexdigest()[:16]


class TestStackedMatchesSingle:
    """The batched round loop prices every slice exactly as a single call."""

    @pytest.mark.parametrize(
        ("nodes", "gpus", "pinned_a2a", "pinned_ag"),
        [
            (1, 1, "42f17541cfde5b64", "1807ae50b2799fb5"),
            (2, 2, "fb2e066b0c38632a", "cc47adb7e5387cdd"),
            (4, 4, "e5f1cc207a36c3f4", "acacf93a2eb19110"),
        ],
    )
    def test_field_for_field(self, nodes, gpus, pinned_a2a, pinned_ag):
        topo = Topology(ClusterConfig(num_nodes=nodes, gpus_per_node=gpus))
        traffic, contrib = _random_stacks(topo.num_gpus, seed=7 + topo.num_gpus)
        stacked = alltoall_matrix(topo, traffic)
        single = [alltoall_matrix(topo, traffic[i]) for i in range(len(traffic))]
        assert stacked == single
        gathered = allgather_cost(topo, contrib)
        assert gathered == [allgather_cost(topo, contrib[i]) for i in range(len(contrib))]
        assert stacked[2].time_s == 0.0 and gathered[3].time_s == 0.0
        # the prices single calls produced with the -inf/isfinite round reduction
        assert _results_digest(stacked) == pinned_a2a
        assert _results_digest(gathered) == pinned_ag

    def test_round_tables_cover_off_diagonal_once(self, big_topo):
        g = big_topo.num_gpus
        idx = np.concatenate([r[0] for r in big_topo.alltoall_rounds])
        assert len(big_topo.alltoall_rounds) == g - 1
        assert sorted(idx.tolist()) == [a * g + b for a in range(g) for b in range(g) if a != b]
        for flat, lat, inv_bw in big_topo.alltoall_rounds:
            np.testing.assert_array_equal(lat, big_topo.latency_matrix.ravel()[flat])
            np.testing.assert_array_equal(inv_bw, big_topo.inv_bandwidth_matrix.ravel()[flat])
