"""Unit tests for repro.cluster.topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import Tier, Topology
from repro.config import ClusterConfig


@pytest.fixture
def topo() -> Topology:
    return Topology(ClusterConfig(num_nodes=2, gpus_per_node=2))


class TestTierMatrix:
    def test_diagonal_local(self, topo):
        assert (np.diag(topo.tier_matrix) == Tier.LOCAL).all()

    def test_intra_node(self, topo):
        assert topo.tier(0, 1) is Tier.INTRA
        assert topo.tier(2, 3) is Tier.INTRA

    def test_inter_node(self, topo):
        assert topo.tier(0, 2) is Tier.INTER
        assert topo.tier(1, 3) is Tier.INTER

    def test_symmetric(self, topo):
        assert (topo.tier_matrix == topo.tier_matrix.T).all()

    def test_single_node_has_no_inter(self):
        t = Topology(ClusterConfig(num_nodes=1, gpus_per_node=4))
        assert (t.tier_matrix != Tier.INTER).all()

    def test_tier_ordering_matches_cost(self, topo):
        """Tiers are ordered cheapest-first in both latency and bandwidth."""
        lat = [topo.link_for_tier(t).latency_s for t in Tier]
        bw = [topo.link_for_tier(t).bandwidth_Bps for t in Tier]
        assert lat == sorted(lat)
        assert bw == sorted(bw, reverse=True)


class TestMatrices:
    def test_latency_matrix_values(self, topo):
        c = topo.cluster
        assert topo.latency_matrix[0, 0] == c.local_link.latency_s
        assert topo.latency_matrix[0, 1] == c.intra_link.latency_s
        assert topo.latency_matrix[0, 2] == c.inter_link.latency_s

    def test_inv_bandwidth_matrix(self, topo):
        c = topo.cluster
        assert topo.inv_bandwidth_matrix[0, 2] == pytest.approx(
            1.0 / c.inter_link.bandwidth_Bps
        )

    def test_node_of_gpu(self, topo):
        assert topo.node_of_gpu.tolist() == [0, 0, 1, 1]


class TestClassifyBytes:
    def test_partition_sums_to_total(self, topo):
        rng = np.random.default_rng(0)
        traffic = rng.random((4, 4)) * 100
        by_tier = topo.classify_bytes(traffic)
        assert sum(by_tier.values()) == pytest.approx(traffic.sum())

    def test_diagonal_is_local(self, topo):
        traffic = np.zeros((4, 4))
        np.fill_diagonal(traffic, 5.0)
        by_tier = topo.classify_bytes(traffic)
        assert by_tier[Tier.LOCAL] == pytest.approx(20.0)
        assert by_tier[Tier.INTRA] == 0.0
        assert by_tier[Tier.INTER] == 0.0

    def test_wrong_shape_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.classify_bytes(np.zeros((3, 3)))

    def test_negative_rejected(self, topo):
        t = np.zeros((4, 4))
        t[0, 1] = -1
        with pytest.raises(ValueError):
            topo.classify_bytes(t)


class TestNodeGroups:
    def test_groups_cover_all_gpus(self, topo):
        groups = topo.node_groups()
        flat = np.concatenate(groups)
        assert sorted(flat.tolist()) == list(range(4))

    def test_group_sizes(self, topo):
        assert all(g.size == 2 for g in topo.node_groups())


class TestGraph:
    def test_intra_path_length(self, topo):
        # same node: gpu -> node switch -> gpu
        assert len(topo.hop_path(0, 1)) == 3

    def test_inter_path_length(self, topo):
        # cross node: gpu -> node -> fabric -> node -> gpu
        assert len(topo.hop_path(0, 3)) == 5

    def test_path_names(self, topo):
        assert topo.hop_path(1, 2) == ["gpu1", "node0", "fabric", "node1", "gpu2"]
        assert topo.hop_path(2, 2) == ["gpu2"]

    def test_rank_out_of_range_rejected(self, topo):
        with pytest.raises(ValueError, match="GPU rank"):
            topo.hop_path(0, 4)
