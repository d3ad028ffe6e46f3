"""Unit tests for the disk-radio topology."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BoundingBox, dist
from repro.network import average_degree, build_csr_adjacency, is_connected
from tests.network.neighbourhoods import disk_sets

BOX = BoundingBox(0, 0, 10, 10)


class TestBuildAdjacency:
    def test_pairwise_within_range(self):
        pts = [(0, 0), (1, 0), (3, 0)]
        adj = disk_sets(pts, radio_range=1.5)
        assert adj[0] == {1}
        assert adj[1] == {0}
        assert adj[2] == set()

    def test_symmetric(self):
        rng = random.Random(4)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(100)]
        adj = disk_sets(pts, radio_range=2.0)
        for i, nbrs in enumerate(adj):
            for j in nbrs:
                assert i in adj[j]

    def test_no_self_loops(self):
        pts = [(1, 1), (1.1, 1.0)]
        adj = disk_sets(pts, radio_range=5)
        assert 0 not in adj[0]
        assert 1 not in adj[1]

    def test_matches_brute_force(self):
        rng = random.Random(9)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(80)]
        r = 1.7
        adj = disk_sets(pts, r)
        for i in range(len(pts)):
            expected = {
                j for j in range(len(pts)) if j != i and dist(pts[i], pts[j]) <= r
            }
            assert adj[i] == expected

    def test_boundary_distance_included(self):
        adj = disk_sets([(0, 0), (2, 0)], radio_range=2.0)
        assert adj[0] == {1}

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            build_csr_adjacency([(0, 0)], radio_range=0)


class TestDegreeAndConnectivity:
    def test_average_degree(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        adj = build_csr_adjacency(pts, radio_range=1.0)
        assert average_degree(adj) == pytest.approx(4 / 3)

    def test_average_degree_alive_filter(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        adj = build_csr_adjacency(pts, radio_range=1.0)
        # Kill the middle node: survivors have no alive neighbours.
        assert average_degree(adj, alive=[True, False, True]) == 0.0

    def test_empty(self):
        assert average_degree(build_csr_adjacency([], radio_range=1.0)) == 0.0

    def test_connected_line(self):
        pts = [(i, 0) for i in range(5)]
        adj = build_csr_adjacency(pts, radio_range=1.0)
        assert is_connected(adj)

    def test_disconnected(self):
        pts = [(0, 0), (1, 0), (5, 0), (6, 0)]
        adj = build_csr_adjacency(pts, radio_range=1.0)
        assert not is_connected(adj)

    def test_connectivity_with_dead_bridge(self):
        pts = [(0, 0), (1, 0), (2, 0)]
        adj = build_csr_adjacency(pts, radio_range=1.0)
        assert is_connected(adj)
        assert not is_connected(adj, alive=[True, False, True])

    def test_paper_degree_regime(self):
        # Section 5: density 1 and radio range 1.5 give average degree ~7.
        rng = random.Random(0)
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(2500)]
        adj = build_csr_adjacency(pts, radio_range=1.5)
        assert 6.0 < average_degree(adj) < 8.0


class TestKHop:
    def test_one_hop_equals_adjacency(self):
        csr = build_csr_adjacency([(i, 0) for i in range(5)], radio_range=1.0)
        assert csr.k_hop_neighbors(2, 1).tolist() == csr.neighbors(2).tolist()

    def test_two_hops_on_a_line(self):
        csr = build_csr_adjacency([(i, 0) for i in range(7)], radio_range=1.0)
        assert csr.k_hop_neighbors(3, 2).tolist() == [1, 2, 4, 5]

    def test_zero_hops(self):
        csr = build_csr_adjacency([(0, 0), (1, 0)], radio_range=1.0)
        assert csr.k_hop_neighbors(0, 0).tolist() == []

    def test_respects_alive_mask(self):
        csr = build_csr_adjacency([(i, 0) for i in range(5)], radio_range=1.0)
        # Node 1 is dead: nothing beyond it is reachable from node 0.
        alive = [True, False, True, True, True]
        assert csr.k_hop_neighbors(0, 4, alive=alive).tolist() == []

    def test_negative_k_raises(self):
        csr = build_csr_adjacency([(0, 0)], radio_range=1.0)
        with pytest.raises(ValueError):
            csr.k_hop_neighbors(0, -1)


@given(
    n=st.integers(min_value=2, max_value=60),
    r=st.floats(min_value=0.5, max_value=5.0),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_adjacency_matches_brute_force_property(n, r, seed):
    rng = random.Random(seed)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    adj = disk_sets(pts, r)
    for i in range(n):
        expected = {j for j in range(n) if j != i and dist(pts[i], pts[j]) <= r}
        assert adj[i] == expected
