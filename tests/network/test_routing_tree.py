"""Unit tests for the BFS routing tree."""

import random

import numpy as np
import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork, build_csr_adjacency, build_routing_tree
from repro.network.routing_tree import level_histogram


def line_network(n, r=1.0):
    pts = [(float(i), 0.0) for i in range(n)]
    return pts, build_csr_adjacency(pts, r)


class TestBuildRoutingTree:
    def test_levels_on_a_line(self):
        pts, adj = line_network(5)
        tree = build_routing_tree(pts, adj, sink=0)
        assert tree.level.tolist() == [0, 1, 2, 3, 4]
        assert tree.parent.tolist() == [-1, 0, 1, 2, 3]
        assert tree.depth == 4

    def test_sink_in_middle(self):
        pts, adj = line_network(5)
        tree = build_routing_tree(pts, adj, sink=2)
        assert tree.level.tolist() == [2, 1, 0, 1, 2]
        assert tree.depth == 2

    def test_parent_is_one_level_lower(self):
        rng = random.Random(8)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(120)]
        adj = build_csr_adjacency(pts, 2.0)
        tree = build_routing_tree(pts, adj, sink=3)
        for i, p in enumerate(tree.parent.tolist()):
            if p >= 0:
                assert tree.level[i] == tree.level[p] + 1

    def test_unreachable_nodes(self):
        pts = [(0, 0), (1, 0), (5, 0)]
        adj = build_csr_adjacency(pts, 1.0)
        tree = build_routing_tree(pts, adj, sink=0)
        assert tree.level[2] == -1
        assert tree.parent[2] == -1
        assert tree.reachable_count() == 2

    def test_dead_nodes_excluded(self):
        pts, adj = line_network(5)
        tree = build_routing_tree(pts, adj, sink=0, alive=[True, True, False, True, True])
        assert tree.level[2] == -1
        # Nodes beyond the dead one are cut off.
        assert tree.level[3] == -1
        assert tree.level[4] == -1

    def test_dead_sink_raises(self):
        pts, adj = line_network(3)
        with pytest.raises(ValueError):
            build_routing_tree(pts, adj, sink=0, alive=[False, True, True])

    def test_bad_sink_index_raises(self):
        pts, adj = line_network(3)
        with pytest.raises(ValueError):
            build_routing_tree(pts, adj, sink=7)

    def test_level_histogram(self):
        pts, adj = line_network(5)
        tree = build_routing_tree(pts, adj, sink=2)
        assert level_histogram(tree) == {0: 1, 1: 2, 2: 2}

    def test_arrays_are_read_only(self):
        pts, adj = line_network(4)
        tree = build_routing_tree(pts, adj, sink=0)
        assert tree.level.dtype == tree.parent.dtype == np.int64
        with pytest.raises(ValueError):
            tree.level[1] = 5
        with pytest.raises(ValueError):
            tree.parent[1] = 3

    def test_members_at_groups_by_level(self):
        # A crash-rebuilt tree has unrouted nodes (level -1) among the
        # routed ones; each level's group is its members in ascending id.
        field = RadialField(
            BoundingBox(0, 0, 20, 20), center=(10, 10), peak=20, slope=1
        )
        net = SensorNetwork.random_deploy(field, 400, radio_range=2.0, seed=3)
        net.fail_random(0.3, mode="crash")
        tree = net.tree
        assert (tree.level < 0).any()
        for lvl in range(tree.depth + 1):
            assert np.array_equal(tree.members_at(lvl), np.flatnonzero(tree.level == lvl))
