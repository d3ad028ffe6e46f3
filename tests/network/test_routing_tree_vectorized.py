"""Differential tests: CSR frontier-BFS tree builder vs the scalar reference.

``build_routing_tree`` dispatches on the adjacency type: a
:class:`CsrAdjacency` takes the vectorized frontier-array path, per-node
lists take the scalar FIFO-BFS reference.  Both must produce the
*identical* tree -- levels, parents (including distance tie-breaks) and
children in the identical order -- on any graph and any liveness mask.
"""

import random

import numpy as np
import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork
from repro.network.routing_tree import (
    build_routing_tree,
    build_routing_tree_reference,
)
from repro.network.topology import build_csr_adjacency

BOX = BoundingBox(0, 0, 20, 20)


def _random_instance(seed, n=300, radio_range=2.0):
    rng = random.Random(seed)
    positions = [
        (rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)
    ]
    csr = build_csr_adjacency(positions, radio_range)
    neighbor_lists = [
        sorted(csr.neighbors(i)) for i in range(n)
    ]
    return positions, csr, neighbor_lists


def _assert_trees_equal(fast, ref):
    assert fast.sink == ref.sink
    assert fast.level == ref.level
    assert fast.parent == ref.parent
    assert fast.children == ref.children
    assert fast.subtree_order_bottom_up() == ref.subtree_order_bottom_up()
    # The cached array views match the lists and are read-only.
    for tree in (fast, ref):
        assert tree.level_array.tolist() == [-1 if l is None else l for l in tree.level]
        assert tree.parent_array.tolist() == [-1 if p is None else p for p in tree.parent]
        assert tree.level_array.dtype == tree.parent_array.dtype == np.int64
        assert not tree.level_array.flags.writeable
        assert not tree.parent_array.flags.writeable
    depth = max((l for l in ref.level if l is not None), default=0)
    assert fast.depth == ref.depth == depth


class TestVectorizedTreeBuilder:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        positions, csr, lists = _random_instance(seed)
        fast = build_routing_tree(positions, csr, sink=0)
        ref = build_routing_tree_reference(positions, lists, sink=0)
        _assert_trees_equal(fast, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_alive_masks(self, seed):
        positions, csr, lists = _random_instance(seed, n=250)
        rng = random.Random(100 + seed)
        alive = [True] + [rng.random() > 0.3 for _ in positions[1:]]
        fast = build_routing_tree(positions, csr, sink=0, alive=alive)
        ref = build_routing_tree_reference(positions, lists, sink=0, alive=alive)
        _assert_trees_equal(fast, ref)

    def test_duplicate_positions_tie_break(self):
        # Coincident candidates force the (distance, id) tie-break: the
        # segmented argmin must pick the same parent the scalar scan does.
        positions = [(0.0, 0.0)] + [(1.0, 0.0)] * 4 + [(2.0, 0.0)] * 4
        csr = build_csr_adjacency(positions, 1.5)
        lists = [sorted(csr.neighbors(i)) for i in range(len(positions))]
        fast = build_routing_tree(positions, csr, sink=0)
        ref = build_routing_tree_reference(positions, lists, sink=0)
        _assert_trees_equal(fast, ref)

    def test_disconnected_components_stay_unrouted(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (10.0, 10.0), (11.0, 10.0)]
        csr = build_csr_adjacency(positions, 1.5)
        lists = [sorted(csr.neighbors(i)) for i in range(len(positions))]
        fast = build_routing_tree(positions, csr, sink=0)
        ref = build_routing_tree_reference(positions, lists, sink=0)
        _assert_trees_equal(fast, ref)
        assert fast.level[2] is None and fast.level[3] is None

    def test_network_rebuild_after_failures(self):
        # The network's own rebuild path (CSR) must agree with the scalar
        # reference on the post-crash topology.
        field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
        net = SensorNetwork.random_deploy(field, 400, radio_range=2.0, seed=3)
        net.fail_random(0.3, mode="crash")
        positions = [node.position for node in net.nodes]
        alive = [node.alive for node in net.nodes]
        fast = build_routing_tree(positions, net.csr, net.sink_index, alive=alive)
        ref = build_routing_tree_reference(
            positions, net.neighbor_lists, net.sink_index, alive=alive
        )
        _assert_trees_equal(fast, ref)
