"""Differential tests: CSR frontier-BFS tree builder vs the scalar reference.

``build_routing_tree`` runs the vectorized frontier-array BFS over a
:class:`CsrAdjacency`; ``build_routing_tree_reference`` runs the scalar
FIFO-BFS over per-node neighbour lists read off the same CSR.  Both must
produce the *identical* tree -- levels and parents (including distance
tie-breaks) -- on any graph and any liveness mask.
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
from tests.network.neighbourhoods import neighbour_lists

BOX = BoundingBox(0, 0, 20, 20)


def _random_instance(seed, n=300, radio_range=2.0):
    rng = random.Random(seed)
    positions = [
        (rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)
    ]
    csr = build_csr_adjacency(positions, radio_range)
    return positions, csr, neighbour_lists(csr)


def _assert_trees_equal(fast, ref):
    assert fast.sink == ref.sink
    assert np.array_equal(fast.level, ref.level)
    assert np.array_equal(fast.parent, ref.parent)
    # The arrays are int64 (-1 for none) and read-only.
    for tree in (fast, ref):
        assert tree.level.dtype == tree.parent.dtype == np.int64
        assert not tree.level.flags.writeable
        assert not tree.parent.flags.writeable
    depth = max(ref.level.tolist() + [0])
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
        fast = build_routing_tree(positions, csr, sink=0)
        ref = build_routing_tree_reference(positions, neighbour_lists(csr), sink=0)
        _assert_trees_equal(fast, ref)

    def test_disconnected_components_stay_unrouted(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (10.0, 10.0), (11.0, 10.0)]
        csr = build_csr_adjacency(positions, 1.5)
        fast = build_routing_tree(positions, csr, sink=0)
        ref = build_routing_tree_reference(positions, neighbour_lists(csr), sink=0)
        _assert_trees_equal(fast, ref)
        assert fast.level[2] == -1 and fast.level[3] == -1

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
            positions, neighbour_lists(net.csr), net.sink_index, alive=alive
        )
        _assert_trees_equal(fast, ref)
