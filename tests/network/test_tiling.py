"""Spatial tiling grid, chunked disk edges, CSR degree and connectivity.

The tile partition (``repro/network/tiling.py``) assigns every node to
one grid tile for the tiled transport.  Boundary ownership follows
``floor((x - xmin) / tile_size)`` with nodes exactly on an interior
line owned by the higher tile and the far field edge clamped inward.
The adjacency build evaluates its candidate pairs in chunks, and the
edge list must not depend on the chunk budget.
"""

import numpy as np
import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork
from repro.network.tiling import TileGrid, TilePartition
from repro.network.topology import (
    CsrAdjacency,
    _disk_edges,
    average_degree,
    is_connected,
)
from tests.network.neighbourhoods import (
    average_degree_of_sets,
    is_connected_sets,
    neighbour_sets,
)

BOX = BoundingBox(0, 0, 20, 20)


def radial_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


# ----------------------------------------------------------------------
# Grid geometry
# ----------------------------------------------------------------------


class TestTileGrid:
    def test_dimensions_cover_bounds(self):
        grid = TileGrid.for_bounds(BoundingBox(0, 0, 10, 10), 2.5)
        assert (grid.nx, grid.ny) == (4, 4)
        assert grid.n_tiles == 16

    def test_ragged_last_column(self):
        grid = TileGrid.for_bounds(BoundingBox(0, 0, 10, 10), 3.0)
        assert (grid.nx, grid.ny) == (4, 4)

    def test_oversized_tile_is_one_tile(self):
        grid = TileGrid.for_bounds(BoundingBox(0, 0, 10, 10), 50.0)
        assert grid.n_tiles == 1

    def test_nonpositive_tile_size_rejected(self):
        with pytest.raises(ValueError):
            TileGrid.for_bounds(BOX, 0.0)
        with pytest.raises(ValueError):
            TileGrid.for_bounds(BOX, -1.0)

    def test_interior_boundary_goes_to_higher_tile(self):
        grid = TileGrid.for_bounds(BoundingBox(0, 0, 10, 10), 2.5)
        pts = np.array([[2.5, 0.0], [2.4999999, 0.0], [0.0, 2.5]])
        tx_ty = grid.tile_coords(pts)
        assert tx_ty[0].tolist() == [1, 0, 0]  # x = 2.5 owned by column 1
        assert tx_ty[1].tolist() == [0, 0, 1]  # y = 2.5 owned by row 1

    def test_far_edge_clamps_into_last_tile(self):
        grid = TileGrid.for_bounds(BoundingBox(0, 0, 10, 10), 2.5)
        pts = np.array([[10.0, 10.0]])
        tx, ty = grid.tile_coords(pts)
        assert (tx[0], ty[0]) == (3, 3)


class TestTilePartition:
    def test_members_partition_all_nodes(self):
        net = radial_net(n=300, seed=2)
        part = TilePartition.build(net.positions_array, net.bounds, 5.0)
        assert part.n_tiles == 16
        assert part.tile_id.shape == (300,)
        assert ((part.tile_id >= 0) & (part.tile_id < part.n_tiles)).all()

    def test_members_agree_with_tile_of(self):
        # A member of tile t lies in t's half-open cell; the last
        # row/column absorbs the far edge.
        net = radial_net(n=300, seed=2)
        pts = net.positions_array
        part = TilePartition.build(pts, net.bounds, 5.0)
        grid = part.grid
        assert np.array_equal(part.tile_id, grid.tile_of(pts))
        tx, ty = part.tile_id % grid.nx, part.tile_id // grid.nx
        x0 = grid.xmin + tx * grid.tile_size
        y0 = grid.ymin + ty * grid.tile_size
        assert ((pts[:, 0] >= x0) & (pts[:, 1] >= y0)).all()
        assert ((pts[:, 0] < x0 + grid.tile_size) | (tx == grid.nx - 1)).all()
        assert ((pts[:, 1] < y0 + grid.tile_size) | (ty == grid.ny - 1)).all()


# ----------------------------------------------------------------------
# Streaming (chunked) candidate gather in _disk_edges
# ----------------------------------------------------------------------


class TestChunkedDiskEdges:
    @pytest.mark.parametrize("budget", [1, 7, 64, 1000])
    def test_chunked_identical_to_monolithic(self, budget):
        # The default budget runs this deployment as one chunk.
        net = radial_net(n=500, seed=11)
        pts = net.positions_array
        i0, j0 = _disk_edges(pts, 2.0)
        i1, j1 = _disk_edges(pts, 2.0, max_candidates=budget)
        assert np.array_equal(i0, i1)
        assert np.array_equal(j0, j1)

    def test_chunked_empty_graph(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        i1, j1 = _disk_edges(pts, 0.5, max_candidates=1)
        assert i1.size == 0 and j1.size == 0


# ----------------------------------------------------------------------
# CSR-native degree / connectivity against set-based oracles
# ----------------------------------------------------------------------


class TestCsrDegreeConnectivity:
    def test_average_degree_matches_sets(self):
        net = radial_net(n=300, seed=4)
        sets = neighbour_sets(net.csr)
        assert average_degree(net.csr) == average_degree_of_sets(sets)

    def test_average_degree_with_alive_mask(self):
        net = radial_net(n=300, seed=4)
        sets = neighbour_sets(net.csr)
        rng = np.random.default_rng(0)
        for _ in range(5):
            alive = rng.random(300) > 0.3
            assert average_degree(net.csr, alive) == average_degree_of_sets(
                sets, alive.tolist()
            )

    def test_average_degree_degenerate(self):
        empty = CsrAdjacency.from_edges(0, np.empty(0), np.empty(0))
        assert average_degree(empty) == 0.0
        lone = CsrAdjacency.from_edges(3, np.empty(0), np.empty(0))
        assert average_degree(lone) == 0.0
        assert average_degree(lone, np.zeros(3, dtype=bool)) == 0.0

    def test_is_connected_matches_sets(self):
        net = radial_net(n=300, seed=4)
        sets = neighbour_sets(net.csr)
        rng = np.random.default_rng(1)
        assert is_connected(net.csr) == is_connected_sets(sets)
        for _ in range(5):
            alive = rng.random(300) > 0.4
            assert is_connected(net.csr, alive) == is_connected_sets(
                sets, alive.tolist()
            )

    def test_is_connected_two_clusters(self):
        # Two 3-cliques with no bridge: disconnected; vacuously
        # connected once one cluster is dead.
        ii = np.array([0, 0, 1, 3, 3, 4])
        jj = np.array([1, 2, 2, 4, 5, 5])
        csr = CsrAdjacency.from_edges(6, ii, jj)
        sets = neighbour_sets(csr)
        assert is_connected(csr) is False
        assert is_connected(csr) == is_connected_sets(sets)
        alive = np.array([True, True, True, False, False, False])
        assert is_connected(csr, alive) is True
        assert is_connected(csr, alive) == is_connected_sets(sets, alive.tolist())
        assert is_connected(csr, np.zeros(6, dtype=bool)) is True
