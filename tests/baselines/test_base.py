"""Unit tests for shared baseline infrastructure."""

import random

import numpy as np
import pytest

from repro.baselines.base import NearestReportBandMap
from repro.field import PlaneField, RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.transport import disseminate_query, forward_reports_to_sink

BOX = BoundingBox(0, 0, 10, 10)


class TestNearestReportBandMap:
    def test_band_at_nearest(self):
        m = NearestReportBandMap(
            BOX, [(2, 2), (8, 8)], [1.0, 9.0], levels=[5.0]
        )
        assert m.band_at((1, 1)) == 0
        assert m.band_at((9, 9)) == 1

    def test_value_at(self):
        m = NearestReportBandMap(BOX, [(2, 2), (8, 8)], [1.0, 9.0], [5.0])
        assert m.value_at((0, 0)) == 1.0
        assert m.value_at((10, 10)) == 9.0

    def test_empty_map(self):
        m = NearestReportBandMap(BOX, [], [], [5.0])
        assert m.band_at((5, 5)) == 0
        assert m.value_at((5, 5)) is None
        assert m.classify_raster(4, 4).sum() == 0
        assert m.isolines(5.0) == []

    def test_classify_points_matches_band_at(self):
        m = NearestReportBandMap(
            BOX, [(2, 2), (8, 8), (2, 8)], [1.0, 9.0, 6.0], levels=[5.0, 8.0]
        )
        pts = [(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        vec = m.classify_points(pts)
        for p, b in zip(pts, vec):
            assert m.band_at(p) == b

    def test_classify_raster_shape(self):
        m = NearestReportBandMap(BOX, [(5, 5)], [9.0], [5.0])
        r = m.classify_raster(6, 4)
        assert r.shape == (4, 6)
        assert (r == 1).all()

    def test_isolines_of_split_field(self):
        # Left half low, right half high: one isoline near x = 5.
        positions = [(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        values = [0.0 if p[0] < 5 else 10.0 for p in positions]
        m = NearestReportBandMap(BOX, positions, values, [5.0])
        lines = m.isolines(5.0, grid=50)
        assert lines
        for line in lines:
            for p in line:
                assert 4.0 < p[0] < 6.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            NearestReportBandMap(BOX, [(0, 0)], [1.0, 2.0], [5.0])


def disseminate_reference(network, query_bytes, costs):
    """The per-node query flood the batched one replaced."""
    children = {}
    for c, node in enumerate(network.nodes):
        if node.parent is not None:
            children.setdefault(node.parent, []).append(c)
    for node in network.nodes:
        if node.level is None or not node.alive:
            continue
        kids = [c for c in children.get(node.node_id, ()) if network.nodes[c].level is not None]
        if kids:
            costs.charge_local_broadcast(node.node_id, kids, query_bytes)


class TestDissemination:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_node_reference(self, seed):
        field = RadialField(BoundingBox(0, 0, 20, 20), center=(10, 10), peak=20)
        net = SensorNetwork.random_deploy(field, 400, radio_range=1.6, seed=seed)

        def check():
            costs = CostAccountant(net.n_nodes)
            ref = CostAccountant(net.n_nodes)
            disseminate_query(net, 7, costs)
            disseminate_reference(net, 7, ref)
            assert np.array_equal(costs.tx_bytes, ref.tx_bytes)
            assert np.array_equal(costs.rx_bytes, ref.rx_bytes)
            assert costs.tx_bytes.any()

        check()
        net.fail_random(0.2, rng=random.Random(seed), mode="crash")
        check()
        # A direct write with no tree rebuild leaves routed, dead parents.
        for node in net.nodes[1::9]:
            node.alive = False
        check()


class TestForwarding:
    def _net(self):
        field = PlaneField(BOX, 0, 1, 0)
        positions = [(float(i) + 0.5, 5.0) for i in range(8)]
        return SensorNetwork(field, positions, radio_range=1.2, sink_index=0)

    def test_bytes_proportional_to_hops(self):
        net = self._net()
        costs = CostAccountant(net.n_nodes)
        forward_reports_to_sink(net, [(4, 10)], costs=costs)
        # Node 4 is 4 hops from the sink: 4 transmissions, 4 receptions.
        assert costs.tx_bytes.sum() == 40
        assert costs.rx_bytes.sum() == 40
        assert costs.rx_bytes[0] == 10  # the sink receives once

    def test_unreachable_sources_skipped(self):
        field = PlaneField(BOX, 0, 1, 0)
        positions = [(0.5, 5.0), (1.5, 5.0), (9.5, 5.0)]  # node 2 isolated
        net = SensorNetwork(field, positions, radio_range=1.2, sink_index=0)
        costs = CostAccountant(net.n_nodes)
        delivered = forward_reports_to_sink(net, [(1, 10), (2, 10)], costs)
        assert delivered == [0]  # frame indices: only node 1's arrived

    def test_relay_ops_charged(self):
        net = self._net()
        costs = CostAccountant(net.n_nodes)
        forward_reports_to_sink(net, [(4, 10)], costs, ops_per_forward=3)
        assert costs.ops[1] == 3  # relay
        assert costs.ops[4] == 3  # source transmission bookkeeping

    def test_disseminate_query_reaches_all_internal_nodes(self):
        net = self._net()
        costs = CostAccountant(net.n_nodes)
        disseminate_query(net, query_bytes=8, costs=costs)
        # Line network: nodes 0..6 each broadcast once to one child.
        assert costs.tx_bytes.sum() == 7 * 8
        assert costs.rx_bytes.sum() == 7 * 8
