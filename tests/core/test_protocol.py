"""Integration-grade unit tests for the end-to-end Iso-Map protocol."""

import pytest

from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.core.wire import ISOLINE_REPORT_BYTES
from repro.field import PlaneField, RadialField, make_harbor_field
from repro.geometry import BoundingBox
from repro.network import SensorNetwork

BOX = BoundingBox(0, 0, 20, 20)


def radial_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


class TestRun:
    def test_produces_reports_and_map(self):
        net = radial_net()
        q = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)
        res = IsoMapProtocol(q).run(net)
        assert res.generated_reports
        assert res.delivered_reports
        assert res.contour_map.regions

    def test_reports_near_true_isolines(self):
        import math

        net = radial_net(seed=1)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        res = IsoMapProtocol(q).run(net)
        for r in res.delivered_reports:
            # True isoline of level 15 is the circle of radius 5.
            rad = math.dist(r.position, (10, 10))
            assert abs(rad - 5.0) < 0.5

    def test_gradient_directions_point_outward(self):
        import math

        net = radial_net(seed=2)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        res = IsoMapProtocol(q).run(net)
        for r in res.delivered_reports:
            outward = (
                (r.position[0] - 10) * r.direction[0]
                + (r.position[1] - 10) * r.direction[1]
            )
            assert outward > 0, "descent must point away from the peak"

    def test_classification_recovers_disc(self):
        net = radial_net(seed=3)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        res = IsoMapProtocol(q).run(net)
        cmap = res.contour_map
        assert cmap.band_at((10, 10)) == 1
        assert cmap.band_at((1, 1)) == 0

    def test_filtering_reduces_delivery(self):
        net = radial_net(n=800, seed=4)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        unfiltered = IsoMapProtocol(q, FilterConfig.disabled()).run(net)
        filtered = IsoMapProtocol(q, FilterConfig(30, 4)).run(net)
        assert len(filtered.delivered_reports) < len(unfiltered.delivered_reports)
        assert filtered.costs.total_traffic_bytes() < unfiltered.costs.total_traffic_bytes()
        # Without filtering nothing is dropped in transit.
        assert unfiltered.dropped_by_filter == 0

    def test_cost_counters_consistent(self):
        net = radial_net(seed=5)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        res = IsoMapProtocol(q).run(net)
        assert res.costs.reports_generated == len(res.generated_reports)
        assert res.costs.reports_delivered == len(res.delivered_reports)
        # Every delivered report travelled at least one hop.
        assert (
            res.costs.total_traffic_bytes()
            >= len(res.delivered_reports) * ISOLINE_REPORT_BYTES
        )

    def test_no_isoline_nodes_when_levels_unreachable(self):
        net = radial_net(seed=6)
        q = ContourQuery(100.0, 100.0, 2.0)
        res = IsoMapProtocol(q).run(net)
        assert res.generated_reports == []
        # The sink's own value decides: everything is below level 100.
        assert res.contour_map.band_at((10, 10)) == 0

    def test_whole_field_above_level(self):
        field = PlaneField(BOX, c0=50.0, cx=0.001, cy=0)  # ~50 everywhere
        net = SensorNetwork.random_deploy(field, 200, radio_range=2.5, seed=7)
        q = ContourQuery(10.0, 10.0, 2.0)
        res = IsoMapProtocol(q).run(net)
        assert res.generated_reports == []
        assert res.contour_map.band_at((10, 10)) == 1  # inferred full

    def test_sensing_failures_reduce_reports(self):
        net = radial_net(n=800, seed=8)
        q = ContourQuery(15.0, 15.0, 2.0, epsilon_fraction=0.2)
        before = IsoMapProtocol(q, FilterConfig.disabled()).run(net)
        net.fail_random(0.4, mode="sensing")
        after = IsoMapProtocol(q, FilterConfig.disabled()).run(net)
        assert len(after.generated_reports) < len(before.generated_reports)

    def test_harbor_run_matches_paper_regime(self):
        net = SensorNetwork.random_deploy(make_harbor_field(), 2500, seed=1)
        q = ContourQuery(6.0, 12.0, 2.0)
        res = IsoMapProtocol(q, FilterConfig(30, 4)).run(net)
        # Paper (Fig. 10e): 89 reports received at density 1 with these
        # thresholds.  Field shape differs, so assert the regime only.
        assert 30 <= len(res.delivered_reports) <= 200
        # Theorem 4.1 regime: isoline nodes are a small fraction of n.
        assert len(res.detection.isoline_nodes) < 0.2 * net.n_nodes

    def test_query_dissemination_charges_every_internal_node(self):
        net = radial_net(seed=9)
        q = ContourQuery(100.0, 100.0, 2.0)  # no isoline nodes: isolates
        res = IsoMapProtocol(q).run(net)
        # Traffic comes from dissemination only; every node with children
        # transmitted once.
        internal = len(
            {node.parent for node in net.nodes if node.parent is not None}
        )
        from repro.core.wire import QUERY_BYTES

        assert res.costs.tx_bytes.sum() == internal * QUERY_BYTES
