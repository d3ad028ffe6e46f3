"""Unit tests for the straddle-based (adaptive) detection extension."""

import pytest

from repro.core import ContourQuery
from repro.core.detection import detect_isoline_nodes
from repro.core.wire import BYTES_PER_PARAM, LOCAL_QUERY_BYTES, LOCAL_REPLY_BYTES
from repro.field import PlaneField, RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from tests.network.neighbourhoods import alive_neighbours, k_hop_sensing_neighbours

BOX = BoundingBox(0, 0, 20, 20)


def plane_net(positions, radio_range=2.0):
    field = PlaneField(BOX, c0=0, cx=1, cy=0)  # value = x
    return SensorNetwork(field, positions, radio_range=radio_range)


def straddle_query(level=10.0):
    return ContourQuery(level, level, 1.0, detection_mode="straddle")


class TestStraddleDetection:
    def test_closer_endpoint_appointed(self):
        # Values 9.2 and 10.5 straddle 10; 10.5 is closer (|gap| 0.5 < 0.8).
        net = plane_net([(9.2, 10.0), (10.5, 10.0)])
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(2))
        assert res.isoline_nodes == {1: 10.0}

    def test_appointment_despite_wide_value_gap(self):
        # Border mode (eps = 0.05) would reject both nodes: neither value
        # is within 0.05 of the level.  Straddle mode appoints the closer.
        net = plane_net([(9.0, 10.0), (10.8, 10.0)])
        border = ContourQuery(10.0, 10.0, 1.0, detection_mode="border")
        res_border = detect_isoline_nodes(net, border, CostAccountant(2))
        assert res_border.isoline_nodes == {}
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(2))
        assert 1 in res.isoline_nodes

    def test_tie_breaks_to_lower_id(self):
        # Symmetric straddle: values 9.5 and 10.5 around 10.
        net = plane_net([(9.5, 10.0), (10.5, 10.0)])
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(2))
        assert res.isoline_nodes == {0: 10.0}

    def test_no_straddle_no_appointment(self):
        net = plane_net([(8.0, 10.0), (9.0, 10.0)])  # both below 10
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(2))
        assert res.isoline_nodes == {}

    def test_nearest_level_chosen(self):
        # A steep edge straddling levels 10 and 12; the node's value 9.9
        # is nearest to level 10.
        field = PlaneField(BOX, c0=0, cx=1, cy=0)
        net = SensorNetwork(field, [(9.9, 10.0), (12.4, 10.0)], radio_range=3.0)
        q = ContourQuery(10.0, 12.0, 2.0, detection_mode="straddle")
        res = detect_isoline_nodes(net, q, CostAccountant(2))
        assert res.isoline_nodes.get(0) == 10.0

    def test_neighborhood_data_collected_for_appointed(self):
        net = plane_net([(9.5, 10.0), (10.5, 10.0), (9.8, 11.0)])
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(3))
        for node_id in res.isoline_nodes:
            assert res.neighborhood_data[node_id]

    def test_every_routed_node_broadcasts_value(self):
        net = plane_net([(9.5, 10.0), (10.5, 10.0), (11.5, 10.0)])
        costs = CostAccountant(3)
        detect_isoline_nodes(net, straddle_query(), costs)
        # All three routed sensing nodes transmitted at least their value.
        assert all(costs.tx_bytes[i] >= 2 for i in range(3))

    def test_unrouted_nodes_do_not_broadcast(self):
        net = plane_net([(9.5, 10.0), (10.5, 10.0), (3.0, 10.0)])  # node 2 isolated
        costs = CostAccountant(3)
        detect_isoline_nodes(net, straddle_query(), costs)
        assert costs.tx_bytes[2] == 0

    def test_sensing_failed_nodes_excluded(self):
        net = plane_net([(9.5, 10.0), (10.5, 10.0)])
        net.nodes[0].sensing_ok = False
        res = detect_isoline_nodes(net, straddle_query(), CostAccountant(2))
        # Node 1 has no sensing neighbour left to straddle with.
        assert res.isoline_nodes == {}

    def test_invalid_mode_rejected_at_query(self):
        with pytest.raises(ValueError):
            ContourQuery(0, 10, 2, detection_mode="psychic")

    def test_multi_hop_replies_charged_per_hop(self):
        # Appointed nodes run the border-mode probe: a reply from beyond
        # one hop is charged k_hop hops of tx and rx, not one.
        field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
        net = SensorNetwork.random_deploy(field, 600, radio_range=2.0, seed=2)
        q = ContourQuery(14.0, 16.0, 2.0, k_hop=2, detection_mode="straddle")
        costs = CostAccountant(net.n_nodes)
        res = detect_isoline_nodes(net, q, costs)
        assert res.isoline_nodes

        participants = [
            nd.node_id for nd in net.nodes if nd.can_sense and nd.level is not None
        ]
        replies = reply_hops = 0
        for node_id in res.isoline_nodes:
            one_hop = set(net.csr.neighbors(node_id).tolist())
            responders = k_hop_sensing_neighbours(net, node_id, 2)
            assert len(res.neighborhood_data[node_id]) == len(responders)
            replies += len(responders)
            reply_hops += sum(1 if j in one_hop else 2 for j in responders)
        assert reply_hops > replies  # some replies do come from two hops

        # Everything else detection sends: one value broadcast per
        # participant, one probe broadcast per appointed node.
        value_tx = BYTES_PER_PARAM * len(participants)
        probe_tx = LOCAL_QUERY_BYTES * len(res.isoline_nodes)
        value_rx = BYTES_PER_PARAM * sum(
            len(alive_neighbours(net, i)) for i in participants
        )
        probe_rx = LOCAL_QUERY_BYTES * sum(
            len(alive_neighbours(net, i)) for i in res.isoline_nodes
        )
        want = LOCAL_REPLY_BYTES * reply_hops
        assert costs.tx_bytes.sum() - value_tx - probe_tx == want
        assert costs.rx_bytes.sum() - value_rx - probe_rx == want
