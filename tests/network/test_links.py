"""Lossy links with ARQ: per-attempt loss from the fault plan, retries and
charges from the transport.

The paper assumes a perfect link layer; a :class:`FaultPlan` carrying a
:class:`BernoulliLink` prices that assumption.  Each attempt on a hop is
lost with fixed odds, :class:`EpochTransport` retries up to
``TransportConfig.max_retries`` times, and every attempt, successful or
not, is charged as tx at the sender and rx at the receiver.  The
Monte-Carlo checks against the closed forms live in
``test_links_differential.py``.
"""

import pytest

from repro.network.faults import BernoulliLink, FaultPlan
from repro.network.transport import TransportConfig, forward_reports_to_sink
from tests.network.test_links_differential import (
    NBYTES,
    chain_network,
    expected_attempts,
    lossy_transport,
)


def delivered_from(net, transport, costs, source, frames):
    """Send ``frames`` frames from ``source``; the fraction that arrived."""
    arrived = forward_reports_to_sink(
        net, [(source, NBYTES)] * frames, costs, transport=transport
    )
    return len(arrived) / frames


class TestLossyLinkModel:
    def test_perfect_link_one_attempt(self):
        assert BernoulliLink(1.0).average_delivery() == 1.0
        net = chain_network(10)
        transport, costs = lossy_transport(net, 1.0, retries=3, seed=0)
        assert delivered_from(net, transport, costs, 10, 50) == 1.0
        assert transport.finalize().retransmissions == 0
        # One attempt per hop: every node on the path sent each frame once.
        assert costs.tx_bytes[1:].tolist() == [50 * NBYTES] * 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BernoulliLink(-0.1)
        with pytest.raises(ValueError):
            BernoulliLink(1.5)
        with pytest.raises(ValueError):
            TransportConfig(max_retries=-1)

    def test_attempts_bounded_by_budget(self):
        net = chain_network(1)
        transport, costs = lossy_transport(net, 0.01, retries=2, seed=1)
        for _ in range(200):
            before = int(costs.tx_bytes[1])
            delivered_from(net, transport, costs, 1, 1)
            assert NBYTES <= costs.tx_bytes[1] - before <= 3 * NBYTES

    def test_expected_attempts_matches_simulation(self):
        # Mean attempts read off the transport's retransmission counter.
        net = chain_network(1)
        transport, costs = lossy_transport(net, 0.7, retries=3, seed=2)
        frames = 20000
        delivered_from(net, transport, costs, 1, frames)
        attempts = 1 + transport.finalize().retransmissions / frames
        assert attempts == pytest.approx(expected_attempts(0.7, 3), rel=0.03)

    def test_end_to_end_delivery_decreases_with_hops(self):
        net = chain_network(10)
        near = delivered_from(net, *lossy_transport(net, 0.8, 1, seed=3), 1, 2000)
        far = delivered_from(net, *lossy_transport(net, 0.8, 1, seed=3), 10, 2000)
        assert near > far

    def test_retries_raise_delivery(self):
        net = chain_network(20)
        lo = delivered_from(net, *lossy_transport(net, 0.7, 0, seed=4), 20, 500)
        hi = delivered_from(net, *lossy_transport(net, 0.7, 4, seed=4), 20, 500)
        assert hi > lo


class TestChargeLossyHop:
    def test_success_charges_attempts(self):
        net = chain_network(1)
        transport, costs = lossy_transport(net, 1.0, retries=3, seed=0)
        assert forward_reports_to_sink(
            net, [(1, 10)], costs, transport=transport
        ) == [0]
        assert costs.tx_bytes[1] == 10
        assert costs.rx_bytes[0] == 10

    def test_failure_charges_full_budget(self):
        net = chain_network(1)
        transport, costs = lossy_transport(net, 0.0, retries=2, seed=0)
        assert forward_reports_to_sink(
            net, [(1, 10)], costs, transport=transport
        ) == []
        assert costs.tx_bytes[1] == 30  # 3 attempts x 10 bytes
        assert costs.rx_bytes[0] == 30
        assert transport.finalize().lost == 1

    def test_protocol_with_lossy_links(self):
        from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
        from repro.field import RadialField
        from repro.geometry import BoundingBox
        from repro.network import SensorNetwork

        box = BoundingBox(0, 0, 20, 20)
        field = RadialField(box, center=(10, 10), peak=20, slope=1)
        net = SensorNetwork.random_deploy(field, 600, radio_range=2.2, seed=2)
        q = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)
        plan = FaultPlan(seed=0, link=BernoulliLink(0.8))
        perfect = IsoMapProtocol(q, FilterConfig.disabled()).run(net)
        lossy = IsoMapProtocol(
            q,
            FilterConfig.disabled(),
            fault_plan=plan,
            transport_config=TransportConfig(max_retries=0),
        ).run(net)
        # Without retries at 20% loss, multi-hop reports die in transit.
        assert len(lossy.delivered_reports) < len(perfect.delivered_reports)
        reliable = IsoMapProtocol(
            q,
            FilterConfig.disabled(),
            fault_plan=plan,
            transport_config=TransportConfig(max_retries=5),
        ).run(net)
        # Retries restore delivery but cost extra transmissions.
        assert len(reliable.delivered_reports) > len(lossy.delivered_reports)
        assert (
            reliable.costs.total_traffic_bytes()
            > perfect.costs.total_traffic_bytes()
        )
