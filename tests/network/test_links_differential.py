"""Differential test: lossy-link closed forms vs the fault engine's draws.

Per-attempt Bernoulli loss (:class:`BernoulliLink` in a
:class:`FaultPlan`) under an ARQ budget of ``r`` retries
(:class:`TransportConfig`) is a truncated-geometric retry process: a hop
delivers with probability ``1 - (1 - p)^(r + 1)`` and its mean attempts
have a closed form.  :class:`EpochTransport` *samples* that process from
the engine's counter-based streams and charges every attempt.  A seeded
Monte-Carlo through the transport must reproduce the closed forms within
law-of-large-numbers tolerance, so neither side can drift without the
other noticing.
"""

import math

import pytest

from repro.field import PlaneField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import BernoulliLink, FaultPlan
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    forward_reports_to_sink,
)
from tests.network.transport_reference import forward_reports_reference

N_TRIALS = 20_000
NBYTES = 6


def per_hop_delivery(p, retries):
    """Probability that one of ``retries + 1`` attempts gets through."""
    return 1.0 - (1.0 - p) ** (retries + 1)


def expected_attempts(p, retries):
    """Mean attempts of the truncated geometric (a failed hop burns the
    whole budget)."""
    q = 1.0 - p
    n = retries + 1
    return sum(k * p * q ** (k - 1) for k in range(1, n + 1)) + n * q**n


def chain_network(hops):
    """``hops + 1`` nodes one unit apart on a line, sink at node 0: node
    ``h`` is exactly ``h`` hops from the sink (radio range 1.5)."""
    box = BoundingBox(0, 0, hops + 1, 2)
    field = PlaneField(box, c0=0, cx=1, cy=0)
    positions = [(0.5 + i, 1.0) for i in range(hops + 1)]
    return SensorNetwork(field, positions, radio_range=1.5, sink_index=0)


def lossy_transport(net, p, retries, seed):
    """A transport whose only fault is Bernoulli(p) loss per attempt."""
    costs = CostAccountant(net.n_nodes)
    transport = EpochTransport(
        net,
        costs,
        config=TransportConfig(max_retries=retries),
        plan=FaultPlan(seed=seed, link=BernoulliLink(p)),
    )
    return transport, costs


def simulate_hop(p, retries, seed, trials=N_TRIALS):
    """``trials`` frames over one hop, each its own ARQ trial; returns
    (delivery rate, mean attempts per frame)."""
    net = chain_network(1)
    transport, costs = lossy_transport(net, p, retries, seed)
    arrived = forward_reports_to_sink(
        net, [(1, NBYTES)] * trials, costs, ops_per_forward=0, transport=transport
    )
    return len(arrived) / trials, costs.tx_bytes[1] / NBYTES / trials


@pytest.mark.parametrize(
    "p,retries",
    [(0.9, 3), (0.7, 3), (0.5, 1), (0.95, 0), (0.6, 5)],
)
def test_single_hop_closed_forms(p, retries):
    delivery, attempts = simulate_hop(p, retries, seed=round(100 * p) + retries)

    want_delivery = per_hop_delivery(p, retries)
    # 4-sigma binomial tolerance on the delivery estimate.
    tol = 4.0 * math.sqrt(want_delivery * (1 - want_delivery) / N_TRIALS) + 1e-9
    assert delivery == pytest.approx(want_delivery, abs=tol)

    # Attempts per hop are bounded by retries+1, so 4-sigma is at most
    # 4 * (retries+1) / sqrt(N) -- a loose but sufficient envelope.
    assert attempts == pytest.approx(
        expected_attempts(p, retries), abs=4.0 * (retries + 1) / math.sqrt(N_TRIALS)
    )


def test_multi_hop_end_to_end():
    # Frames from the far end of a chain cross every hop through the
    # batched collection; each hop is an independent ARQ trial.
    p, retries = 0.8, 2
    for hops in (2, 5):
        net = chain_network(hops)
        transport, costs = lossy_transport(net, p, retries, seed=hops)
        arrived = forward_reports_to_sink(
            net, [(hops, NBYTES)] * N_TRIALS, costs, transport=transport
        )
        want = per_hop_delivery(p, retries) ** hops
        tol = 4.0 * math.sqrt(want * (1 - want) / N_TRIALS)
        assert len(arrived) / N_TRIALS == pytest.approx(want, abs=tol)


def test_charges_follow_attempts_exactly():
    # Accounting identity, not statistics: tx at the sender and rx at the
    # receiver must both equal NBYTES * attempts-on-air, on the level
    # driver and on the oracle's per-frame walk alike.
    p, retries, frames = 0.5, 2, 500
    net = chain_network(1)
    for forward in (forward_reports_reference, forward_reports_to_sink):
        transport, costs = lossy_transport(net, p, retries, seed=7)
        forward(
            net, [(1, NBYTES)] * frames, costs, ops_per_forward=0, transport=transport
        )
        report = transport.finalize()
        assert report.is_conserved
        assert costs.tx_bytes[1] == costs.rx_bytes[0]
        assert costs.tx_bytes[1] == NBYTES * (frames + report.retransmissions)
        assert frames * NBYTES <= costs.tx_bytes[1] <= frames * (retries + 1) * NBYTES
