"""The data-suppression election against a per-node reference.

:meth:`DataSuppressionProtocol._elect_representatives` reads every
voter's 2-hop sensing neighbourhood from one multi-source expansion.
The reference below is the per-node election it replaced: one 2-hop
expansion per voter.  Both must
elect the same representatives and charge the same operations at every
node.
"""

import random

import numpy as np
import pytest

from repro.baselines import DataSuppressionProtocol
from repro.baselines.suppression import OPS_PER_COMPARISON
from repro.experiments.common import default_levels, harbor_network
from repro.field import make_harbor_field
from repro.network import CostAccountant
from tests.network.neighbourhoods import k_hop_sensing_neighbours


def elect_reference(protocol, network, costs):
    representatives = set()
    for node in network.nodes:
        if not node.can_sense or node.level is None:
            continue
        i = node.node_id
        two_hop = k_hop_sensing_neighbours(network, i, 2)
        suppressed = False
        for j in two_hop:
            if j not in representatives:
                continue
            costs.charge_ops(i, OPS_PER_COMPARISON)
            if abs(network.nodes[j].value - node.value) <= protocol.similarity:
                suppressed = True
                break
        costs.charge_ops(i, OPS_PER_COMPARISON * max(1, len(two_hop)))
        if not suppressed:
            representatives.add(i)
    return representatives


@pytest.mark.parametrize("failures", [None, "sensing", "crash"])
@pytest.mark.parametrize("n,side", [(900, 30), (2500, 50)])
def test_election_matches_per_node_reference(n, side, failures):
    net = harbor_network(n, "random", seed=n % 7, field=make_harbor_field(side=side))
    if failures is not None:
        net.fail_random(0.25, rng=random.Random(n), mode=failures)
    protocol = DataSuppressionProtocol(default_levels())
    costs = CostAccountant(net.n_nodes)
    ref_costs = CostAccountant(net.n_nodes)
    reps = protocol._elect_representatives(net, costs)
    want = elect_reference(protocol, net, ref_costs)
    assert reps == want
    assert 0 < len(reps) < net.n_nodes
    assert np.array_equal(costs.ops, ref_costs.ops)
    assert not costs.tx_bytes.any() and not costs.rx_bytes.any()
