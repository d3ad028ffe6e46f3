"""Wireless-sensor-network simulation substrate.

Models what the paper assumes underneath Iso-Map (Section 3.1 and 5):
uniform-random or grid node deployment, a unit-disk radio with a
configurable range, a spanning routing tree rooted at the sink with
level-based forwarding, a perfect link layer, node failures, and exact
per-node accounting of transmitted/received bytes and arithmetic
operations.

- :mod:`repro.network.node` -- one sensor as a view of the network's arrays.
- :mod:`repro.network.deployment` -- node placement strategies.
- :mod:`repro.network.topology` -- disk-radio adjacency via spatial hashing.
- :mod:`repro.network.routing_tree` -- BFS spanning tree and levels.
- :mod:`repro.network.accounting` -- per-node traffic/computation counters.
- :mod:`repro.network.network` -- the :class:`SensorNetwork` facade.
- :mod:`repro.network.faults` -- seeded mid-epoch fault injection.
- :mod:`repro.network.transport` -- the fault-tolerant collection
  transport shared by Iso-Map and every baseline.
"""

from repro.network.node import SensorNode
from repro.network.deployment import grid_deployment, uniform_random_deployment
from repro.network.topology import (
    CsrAdjacency,
    average_degree,
    build_csr_adjacency,
    is_connected,
)
from repro.network.routing_tree import RoutingTree, build_routing_tree
from repro.network.accounting import CostAccountant
from repro.network.network import NodeState, SensorNetwork
from repro.network.faults import (
    BernoulliLink,
    FaultEngine,
    FaultEvent,
    FaultPlan,
    GilbertElliottLink,
)
from repro.network.transport import (
    DegradationReport,
    EpochTransport,
    TransportConfig,
)

__all__ = [
    "SensorNode",
    "grid_deployment",
    "uniform_random_deployment",
    "build_csr_adjacency",
    "CsrAdjacency",
    "average_degree",
    "is_connected",
    "RoutingTree",
    "build_routing_tree",
    "CostAccountant",
    "NodeState",
    "SensorNetwork",
    "BernoulliLink",
    "GilbertElliottLink",
    "FaultEvent",
    "FaultPlan",
    "FaultEngine",
    "DegradationReport",
    "EpochTransport",
    "TransportConfig",
]
