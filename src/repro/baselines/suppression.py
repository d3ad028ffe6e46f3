"""The data-suppression protocol (Meng et al. [15]).

"The sensor node suppresses its data if there is another sensor node
'nearby' transmitting similar data and the transmitted data is considered
as a representation of the local field. ... the suppression algorithm
ensures that the range spanned by suppressed nodes is bounded within the
2-hop neighborhood."

Reproduction: nodes elect representatives greedily -- a node suppresses
when a representative within its 2-hop neighbourhood already transmits a
value within ``similarity``; every node pays the pairwise comparisons
against the representatives it hears (the Theta(n * d) computation of
Table 1, with d the 2-hop degree).  Representatives report (value, x, y)
to the sink, which interpolates (nearest-reading) -- the paper's sink
interpolation and smoothing.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.baselines.base import NearestReportBandMap, ProtocolRun
from repro.core.wire import QUERY_BYTES, VALUE_REPORT_BYTES
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    disseminate_query,
    forward_reports_to_sink,
)

#: Ops per similarity comparison against a candidate representative.
OPS_PER_COMPARISON = 2


class DataSuppressionProtocol:
    """2-hop similarity suppression plus sink interpolation.

    Args:
        levels: isolevels for the final band map.
        similarity: values closer than this are "similar" (defaults to
            half the level granularity, the loosest setting that cannot
            move a reading across a band boundary by more than one band).
    """

    name = "suppression"

    def __init__(
        self,
        levels: Sequence[float],
        similarity: float = None,
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
    ):
        if not levels:
            raise ValueError("need at least one isolevel")
        self.fault_plan = fault_plan
        self.transport_config = transport_config
        self.levels = sorted(levels)
        if similarity is None:
            similarity = (
                (self.levels[1] - self.levels[0]) / 2.0
                if len(self.levels) >= 2
                else 1.0
            )
        if similarity <= 0:
            raise ValueError("similarity threshold must be positive")
        self.similarity = similarity

    def run(self, network: SensorNetwork) -> ProtocolRun:
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)

        representatives = self._elect_representatives(network, costs)
        transport = EpochTransport(
            network, costs, config=self.transport_config, plan=self.fault_plan
        )
        sources = sorted(representatives)
        arrived = forward_reports_to_sink(
            network,
            [(s, VALUE_REPORT_BYTES) for s in sources],
            costs,
            transport=transport,
        )
        delivered = [sources[i] for i in arrived]
        degradation = transport.finalize()
        costs.reports_generated = len(representatives)
        costs.reports_delivered = len(delivered)

        band_map = NearestReportBandMap(
            network.bounds,
            [network.nodes[i].position for i in delivered],
            [network.nodes[i].value for i in delivered],
            self.levels,
        )
        return ProtocolRun(
            name=self.name,
            band_map=band_map,
            costs=costs,
            reports_delivered=len(delivered),
            degradation=degradation,
        )

    def _elect_representatives(
        self, network: SensorNetwork, costs: CostAccountant
    ) -> Set[int]:
        """Greedy election in node-id order (a deterministic stand-in for
        the distributed timer-based election of [15])."""
        representatives: Set[int] = set()
        for node in network.nodes:
            if not node.can_sense or node.level is None:
                continue
            i = node.node_id
            two_hop = network.k_hop_sensing_neighbors(i, 2)
            suppressed = False
            for j in two_hop:
                if j not in representatives:
                    continue
                costs.charge_ops(i, OPS_PER_COMPARISON)
                if abs(network.nodes[j].value - node.value) <= self.similarity:
                    suppressed = True
                    break
            # Every node also pays for listening to its 2-hop area while
            # deciding (the protocol's similarity measurements).
            costs.charge_ops(i, OPS_PER_COMPARISON * max(1, len(two_hop)))
            if not suppressed:
                representatives.add(i)
        return representatives
