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

from typing import List, Optional, Sequence, Set

import numpy as np

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
            [tuple(p) for p in network.positions_array[delivered].tolist()],
            network.value[delivered].tolist(),
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
        the distributed timer-based election of [15]).

        Every voter's 2-hop sensing neighbourhood comes from one
        multi-source expansion; the greedy pass then reads it voter by
        voter in ascending id.
        """
        state = network.node_state()
        voters = np.flatnonzero(state.can_sense & state.routed)
        owner, nbr, _ = network.csr.k_hop_pairs(voters, 2, state.alive)
        sensing = state.can_sense[nbr]
        owner, nbr = owner[sensing], nbr[sensing].tolist()
        lo = np.searchsorted(owner, voters, side="left").tolist()
        hi = np.searchsorted(owner, voters, side="right").tolist()
        values = state.value.tolist()
        is_rep = [False] * network.n_nodes
        ops: List[int] = []
        for i, a, b in zip(voters.tolist(), lo, hi):
            compared = 0
            suppressed = False
            for j in nbr[a:b]:
                if not is_rep[j]:
                    continue
                compared += 1
                if abs(values[j] - values[i]) <= self.similarity:
                    suppressed = True
                    break
            # Every node also pays for listening to its 2-hop area while
            # deciding (the protocol's similarity measurements).
            ops.append(OPS_PER_COMPARISON * (compared + max(1, b - a)))
            if not suppressed:
                is_rep[i] = True
        costs.charge_ops_batch(voters, np.asarray(ops, dtype=np.int64))
        return {i for i in voters.tolist() if is_rep[i]}
