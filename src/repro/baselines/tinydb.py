"""TinyDB-style full collection (Hellerstein et al. [8]).

The paper's fidelity reference: "In its aggregate-free version, all
sensor nodes are required to report and a simple algorithm is employed
without data aggregation."  Every sensing node sends its reading to the
sink hop by hop; intermediate nodes store and forward (the per-node
computation lower bound, Section 5.2); the sink classifies the field by
nearest-reading interpolation, which on TinyDB's native grid deployment
is exactly the per-grid-cell isobar map of [8].

Report size: on a grid deployment a reading addresses its cell
(2 parameters); on a random deployment it must carry coordinates
(3 parameters).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import NearestReportBandMap, ProtocolRun
from repro.core.wire import GRID_REPORT_BYTES, QUERY_BYTES, VALUE_REPORT_BYTES
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    disseminate_query,
    forward_reports_to_sink,
)


class TinyDBProtocol:
    """Full-collection contour mapping.

    Args:
        levels: the isolevels of the requested contour map.
        grid_addressing: use the 2-parameter grid report format (set True
            when the network uses TinyDB's native grid deployment).
        fault_plan: optional faults applied during the collection epoch.
        transport_config: collection-transport defense knobs.
    """

    name = "tinydb"

    def __init__(
        self,
        levels: Sequence[float],
        grid_addressing: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
    ):
        if not levels:
            raise ValueError("need at least one isolevel")
        self.levels = sorted(levels)
        self.grid_addressing = grid_addressing
        self.fault_plan = fault_plan
        self.transport_config = transport_config

    @property
    def report_bytes(self) -> int:
        return GRID_REPORT_BYTES if self.grid_addressing else VALUE_REPORT_BYTES

    def run(self, network: SensorNetwork) -> ProtocolRun:
        """One collection epoch: query down, every reading up, map at sink."""
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)

        state = network.node_state()
        sources = np.flatnonzero(state.can_sense & state.routed).tolist()
        transport = EpochTransport(
            network, costs, config=self.transport_config, plan=self.fault_plan
        )
        arrived = forward_reports_to_sink(
            network,
            [(s, self.report_bytes) for s in sources],
            costs,
            transport=transport,
        )
        delivered = [sources[i] for i in arrived]
        degradation = transport.finalize()
        costs.reports_generated = len(sources)
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
