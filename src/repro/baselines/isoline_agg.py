"""Isoline aggregation (Solis & Obraczka [22]).

The related-work protocol closest to Iso-Map: "it proposes to reduce the
traffic overhead by restricting sensor reporting from nodes near the
isolines.  However, the paper neither specifies how the sensor nodes
detect the isolines passing by nor how the sink recovers the isolines
from the discrete reports."

This reimplementation fills those two gaps in the most favourable way
available without Iso-Map's contribution (the locally-regressed gradient
direction):

- detection reuses Definition 3.1's border-region + straddle test, but
  the local probe only needs neighbour VALUES (2-byte replies instead of
  Iso-Map's 6-byte value+position tuples) since no regression runs;
- reports carry (isolevel, x, y) -- 6 bytes, no direction;
- a distance-only in-network filter thins clustered reports (there is no
  angle to compare);
- the sink classifies every point by its nearest isoposition's level --
  the best position-only recovery, which cannot resolve the
  inside/outside ambiguity the paper's Fig. 4 illustrates, only
  approximate it through isoline nesting.

Traffic thus matches Iso-Map's O(sqrt(n)) scaling while fidelity shows
what the gradient direction buys -- the comparison the paper's Section 6
implies but never runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import NearestReportBandMap, ProtocolRun
from repro.core.detection import (
    border_candidates,
    charge_broadcasts,
    sensing_neighbours,
    straddling,
)
from repro.core.query import ContourQuery
from repro.core.wire import BYTES_PER_PARAM, LOCAL_QUERY_BYTES, QUERY_BYTES, VALUE_REPORT_BYTES
from repro.geometry import Vec, dist_sq
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.transport import (
    EpochTransport,
    OutFrame,
    TransportConfig,
    disseminate_query,
)

#: A value-only probe reply (the neighbour's reading).
VALUE_REPLY_BYTES = 1 * BYTES_PER_PARAM

#: Ops per border-region / straddle comparison (as in Iso-Map detection).
OPS_PER_CHECK = 2

#: Ops per pairwise distance comparison in the in-network filter.
OPS_PER_FILTER_COMPARISON = 4


class IsolineAggregationProtocol:
    """Isoline-restricted reporting without gradient directions.

    Args:
        query: the contour query (levels, border epsilon).
        distance_separation: in-network thinning threshold (no angular
            term exists without gradients); defaults to the same 4 units
            as Iso-Map's operating point.
    """

    name = "isoline-agg"

    def __init__(
        self,
        query: ContourQuery,
        distance_separation: float = 4.0,
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
    ):
        if distance_separation < 0:
            raise ValueError("distance separation must be non-negative")
        self.query = query
        self.distance_separation = distance_separation
        self.fault_plan = fault_plan
        self.transport_config = transport_config

    def run(self, network: SensorNetwork) -> ProtocolRun:
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)

        isoline_nodes = self._detect(network, costs)
        transport = EpochTransport(
            network, costs, config=self.transport_config, plan=self.fault_plan
        )
        delivered = self._collect(network, isoline_nodes, costs, transport)
        degradation = transport.finalize()
        costs.reports_generated = len(isoline_nodes)
        costs.reports_delivered = len(delivered)

        band_map = NearestReportBandMap(
            network.bounds,
            [tuple(p) for p in network.app_positions(delivered).tolist()],
            [isoline_nodes[i] for i in delivered],
            self.query.isolevels,
        )
        return ProtocolRun(
            name=self.name,
            band_map=band_map,
            costs=costs,
            reports_delivered=len(delivered),
            degradation=degradation,
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _detect(
        self, network: SensorNetwork, costs: CostAccountant
    ) -> Dict[int, float]:
        """Definition 3.1 detection with value-only neighbourhood probes.

        Each candidate broadcasts one probe, heard by its alive 1-hop
        neighbours; each sensing 1-hop neighbour replies with its value,
        which the candidate checks for a straddle.  Array passes over
        every node, as in :func:`~repro.core.detection.detect_isoline_nodes`.
        """
        state = network.node_state()
        candidates, level_idx = border_candidates(state, self.query, costs, OPS_PER_CHECK)
        charge_broadcasts(network, state, candidates, LOCAL_QUERY_BYTES, costs)
        row, nbr = sensing_neighbours(network, state, candidates)
        reply = np.full(nbr.size, VALUE_REPLY_BYTES, dtype=np.int64)
        costs.charge_tx_batch(nbr, reply)
        costs.charge_rx_batch(candidates[row], reply)
        costs.charge_ops_batch(
            candidates, OPS_PER_CHECK * np.bincount(row, minlength=candidates.size)
        )
        appointed = straddling(state, candidates, level_idx, self.query, row, nbr)
        levels = self.query.isolevels
        return {
            i: levels[k]
            for i, k in zip(candidates[appointed].tolist(), level_idx[appointed].tolist())
        }

    def _collect(
        self,
        network: SensorNetwork,
        isoline_nodes: Dict[int, float],
        costs: CostAccountant,
        transport: EpochTransport,
    ) -> List[int]:
        """Tree collection with distance-only in-network thinning."""
        tree = network.tree
        sd2 = self.distance_separation**2
        # Per-node kept positions per level (the thinning state).
        kept: Dict[int, Dict[float, List[Vec]]] = {}
        outbox: Dict[int, List[tuple]] = {}
        delivered: List[int] = []

        ids = np.fromiter(isoline_nodes, dtype=np.int64, count=len(isoline_nodes))
        app = dict(zip(ids.tolist(), map(tuple, network.app_positions(ids).tolist())))

        def offer(holder: int, source: int, level: float) -> bool:
            state = kept.setdefault(holder, {}).setdefault(level, [])
            p = app[source]
            for q in state:
                costs.charge_ops(holder, OPS_PER_FILTER_COMPARISON)
                if dist_sq(p, q) <= sd2:
                    return False
            state.append(p)
            return True

        for source, level in isoline_nodes.items():
            rid = transport.register()
            if offer(source, source, level):
                outbox.setdefault(source, []).append((source, rid))
            else:
                transport.mark_filtered(rid)

        def frames_for(u: int) -> List[OutFrame]:
            return [
                OutFrame(nbytes=VALUE_REPORT_BYTES, rids=(rid,), payload=source)
                for source, rid in outbox.pop(u, ())
            ]

        def on_arrival(_sender, receiver, frame, arrived, _is_dup):
            rid = frame.rids[0]
            if receiver == tree.sink:
                if transport.deliver_at_sink(rid):
                    delivered.append(arrived)
            elif offer(receiver, arrived, isoline_nodes[arrived]):
                outbox.setdefault(receiver, []).append((arrived, rid))
            else:
                transport.mark_filtered(rid)

        transport.run_collection(frames_for, on_arrival)
        return delivered
