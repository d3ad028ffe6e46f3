"""eScan: aggregation of (VALUE, COVERAGE) tuples (Zhao et al. [28]).

"An eScan is defined as a collection of (VALUE, COVERAGE) tuples and each
tuple describes a region of COVERAGE where each node has its residual
energy within VALUE = (min, max).  A tuple initially consists of only an
individual sensor node and gets aggregated with other tuples with
adjacent COVERAGE and similar VALUE."

The reproduction aggregates tuples up the routing tree.  COVERAGE is a
retained point set (the polygon boundary of [28]); the merge test charges
operations quadratic in the coverage sizes -- the polygon union/adjacency
machinery that gives eScan its O(n^3)-per-sensor worst case in Table 1.
The VALUE interval widens on merge up to ``value_tolerance``, trading map
precision for aggregation exactly as [28] describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines.base import (
    NearestReportBandMap,
    ProtocolRun,
    collect_aggregates,
    points_adjacent,
)
from repro.core.wire import BYTES_PER_PARAM, QUERY_BYTES
from repro.geometry import Vec
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    disseminate_query,
)

from typing import Optional

#: Maximum coverage points serialised per tuple.
MAX_WIRE_POINTS = 10

#: Maximum coverage points retained in memory per tuple.
MAX_KEPT_POINTS = 24

#: Ops charged per retained point PAIR in the coverage merge test -- the
#: quadratic polygon machinery of [28].
OPS_PER_COVERAGE_PAIR = 4


@dataclass
class ScanTuple:
    """One (VALUE, COVERAGE) tuple in flight.

    Attributes:
        vmin, vmax: the VALUE interval.
        points: retained coverage positions.
        size: true member count.
        rids: transport tracking ids of the aggregated member reports.
    """

    vmin: float
    vmax: float
    points: List[Vec] = field(default_factory=list)
    size: int = 1
    rids: List[int] = field(default_factory=list)

    def wire_bytes(self) -> int:
        k = min(len(self.points), MAX_WIRE_POINTS)
        return 2 * BYTES_PER_PARAM + k * 2 * BYTES_PER_PARAM

    @property
    def mid_value(self) -> float:
        return (self.vmin + self.vmax) / 2.0

    def merge(self, other: "ScanTuple") -> None:
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        self.points.extend(other.points)
        self.size += other.size
        self.rids.extend(other.rids)
        if len(self.points) > MAX_KEPT_POINTS:
            self.points = self.points[::2][:MAX_KEPT_POINTS]

    def clone(self) -> "ScanTuple":
        """Independent copy (a duplicated frame's second arrival)."""
        return ScanTuple(
            vmin=self.vmin,
            vmax=self.vmax,
            points=list(self.points),
            size=self.size,
            rids=list(self.rids),
        )


class EScanProtocol:
    """(VALUE, COVERAGE) tuple aggregation.

    Args:
        levels: isolevels for the final band map.
        value_tolerance: maximum VALUE interval width a merged tuple may
            reach; defaults to the level granularity (the natural choice
            when eScan feeds a contour map of that granularity).
    """

    name = "escan"

    def __init__(
        self,
        levels: Sequence[float],
        value_tolerance: float = None,
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
    ):
        if not levels:
            raise ValueError("need at least one isolevel")
        self.levels = sorted(levels)
        if value_tolerance is None and len(self.levels) >= 2:
            value_tolerance = self.levels[1] - self.levels[0]
        self.value_tolerance = value_tolerance if value_tolerance else 1.0
        self.fault_plan = fault_plan
        self.transport_config = transport_config

    def run(self, network: SensorNetwork) -> ProtocolRun:
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)
        adjacency_sq = (2.0 * network.radio_range) ** 2
        transport = EpochTransport(
            network, costs, config=self.transport_config, plan=self.fault_plan
        )

        buffers: Dict[int, List[ScanTuple]] = {}
        state = network.node_state()
        sources = np.flatnonzero(state.can_sense & state.routed)
        for i, value, point in zip(
            sources.tolist(),
            network.value[sources].tolist(),
            network.positions_array[sources].tolist(),
        ):
            buffers[i] = [
                ScanTuple(value, value, [tuple(point)], 1, rids=[transport.register()])
            ]

        final_tuples = collect_aggregates(
            transport,
            buffers,
            lambda buffer, tup, receiver: self._absorb(
                buffer, tup, receiver, adjacency_sq, costs
            ),
        )
        degradation = transport.finalize()
        costs.reports_generated = len(sources)
        costs.reports_delivered = len(final_tuples)

        positions: List[Vec] = []
        values: List[float] = []
        for tup in final_tuples:
            for p in tup.points:
                positions.append(p)
                values.append(tup.mid_value)
        band_map = NearestReportBandMap(
            network.bounds, positions, values, self.levels
        )
        return ProtocolRun(
            name=self.name,
            band_map=band_map,
            costs=costs,
            reports_delivered=len(final_tuples),
            degradation=degradation,
        )

    def _absorb(
        self,
        buffer: List[ScanTuple],
        tup: ScanTuple,
        node_id: int,
        adjacency_sq: float,
        costs: CostAccountant,
    ) -> None:
        for existing in buffer:
            pairs = len(existing.points) * len(tup.points)
            costs.charge_ops(node_id, OPS_PER_COVERAGE_PAIR * pairs)
            merged_width = max(existing.vmax, tup.vmax) - min(
                existing.vmin, tup.vmin
            )
            if merged_width > self.value_tolerance:
                continue
            if not points_adjacent(existing.points, tup.points, adjacency_sq):
                continue
            existing.merge(tup)
            return
        buffer.append(tup)
