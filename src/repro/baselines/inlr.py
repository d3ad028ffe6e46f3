"""INLR: in-network contour-region aggregation (Xue et al. [27]).

"INLR makes contour regions from close sensor reports of similar readings
and delivers contour regions back to the sink.  A numerical data model is
built for each contour region ... INLR aggregates contour regions
according to their data model during the delivery."

The reproduction follows that structure: every sensing node starts a
unit region (its own reading); routing-tree nodes merge same-band regions
whose member points are adjacent, refitting the region's linear data
model on each merge.  The model refit over the members is what makes the
per-node computation grow with the region sizes flowing through the node
-- nodes near the sink handle subtree-sized regions, which is how the
paper's Theta(n^1.5) network computation (Section 4.3) emerges from a
tree of depth ~sqrt(n).

Wire format: a region report carries (band, member count) plus up to
``MAX_WIRE_POINTS`` boundary points at 2 parameters each.
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
from repro.field.contours import band_of
from repro.geometry import Vec
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    disseminate_query,
)

from typing import Optional

#: Maximum boundary points serialised per region report.
MAX_WIRE_POINTS = 10

#: Maximum member points retained in memory per region (a subsample that
#: keeps merging adjacency honest without quadratic memory).
MAX_KEPT_POINTS = 24

#: Ops charged per member point when refitting a region's data model.
OPS_PER_MODEL_POINT = 10

#: Ops charged per retained point pair when testing region adjacency.
OPS_PER_ADJACENCY_PAIR = 2


@dataclass
class Region:
    """One in-flight contour region.

    Attributes:
        band: the contour band the region belongs to.
        points: retained member positions (subsampled at MAX_KEPT_POINTS).
        values: the corresponding readings.
        size: TRUE member count (used for cost accounting even when the
            retained point list is subsampled).
        rids: transport tracking ids of the member reports aggregated in
            (empty when the run has no transport bookkeeping).
    """

    band: int
    points: List[Vec] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    size: int = 1
    rids: List[int] = field(default_factory=list)

    @property
    def mean_value(self) -> float:
        return sum(self.values) / len(self.values)

    def wire_bytes(self) -> int:
        k = min(len(self.points), MAX_WIRE_POINTS)
        return 2 * BYTES_PER_PARAM + k * 2 * BYTES_PER_PARAM

    def merge(self, other: "Region") -> None:
        self.points.extend(other.points)
        self.values.extend(other.values)
        self.size += other.size
        self.rids.extend(other.rids)
        if len(self.points) > MAX_KEPT_POINTS:
            # Deterministic thinning: keep every other point.
            self.points = self.points[::2][:MAX_KEPT_POINTS]
            self.values = self.values[::2][:MAX_KEPT_POINTS]

    def clone(self) -> "Region":
        """Independent copy (a duplicated frame's second arrival)."""
        return Region(
            band=self.band,
            points=list(self.points),
            values=list(self.values),
            size=self.size,
            rids=list(self.rids),
        )


class INLRProtocol:
    """In-network contour-region aggregation.

    Regions whose retained points come within twice the radio range are
    mergeable.

    Args:
        levels: isolevels defining the bands.
    """

    name = "inlr"

    def __init__(
        self,
        levels: Sequence[float],
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
    ):
        if not levels:
            raise ValueError("need at least one isolevel")
        self.levels = sorted(levels)
        self.fault_plan = fault_plan
        self.transport_config = transport_config

    def run(self, network: SensorNetwork) -> ProtocolRun:
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)
        adjacency = 2.0 * network.radio_range
        transport = EpochTransport(
            network, costs, config=self.transport_config, plan=self.fault_plan
        )

        # Per-node region buffers, filled bottom-up.
        buffers: Dict[int, List[Region]] = {}
        state = network.node_state()
        sources = np.flatnonzero(state.can_sense & state.routed)
        for i, value, point in zip(
            sources.tolist(),
            network.value[sources].tolist(),
            network.positions_array[sources].tolist(),
        ):
            buffers[i] = [
                Region(
                    band=band_of(value, self.levels),
                    points=[tuple(point)],
                    values=[value],
                    size=1,
                    rids=[transport.register()],
                )
            ]

        # Each node transmits its (already aggregated) regions to its
        # parent, which merges the arrivals into its own buffer.
        final_regions = collect_aggregates(
            transport,
            buffers,
            lambda buffer, region, receiver: self._absorb(
                buffer, region, receiver, adjacency, costs
            ),
        )
        degradation = transport.finalize()
        costs.reports_generated = len(sources)
        costs.reports_delivered = len(final_regions)

        band_map = self._sink_map(network, final_regions)
        return ProtocolRun(
            name=self.name,
            band_map=band_map,
            costs=costs,
            reports_delivered=len(final_regions),
            degradation=degradation,
        )

    # ------------------------------------------------------------------
    # Aggregation internals
    # ------------------------------------------------------------------

    def _absorb(
        self,
        buffer: List[Region],
        region: Region,
        node_id: int,
        adjacency: float,
        costs: CostAccountant,
    ) -> None:
        """Merge ``region`` into the node's buffer or append it."""
        adjacency_sq = adjacency * adjacency
        for existing in buffer:
            if existing.band != region.band:
                continue
            # Adjacency test over retained point pairs.
            pairs = len(existing.points) * len(region.points)
            costs.charge_ops(node_id, OPS_PER_ADJACENCY_PAIR * pairs)
            if not points_adjacent(existing.points, region.points, adjacency_sq):
                continue
            # Model similarity: same band and adjacent -> merge; the
            # refit over the TRUE member count is the dominant cost (the
            # paper's "multiple integrals" similarity estimation scales
            # the same way).
            costs.charge_ops(
                node_id, OPS_PER_MODEL_POINT * (existing.size + region.size)
            )
            existing.merge(region)
            return
        buffer.append(region)

    def _sink_map(
        self, network: SensorNetwork, regions: List[Region]
    ) -> NearestReportBandMap:
        """Classify by the nearest retained region point's mean value."""
        positions: List[Vec] = []
        values: List[float] = []
        for region in regions:
            mean = region.mean_value
            for p in region.points:
                positions.append(p)
                values.append(mean)
        return NearestReportBandMap(network.bounds, positions, values, self.levels)
