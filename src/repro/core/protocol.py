"""The end-to-end Iso-Map protocol run (Section 3).

Phases: query dissemination down the routing tree, distributed isoline-
node detection, local gradient estimation and report generation,
tree collection with in-network filtering, and sink-side reconstruction.
All traffic and computation is charged to a :class:`CostAccountant` at
the point it is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.codec import ReportCodec
from repro.core.contour_map import ContourMap, build_contour_map
from repro.core.detection import DetectionResult, detect_isoline_nodes
from repro.core.filtering import FilterConfig, InNetworkFilter
from repro.core.gradient import (
    estimate_gradient,
    estimate_gradients_batch,
    fallback_direction,
)
from repro.core.query import ContourQuery
from repro.core.reports import IsolineReport
from repro.core.wire import QUERY_BYTES
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultEngine, FaultPlan
from repro.network.tiling import TilePartition
from repro.network.transport import (
    DegradationReport,
    EpochTransport,
    OutFrame,
    TransportConfig,
    disseminate_query,
)

#: Ops charged for the two-point fallback direction estimate.
OPS_FALLBACK = 6


def make_report_mangler(query: ContourQuery, bounds):
    """Receiver-side decoding of a corrupted isoline-report frame.

    Without a CRC the receiver decodes whatever bits arrived: the frame
    is re-encoded through the real :class:`ReportCodec`, the fault
    engine flips bits in it, and the decode of the damaged frame is the
    poisoned report that keeps flowing.  A mangled isolevel almost never
    lands exactly on a query level after quantisation, so the receiver
    files the report under the nearest level -- the misfiling a naive
    stack commits.
    """
    levels = query.isolevels

    def mangle(report: IsolineReport, engine: FaultEngine):
        codec = ReportCodec.for_query(query, bounds)
        damaged = engine.corrupt_payload(codec.encode(report))
        try:
            decoded = codec.decode(damaged, source=report.source)
        except ValueError:  # pragma: no cover - sizes never change
            return None
        snapped = min(levels, key=lambda lv: abs(lv - decoded.isolevel))
        return IsolineReport(
            isolevel=snapped,
            position=decoded.position,
            direction=decoded.direction,
            source=decoded.source,
        )

    return mangle


@dataclass
class IsoMapResult:
    """Everything a single Iso-Map epoch produces.

    Attributes:
        contour_map: the sink's reconstruction.
        costs: per-node traffic/computation counters for the whole run.
        detection: the detection-phase outcome (isoline nodes, candidates).
        generated_reports: reports created at isoline nodes.
        delivered_reports: reports that reached the sink after filtering.
        dropped_by_filter: reports discarded by in-network filtering.
        degradation: the collection transport's account of what was
            delivered, lost, repaired and discarded -- how trustworthy
            the map is (always present; trivially clean at zero faults).
    """

    contour_map: ContourMap
    costs: CostAccountant
    detection: DetectionResult
    generated_reports: List[IsolineReport] = field(default_factory=list)
    delivered_reports: List[IsolineReport] = field(default_factory=list)
    dropped_by_filter: int = 0
    degradation: Optional[DegradationReport] = None


class IsoMapProtocol:
    """Runs Iso-Map contour mapping over a :class:`SensorNetwork`.

    Args:
        query: the contour query the sink disseminates.
        filter_config: in-network filtering thresholds (Section 3.5);
            pass :meth:`FilterConfig.disabled` to forward every report.
        regulate: apply boundary regulation Rules 1-2 at the sink.
        regression: local surface model for the gradient estimate --
            ``"linear"`` (the paper's choice, Eq. 2) or ``"quadratic"``
            (the richer model Section 3.3 mentions; falls back to linear
            on neighbourhoods too small for six coefficients).
        fault_plan: optional :class:`FaultPlan` applied during collection
            (link loss, mid-epoch crashes, corruption, duplication); the
            paper assumes perfect links, and e.g. ``FaultPlan(seed=s,
            link=BernoulliLink(p))`` prices that assumption.
        transport_config: defense knobs of the collection transport;
            defaults to every defense on (which charges nothing extra at
            zero faults).
        tile_size: optional spatial tile edge length; under a fault plan
            the collection transport resolves each level's draws per
            sender-tile (:mod:`repro.network.tiling`), bit-identical to
            the untiled path at any tile size but memory-bounded by the
            largest tile.  None keeps the single global batch.
        tile_jobs: worker processes for per-tile resolution (1 = inline).
    """

    name = "iso-map"

    def __init__(
        self,
        query: ContourQuery,
        filter_config: Optional[FilterConfig] = None,
        regulate: bool = True,
        regression: str = "linear",
        fault_plan: Optional[FaultPlan] = None,
        transport_config: Optional[TransportConfig] = None,
        tile_size: Optional[float] = None,
        tile_jobs: int = 1,
    ):
        if regression not in ("linear", "quadratic"):
            raise ValueError(f"unknown regression model {regression!r}")
        self.query = query
        self.filter_config = (
            filter_config if filter_config is not None else FilterConfig()
        )
        self.regulate = regulate
        self.regression = regression
        self.fault_plan = fault_plan
        self.transport_config = transport_config
        self.tile_size = tile_size
        self.tile_jobs = tile_jobs

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, network: SensorNetwork) -> IsoMapResult:
        """Execute one full contour-mapping epoch."""
        costs = CostAccountant(network.n_nodes)
        disseminate_query(network, QUERY_BYTES, costs)
        detection = detect_isoline_nodes(network, self.query, costs)
        generated = self._generate_reports(network, detection, costs)
        tiling = None
        if (
            self.tile_size is not None
            and self.fault_plan is not None
            and not self.fault_plan.is_null
        ):
            tiling = TilePartition.build(
                network.positions_array, network.bounds, self.tile_size
            )
        transport = EpochTransport(
            network,
            costs,
            config=self.transport_config,
            plan=self.fault_plan,
            mangler=make_report_mangler(self.query, network.bounds),
            tiling=tiling,
            tile_jobs=self.tile_jobs,
        )
        delivered, dropped = self._collect(network, generated, costs, transport)
        degradation = transport.finalize()
        costs.reports_generated = len(generated)
        costs.reports_delivered = len(delivered)

        sink_node = network.nodes[network.sink_index]
        sink_value = sink_node.value if sink_node.can_sense else None
        contour_map = build_contour_map(
            delivered,
            self.query.isolevels,
            network.bounds,
            sink_value=sink_value,
            regulate=self.regulate,
        )
        return IsoMapResult(
            contour_map=contour_map,
            costs=costs,
            detection=detection,
            generated_reports=generated,
            delivered_reports=delivered,
            dropped_by_filter=dropped,
            degradation=degradation,
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _generate_reports(
        self,
        network: SensorNetwork,
        detection: DetectionResult,
        costs: CostAccountant,
    ) -> List[IsolineReport]:
        """Gradient estimation and report creation at each isoline node."""
        reports: List[IsolineReport] = []
        items = list(detection.isoline_nodes.items())
        ids = np.fromiter((node_id for node_id, _ in items), np.int64, len(items))
        # Positions as the application knows them: the localisation
        # estimate when one ran, ground truth otherwise.
        positions = [
            network.bounds.clamp((x, y))
            for x, y in network.app_positions(ids).tolist()
        ]
        values = network.value[ids].tolist()
        data_rows = [
            detection.neighborhood_data.get(node_id, []) for node_id, _ in items
        ]
        linear_estimates = None
        if self.regression == "linear":
            # All plane regressions in one batched solve; bit-identical to
            # calling estimate_gradient per node (see estimate_gradients_batch).
            linear_estimates = estimate_gradients_batch(
                list(zip(positions, values, data_rows))
            )
        for k, (node_id, isolevel) in enumerate(items):
            value = values[k]
            position = positions[k]
            data = data_rows[k]
            estimate = None
            if self.regression == "quadratic":
                from repro.core.gradient_quadratic import estimate_gradient_quadratic

                estimate = estimate_gradient_quadratic(position, value, data)
                if estimate is None:
                    estimate = estimate_gradient(position, value, data)
            else:
                estimate = linear_estimates[k]
            if estimate is not None:
                costs.charge_ops(node_id, estimate.ops)
                direction = estimate.direction
            else:
                direction = self._fallback(value, position, data)
                costs.charge_ops(node_id, OPS_FALLBACK)
                if direction is None:
                    continue  # no usable neighbourhood at all
            reports.append(
                IsolineReport(
                    isolevel=isolevel,
                    position=position,
                    direction=direction,
                    source=node_id,
                )
            )
        return reports

    @staticmethod
    def _fallback(value, position, data):
        """Two-point descent estimate from the most contrasting neighbour."""
        if not data:
            return None
        other_pos, other_val = max(data, key=lambda pv: abs(pv[1] - value))
        return fallback_direction(position, value, other_pos, other_val)

    def _collect(
        self,
        network: SensorNetwork,
        reports: List[IsolineReport],
        costs: CostAccountant,
        transport: EpochTransport,
    ):
        """Forward reports up the tree with per-node in-network filtering.

        Children transmit before their parents (the TAG epoch schedule),
        so by the time a node forwards, every report routed through it has
        been offered to its filter.  All hop traffic goes through the
        fault-tolerant transport's one level driver; under a null plan
        every frame lands on its first attempt, so the charges are the
        classic perfect-link ones, byte for byte.
        """
        tree = network.tree
        filters: Dict[int, InNetworkFilter] = {}
        outbox: Dict[int, List[Tuple[IsolineReport, int]]] = {}
        delivered: List[IsolineReport] = []
        dropped = 0

        def filter_at(node_id: int) -> InNetworkFilter:
            if node_id not in filters:
                filters[node_id] = InNetworkFilter(self.filter_config)
            return filters[node_id]

        # Each source offers its own report to its own filter first.
        for r in reports:
            rid = transport.register()
            if filter_at(r.source).offer(r, r.source, costs):
                outbox.setdefault(r.source, []).append((r, rid))
            else:
                dropped += 1  # duplicate position at the same node
                transport.mark_filtered(rid)

        def frames_for(u: int) -> List[OutFrame]:
            return [
                OutFrame(nbytes=r.wire_bytes, rids=(rid,), payload=r)
                for r, rid in outbox.pop(u, ())
            ]

        def on_arrival(_sender, receiver, frame, arrived, _is_dup):
            nonlocal dropped
            rid = frame.rids[0]
            if receiver == tree.sink:
                if transport.deliver_at_sink(rid):
                    delivered.append(arrived)
            elif filter_at(receiver).offer(arrived, receiver, costs):
                outbox.setdefault(receiver, []).append((arrived, rid))
            else:
                dropped += 1
                transport.mark_filtered(rid)

        transport.run_collection(frames_for, on_arrival)
        return delivered, dropped
