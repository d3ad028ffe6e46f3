"""Continuous monitoring: epoch-delta Iso-Map.

The harbor deployment (Section 2) monitors *continuously*: the sink
wants an up-to-date isobath map at every epoch, but between epochs the
field drifts slowly (tides) or jumps locally (storms).  Re-running the
full protocol each epoch re-transmits mostly unchanged reports.

``ContinuousIsoMap`` keeps per-source state at the isoline nodes and a
report cache at the sink:

- a node transmits only when its report *changed*: it newly became an
  isoline node, its isolevel changed, or its gradient direction rotated
  by more than ``angle_delta_deg``;
- a node that stops being an isoline node sends a small *retraction*
  (its position only), and the sink evicts the cached report;
- deltas and retractions travel hop by hop up the routing tree through
  the shared store-and-forward epoch
  (:func:`repro.network.transport.forward_reports_to_sink`), the same
  path TinyDB and data suppression charge their reports on;
- the sink updates the contour map from the cache each epoch
  *incrementally*, splicing the delta into a retained per-level map
  (:class:`repro.core.contour_map.SinkReconstructor`, bit-identical to a
  from-scratch rebuild) rather than paying the full Voronoi + boundary
  cost for the mostly-unchanged remainder.

In steady state traffic collapses to the churn rate; after a local event
only the affected stretch of isolines re-reports.  This is the natural
"implementation experience" extension the paper's future-work section
points toward, built entirely from the primitives the paper defines.

In-network filtering is intentionally NOT applied to delta reports: a
dropped delta would desynchronise the sink cache.  The delta suppression
itself plays the filter's role (and typically cuts more).

With a :class:`~repro.core.prediction.PredictionConfig` the monitor
additionally suppresses reports the sink could have *predicted*: node
and sink mirror an LMS drift predictor over the delivered stream and
suppressed epochs are served from its deterministic extrapolation (see
:mod:`repro.core.prediction`).  ``prediction=None`` -- the default --
bypasses the predictor entirely and stays byte-identical to the
pre-prediction epoch streams (the dead-reckoning contract, pinned by
``tests/core/test_prediction_off_golden.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import profiling
from repro.core.contour_map import ContourMap, SinkReconstructor
from repro.core.detection import detect_isoline_nodes
from repro.core.prediction import PredictionConfig, PredictorBank
from repro.core.protocol import IsoMapProtocol
from repro.core.query import ContourQuery
from repro.core.reports import IsolineReport
from repro.core.wire import BYTES_PER_PARAM, QUERY_BYTES
from repro.geometry import Vec, angle_between
from repro.network import CostAccountant, SensorNetwork
from repro.network.transport import disseminate_query, forward_reports_to_sink

#: A retraction carries the source position only (x, y).
RETRACTION_BYTES = 2 * BYTES_PER_PARAM


@dataclass
class EpochResult:
    """Outcome of one continuous-monitoring epoch.

    Attributes:
        contour_map: the sink's map after applying this epoch's deltas.
        costs: cost counters for THIS epoch only.
        new_reports: reports transmitted this epoch (new or changed).
        retractions: sources whose cached report was evicted.
        suppressed: isoline nodes whose report was unchanged (no tx).
        cached_reports: size of the sink cache after the epoch.
        delivered_reports: the subset of ``new_reports`` that actually
            reached the sink (a disconnected source transmits into the
            void); this is exactly what updated the sink cache, so it is
            the epoch delta a serving layer must forward to clients.
        sink_value: the sink's own sensed value this epoch (None when the
            sink cannot sense) -- the disambiguator for all-empty levels.
        predicted: reports suppressed by the drift predictor this epoch
            (0 when ``prediction=None``).
        heartbeats: transmissions forced purely by the heartbeat cap --
            the prediction was within tolerance but the track had been
            extrapolated for ``heartbeat`` consecutive epochs.
        staleness: sink-side staleness in epochs -- the age of the
            oldest extrapolated cache entry (0 without prediction, and
            bounded by the configured heartbeat with it).
        tracks: live predictor tracks after the epoch.
        cache_updates: the sink-cache entries added or changed this
            epoch.  Without prediction this *is* ``delivered_reports``
            (the same list object); with prediction it also carries the
            dead-reckoned motion of suppressed entries, so a serving
            layer must consume ``cache_updates``/``cache_removed`` --
            not ``delivered_reports``/``retractions`` -- to mirror the
            cache.
        cache_removed: source keys evicted from the sink cache this
            epoch (``retractions`` without prediction).
    """

    contour_map: ContourMap
    costs: CostAccountant
    new_reports: List[IsolineReport] = field(default_factory=list)
    retractions: List[int] = field(default_factory=list)
    suppressed: int = 0
    cached_reports: int = 0
    delivered_reports: List[IsolineReport] = field(default_factory=list)
    sink_value: Optional[float] = None
    predicted: int = 0
    heartbeats: int = 0
    staleness: int = 0
    tracks: int = 0
    cache_updates: List[IsolineReport] = field(default_factory=list)
    cache_removed: List[int] = field(default_factory=list)


class ContinuousIsoMap:
    """Epoch-delta contour monitoring on top of Iso-Map's primitives.

    Args:
        query: the standing contour query (disseminated once, in the
            first epoch).
        angle_delta_deg: gradient-direction change (degrees) above which
            a node re-reports; the value trade-off mirrors the filter's
            ``s_a``.
        prediction: enable model-predictive suppression with this
            :class:`~repro.core.prediction.PredictionConfig`.  ``None``
            (the default) runs the original epoch-delta protocol
            byte-for-byte (the dead-reckoning contract).
    """

    def __init__(
        self,
        query: ContourQuery,
        angle_delta_deg: float = 10.0,
        prediction: Optional[PredictionConfig] = None,
    ):
        if angle_delta_deg < 0:
            raise ValueError("angle_delta_deg must be non-negative")
        self.query = query
        self.angle_delta_rad = math.radians(angle_delta_deg)
        self.prediction = prediction
        self._protocol = IsoMapProtocol(query)
        self._node_state: Dict[int, IsolineReport] = {}
        self._sink_cache: Dict[int, IsolineReport] = {}
        self._reconstructor: Optional[SinkReconstructor] = None
        self._first_epoch = True
        self._bank: Optional[PredictorBank] = (
            None if prediction is None else PredictorBank(prediction)
        )
        #: Current isoline membership (source -> position), kept for the
        #: prediction path's retraction decisions.
        self._members: Dict[int, Vec] = {}

    @property
    def cache_size(self) -> int:
        return len(self._sink_cache)

    @property
    def sink_reports(self) -> List[IsolineReport]:
        """The sink's current cached reports (insertion-ordered)."""
        return list(self._sink_cache.values())

    @property
    def reconstructor(self) -> Optional[SinkReconstructor]:
        """The incremental sink state (None before the first epoch)."""
        return self._reconstructor

    def epoch(self, network: SensorNetwork) -> EpochResult:
        """Run one sensing epoch and return the delta outcome."""
        costs = CostAccountant(network.n_nodes)
        if self._first_epoch:
            # The standing query is flooded once.
            disseminate_query(network, QUERY_BYTES, costs)
            self._first_epoch = False

        detection = detect_isoline_nodes(network, self.query, costs)
        current = {
            r.source: r
            for r in self._protocol._generate_reports(network, detection, costs)
        }

        predicted = heartbeats = staleness = tracks = 0
        if self._bank is None:
            new_reports: List[IsolineReport] = []
            suppressed = 0
            for source, report in current.items():
                previous = self._node_state.get(source)
                if previous is not None and self._unchanged(previous, report):
                    suppressed += 1
                    continue
                self._node_state[source] = report
                new_reports.append(report)

            retractions = [
                source for source in self._node_state if source not in current
            ]
            for source in retractions:
                del self._node_state[source]

            # Transmit deltas and retractions hop by hop (no
            # cross-filtering; see module docstring).
            delivered_reports, _ = _send_deltas(
                network, new_reports, retractions, costs
            )
            for r in delivered_reports:
                self._sink_cache[r.source] = r
            for source in retractions:
                self._sink_cache.pop(source, None)
            cache_updates = delivered_reports
            cache_removed = retractions
        else:
            bank = self._bank
            with profiling.stage("prediction.predict"):
                bank.advance()
            with profiling.stage("prediction.decide"):
                new_reports, predicted, heartbeats = bank.decide(current)
                leaving = [
                    (s, pos)
                    for s, pos in self._members.items()
                    if s not in current
                ]
                retractions = bank.decide_retractions(leaving, current)
            self._members = {s: r.position for s, r in current.items()}
            suppressed = predicted
            delivered_reports, delivered_retractions = _send_deltas(
                network, new_reports, retractions, costs
            )
            # The mirrored fold: only what the sink actually received
            # mutates the bank, so node and sink stay in lockstep.
            with profiling.stage("prediction.update"):
                bank.apply(delivered_reports, delivered_retractions)
            with profiling.stage("prediction.extrapolate"):
                new_cache = bank.extrapolated(network.bounds)
            prev_cache = self._sink_cache
            cache_removed = [k for k in prev_cache if k not in new_cache]
            cache_updates = [
                r
                for k, r in new_cache.items()
                if prev_cache.get(k) != r
            ]
            self._sink_cache = new_cache
            staleness = bank.max_age
            tracks = len(bank)

        costs.reports_generated = len(new_reports)
        costs.reports_delivered = len(delivered_reports)

        sink_node = network.nodes[network.sink_index]
        sink_value = sink_node.value if sink_node.can_sense else None
        if self._reconstructor is None:
            self._reconstructor = SinkReconstructor(
                self.query.isolevels, network.bounds
            )
        contour_map = self._reconstructor.reconstruct(
            list(self._sink_cache.values()), sink_value=sink_value
        )
        return EpochResult(
            contour_map=contour_map,
            costs=costs,
            new_reports=new_reports,
            retractions=retractions,
            suppressed=suppressed,
            cached_reports=len(self._sink_cache),
            delivered_reports=delivered_reports,
            sink_value=sink_value,
            predicted=predicted,
            heartbeats=heartbeats,
            staleness=staleness,
            tracks=tracks,
            cache_updates=cache_updates,
            cache_removed=cache_removed,
        )

    def _unchanged(self, previous: IsolineReport, report: IsolineReport) -> bool:
        """True when the new report carries no news worth transmitting."""
        if previous.isolevel != report.isolevel:
            return False
        return (
            angle_between(previous.direction, report.direction)
            <= self.angle_delta_rad
        )


def _send_deltas(
    network: SensorNetwork,
    reports: List[IsolineReport],
    retractions: List[int],
    costs: CostAccountant,
) -> Tuple[List[IsolineReport], List[int]]:
    """Carry one epoch's deltas and retractions to the sink.

    One store-and-forward epoch over the shared transport; relays charge
    no ops for delta frames.  Returns ``(delivered reports, delivered
    retraction sources)`` (a disconnected source transmits into the void
    either way).
    """
    frames = [(r.source, r.wire_bytes) for r in reports]
    frames += [(source, RETRACTION_BYTES) for source in retractions]
    arrived = forward_reports_to_sink(network, frames, costs, ops_per_forward=0)
    k = len(reports)
    return (
        [reports[i] for i in arrived if i < k],
        [retractions[i - k] for i in arrived if i >= k],
    )
