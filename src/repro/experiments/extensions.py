"""Extension experiments: beyond the paper's evaluation.

- :func:`run_lossy_links` -- the cost of the "perfect link layer"
  assumption: delivery rate and per-node energy under per-hop loss with
  MAC retransmissions (the mechanism the paper cites to justify the
  assumption).
- :func:`run_continuous_monitoring` -- epoch-delta Iso-Map over a
  multi-epoch drift scenario (the harbor's tides-then-storm timeline),
  versus re-running the snapshot protocol every epoch.
- :func:`run_localized_isomap` -- Iso-Map on positions from the
  distributed localization substrate (DV-hop + range refinement) instead
  of GPS, swept over the anchor fraction.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import FilterConfig, IsoMapProtocol
from repro.core.continuous import ContinuousIsoMap
from repro.energy import energy_from_costs
from repro.experiments.common import (
    ExperimentResult,
    PAPER_FILTER,
    PAPER_QUERY,
    default_levels,
    harbor_network,
)
from repro.field import CompositeField, GaussianBumpField, make_harbor_field
from repro.metrics import mapping_accuracy
from repro.network.faults import BernoulliLink, FaultPlan
from repro.network.localization import clear_localization, localize
from repro.network.transport import TransportConfig


def run_lossy_links(
    n: int = 2500,
    loss_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    max_retries: int = 3,
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    """Delivery and energy under per-hop loss, with and without ARQ.

    Each attempt on a hop is lost with probability ``loss``
    (:class:`BernoulliLink` in a :class:`FaultPlan` seeded per
    deployment); "no ARQ" is a single attempt per hop, "ARQ" allows
    ``max_retries`` retransmissions.
    """
    field = make_harbor_field()
    result = ExperimentResult(
        experiment_id="ext_lossy_links",
        title="lossy links: delivery rate and per-node energy",
        columns=[
            "loss_rate",
            "delivered_no_arq",
            "delivered_arq",
            "energy_mj_no_arq",
            "energy_mj_arq",
        ],
        notes=f"n={n}, ARQ budget {max_retries} retries; delivered relative to lossless",
    )
    for loss in loss_rates:
        per = {"d0": [], "d1": [], "e0": [], "e1": []}
        for seed in seeds:
            net = harbor_network(n, "random", seed=seed, field=field)
            baseline = IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(net)
            base_count = max(1, len(baseline.delivered_reports))
            plan = (
                FaultPlan(seed=seed, link=BernoulliLink(1.0 - loss))
                if loss > 0
                else None
            )
            for tag, retries in (("0", 0), ("1", max_retries)):
                iso = IsoMapProtocol(
                    PAPER_QUERY,
                    PAPER_FILTER,
                    fault_plan=plan,
                    transport_config=TransportConfig(max_retries=retries),
                ).run(net)
                per["d" + tag].append(len(iso.delivered_reports) / base_count)
                per["e" + tag].append(
                    energy_from_costs(iso.costs).per_node_mean_mj()
                )
        k = len(seeds)
        result.add_row(
            loss_rate=loss,
            delivered_no_arq=sum(per["d0"]) / k,
            delivered_arq=sum(per["d1"]) / k,
            energy_mj_no_arq=sum(per["e0"]) / k,
            energy_mj_arq=sum(per["e1"]) / k,
        )
    return result


def run_continuous_monitoring(
    n: int = 2500,
    epochs: int = 6,
    seed: int = 1,
    raster: int = 60,
) -> ExperimentResult:
    """Epoch-delta monitoring through a drift-then-storm timeline.

    Epochs 0-2: calm field (steady state).  Epoch 3: a storm deposits a
    silt mound on the channel.  Epochs 4-5: the new steady state.  The
    continuous monitor's per-epoch report traffic is compared with
    re-running the snapshot protocol (unfiltered, so both carry the same
    information) each epoch.
    """
    calm = make_harbor_field()
    storm = CompositeField(
        calm.bounds,
        [calm, GaussianBumpField(calm.bounds, 0.0, [(-3.0, (28.0, 26.0), 4.0)])],
    )
    levels = default_levels()
    net = harbor_network(n, "random", seed=seed, field=calm)
    monitor = ContinuousIsoMap(PAPER_QUERY)
    snapshot = IsoMapProtocol(PAPER_QUERY, FilterConfig.disabled())

    result = ExperimentResult(
        experiment_id="ext_continuous",
        title="continuous (delta) vs snapshot per-epoch traffic",
        columns=[
            "epoch",
            "event",
            "delta_kb",
            "snapshot_kb",
            "delta_reports",
            "delta_accuracy",
        ],
        notes=f"n={n}; storm hits at epoch 3",
    )
    for epoch in range(epochs):
        event = "calm"
        if epoch == 3:
            net.resense(storm)
            event = "storm"
        elif epoch > 3:
            event = "post-storm"
        field_now = storm if epoch >= 3 else calm

        delta = monitor.epoch(net)
        snap = snapshot.run(net)
        result.add_row(
            epoch=epoch,
            event=event,
            delta_kb=delta.costs.total_traffic_kb(),
            snapshot_kb=snap.costs.total_traffic_kb(),
            delta_reports=len(delta.new_reports),
            delta_accuracy=mapping_accuracy(
                field_now, delta.contour_map, levels, raster, raster
            ),
        )
    return result


def run_localized_isomap(
    n: int = 2500,
    anchor_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    range_noise: float = 0.05,
    seeds: Sequence[int] = (1, 2),
    raster: int = 60,
) -> ExperimentResult:
    """Iso-Map on localized (not GPS) positions, vs the anchor budget.

    Runs the DV-hop + refinement substrate, feeds its estimates into the
    application's position fields, and measures the resulting contour
    map against GPS-truth ground.  The localisation error a given anchor
    budget buys translates directly into mapping accuracy (compare the
    position-noise ablation).
    """
    import random as _random

    field = make_harbor_field()
    levels = default_levels()
    result = ExperimentResult(
        experiment_id="ext_localization",
        title="Iso-Map on distributed localization vs anchor fraction",
        columns=[
            "anchor_fraction",
            "loc_mean_err",
            "loc_median_err",
            "coverage",
            "accuracy",
            "accuracy_gps",
        ],
        notes=f"n={n}, {range_noise:.0%} ranging noise, DV-hop + 30 GN sweeps",
    )
    for frac in anchor_fractions:
        per = {"err": [], "med": [], "cov": [], "acc": [], "gps": []}
        for seed in seeds:
            net = harbor_network(n, "random", seed=seed, field=field)
            gps = IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(net)
            per["gps"].append(
                mapping_accuracy(field, gps.contour_map, levels, raster, raster)
            )
            loc = localize(
                net,
                anchor_fraction=frac,
                range_noise=range_noise,
                rng=_random.Random(seed + 100),
            )
            iso = IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(net)
            clear_localization(net)
            per["err"].append(loc.mean_error)
            ordered = sorted(loc.errors)
            per["med"].append(ordered[len(ordered) // 2] if ordered else 0.0)
            per["cov"].append(loc.coverage)
            per["acc"].append(
                mapping_accuracy(field, iso.contour_map, levels, raster, raster)
            )
        k = len(seeds)
        result.add_row(
            anchor_fraction=frac,
            loc_mean_err=sum(per["err"]) / k,
            loc_median_err=sum(per["med"]) / k,
            coverage=sum(per["cov"]) / k,
            accuracy=sum(per["acc"]) / k,
            accuracy_gps=sum(per["gps"]) / k,
        )
    return result


def run_epoch_latency(
    n: int = 2500,
    sides: Sequence[int] = (15, 25, 35, 50),
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    """Collection-epoch latency under the TAG slotted schedule.

    A derived quantity the paper leaves implicit: with one slot per tree
    level and spatial-reuse TDMA inside each slot, how long does one
    contour-mapping epoch occupy the channel?  Iso-Map's thin report
    stream drains in a fraction of the full-collection protocols' time --
    latency tracks the funnel airtime near the sink.
    """
    from repro.baselines import INLRProtocol, TinyDBProtocol
    from repro.experiments.fig14_traffic import _scaled_harbor
    from repro.network.schedule import epoch_latency

    levels = default_levels()
    result = ExperimentResult(
        experiment_id="ext_latency",
        title="collection-epoch latency (s) vs network size",
        columns=["field_side", "n_nodes", "isomap_s", "tinydb_s", "inlr_s"],
        notes="one slot per tree level, spatial-reuse TDMA, CC1000 38.4 kbps",
    )
    for side in sides:
        n_side = side * side
        field = _scaled_harbor(side)
        per = {"iso": [], "tdb": [], "inl": []}
        for seed in seeds:
            rn = harbor_network(n_side, "random", seed=seed, field=field)
            iso = IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(rn)
            per["iso"].append(epoch_latency(rn, iso.costs).epoch_seconds)
            gn = harbor_network(n_side, "grid", seed=seed, field=field)
            tdb = TinyDBProtocol(levels).run(gn)
            per["tdb"].append(epoch_latency(gn, tdb.costs).epoch_seconds)
            inl = INLRProtocol(levels).run(gn)
            per["inl"].append(epoch_latency(gn, inl.costs).epoch_seconds)
        k = len(seeds)
        result.add_row(
            field_side=side,
            n_nodes=n_side,
            isomap_s=sum(per["iso"]) / k,
            tinydb_s=sum(per["tdb"]) / k,
            inlr_s=sum(per["inl"]) / k,
        )
    return result


def run_network_lifetime(
    n: int = 2500,
    battery_j: float = 5.0,
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    """Network lifetime under periodic contour mapping.

    The classic WSN metric the paper's energy argument implies: with a
    fixed battery per node, how many mapping epochs until (a) the first
    node dies (the hotspot bound -- nodes adjacent to the sink relay
    everything) and (b) the average node would die.  Derived
    deterministically from one epoch's per-node energy, since the
    protocols are stateless across epochs.
    """
    from repro.baselines import INLRProtocol, TinyDBProtocol

    field = make_harbor_field()
    levels = default_levels()
    result = ExperimentResult(
        experiment_id="ext_lifetime",
        title="mapping epochs until node exhaustion",
        columns=[
            "protocol",
            "epochs_first_death",
            "epochs_mean_node",
            "hotspot_ratio",
        ],
        notes=f"n={n}, {battery_j} J per node; hotspot ratio = max/mean per-node energy",
    )
    runs = {"iso-map": [], "tinydb": [], "inlr": []}
    for seed in seeds:
        rn = harbor_network(n, "random", seed=seed, field=field)
        runs["iso-map"].append(
            energy_from_costs(IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(rn).costs)
        )
        gn = harbor_network(n, "grid", seed=seed, field=field)
        runs["tinydb"].append(
            energy_from_costs(TinyDBProtocol(levels).run(gn).costs)
        )
        runs["inlr"].append(energy_from_costs(INLRProtocol(levels).run(gn).costs))
    for name, reports in runs.items():
        first = sum(battery_j / r.per_node_max_j for r in reports) / len(reports)
        mean = sum(battery_j / r.per_node_mean_j for r in reports) / len(reports)
        ratio = sum(r.per_node_max_j / r.per_node_mean_j for r in reports) / len(
            reports
        )
        result.add_row(
            protocol=name,
            epochs_first_death=first,
            epochs_mean_node=mean,
            hotspot_ratio=ratio,
        )
    return result


def run_sink_placement(
    n: int = 2500,
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    """Sink placement: centre vs corner.

    The collection tree funnels every report through the sink's
    neighbourhood, so the sink's position shapes both the path lengths
    (total traffic) and the hotspot (max per-node energy).  A corner
    sink roughly doubles the mean hop count and deepens the funnel --
    the deployment guidance a harbor operator would want.
    """
    field = make_harbor_field()
    result = ExperimentResult(
        experiment_id="ext_sink_placement",
        title="sink placement: centre vs corner",
        columns=[
            "placement",
            "diameter_hops",
            "traffic_kb",
            "hotspot_max_mj",
            "mean_mj",
        ],
        notes=f"n={n}, Iso-Map at the paper's operating point",
    )
    for placement in ("centre", "corner"):
        per = {"d": [], "t": [], "h": [], "m": []}
        for seed in seeds:
            net = harbor_network(n, "random", seed=seed, field=field)
            if placement == "corner":
                corner = (net.bounds.xmin, net.bounds.ymin)
                from repro.geometry import dist

                pts = net.positions_array.tolist()
                sink = min(range(net.n_nodes), key=lambda i: dist(pts[i], corner))
                net.sink_index = sink
                net.rebuild_tree()
            iso = IsoMapProtocol(PAPER_QUERY, PAPER_FILTER).run(net)
            energy = energy_from_costs(iso.costs)
            per["d"].append(net.diameter_hops)
            per["t"].append(iso.costs.total_traffic_kb())
            per["h"].append(energy.per_node_max_j * 1e3)
            per["m"].append(energy.per_node_mean_j * 1e3)
        k = len(seeds)
        result.add_row(
            placement=placement,
            diameter_hops=sum(per["d"]) / k,
            traffic_kb=sum(per["t"]) / k,
            hotspot_max_mj=sum(per["h"]) / k,
            mean_mj=sum(per["m"]) / k,
        )
    return result
