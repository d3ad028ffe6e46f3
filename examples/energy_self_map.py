#!/usr/bin/env python
"""The network maps its own residual energy (eScan's application, done
with Iso-Map).

eScan [28] -- one of the paper's baselines -- exists to build contour
maps of the network's *residual energy* so operators can spot draining
regions.  This example closes the loop with Iso-Map itself:

1. run several contour-mapping epochs over the harbor bathymetry and
   accumulate each node's real energy spend from the cost accountant;
2. turn the per-node residual batteries into a scalar field
   (inverse-distance interpolation over the node positions);
3. run Iso-Map ON THAT FIELD -- the network charts its own energy
   hotspot, which sits around the sink where the collection tree
   funnels every report.

Run:  python examples/energy_self_map.py
"""

import numpy as np

from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.energy import energy_from_costs
from repro.field import ScatteredField, make_harbor_field
from repro.field.contours import isolevels_for
from repro.network import SensorNetwork
from repro.viz import render_band_map

#: Initial battery budget per node, in Joules (2 AA cells ~ 20 kJ; we use
#: a small budget so a handful of epochs shows structure).
BATTERY_J = 0.05

EPOCHS = 8


def main() -> None:
    field = make_harbor_field()
    network = SensorNetwork.random_deploy(field, 2500, radio_range=1.5, seed=5)
    query = ContourQuery(6.0, 12.0, 2.0)
    protocol = IsoMapProtocol(query, FilterConfig(30.0, 4.0))

    spent = np.zeros(network.n_nodes)
    for _ in range(EPOCHS):
        result = protocol.run(network)
        spent += energy_from_costs(result.costs).total_j

    residual_pct = 100.0 * np.maximum(0.0, BATTERY_J - spent) / BATTERY_J
    print(
        f"after {EPOCHS} mapping epochs: residual battery "
        f"min {residual_pct.min():.1f}% / mean {residual_pct.mean():.1f}% / "
        f"max {residual_pct.max():.1f}%"
    )
    sink = network.sink_index
    nbrs = network.csr.neighbors(sink)
    funnel = np.concatenate(([sink], nbrs[network.alive[nbrs]]))
    print(f"sink-adjacent funnel: node {sink} neighbourhood at "
          f"{residual_pct[funnel].mean():.1f}%")

    # A single node's battery gauge is noisy (whether it happened to be
    # an isoline node or a relay is a per-epoch lottery), so nodes gossip
    # battery levels with their 1-hop neighbours and report the
    # neighbourhood average -- two gossip rounds smooth the lottery while
    # keeping the spatial structure.
    csr = network.csr
    degree = np.diff(csr.indptr)
    row = np.repeat(np.arange(network.n_nodes), degree)
    smoothed = residual_pct.copy()
    for _ in range(2):
        clique_sum = smoothed + np.bincount(
            row, weights=smoothed[csr.indices], minlength=network.n_nodes
        )
        smoothed = clique_sum / (degree + 1)

    # Residual battery is heavily skewed (most nodes near-full, drained
    # stripes along the worked isolines, a basin at the funnel), so chart
    # percentile strata: the p5 / p30 levels outline the drained regions.
    p5, p30 = np.percentile(smoothed, [5, 30])
    granularity = max(0.5, float(p30 - p5))
    levels = isolevels_for(float(p5), float(p30), granularity)

    # The network senses its OWN energy: each node's reading is the
    # gossiped battery average; the field is their interpolation.
    positions = [tuple(p) for p in network.positions_array.tolist()]
    energy_field = ScatteredField(network.bounds, positions, list(smoothed))
    energy_net = SensorNetwork(
        energy_field,
        positions,
        radio_range=network.radio_range,
        sink_index=network.sink_index,
    )
    # Straddle detection (the adaptive extension) instead of the fixed
    # border: the basin walls are steep in value, so the fixed epsilon
    # band would catch almost nobody on them.
    equery = ContourQuery(
        levels[0], levels[-1], granularity, detection_mode="straddle"
    )
    emap = IsoMapProtocol(equery, FilterConfig(30.0, 4.0)).run(energy_net)

    print(
        f"\nenergy self-map: {len(emap.delivered_reports)} reports, "
        f"{emap.costs.total_traffic_kb():.1f} KB"
    )
    print("residual-energy contour map (darker = fuller battery).  The light")
    print("regions are where the network spends itself: the basin around the")
    print("sink funnel, plus stripes along the worked bathymetry isolines")
    print("where isoline nodes pay for probes and reports every epoch:\n")
    print(render_band_map(emap.contour_map, nx=64, ny=26))


if __name__ == "__main__":
    main()
