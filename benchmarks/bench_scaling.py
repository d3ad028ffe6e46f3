"""Million-node scaling bench: tiled-epoch feasibility with bounded memory.

Produces ``BENCH_scaling.json``: one faulted, tile-sharded Iso-Map epoch
per size from the paper's 2500-node operating point up to n = 10^6, each
measured in a *fresh spawned process* so its ``peak_rss_mb`` is the
point's own high-water mark (a forked child would inherit the parent's).
TinyDB rides along up to n = 40000, past which its n x sqrt(n)-hop epoch
is infeasible and its columns go null.  The fitted log-log exponent of
the Iso-Map report count is the headline (O(sqrt(n)) predicts 0.5).

Before any timing, the bench re-proves the tiling contract at the
paper's operating point: the tiled epoch must be bit-identical to the
untiled one for two tile layouts.

Each point also times one ``detect_isoline_nodes`` call on the built
network (``detect_s``, with its own ``CostAccountant``), so the
detection layer has a number at every n.

``quick_report()`` runs the verification and the CI sizes that
``benchmarks/gates.py`` gates: report counts and diameters are fully
deterministic per (n, seed), so they must equal the committed points,
and peak RSS must stay under the committed ceiling (timings are
machine-dependent and not gated).  ``full_report()`` is what
``python benchmarks/record.py scaling`` writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from typing import Any, Dict, List, Optional

import record  # puts src/ on sys.path

from repro.baselines import TinyDBProtocol
from repro.core.detection import detect_isoline_nodes
from repro.energy import energy_from_costs
from repro.experiments.common import (
    PAPER_QUERY,
    default_levels,
    harbor_network,
    run_isomap,
)
from repro.experiments.fig14_traffic import (
    TINYDB_MAX_N,
    _loglog_slope,
    auto_tile_size,
)
from repro.field import make_harbor_field
from repro.network import CostAccountant
from repro.network.faults import FaultPlan

#: Full sweep sizes (density 1: side = sqrt(n)).
FULL_NS = (2500, 10000, 40000, 100000, 1000000)

#: CI smoke sizes.
QUICK_NS = (2500, 10000)

#: Shared operating point of every measured epoch.
FAULT_INTENSITY = 0.5
SEED = 1

#: Memory gate for the quick points: n = 10000 fits comfortably under
#: this; a regression that re-materialises a global epoch or leaks the
#: skeleton cache blows through it.
QUICK_RSS_CEILING_MB = 600.0


# ----------------------------------------------------------------------
# Verification: tiled == untiled at the paper's operating point
# ----------------------------------------------------------------------


def _epoch_evidence(n: int, tile_size: Optional[float]):
    net = harbor_network(n, "random", seed=SEED, field=make_harbor_field(side=round(math.sqrt(n))))
    run = run_isomap(
        net, fault_plan=FaultPlan.moderate(seed=5), tile_size=tile_size
    )
    costs = run.costs
    return (
        hashlib.sha256(costs.tx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.rx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.ops.tobytes()).hexdigest(),
        dataclasses.asdict(run.degradation),
    )


def verify_tiling(n: int = 2500) -> None:
    """Assert tiled epochs are bit-identical to untiled for two layouts."""
    base = _epoch_evidence(n, None)
    for tile_size in (10.0, 18.0):
        assert _epoch_evidence(n, tile_size) == base, (
            f"tile_size={tile_size} diverged from the untiled epoch at n={n}"
        )


# ----------------------------------------------------------------------
# One measured point (runs inside a fresh spawned process)
# ----------------------------------------------------------------------


def _scaling_point(n: int, fault_intensity: float, seed: int) -> Dict[str, Any]:
    side = round(math.sqrt(n))
    field = make_harbor_field(side=side)
    plan = (
        FaultPlan.at_intensity(fault_intensity, seed=seed)
        if fault_intensity > 0
        else None
    )
    tile_size = auto_tile_size(side)
    t0 = time.perf_counter()
    net = harbor_network(n, "random", seed=seed, field=field)
    topology_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    detect_isoline_nodes(net, PAPER_QUERY, CostAccountant(net.n_nodes))
    detect_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    iso = run_isomap(net, fault_plan=plan, tile_size=tile_size)
    epoch_s = time.perf_counter() - t0
    out: Dict[str, Any] = {
        "n": n,
        "side": side,
        "tile_size": round(tile_size, 3),
        "diameter_hops": int(net.diameter_hops),
        "isomap_reports": int(iso.costs.reports_generated),
        "isomap_kb": round(iso.costs.total_traffic_kb(), 3),
        "isomap_mj": round(energy_from_costs(iso.costs).per_node_mean_mj(), 4),
        "tinydb_kb": None,
        "tinydb_mj": None,
        "topology_s": round(topology_s, 2),
        "detect_s": round(detect_s, 3),
        "epoch_s": round(epoch_s, 2),
    }
    if n <= TINYDB_MAX_N:
        grid = harbor_network(n, "grid", seed=seed, field=field)
        tdb = TinyDBProtocol(default_levels(), fault_plan=plan).run(grid)
        out["tinydb_kb"] = round(tdb.costs.total_traffic_kb(), 3)
        out["tinydb_mj"] = round(
            energy_from_costs(tdb.costs).per_node_mean_mj(), 4
        )
    return out


def _point_worker(conn, n: int, fault_intensity: float, seed: int) -> None:
    """Spawn target: measure one point and report it with its peak RSS."""
    try:
        out = _scaling_point(n, fault_intensity, seed)
        out["peak_rss_mb"] = round(record.peak_rss_mb(), 1)
        conn.send(out)
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        conn.send({"error": f"n={n}: {exc!r}"})
    finally:
        conn.close()


def measure_points(ns) -> List[Dict[str, Any]]:
    points = []
    for n in ns:
        print(f"  n={n} ...", flush=True)
        out = record.run_isolated(_point_worker, n, FAULT_INTENSITY, SEED)
        if "error" in out:
            raise RuntimeError(out["error"])
        print(
            f"    reports={out['isomap_reports']} detect={out['detect_s']}s "
            f"epoch={out['epoch_s']}s peak_rss={out['peak_rss_mb']}MB"
        )
        points.append(out)
    return points


def fitted_exponent(points: List[Dict[str, Any]]) -> float:
    return round(
        _loglog_slope(
            [p["n"] for p in points], [p["isomap_reports"] for p in points]
        ),
        4,
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def quick_report() -> Dict[str, Any]:
    """The verification, then the CI-size section, shaped like the
    committed report."""
    print("verifying tiled == untiled at n=2500 (two layouts) ...")
    verify_tiling()
    points = measure_points(QUICK_NS)
    return {
        "quick": {
            "rss_ceiling_mb": QUICK_RSS_CEILING_MB,
            "fitted_report_exponent": fitted_exponent(points),
            "points": points,
        }
    }


def full_report() -> Dict[str, Any]:
    """The committed report: full sizes plus the CI-size section."""
    quick = quick_report()
    points = measure_points(FULL_NS)
    return {
        **record.versions(),
        "config": {
            "seed": SEED,
            "fault_intensity": FAULT_INTENSITY,
            "tile_rule": "auto: max(1.5, side / 8)",
            "tinydb_max_n": TINYDB_MAX_N,
            "memory": "peak_rss_mb per point in a fresh spawned process",
        },
        "fitted_report_exponent": fitted_exponent(points),
        "points": points,
        **quick,
    }
