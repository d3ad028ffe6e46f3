"""Benchmark of the SIMPLIFIED serving stream -> ``BENCH_simplify.json``.

Two sections:

- ``kernels``: the simplifier pair (the scalar reference in
  ``tests/geometry/simplify_reference.py`` vs vectorized Douglas-Peucker,
  open polyline and closed ring) -- asserted **bit-identical** before
  anything is timed, the repo's kernel-pairing convention;
- ``serving``: the steady harbor session run end to end with the
  SIMPLIFIED stream enabled -- cumulative delta bytes a plain vs a
  simplified subscriber receives, final snapshot sizes, the record
  selection wall-clock, and the **measured** Hausdorff deviation (max
  record distance to the retained span of its chain, in field units and
  50-raster grid cells).

The committed full section is the PR's acceptance record: on the steady
scenario at tolerance 1.0 the byte ratio clears **5x** with the
deviation inside **one grid cell**.

``quick_report()`` runs the CI sizes that ``benchmarks/gates.py`` gates:
each kernel at no less than half its committed speedup, the byte ratio
at no less than 90% of the committed one, the measured deviation within
the tolerance (the hard guarantee), and the committed *full* section at
the acceptance bar (ratio >= 5x at <= 1 grid cell).  ``full_report()``
is what ``python benchmarks/record.py simplify`` writes.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List

import record  # puts src/ and the repo root on sys.path

from repro.geometry.simplify import simplify_polyline, simplify_ring
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.wire import (
    encode_snapshot,
    select_simplified_records,
    simplified_selection_stats,
)
from tests.geometry.simplify_reference import (
    simplify_polyline_reference,
    simplify_ring_reference,
)

#: Serving density of the committed acceptance numbers (record reduction
#: grows with node density; 5000 nodes on the 50x50 harbor clears 5x).
FULL_NODES = 5000
QUICK_NODES = 2500  # the paper's density-1 deployment; CI-sized epochs

TOLERANCE = 1.0  # field units; one 50-raster grid cell on the harbor
RASTER = 50


# ----------------------------------------------------------------------
# Kernel workloads (deterministic)
# ----------------------------------------------------------------------


def _wiggly_polyline(n: int, seed: int = 5) -> List:
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        x = 100.0 * k / n
        pts.append((x, 10.0 * math.sin(0.3 * x) + rng.uniform(-0.4, 0.4)))
    return pts


def _noisy_ring(n: int, seed: int = 7) -> List:
    """A 4-lobed ring with sub-tolerance noise: realistic dense isoline
    sampling where DP actually drops vertices (spans long enough for the
    vectorized distance pass to pay off)."""
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        th = 2.0 * math.pi * k / n
        r = 30.0 + 6.0 * math.sin(4.0 * th) + rng.uniform(-0.2, 0.2)
        pts.append((50.0 + r * math.cos(th), 50.0 + r * math.sin(th)))
    return pts


def measure_kernels(quick: bool) -> Dict[str, Dict]:
    line_n = 2000 if quick else 20000
    ring_n = 4000 if quick else 10000
    reps = 3 if quick else 5

    kernels: Dict[str, Dict] = {}

    line = _wiggly_polyline(line_n)
    assert simplify_polyline(line, 0.5) == simplify_polyline_reference(line, 0.5)
    kernels["simplify_polyline"] = record.kernel_entry(
        "simplify_polyline_reference (scalar per-vertex distance loop)",
        "simplify_polyline (per-span NumPy distance pass)",
        record.best_of(lambda: simplify_polyline_reference(line, 0.5), reps),
        record.best_of(lambda: simplify_polyline(line, 0.5), reps + 2),
    )

    ring = _noisy_ring(ring_n)
    assert simplify_ring(ring, 0.5) == simplify_ring_reference(ring, 0.5)
    kernels["simplify_ring"] = record.kernel_entry(
        "simplify_ring_reference (scalar arcs at the ring anchors)",
        "simplify_ring (vectorized arcs, same split)",
        record.best_of(lambda: simplify_ring_reference(ring, 0.5), reps),
        record.best_of(lambda: simplify_ring(ring, 0.5), reps + 2),
    )
    return kernels


# ----------------------------------------------------------------------
# Serving section
# ----------------------------------------------------------------------


def measure_serving(n_nodes: int, epochs: int, quick: bool) -> Dict[str, Any]:
    """Run the steady harbor session with both streams and measure."""
    config = SessionConfig(
        query_id="bench-simplify",
        n_nodes=n_nodes,
        seed=1,
        field="harbor",
        scenario="steady",
        value_lo=6.0,
        value_hi=12.0,
        granularity=2.0,
        epsilon_fraction=0.05,
        radio_range=1.5,
        simplify_tolerance=TOLERANCE,
    )
    compute = SessionCompute(config)
    bytes_plain = bytes_simplified = 0
    out: Dict[str, Any] = {}
    for epoch in range(1, epochs + 1):
        out = compute.epoch(epoch)
        bytes_plain += len(out["delta"])
        bytes_simplified += len(out["s_delta"])
    state = out["records"]
    dequantize = compute.codec.dequantize_position
    stats = simplified_selection_stats(state, dequantize, TOLERANCE)
    kept = select_simplified_records(state, dequantize, TOLERANCE)
    assert stats["max_deviation"] <= TOLERANCE, (
        "tolerance guarantee violated: "
        f"{stats['max_deviation']} > {TOLERANCE}"
    )
    select_ms = record.best_of(
        lambda: select_simplified_records(state, dequantize, TOLERANCE),
        3 if quick else 5,
    )
    cell = 50.0 / RASTER  # harbor field is 50x50
    return {
        "scenario": "steady",
        "n_nodes": n_nodes,
        "epochs": epochs,
        "tolerance": TOLERANCE,
        "records_full": stats["records_full"],
        "records_kept": len(kept),
        "delta_bytes_plain": bytes_plain,
        "delta_bytes_simplified": bytes_simplified,
        "bytes_ratio": round(bytes_plain / bytes_simplified, 2),
        "snapshot_bytes_plain": len(
            encode_snapshot(epochs, out["records"], out["sink"])
        ),
        "snapshot_bytes_simplified": len(
            encode_snapshot(epochs, out["s_records"], out["sink"])
        ),
        "hausdorff_dev": round(stats["max_deviation"], 4),
        "hausdorff_cells": round(stats["max_deviation"] / cell, 4),
        "select_ms": round(select_ms, 3),
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def quick_report() -> Dict[str, Any]:
    """The CI-size section, shaped like the committed report."""
    return {
        "quick": {
            "n": QUICK_NODES,
            "kernels": measure_kernels(quick=True),
            "serving": measure_serving(QUICK_NODES, epochs=3, quick=True),
        }
    }


def full_report() -> Dict[str, Any]:
    """The committed report: full sizes plus the CI-size section."""
    quick = quick_report()
    return record.report(
        FULL_NODES,
        kernels=measure_kernels(quick=False),
        serving=measure_serving(FULL_NODES, epochs=6, quick=False),
        **quick,
    )
