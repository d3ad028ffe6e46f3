"""Benchmark of model-predictive suppression -> ``BENCH_predict.json``.

Three sections:

- ``kernels``: the predictor kernel pairs (scalar reference in
  ``tests/core/prediction_reference.py`` vs the bank's batch kernel --
  dead-reckoning advance, own-track innovation gate, all-pairs
  join-coverage gate) asserted **bit-identical** before anything is
  timed, the repo's kernel-pairing convention;
- ``suppression``: the committed acceptance point run end to end --
  the ``front`` steady-drift timeline (rigid translation at 2.5% of
  span per epoch) at n=600 with and without prediction from the same
  deployment seed, reporting the delivered-report reduction, the
  Hausdorff penalty vs the true isolines (field units and
  sqrt(n)-raster grid cells), observed staleness, and per-epoch
  predictor wall-clock;
- ``verify``: untimed -- re-asserts the dead-reckoning contract
  (``prediction=off`` byte-identical to the committed golden epoch
  streams) and the kernel-pair agreement on the measured workload.

The committed full section is the PR's acceptance record: reduction
**>= 2x** delivered reports per warm epoch at a mean penalty **<= 1
grid cell**.

``quick_report()`` runs the verify section and the CI sizes that
``benchmarks/gates.py`` gates: each kernel at no less than half its
committed speedup, the reduction at no less than 90% of the committed
one, staleness within the heartbeat, and the committed *full* section
at the acceptance bar (>= 2x at <= 1 cell).  ``full_report()`` is what
``python benchmarks/record.py predict`` writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from typing import Any, Dict, List

import record  # puts src/ and the repo root on sys.path

import numpy as np

from repro.core.prediction import (
    advance_tracks_batch,
    join_accept_batch,
    track_accept_batch,
)
from repro.metrics.hausdorff import mean_isoline_hausdorff
from repro.serving.session import SessionCompute, SessionConfig, field_for_epoch
from tests.core.prediction_reference import (
    advance_tracks_reference,
    join_accept_reference,
    track_accept_reference,
)

GOLDEN = record.ROOT / "tests" / "core" / "golden" / "continuous_streams.json"

#: The committed acceptance point: n=600 on the front timeline, seed 7,
#: tolerance 1.1 field units, heartbeat 8, warm window epochs 6..16.
FULL_NODES = 600
FULL_EPOCHS = 16
FULL_WARM = 6

#: CI smoke point: same scenario, smaller/shorter (checked against a
#: looser floor -- the acceptance bar is enforced on the committed full
#: section).
QUICK_NODES = 400
QUICK_EPOCHS = 8
QUICK_WARM = 4

TOLERANCE = 1.1
HEARTBEAT = 8
SEED = 7


# ----------------------------------------------------------------------
# Kernel workloads (deterministic)
# ----------------------------------------------------------------------


def _track_arrays(n: int, seed: int = 11) -> Dict[str, np.ndarray]:
    rng = random.Random(seed)
    out = {
        "x": [rng.uniform(0.0, 20.0) for _ in range(n)],
        "y": [rng.uniform(0.0, 20.0) for _ in range(n)],
        "vx": [rng.uniform(-0.5, 0.5) for _ in range(n)],
        "vy": [rng.uniform(-0.5, 0.5) for _ in range(n)],
        "theta": [rng.uniform(-math.pi, math.pi) for _ in range(n)],
        "omega": [rng.uniform(-0.2, 0.2) for _ in range(n)],
        "level": [rng.choice((14.0, 16.0)) for _ in range(n)],
        "age": [rng.randrange(0, 10) for _ in range(n)],
    }
    return {k: np.asarray(v) for k, v in out.items()}


def measure_kernels(quick: bool) -> Dict[str, Dict]:
    n = 2000 if quick else 20000
    n_join = 300 if quick else 1200
    reps = 3 if quick else 5

    kernels: Dict[str, Dict] = {}
    t = _track_arrays(n)
    obs = _track_arrays(n, seed=13)

    ref = advance_tracks_reference(
        t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
    )
    fast = advance_tracks_batch(
        t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
    )
    assert all(list(r) == list(f) for r, f in zip(ref, fast))
    kernels["advance_tracks"] = record.kernel_entry(
        "advance_tracks_reference (scalar dead-reckoning loop)",
        "advance_tracks_batch (NumPy p+v, wrapped theta+omega)",
        record.best_of(
            lambda: advance_tracks_reference(
                t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
            ),
            reps,
        ),
        record.best_of(
            lambda: advance_tracks_batch(
                t["x"], t["y"], t["vx"], t["vy"], t["theta"], t["omega"]
            ),
            reps + 2,
        ),
    )

    gate_args = (
        obs["x"], obs["y"], obs["theta"], obs["level"],
        t["x"], t["y"], t["theta"], t["level"], t["age"],
        TOLERANCE * TOLERANCE, math.radians(35.0), HEARTBEAT,
    )
    ra, rw = track_accept_reference(*gate_args)
    fa, fw = track_accept_batch(*gate_args)
    assert list(ra) == list(fa) and list(rw) == list(fw)
    kernels["track_accept"] = record.kernel_entry(
        "track_accept_reference (scalar innovation gate)",
        "track_accept_batch (vectorized distance/angle/level gate)",
        record.best_of(lambda: track_accept_reference(*gate_args), reps),
        record.best_of(lambda: track_accept_batch(*gate_args), reps + 2),
    )

    j = _track_arrays(n_join, seed=17)
    tr = _track_arrays(n_join, seed=19)
    join_args = (
        j["x"], j["y"], j["theta"], j["level"],
        tr["x"], tr["y"], tr["theta"], tr["level"], tr["age"],
        TOLERANCE * TOLERANCE, math.radians(35.0), HEARTBEAT,
    )
    ra, rc = join_accept_reference(*join_args)
    fa, fc = join_accept_batch(*join_args)
    assert list(ra) == list(fa) and list(rc) == list(fc)
    kernels["join_accept"] = record.kernel_entry(
        "join_accept_reference (scalar all-pairs coverage scan)",
        "join_accept_batch (broadcast joins x tracks, any-reductions)",
        record.best_of(lambda: join_accept_reference(*join_args), reps),
        record.best_of(lambda: join_accept_batch(*join_args), reps + 2),
    )
    return kernels


# ----------------------------------------------------------------------
# Suppression section (the acceptance point)
# ----------------------------------------------------------------------


def measure_suppression(
    n_nodes: int, epochs: int, warm: int
) -> Dict[str, Any]:
    """Run the front timeline with and without prediction; measure the
    reduction, the Hausdorff penalty and the predictor wall-clock."""
    kw = dict(n_nodes=n_nodes, seed=SEED, scenario="front")
    base = SessionCompute(SessionConfig(query_id="bench-base", **kw))
    pred = SessionCompute(
        SessionConfig(
            query_id="bench-pred",
            prediction_tolerance=TOLERANCE,
            prediction_heartbeat=HEARTBEAT,
            **kw,
        )
    )
    levels = base.query.isolevels
    cell = 20.0 / math.ceil(math.sqrt(n_nodes))  # span / sqrt(n) raster

    reports_base = reports_pred = 0
    predicted = 0
    staleness_max = 0
    penalties: List[float] = []
    pred_seconds = 0.0
    for epoch in range(1, epochs + 1):
        field_now = field_for_epoch(base.config, epoch)
        base.network.resense(field_now)
        rb = base.monitor.epoch(base.network)
        pred.network.resense(field_now)
        t0 = time.perf_counter()
        rp = pred.monitor.epoch(pred.network)
        pred_seconds += time.perf_counter() - t0
        staleness_max = max(staleness_max, rp.staleness)
        assert rp.staleness <= HEARTBEAT, "staleness bound violated"
        if epoch < warm:
            continue
        reports_base += len(rb.delivered_reports)
        reports_pred += len(rp.delivered_reports)
        predicted += rp.predicted
        hb = mean_isoline_hausdorff(field_now, rb.contour_map, levels)
        hp = mean_isoline_hausdorff(field_now, rp.contour_map, levels)
        if hb is not None and hp is not None:
            penalties.append(hp - hb)

    warm_epochs = epochs - warm + 1
    penalty = sum(penalties) / len(penalties)
    return {
        "scenario": "front",
        "n_nodes": n_nodes,
        "epochs": epochs,
        "warm_from": warm,
        "tolerance": TOLERANCE,
        "heartbeat": HEARTBEAT,
        "reports_base_per_epoch": round(reports_base / warm_epochs, 2),
        "reports_pred_per_epoch": round(reports_pred / warm_epochs, 2),
        "reduction": round(reports_base / reports_pred, 2),
        "predicted_per_epoch": round(predicted / warm_epochs, 2),
        "staleness_max": staleness_max,
        "penalty_mean": round(penalty, 4),
        "penalty_max": round(max(penalties), 4),
        "cell": round(cell, 4),
        "penalty_cells_mean": round(penalty / cell, 4),
        "epoch_ms": round(1e3 * pred_seconds / epochs, 3),
    }


# ----------------------------------------------------------------------
# Verify section (untimed)
# ----------------------------------------------------------------------


def verify_off_identity() -> Dict[str, Any]:
    """The dead-reckoning contract: prediction=off serving streams
    byte-identical to the committed goldens (same fixture the
    ``test_prediction_off_golden`` suite pins; the bench re-checks the
    serving scenarios so a gate run never times a divergent build).

    Raises:
        AssertionError: at the first epoch that diverges.
    """
    golden = json.loads(GOLDEN.read_text())
    checked = 0
    for scenario, epochs in sorted(golden["serving"].items()):
        compute = SessionCompute(
            SessionConfig(query_id=f"golden-{scenario}", scenario=scenario)
        )
        for want in epochs:
            out = compute.epoch(want["epoch"])
            digest = hashlib.sha256(out["delta"]).hexdigest()
            if digest != want["delta_sha256"] or out["crc"] != want["crc"]:
                raise AssertionError(
                    "prediction=off diverged from the golden stream "
                    f"{scenario} at epoch {want['epoch']}"
                )
            checked += 1
    return {
        "ok": True,
        "streams": len(golden["serving"]),
        "epochs": checked,
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def quick_report() -> Dict[str, Any]:
    """The verify section and the CI-size section, shaped like the
    committed report."""
    return {
        "verify": verify_off_identity(),
        "quick": {
            "n": QUICK_NODES,
            "kernels": measure_kernels(quick=True),
            "suppression": measure_suppression(
                QUICK_NODES, QUICK_EPOCHS, QUICK_WARM
            ),
        },
    }


def full_report() -> Dict[str, Any]:
    """The committed report: full sizes plus the quick sections."""
    quick = quick_report()
    return record.report(
        FULL_NODES,
        kernels=measure_kernels(quick=False),
        suppression=measure_suppression(FULL_NODES, FULL_EPOCHS, FULL_WARM),
        **quick,
    )
