"""Prediction-off byte-identity goldens for the continuous monitor.

The dead-reckoning contract (docs/architecture.md, "Prediction"): with
``prediction=None`` -- the default -- :class:`ContinuousIsoMap` must
produce byte-for-byte the epoch streams it produced before the
predictor existed.  This suite pins that against committed fixtures
captured from the pre-prediction code:

- the **serving stream**: per-epoch SHA-256 of the wire delta payload a
  :class:`~repro.serving.session.SessionCompute` emits, across all four
  deterministic scenarios (steady / tide / storm / pulse);
- the **faulted stream**: a direct monitor run under moderate faults
  (a sensing-failure wave at epoch 3, a crash wave with tree rebuild at
  epoch 5), hashing the codec-encoded delivered reports, the retraction
  sources and the sink value of every epoch.

Both are exercised twice: with the default constructor (no ``prediction``
argument at all) and with an explicit ``prediction=None``, so the knob's
off position is pinned to the same bytes as its absence.

Regenerate the fixture (only when the *pre-prediction* protocol itself
changes, never to absorb a prediction regression) with::

    PYTHONPATH=src python tests/core/test_prediction_off_golden.py --regen
"""

import hashlib
import json
import os
import random
import struct
import sys

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "continuous_streams.json"
)

SCENARIOS = ("steady", "tide", "storm", "pulse")
EPOCHS = 8


def _monitor_kwargs(explicit_off: bool):
    # explicit_off exercises `prediction=None` spelled out; otherwise the
    # argument is omitted entirely (the pre-prediction call shape).
    return {"prediction": None} if explicit_off else {}


def serving_stream(scenario: str, explicit_off: bool = False):
    """Per-epoch digests of the session wire stream for one scenario."""
    from repro.core.continuous import ContinuousIsoMap
    from repro.serving.session import SessionCompute, SessionConfig

    config = SessionConfig(query_id=f"golden-{scenario}", scenario=scenario)
    compute = SessionCompute(config)
    if explicit_off:
        compute.monitor = ContinuousIsoMap(
            compute.query,
            angle_delta_deg=config.angle_delta_deg,
            **_monitor_kwargs(True),
        )
    rows = []
    for epoch in range(1, EPOCHS + 1):
        out = compute.epoch(epoch)
        rows.append(
            {
                "epoch": epoch,
                "delta_sha256": hashlib.sha256(out["delta"]).hexdigest(),
                "crc": out["crc"],
                "records": len(out["records"]),
                "delivered": out["delivered"],
                "retracted": out["retracted"],
                "suppressed": out["suppressed"],
            }
        )
    return rows


def faulted_epochs(explicit_off: bool = False):
    """Yield ``(epoch, codec, result)`` of a direct monitor run under
    moderate faults."""
    from repro.core.codec import ReportCodec
    from repro.core.continuous import ContinuousIsoMap
    from repro.network import SensorNetwork
    from repro.serving.session import SessionConfig, base_field, field_for_epoch

    config = SessionConfig(query_id="golden-faults", scenario="tide")
    query = config.query()
    network = SensorNetwork.random_deploy(
        base_field(config),
        config.n_nodes,
        radio_range=config.radio_range,
        seed=config.seed,
    )
    monitor = ContinuousIsoMap(
        query,
        angle_delta_deg=config.angle_delta_deg,
        **_monitor_kwargs(explicit_off),
    )
    codec = ReportCodec.for_query(query, network.bounds)
    for epoch in range(1, EPOCHS + 1):
        if epoch == 3:
            # A sensing-failure wave: nodes stop reporting but keep routing.
            network.fail_random(0.08, random.Random(1234), mode="sensing")
        if epoch == 5:
            # A crash wave: nodes drop out and the tree is rebuilt.
            network.fail_random(0.05, random.Random(99), mode="crash")
        network.resense(field_for_epoch(config, epoch))
        yield epoch, codec, monitor.epoch(network)


def faulted_stream(explicit_off: bool = False):
    """Per-epoch digests of a direct monitor run under moderate faults."""
    rows = []
    for epoch, codec, result in faulted_epochs(explicit_off):
        h = hashlib.sha256()
        for report in result.delivered_reports:
            h.update(codec.encode(report))
        for source in sorted(result.retractions):
            h.update(struct.pack("<I", source))
        sink = (
            b"none"
            if result.sink_value is None
            else struct.pack("<H", codec.quantize_value(result.sink_value))
        )
        h.update(sink)
        rows.append(
            {
                "epoch": epoch,
                "digest": h.hexdigest(),
                "delivered": len(result.delivered_reports),
                "retracted": len(result.retractions),
                "suppressed": result.suppressed,
                "cached": result.cached_reports,
            }
        )
    return rows


def _collect():
    return {
        "epochs": EPOCHS,
        "serving": {s: serving_stream(s) for s in SCENARIOS},
        "faulted": faulted_stream(),
    }


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("explicit_off", [False, True])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_serving_stream_matches_golden(scenario, explicit_off):
    golden = _load_golden()
    assert serving_stream(scenario, explicit_off) == golden["serving"][scenario]


@pytest.mark.parametrize("explicit_off", [False, True])
def test_faulted_stream_matches_golden(explicit_off):
    golden = _load_golden()
    assert faulted_stream(explicit_off) == golden["faulted"]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: test_prediction_off_golden.py --regen")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(_collect(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
