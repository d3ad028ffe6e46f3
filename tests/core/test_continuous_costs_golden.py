"""Per-epoch cost goldens for the continuous monitor.

:class:`~repro.core.continuous.ContinuousIsoMap` charges each epoch's
query flood, detection probes, gradient exchange and the hop-by-hop
delivery of its deltas and retractions to the epoch's
:class:`~repro.network.CostAccountant`.  This suite pins those per-node
counters byte for byte against a committed fixture: one SHA-256 per
epoch over ``tx_bytes``, ``rx_bytes`` and ``ops`` (little-endian int64,
in that order), plus their totals so a mismatch reads as a size.

Streams covered:

- the four deterministic serving scenarios (steady / tide / storm /
  pulse), driven exactly as :class:`~repro.serving.session.SessionCompute`
  drives its monitor;
- the faulted stream of ``test_prediction_off_golden.py`` (a
  sensing-failure wave at epoch 3, a crash wave with tree rebuild at
  epoch 5);
- the tide scenario with prediction on, whose deliveries include
  predictor-decided retractions.

Regenerate the fixture (only when the protocol's charges change on
purpose, never to absorb a forwarding regression) with::

    PYTHONPATH=src:. python tests/core/test_continuous_costs_golden.py --regen
"""

import hashlib
import json
import os
import sys

import pytest

from tests.core.test_prediction_off_golden import EPOCHS, SCENARIOS, faulted_epochs

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "continuous_costs.json"
)


def cost_row(epoch: int, costs) -> dict:
    h = hashlib.sha256()
    for counter in (costs.tx_bytes, costs.rx_bytes, costs.ops):
        h.update(counter.astype("<i8").tobytes())
    return {
        "epoch": epoch,
        "sha256": h.hexdigest(),
        "tx_bytes": int(costs.tx_bytes.sum()),
        "rx_bytes": int(costs.rx_bytes.sum()),
        "ops": int(costs.ops.sum()),
    }


def session_costs(scenario: str, **config_kwargs):
    """Per-epoch cost rows of a serving session's monitor."""
    from repro.serving.session import SessionCompute, SessionConfig, field_for_epoch

    config = SessionConfig(
        query_id=f"golden-{scenario}", scenario=scenario, **config_kwargs
    )
    compute = SessionCompute(config)
    rows = []
    for epoch in range(1, EPOCHS + 1):
        compute.network.resense(field_for_epoch(config, epoch))
        rows.append(cost_row(epoch, compute.monitor.epoch(compute.network).costs))
    return rows


def faulted_costs():
    return [cost_row(epoch, result.costs) for epoch, _codec, result in faulted_epochs()]


def predicted_costs():
    return session_costs("tide", prediction_tolerance=1.1, prediction_heartbeat=8)


def _collect():
    return {
        "epochs": EPOCHS,
        "serving": {s: session_costs(s) for s in SCENARIOS},
        "faulted": faulted_costs(),
        "predicted": predicted_costs(),
    }


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_serving_costs_match_golden(scenario):
    assert session_costs(scenario) == _load_golden()["serving"][scenario]


def test_faulted_costs_match_golden():
    assert faulted_costs() == _load_golden()["faulted"]


def test_predicted_costs_match_golden():
    assert predicted_costs() == _load_golden()["predicted"]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: test_continuous_costs_golden.py --regen")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(_collect(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
