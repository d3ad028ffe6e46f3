"""Integration tests: the model-predictive suppressor inside
:class:`~repro.core.continuous.ContinuousIsoMap`.

Covers the PR's committed behaviour at the monitor level:

- prediction mode delivers (substantially) fewer reports than the
  dead-reckoning-off baseline on a steadily drifting field;
- sink staleness never exceeds the heartbeat cap;
- the sink cache mirrors the bank (``cache_updates``/``cache_removed``
  fold reproduces the cache exactly).

Per-epoch delivery costs are pinned by
``tests/core/test_continuous_costs_golden.py``.
"""

import pytest

from repro.core import ContourQuery
from repro.core.continuous import ContinuousIsoMap
from repro.core.prediction import PredictionConfig
from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork

BOX = BoundingBox(0, 0, 20, 20)


def drifting_field(epoch):
    """The serving layer's "front" scenario: rigid translation at 2.5%
    of span per epoch."""
    frac = 0.30 + min(0.025 * epoch, 0.40)
    return RadialField(BOX, center=(BOX.xmin + frac * 20.0, 10.0), peak=20, slope=1)


def make_net(seed=7, n=600):
    return SensorNetwork.random_deploy(
        drifting_field(0), n, radio_range=2.2, seed=seed
    )


def make_monitor(prediction=None):
    return ContinuousIsoMap(
        ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2),
        angle_delta_deg=10.0,
        prediction=prediction,
    )


def run_timeline(monitor, net, epochs=12):
    results = []
    for e in range(epochs):
        net.resense(drifting_field(e))
        results.append(monitor.epoch(net))
    return results


class TestPredictionSuppression:
    def test_fewer_deliveries_than_baseline_on_steady_drift(self):
        base_net, pred_net = make_net(), make_net()
        base = make_monitor()
        pred = make_monitor(PredictionConfig(position_tolerance=1.1))
        base_r = run_timeline(base, base_net)
        pred_r = run_timeline(pred, pred_net)
        # Skip the cold start and the LMS warm-up epochs.
        b = sum(len(r.delivered_reports) for r in base_r[3:])
        p = sum(len(r.delivered_reports) for r in pred_r[3:])
        assert p < b * 0.7
        assert sum(r.predicted for r in pred_r) > 0

    def test_prediction_reduces_report_traffic(self):
        base_net, pred_net = make_net(), make_net()
        base = make_monitor()
        pred = make_monitor(PredictionConfig(position_tolerance=1.1))
        base_r = run_timeline(base, base_net)
        pred_r = run_timeline(pred, pred_net)
        b = sum(r.costs.total_traffic_bytes() for r in base_r[3:])
        p = sum(r.costs.total_traffic_bytes() for r in pred_r[3:])
        assert p < b

    def test_staleness_bounded_by_heartbeat(self):
        cfg = PredictionConfig(position_tolerance=1.1, heartbeat=4)
        pred = make_monitor(cfg)
        net = make_net()
        for r in run_timeline(pred, net):
            assert r.staleness <= cfg.heartbeat
            assert r.tracks == r.cached_reports

    def test_off_mode_has_empty_prediction_metadata(self):
        base = make_monitor()
        net = make_net()
        for r in run_timeline(base, net, epochs=4):
            assert r.predicted == 0
            assert r.heartbeats == 0
            assert r.staleness == 0
            assert r.tracks == 0

    def test_cache_delta_fold_reproduces_sink_cache(self):
        """Folding cache_updates/cache_removed epoch by epoch rebuilds
        exactly the monitor's sink cache (the serving layer's delta
        contract)."""
        pred = make_monitor(PredictionConfig(position_tolerance=1.1))
        net = make_net()
        folded = {}
        for e in range(10):
            net.resense(drifting_field(e))
            r = pred.epoch(net)
            for src in r.cache_removed:
                folded.pop(src, None)
            for rep in r.cache_updates:
                folded[rep.source] = rep
            mirror = {rep.source: rep for rep in pred.sink_reports}
            assert folded == mirror

    def test_zero_heartbeat_disables_suppression(self):
        pred = make_monitor(
            PredictionConfig(position_tolerance=1.1, heartbeat=0)
        )
        net = make_net()
        for r in run_timeline(pred, net, epochs=5):
            assert r.predicted == 0


class TestPredictionProfiling:
    def test_prediction_stages_recorded(self):
        from repro import profiling

        profiling.reset()
        profiling.enable()
        try:
            pred = make_monitor(PredictionConfig(position_tolerance=1.1))
            net = make_net(n=200)
            for e in range(3):
                net.resense(drifting_field(e))
                pred.epoch(net)
            snap = profiling.snapshot()
        finally:
            profiling.disable()
            profiling.reset()
        for stage in (
            "prediction.predict",
            "prediction.decide",
            "prediction.update",
            "prediction.extrapolate",
        ):
            assert stage in snap, f"missing profiling stage {stage}"

    def test_prediction_stages_merged_from_sweep_workers(self):
        """The sweep runner ships worker stage snapshots back to the
        parent; prediction.* must ride along like reconstruction.*."""
        from repro import profiling
        from repro.experiments.fig_predict import predict_point
        from repro.experiments.runner import grid_points, run_sweep

        profiling.reset()
        profiling.enable()
        try:
            run_sweep(
                grid_points(
                    predict_point,
                    [{"scenario": "front", "tolerance": 1.1,
                      "n": 150, "epochs": 3}],
                    [7],
                ),
                jobs=2,
                cache_dir=None,
            )
            snap = profiling.snapshot()
        finally:
            profiling.disable()
            profiling.reset()
        assert any(k.startswith("prediction.") for k in snap), (
            f"no prediction.* stage merged from workers: {sorted(snap)}"
        )
