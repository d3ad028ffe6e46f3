"""Unit tests for the DV-hop + refinement localization substrate."""

import random
import statistics

import pytest

from repro.field import PlaneField
from repro.geometry import BoundingBox, dist
from repro.network import SensorNetwork
from repro.network.localization import (
    LocalizationResult,
    _gauss_newton_step,
    _measure_ranges,
    _multilaterate,
    clear_localization,
    localize,
)

BOX = BoundingBox(0, 0, 20, 20)


def dense_net(n=400, seed=0, r=2.5):
    field = PlaneField(BOX, 0, 1, 0)
    return SensorNetwork.random_deploy(field, n, radio_range=r, seed=seed)


class TestMultilaterate:
    def test_exact_distances(self):
        anchors = [((0, 0), None), ((10, 0), None), ((0, 10), None)]
        target = (3.0, 4.0)
        obs = [(p, dist(p, target)) for (p, _) in anchors]
        est = _multilaterate(obs)
        assert est == pytest.approx(target, abs=1e-9)

    def test_collinear_anchors_degenerate(self):
        obs = [((0, 0), 5.0), ((5, 0), 5.0), ((10, 0), 5.0)]
        # Collinear anchors leave a reflection ambiguity: the linearised
        # system is rank deficient.
        assert _multilaterate(obs) is None

    def test_noisy_distances_stay_close(self):
        rng = random.Random(1)
        anchors = [(0, 0), (10, 0), (0, 10), (10, 10)]
        target = (6.0, 3.0)
        obs = [
            (a, dist(a, target) * (1 + rng.gauss(0, 0.02))) for a in anchors
        ]
        est = _multilaterate(obs)
        assert est is not None
        assert dist(est, target) < 0.5


class TestMeasureRanges:
    def test_neighbours_measured_in_ascending_id(self):
        # One noise draw per neighbour, in node-id order: the draws must
        # not follow a container's iteration order.
        net = dense_net(seed=1)
        estimates = {i: net.nodes[i].position for i in range(net.n_nodes) if i % 5}
        ranges = _measure_ranges(net, estimates, 0.05, random.Random(0))
        assert list(ranges) == list(estimates)
        for i in estimates:
            ids = [j for j, _ in ranges[i]]
            assert ids == sorted(ids)
            assert set(ids) == {
                j for j in net.csr.neighbors(i).tolist() if j in estimates
            }


class TestGaussNewton:
    def test_converges_to_true_position(self):
        neighbors = [(0, 0), (4, 0), (0, 4), (4, 4)]
        target = (1.0, 2.5)
        obs = [(q, dist(q, target)) for q in neighbors]
        p = (2.0, 2.0)
        for _ in range(20):
            p = _gauss_newton_step(p, obs, damping=1.0)
        assert dist(p, target) < 1e-6

    def test_degenerate_observations_no_move(self):
        p = (1.0, 1.0)
        assert _gauss_newton_step(p, [((1.0, 1.0), 0.5)]) == p


class TestLocalize:
    def test_errors_below_radio_range(self):
        net = dense_net()
        res = localize(net, anchor_fraction=0.15, range_noise=0.05,
                       rng=random.Random(3), apply=False)
        assert res.coverage > 0.9
        assert statistics.median(res.errors) < net.radio_range

    def test_more_anchors_less_error(self):
        net = dense_net(seed=2)
        few = localize(net, anchor_fraction=0.05, rng=random.Random(1), apply=False)
        many = localize(net, anchor_fraction=0.4, rng=random.Random(1), apply=False)
        assert statistics.median(many.errors) < statistics.median(few.errors)

    def test_apply_sets_estimates(self):
        net = dense_net(seed=3)
        res = localize(net, anchor_fraction=0.2, rng=random.Random(2))
        localized = [
            n for n in net.nodes if n.estimated_position is not None
        ]
        assert localized
        for node in localized:
            assert node.app_position == node.estimated_position
        # Anchors keep ground truth.
        for a in res.anchor_ids:
            assert net.nodes[a].estimated_position is None
            assert net.nodes[a].app_position == net.nodes[a].position

    def test_clear_localization(self):
        net = dense_net(seed=4)
        localize(net, anchor_fraction=0.2, rng=random.Random(2))
        clear_localization(net)
        assert all(n.estimated_position is None for n in net.nodes)

    def test_too_few_anchors_raises(self):
        net = dense_net(n=50)
        with pytest.raises(ValueError):
            localize(net, anchor_fraction=0.01)

    def test_result_stats(self):
        res = LocalizationResult(estimated=[], anchor_ids=[], errors=[1.0, 3.0])
        assert res.mean_error == 2.0
        assert res.max_error == 3.0
        assert res.coverage == 1.0
        empty = LocalizationResult(estimated=[], anchor_ids=[])
        assert empty.mean_error == 0.0

    def test_zero_noise_high_anchor_budget_is_tight(self):
        net = dense_net(seed=5)
        res = localize(
            net,
            anchor_fraction=0.5,
            range_noise=1e-9,
            refine_iters=40,
            rng=random.Random(7),
            apply=False,
        )
        assert statistics.median(res.errors) < 0.1

    def test_estimates_inside_bounds(self):
        net = dense_net(seed=6)
        res = localize(net, anchor_fraction=0.1, rng=random.Random(8), apply=False)
        for pos in res.estimated:
            if pos is not None:
                assert net.bounds.contains(pos, tol=1e-6)
