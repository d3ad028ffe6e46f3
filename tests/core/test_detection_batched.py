"""Differential tests: batched isoline detection vs the per-candidate reference.

:func:`repro.core.detection.detect_isoline_nodes` runs condition 1 as
one pass over a node-state snapshot and every candidate's k-hop probe
as one multi-source expansion.  It must charge exactly what the
per-candidate reference (:mod:`tests.core.detection_reference`) charges
at every node, and return the same candidates, isoline nodes and probe
replies in the same order -- the order report generation, transport
registration and every fault draw follow.
"""

import random

import numpy as np
import pytest

from repro.core import ContourQuery
from repro.core.detection import detect_isoline_nodes
from repro.experiments.common import harbor_network
from repro.field import PlaneField, RadialField, make_harbor_field
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from tests.core.detection_reference import detect_isoline_nodes_reference

BOX = BoundingBox(0, 0, 20, 20)


def _plane(seed):
    field = PlaneField(BOX, c0=0, cx=1, cy=0.3)
    net = SensorNetwork.random_deploy(field, 300, radio_range=2.0, seed=seed)
    return net, (2.0, 24.0, 2.0)


def _radial(seed):
    field = RadialField(BOX, center=(9, 11), peak=20, slope=1.3)
    net = SensorNetwork.random_deploy(field, 450, radio_range=1.6, seed=seed)
    return net, (6.0, 18.0, 3.0)


def _grid(seed):
    # Lattice positions on a plane give exactly tied neighbour values, the
    # straddle rule's lower-id tie-break case.
    field = PlaneField(BOX, c0=0, cx=1, cy=1)
    net = SensorNetwork.grid_deploy(field, 400, radio_range=1.5, seed=seed)
    return net, (3.0, 36.0, 3.0)


def _harbor(seed):
    net = harbor_network(400, "random", seed=seed, field=make_harbor_field(side=20))
    return net, (6.0, 12.0, 2.0)


DEPLOYMENTS = {"plane": _plane, "radial": _radial, "grid": _grid, "harbor": _harbor}


def _apply_failures(net, failures, seed):
    if failures != "none":
        net.fail_random(0.2, rng=random.Random(seed), mode=failures)


def _apply_localisation_error(net, seed):
    rng = random.Random(seed + 101)
    for node in net.nodes:
        if rng.random() < 0.7:
            x, y = node.position
            node.estimated_position = (x + rng.gauss(0, 0.4), y + rng.gauss(0, 0.4))


def _run_both(net, query):
    fast_costs = CostAccountant(net.n_nodes)
    ref_costs = CostAccountant(net.n_nodes)
    fast = detect_isoline_nodes(net, query, fast_costs)
    ref = detect_isoline_nodes_reference(net, query, ref_costs)
    return fast, fast_costs, ref, ref_costs


def assert_identical(fast, fast_costs, ref, ref_costs):
    assert fast.candidates == ref.candidates
    assert list(fast.isoline_nodes.items()) == list(ref.isoline_nodes.items())
    assert list(fast.neighborhood_data.items()) == list(ref.neighborhood_data.items())
    assert np.array_equal(fast_costs.tx_bytes, ref_costs.tx_bytes)
    assert np.array_equal(fast_costs.rx_bytes, ref_costs.rx_bytes)
    assert np.array_equal(fast_costs.ops, ref_costs.ops)


@pytest.mark.parametrize("localised", [False, True], ids=["truth", "loc_error"])
@pytest.mark.parametrize("failures", ["none", "sensing", "crash"])
@pytest.mark.parametrize("mode", ["border", "straddle"])
@pytest.mark.parametrize("k_hop", [1, 2, 3])
@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_batched_matches_reference(deployment, k_hop, mode, failures, localised):
    seed = sorted(DEPLOYMENTS).index(deployment) * 7 + k_hop
    net, (lo, hi, step) = DEPLOYMENTS[deployment](seed)
    _apply_failures(net, failures, seed)
    if localised:
        _apply_localisation_error(net, seed)
    query = ContourQuery(
        lo, hi, step, epsilon_fraction=0.2, k_hop=k_hop, detection_mode=mode
    )
    fast, fast_costs, ref, ref_costs = _run_both(net, query)
    assert fast.candidates, "the case must exercise the probe"
    assert_identical(fast, fast_costs, ref, ref_costs)


@pytest.mark.parametrize("seed", range(4))
def test_paper_query_on_random_deployments(seed):
    # The paper's thin 0.05 T border on a density-1 harbor deployment.
    net = harbor_network(900, "random", seed=seed, field=make_harbor_field(side=30))
    query = ContourQuery(6.0, 12.0, 2.0, epsilon_fraction=0.05)
    assert_identical(*_run_both(net, query))


def test_faulted_epoch_after_batched_detection_is_unchanged():
    # A full faulted Iso-Map epoch consumes the detection result in
    # order (report generation, transport registration, fault draws).
    from repro.experiments.common import run_isomap

    net = harbor_network(900, "random", seed=3, field=make_harbor_field(side=30))
    query = ContourQuery(6.0, 12.0, 2.0, epsilon_fraction=0.2)
    run = run_isomap(net, query=query, fault_plan=FaultPlan.at_intensity(0.5, seed=3))
    ref = detect_isoline_nodes_reference(net, query, CostAccountant(net.n_nodes))
    assert list(run.detection.isoline_nodes.items()) == list(ref.isoline_nodes.items())
    assert [r.source for r in run.generated_reports] == list(ref.isoline_nodes)


class TestBorderEdges:
    def _net(self, values):
        field = PlaneField(BOX, c0=0, cx=1, cy=0)
        positions = [(5.0 + 0.5 * i, 10.0) for i in range(len(values))]
        net = SensorNetwork(field, positions, radio_range=0.6)
        for node, v in zip(net.nodes, values):
            node.value = v
        return net

    def test_value_exactly_epsilon_from_a_level_is_a_candidate(self):
        query = ContourQuery(10.0, 10.0, 1.0, epsilon_fraction=0.25)
        assert query.epsilon == 0.25
        above = np.nextafter(10.25, np.inf)
        net = self._net([10.25, 9.75, above, 10.5])
        res = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        assert res.candidates == [0, 1]
        assert res.isoline_nodes == {0: 10.0, 1: 10.0}  # they straddle 10
        ref = detect_isoline_nodes_reference(net, query, CostAccountant(net.n_nodes))
        assert ref.candidates == res.candidates

    def test_levels_match_contour_query(self):
        # Values near several levels, on both sides of each border: the
        # batched pass matches ContourQuery.matching_isolevel node by node.
        query = ContourQuery(0.0, 4.0, 1.0, epsilon_fraction=0.45)
        values = [1.45, 2.55, 0.0, 3.44, 0.55, 4.45, -0.45, 2.5]
        net = self._net(values)
        res = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        want = [i for i, v in enumerate(values) if query.matching_isolevel(v) is not None]
        assert res.candidates == want
        for i, level in res.isoline_nodes.items():
            assert level == query.matching_isolevel(values[i])


class TestSnapshotIsPerCall:
    def test_direct_alive_write_is_seen_by_the_next_detection(self):
        net, (lo, hi, step) = _radial(seed=4)
        query = ContourQuery(lo, hi, step, epsilon_fraction=0.2, k_hop=2)
        first = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        cand = first.candidates[0]
        victim = int(net.csr.neighbors(cand)[0])
        assert net.nodes[victim].alive
        before = len(first.neighborhood_data[cand])

        # No rebuild: the flag alone must reach the next snapshot.
        net.nodes[victim].alive = False
        costs = CostAccountant(net.n_nodes)
        second = detect_isoline_nodes(net, query, costs)
        ref_costs = CostAccountant(net.n_nodes)
        ref = detect_isoline_nodes_reference(net, query, ref_costs)
        assert_identical(second, costs, ref, ref_costs)
        assert victim not in second.candidates
        assert len(second.neighborhood_data[cand]) < before
        # A dead neighbour hears no probe broadcast.
        assert costs.rx_bytes[victim] == 0

    def test_direct_sensing_write_is_seen_by_the_next_detection(self):
        net, (lo, hi, step) = _plane(seed=5)
        query = ContourQuery(lo, hi, step, epsilon_fraction=0.2)
        first = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        victim = first.candidates[0]
        assert any(victim in net.csr.neighbors(c) for c in first.candidates)
        net.nodes[victim].sensing_ok = False
        costs = CostAccountant(net.n_nodes)
        second = detect_isoline_nodes(net, query, costs)
        assert victim not in second.candidates
        assert costs.tx_bytes[victim] == 0  # neither probes nor replies
