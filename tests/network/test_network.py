"""Unit tests for the SensorNetwork facade and failure injection."""

import random

import numpy as np
import pytest

from repro.field import PlaneField, make_harbor_field
from repro.geometry import BoundingBox
from repro.core import ContourQuery
from repro.core.detection import detect_isoline_nodes
from repro.network import CostAccountant, FaultEngine, FaultPlan, SensorNetwork
from repro.network.node import SensorNode
from repro.network.transport import EpochTransport, disseminate_query
from tests.network.transport_reference import count_disconnected_reference

BOX = BoundingBox(0, 0, 20, 20)


def small_net(n=200, seed=0):
    field = PlaneField(BOX, c0=0, cx=1, cy=0)
    return SensorNetwork.random_deploy(field, n, radio_range=2.5, seed=seed)


class TestConstruction:
    def test_nodes_sense_the_field(self):
        net = small_net()
        for node in net.nodes:
            assert node.value == pytest.approx(node.position[0])

    def test_sensing_noise(self):
        field = PlaneField(BOX, c0=5, cx=0, cy=0)
        net = SensorNetwork.random_deploy(field, 300, seed=1, sensing_noise=0.5)
        residuals = [node.value - 5.0 for node in net.nodes]
        assert any(abs(r) > 1e-6 for r in residuals)
        assert abs(sum(residuals) / len(residuals)) < 0.2

    def test_default_sink_near_centre(self):
        net = small_net()
        sink = net.nodes[net.sink_index]
        cx, cy = BOX.center
        assert abs(sink.position[0] - cx) < 5
        assert abs(sink.position[1] - cy) < 5
        assert sink.level == 0

    def test_explicit_sink(self):
        field = PlaneField(BOX, 0, 1, 0)
        net = SensorNetwork.random_deploy(field, 100, radio_range=3.0, seed=2)
        net2 = SensorNetwork(
            field, [n.position for n in net.nodes], radio_range=3.0, sink_index=7
        )
        assert net2.sink_index == 7
        assert net2.nodes[7].level == 0

    def test_grid_deploy(self):
        field = PlaneField(BOX, 0, 1, 0)
        net = SensorNetwork.grid_deploy(field, 100, radio_range=3.0)
        assert net.n_nodes == 100
        assert net.is_connected()

    def test_empty_deployment_raises(self):
        field = PlaneField(BOX, 0, 1, 0)
        with pytest.raises(ValueError):
            SensorNetwork(field, [])

    def test_node_outside_field_raises(self):
        field = PlaneField(BOX, 0, 1, 0)
        with pytest.raises(ValueError):
            SensorNetwork(field, [(25.0, 5.0)])
        # The first node outside is the one named.
        with pytest.raises(ValueError, match=r"node 1 .* \(20\.5, 5\.0\)"):
            SensorNetwork(field, [(1.0, 1.0), (20.5, 5.0), (-3.0, 5.0)])
        SensorNetwork(field, [(20.0 + 1e-10, -1e-10)])  # within the tolerance

    def test_density(self):
        net = small_net(n=400)
        assert net.density == pytest.approx(1.0)

    def test_tree_mirrors_into_nodes(self):
        net = small_net()
        for i, node in enumerate(net.nodes):
            lvl, par = int(net.tree.level[i]), int(net.tree.parent[i])
            assert node.level == (lvl if lvl >= 0 else None)
            assert node.parent == (par if par >= 0 else None)


class TestNeighbourhoods:
    """Neighbourhoods are CSR rows, filtered by the per-node arrays."""

    def test_alive_neighbors(self):
        net = small_net()
        i = net.sink_index
        row = net.csr.neighbors(i)
        assert row.tolist() == sorted(row.tolist())
        pos = net.positions_array
        within = np.hypot(*(pos - pos[i]).T) <= net.radio_range
        within[i] = False
        assert row.tolist() == np.flatnonzero(within).tolist()
        assert row[net.alive[row]].tolist() == row.tolist()

    def test_sensing_neighbors_excludes_failed(self):
        net = small_net(seed=3)
        i = net.sink_index
        row = net.csr.neighbors(i)
        assert row.size, "sink should have neighbours"
        victim = int(row[0])
        net.nodes[victim].sensing_ok = False
        state = net.node_state()
        assert victim not in row[state.can_sense[row]]
        assert victim in row[state.alive[row]]

    def test_k_hop_sensing_neighbors(self):
        net = small_net(seed=4)
        can_sense = net.node_state().can_sense
        one = net.csr.k_hop_neighbors(net.sink_index, 1, alive=net.alive)
        two = net.csr.k_hop_neighbors(net.sink_index, 2, alive=net.alive)
        one, two = set(one[can_sense[one]].tolist()), set(two[can_sense[two]].tolist())
        assert one == set(net.csr.neighbors(net.sink_index).tolist())
        assert one <= two
        assert len(two) > len(one)


def expected_failures(ratio, n_nodes):
    """The documented edge semantics: the sink never fails, and the count
    is round-half-up of ratio over the n_nodes - 1 non-sink candidates."""
    return min(int(ratio * (n_nodes - 1) + 0.5), n_nodes - 1)


class TestFailures:
    def test_sensing_mode_keeps_routing(self):
        net = small_net(n=300, seed=5)
        before = net.tree.reachable_count()
        failed = net.fail_random(0.3, mode="sensing")
        assert len(failed) == expected_failures(0.3, 300) == 90
        assert net.tree.reachable_count() == before
        assert all(not net.nodes[i].sensing_ok for i in failed)
        assert all(net.nodes[i].alive for i in failed)

    def test_crash_mode_rebuilds_tree(self):
        net = small_net(n=300, seed=6)
        net.fail_random(0.2, mode="crash")
        assert net.alive_count() == 300 - expected_failures(0.2, 300)
        assert net.alive_count() == 300 - 60
        for i, node in enumerate(net.nodes):
            if not node.alive:
                assert node.level is None

    def test_sink_never_fails(self):
        net = small_net(n=100, seed=7)
        failed = net.fail_random(1.0, mode="crash")
        assert net.nodes[net.sink_index].alive
        assert len(failed) == 99  # every non-sink node, not round(1.0 * 100)

    def test_half_counts_round_up(self):
        # ratio * candidates = 12.5 exactly: round-half-up gives 13 where
        # Python's banker's round() would give 12.
        net = small_net(n=101, seed=10)
        failed = net.fail_random(0.125, mode="sensing")
        assert len(failed) == expected_failures(0.125, 101) == 13

    def test_zero_ratio_fails_nobody(self):
        net = small_net(n=120, seed=11)
        assert net.fail_random(0.0, mode="crash") == []
        assert net.alive_count() == 120

    def test_invalid_ratio(self):
        net = small_net(n=50)
        with pytest.raises(ValueError):
            net.fail_random(1.5)

    def test_invalid_mode(self):
        net = small_net(n=50)
        with pytest.raises(ValueError):
            net.fail_random(0.1, mode="explode")

    def test_revive_all(self):
        net = small_net(n=200, seed=8)
        net.fail_random(0.4, mode="crash")
        net.revive_all()
        assert net.alive_count() == 200
        assert net.tree.reachable_count() == 200 or net.is_connected() is False

    def test_failures_deterministic_with_rng(self):
        net1 = small_net(n=150, seed=9)
        net2 = small_net(n=150, seed=9)
        f1 = net1.fail_random(0.25, rng=random.Random(42))
        f2 = net2.fail_random(0.25, rng=random.Random(42))
        assert f1 == f2


class TestPaperRegime:
    def test_2500_nodes_density_1(self):
        net = SensorNetwork.random_deploy(make_harbor_field(), 2500, seed=1)
        assert net.density == pytest.approx(1.0)
        assert 6.0 < net.average_degree() < 8.0
        # Almost every node routes to the sink.
        assert net.tree.reachable_count() > 0.98 * net.n_nodes


class TestNodeViews:
    """``network.nodes[i]`` is a view: a write through it is the state
    every array reader sees, with no snapshot to refresh."""

    def test_view_holds_no_state(self):
        net = small_net(n=50)
        node = net.nodes[3]
        assert SensorNode.__slots__ == ("network", "node_id")
        assert not hasattr(node, "__dict__")
        assert len(net.nodes) == net.n_nodes == 50
        assert net.nodes[-1].node_id == 49
        assert [nd.node_id for nd in net.nodes[1:10:4]] == [1, 5, 9]
        with pytest.raises(IndexError):
            net.nodes[50]

    def test_reads_are_python_scalars(self):
        net = small_net(n=50)
        node = net.nodes[net.sink_index]
        assert type(node.value) is float
        assert type(node.alive) is bool and type(node.sensing_ok) is bool
        assert type(node.level) is int and node.parent is None
        assert type(node.position) is tuple
        assert all(type(c) is float for c in node.position)
        assert node.estimated_position is None
        assert node.app_position == node.position
        other = net.nodes[int(np.flatnonzero(net.tree.level == 1)[0])]
        assert type(other.parent) is int and other.parent == net.sink_index

    def test_two_views_see_each_others_writes(self):
        net = small_net(n=50)
        a, b = net.nodes[7], net.nodes[7]
        a.value = 3.25
        a.sensing_ok = False
        a.estimated_position = (1.5, 2.5)
        assert b.value == 3.25 and not b.sensing_ok and not b.can_sense
        assert b.estimated_position == (1.5, 2.5) == b.app_position
        b.alive = False
        b.estimated_position = None
        assert not a.alive and not a.reachable
        assert a.estimated_position is None and a.app_position == a.position

    def test_writes_reach_node_state(self):
        net = small_net(n=200, seed=1)
        a, b, c, d, e = np.flatnonzero(net.tree.level > 0)[:5].tolist()
        net.nodes[a].alive = False
        net.nodes[b].sensing_ok = False
        net.nodes[c].value = -7.5
        net.nodes[d].estimated_position = (0.5, 0.25)
        state = net.node_state()
        assert not state.alive[a] and not state.can_sense[a]
        assert state.alive[b] and not state.can_sense[b]
        assert state.value[c] == -7.5
        assert state.routed[a]  # no rebuild: the tree still routes it
        assert net.app_positions(np.array([d, e])).tolist() == [
            [0.5, 0.25],
            list(net.nodes[e].position),
        ]
        assert net.alive_count() == 199
        with pytest.raises(ValueError):
            state.alive[a] = True  # the state is read-only

    def test_writes_reach_fault_engine_built_afterwards(self):
        net = small_net(n=200, seed=2)
        plan = FaultPlan(seed=3, crash_ratio=0.3)
        first = FaultEngine(plan, net)
        first.finish_epoch()
        victim = first.crashed_nodes[0]
        net.nodes[victim].alive = False
        engine = FaultEngine(plan, net)
        assert not engine.alive(victim)
        assert not engine.alive_array()[victim]
        assert engine.alive(net.sink_index)
        # The cached crash schedule is redrawn over the live nodes only.
        engine.finish_epoch()
        assert victim not in engine.crashed_nodes

    def test_writes_reach_disconnected_count(self):
        net = small_net(n=200, seed=2)
        costs = CostAccountant(net.n_nodes)
        assert EpochTransport(net, costs).finalize().disconnected_regions == 0
        # Kill every neighbour of one leaf-side node: it is cut off.
        lone = int(np.flatnonzero(net.tree.level == net.tree.depth)[0])
        for j in net.csr.neighbors(lone).tolist():
            if j != net.sink_index:
                net.nodes[j].alive = False
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        regions = transport.finalize().disconnected_regions
        assert regions >= 1
        assert regions == count_disconnected_reference(transport)

    def test_writes_reach_dissemination(self):
        net = small_net(n=200, seed=2)
        parent = int(net.tree.parent[int(np.flatnonzero(net.tree.level == 2)[0])])
        before = CostAccountant(net.n_nodes)
        disseminate_query(net, 7, before)
        assert before.tx_bytes[parent] == 7
        net.nodes[parent].alive = False
        after = CostAccountant(net.n_nodes)
        disseminate_query(net, 7, after)
        assert after.tx_bytes[parent] == 0
        assert after.tx_bytes.sum() == before.tx_bytes.sum() - 7

    def test_writes_reach_the_next_detection(self):
        net = small_net(n=400, seed=3)
        query = ContourQuery(5.0, 15.0, 5.0, k_hop=1)
        first = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        assert first.isoline_nodes
        node_id = next(iter(first.isoline_nodes))
        # A value far from every level drops the candidate...
        net.nodes[node_id].value = 100.0
        second = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        assert node_id not in second.candidates
        # ...and an estimate moves what its neighbours' probes report.
        peer = next(i for i, data in second.neighborhood_data.items() if data)
        j = int(
            next(
                k
                for k in net.csr.neighbors(peer).tolist()
                if net.nodes[k].can_sense
            )
        )
        net.nodes[j].estimated_position = (0.125, 0.375)
        third = detect_isoline_nodes(net, query, CostAccountant(net.n_nodes))
        assert ((0.125, 0.375), net.nodes[j].value) in third.neighborhood_data[peer]
