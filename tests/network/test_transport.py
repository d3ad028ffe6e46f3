"""Unit and protocol-level tests for the fault-tolerant transport."""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    DataSuppressionProtocol,
    EScanProtocol,
    INLRProtocol,
    TinyDBProtocol,
)
from repro.baselines.isoline_agg import IsolineAggregationProtocol
from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.core.codec import ReportCodec
from repro.core.wire import check_crc, frame_with_crc
from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultEngine, FaultPlan
from repro.network.transport import (
    DegradationReport,
    EpochTransport,
    OutFrame,
    STRAND_CRASHED,
    TransportConfig,
)

BOX = BoundingBox(0, 0, 20, 20)
LEVELS = [14.0, 16.0]
QUERY = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)


def radial_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


def radial_grid_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.grid_deploy(field, n, radio_range=2.0, seed=seed)


def run_all_protocols(plan, config, seed=1):
    """One run of all six protocols under one plan; yields (name, run)."""
    rnet = radial_net(seed=seed)
    gnet = radial_grid_net(seed=seed)
    iso = IsoMapProtocol(
        QUERY, FilterConfig(30, 4), fault_plan=plan, transport_config=config
    ).run(rnet)
    yield "iso-map", iso.degradation
    for proto, net in (
        (IsolineAggregationProtocol(QUERY, fault_plan=plan, transport_config=config), rnet),
        (TinyDBProtocol(LEVELS, fault_plan=plan, transport_config=config), gnet),
        (INLRProtocol(LEVELS, fault_plan=plan, transport_config=config), gnet),
        (EScanProtocol(LEVELS, fault_plan=plan, transport_config=config), rnet),
        (DataSuppressionProtocol(LEVELS, fault_plan=plan, transport_config=config), gnet),
    ):
        yield proto.name, proto.run(net).degradation


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransportConfig(max_retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(backoff_cap=-1)

    def test_vanilla_disables_everything(self):
        v = TransportConfig.vanilla()
        assert not (v.arq or v.crc or v.dedup or v.reparent)
        assert TransportConfig.hardened() == TransportConfig()


class TestDegradationReport:
    def test_conservation_law(self):
        r = DegradationReport(generated=10, delivered=6, lost=3, dropped_by_filter=1)
        assert r.is_conserved
        r.lost = 2
        assert not r.is_conserved

    def test_rates(self):
        r = DegradationReport(generated=10, delivered=4)
        assert r.delivery_rate() == pytest.approx(0.4)
        assert DegradationReport().delivery_rate() == 1.0


class TestZeroFaultPath:
    def test_walk_matches_legacy_order(self):
        # The TAG slot order: frames_for runs once per routed non-sink
        # node, deepest level first and ascending id within a level, so
        # every child is asked before its parent; each node's frame lands
        # at its tree parent.
        net = radial_net()
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        calls, hops = [], []

        def frames_for(u):
            calls.append(u)
            return [OutFrame(nbytes=1, rids=(), payload=u)]

        def on_arrival(sender, receiver, frame, payload, is_dup):
            hops.append((sender, receiver, payload, is_dup))

        transport.run_collection(frames_for, on_arrival)
        tree = net.tree
        level = tree.level.tolist()
        expected = sorted(
            (u for u in range(net.n_nodes) if level[u] > 0),
            key=lambda u: (-level[u], u),
        )
        assert calls == expected
        position = {u: k for k, u in enumerate(calls)}
        for u in calls:
            p = int(tree.parent[u])
            assert p == tree.sink or position[u] < position[p]
        assert hops == [(u, int(tree.parent[u]), u, False) for u in calls]

    def test_send_charges_exactly_one_hop(self):
        net = radial_net()
        costs = CostAccountant(net.n_nodes)
        transport = EpochTransport(net, costs)
        u = int(np.flatnonzero(net.tree.level == 2)[0])
        p = int(net.tree.parent[u])
        rid = transport.register()
        arrivals = []

        def frames_for(node):
            return [OutFrame(nbytes=6, rids=(rid,), payload="r")] if node == u else []

        def on_arrival(sender, receiver, frame, payload, is_dup):
            arrivals.append((sender, receiver, payload, is_dup))

        transport.run_collection(frames_for, on_arrival)
        assert arrivals == [(u, p, "r", False)]
        assert costs.tx_bytes[u] == 6 and costs.rx_bytes[p] == 6
        assert costs.tx_bytes.sum() == 6 and costs.rx_bytes.sum() == 6
        assert costs.ops.sum() == 0

    def test_explicit_null_plan_matches_no_plan(self):
        def digests(plan):
            net = radial_net(seed=3)
            res = IsoMapProtocol(QUERY, FilterConfig(30, 4), fault_plan=plan).run(net)
            reports = tuple(
                (r.source, r.isolevel, r.position, r.direction)
                for r in res.delivered_reports
            )
            return (
                hashlib.sha256(res.costs.tx_bytes.tobytes()).hexdigest(),
                hashlib.sha256(res.costs.rx_bytes.tobytes()).hexdigest(),
                hashlib.sha256(res.costs.ops.tobytes()).hexdigest(),
                reports,
            )

        assert digests(None) == digests(FaultPlan.none())


class TestConservation:
    @pytest.mark.parametrize("defenses", ["hardened", "vanilla"])
    def test_every_protocol_conserves_instances(self, defenses):
        config = getattr(TransportConfig, defenses)()
        plan = FaultPlan.moderate(seed=2)
        for name, deg in run_all_protocols(plan, config):
            assert deg is not None, name
            assert deg.is_conserved, f"{name}: {deg.summary()}"
            assert deg.generated > 0, name
            assert deg.crashed_nodes > 0, name

    def test_defenses_help_delivery(self):
        plan = FaultPlan.moderate(seed=4)
        hard = dict(run_all_protocols(plan, TransportConfig.hardened()))
        soft = dict(run_all_protocols(plan, TransportConfig.vanilla()))
        better = sum(
            hard[name].delivery_rate() >= soft[name].delivery_rate()
            for name in hard
        )
        assert better >= 5  # defenses should not hurt (allow one tie-break)
        assert sum(h.retransmissions for h in hard.values()) > 0
        assert sum(h.repaired_orphans for h in hard.values()) > 0
        assert all(s.retransmissions == 0 for s in soft.values())


class TestCrcModel:
    def test_real_crc_catches_injected_damage(self):
        # The transport models CRC detection as certain; tie that to the
        # real CRC-16 catching every 1-3 bit damage corrupt_payload
        # injects into a codec-encoded report frame.
        net = radial_net()
        engine = FaultEngine(FaultPlan(seed=5, corruption=1.0), net)
        codec = ReportCodec.for_query(QUERY, net.bounds)
        res = IsoMapProtocol(QUERY, FilterConfig.disabled()).run(radial_net(seed=1))
        reports = res.delivered_reports[:20]
        assert reports
        for report in reports:
            frame = frame_with_crc(codec.encode(report))
            assert check_crc(frame)
            for _ in range(25):
                damaged = engine.corrupt_payload(frame)
                assert not check_crc(damaged)


class TestStranding:
    def test_crashed_holder_strands_its_buffer(self):
        net = radial_net()
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        rids = [transport.register() for _ in range(3)]
        transport.strand(rids, STRAND_CRASHED)
        deg = transport.finalize()
        assert deg.lost == 3 and deg.stranded_crashed == 3
        assert deg.is_conserved

    def test_open_instances_swept_to_lost_at_finalize(self):
        net = radial_net()
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        transport.register()
        deg = transport.finalize()
        assert deg.lost == 1 and deg.is_conserved


class TestPercolation:
    def test_crash_heavy_network_still_reconstructs(self):
        # Near the percolation threshold the alive graph is disconnected;
        # the run must complete, return a map, and account for the damage.
        net = radial_net(n=600, seed=2)
        net.fail_random(0.6, mode="crash")
        plan = FaultPlan(seed=6, crash_ratio=0.5)
        res = IsoMapProtocol(
            QUERY, FilterConfig.disabled(), fault_plan=plan
        ).run(net)
        deg = res.degradation
        assert res.contour_map is not None
        assert deg is not None and deg.is_conserved
        assert deg.is_degraded
        assert deg.crashed_nodes > 0
        assert deg.disconnected_regions > 0
