"""Differential tests: the level driver vs the per-frame oracle.

``EpochTransport.run_collection`` resolves each tree level's frames as
one batch.  It must be *bit-identical* to the per-frame oracle in
``tests/network/transport_reference.py`` (a walk that sends one frame
and draws one attempt at a time) under the same seed: byte-identical
per-node tx/rx/ops accounting and an identical :class:`DegradationReport`,
for every protocol, every defense-toggle combination and several fault
intensities, with no plan and with the null plan, and with relays whose
``alive`` flag was cleared without a tree rebuild.  The zero-fault
closed form of ``forward_reports_to_sink`` is held to the same oracle.
These tests pin that contract; they are what licenses every other test
in the suite to run on the level driver.
"""

import dataclasses
import hashlib
import random

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
from repro.core.continuous import RETRACTION_BYTES
from repro.core.wire import VALUE_REPORT_BYTES
from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import (
    BernoulliLink,
    FaultPlan,
    GilbertElliottLink,
)
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    forward_reports_to_sink,
)
from tests.network.transport_reference import (
    count_disconnected_reference,
    forward_reports_reference,
    reference_transport,
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


#: Every defense-toggle combination the differential sweep covers: both
#: presets plus each defense switched off alone.
CONFIGS = {
    "hardened": TransportConfig.hardened(),
    "vanilla": TransportConfig.vanilla(),
    "no-arq": dataclasses.replace(
        TransportConfig.hardened(), arq=False, max_retries=0
    ),
    "no-crc": dataclasses.replace(TransportConfig.hardened(), crc=False),
    "no-dedup": dataclasses.replace(TransportConfig.hardened(), dedup=False),
    "no-reparent": dataclasses.replace(TransportConfig.hardened(), reparent=False),
}

PROTOCOLS = (
    "iso-map",
    "isoline-agg",
    "tinydb",
    "inlr",
    "escan",
    "suppression",
)


def _evidence(run):
    """The bit-identity evidence: cost-array digests + the full report."""
    costs = run.costs
    deg = run.degradation
    return (
        hashlib.sha256(costs.tx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.rx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.ops.tobytes()).hexdigest(),
        dataclasses.asdict(deg) if deg is not None else None,
    )


def _network(name, seed=1, dead_relays=False):
    """The deployment ``name`` runs on.  With ``dead_relays``, ``alive``
    is cleared on every fourth routed relay (a node some other node
    forwards through), without rebuilding the tree."""
    grid = name in ("tinydb", "inlr", "suppression")
    net = radial_grid_net(seed=seed) if grid else radial_net(seed=seed)
    if dead_relays:
        parent = net.tree.parent
        relays = np.unique(parent[parent >= 0])
        for u in relays[relays != net.sink_index][::4].tolist():
            net.nodes[u].alive = False
    return net


def _run_protocol(name, plan, config, seed=1, dead_relays=False):
    net = _network(name, seed, dead_relays)
    if name == "iso-map":
        return IsoMapProtocol(
            QUERY, FilterConfig(30, 4), fault_plan=plan, transport_config=config
        ).run(net)
    proto = {
        "isoline-agg": lambda: IsolineAggregationProtocol(
            QUERY, fault_plan=plan, transport_config=config
        ),
        "tinydb": lambda: TinyDBProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "inlr": lambda: INLRProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "escan": lambda: EScanProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
        "suppression": lambda: DataSuppressionProtocol(
            LEVELS, fault_plan=plan, transport_config=config
        ),
    }[name]()
    return proto.run(net)


def _differential(name, plan, config, **kwargs):
    fast = _run_protocol(name, plan, config, **kwargs)
    with reference_transport():
        ref = _run_protocol(name, plan, config, **kwargs)
    assert _evidence(fast) == _evidence(ref), f"{name} diverged from the oracle"
    if fast.degradation is not None:
        assert fast.degradation.is_conserved
    return fast


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_moderate_faults(self, name):
        _differential(name, FaultPlan.moderate(seed=5), TransportConfig.hardened())

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_every_protocol_heavy_faults_vanilla(self, name):
        _differential(name, FaultPlan.at_intensity(0.8, seed=9), TransportConfig.vanilla())

    @pytest.mark.parametrize("cfg", sorted(CONFIGS))
    def test_every_config_toggle(self, cfg):
        _differential("tinydb", FaultPlan.moderate(seed=7), CONFIGS[cfg])
        _differential("iso-map", FaultPlan.at_intensity(0.5, seed=11), CONFIGS[cfg])

    @pytest.mark.parametrize(
        "link", [BernoulliLink(0.7), GilbertElliottLink(0.3, 0.25, 1.0, 0.3)]
    )
    def test_link_models_alone(self, link):
        plan = FaultPlan(seed=13, link=link)
        _differential("tinydb", plan, TransportConfig.hardened())

    def test_zero_fault_batched_identical(self):
        # No engine at all: every frame lands on its first attempt, and
        # the level driver (and, for TinyDB and suppression, the closed
        # form) must charge exactly what the oracle's walk charges --
        # this is what keeps the golden snapshots valid.
        for name in PROTOCOLS:
            for plan in (None, FaultPlan.none()):
                _differential(name, plan, TransportConfig.hardened())

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_zero_fault_dead_relays_go_silent(self, name):
        # With no engine, a routed relay whose ``alive`` flag was cleared
        # without a tree rebuild strands its buffer and sends nothing,
        # as it does under any fault plan; its children re-parent around
        # it, exactly as the walk treats them.
        run = _differential(name, None, TransportConfig.hardened(), dead_relays=True)
        dead = ~_network(name, dead_relays=True).alive
        assert dead.any()
        assert run.costs.tx_bytes[dead].sum() == 0
        assert run.degradation.repaired_orphans > 0


def _forward_both_ways(make_frames, ops_per_forward=3):
    """Forward the same frames through the zero-fault closed form, the
    level driver and the oracle's per-frame walk; assert all three charge
    identical integers and return the closed form's evidence."""

    def run(forward, **kwargs):
        net, frames = make_frames()
        costs = CostAccountant(net.n_nodes)
        transport = EpochTransport(net, costs)
        delivered = forward(
            net, frames, costs,
            ops_per_forward=ops_per_forward, transport=transport, **kwargs,
        )
        deg = transport.finalize()
        return (
            delivered,
            costs.tx_bytes.tobytes(),
            costs.rx_bytes.tobytes(),
            costs.ops.tobytes(),
            dataclasses.asdict(deg),
        )

    fast = run(forward_reports_to_sink)
    assert fast == run(forward_reports_reference)
    assert fast == run(
        forward_reports_reference, collect=EpochTransport.run_collection
    )
    return fast


def _sensing_sources(net):
    return [
        node.node_id
        for node in net.nodes
        if node.can_sense and node.level is not None
    ]


def _delta_frames(net):
    """One monitor epoch's frames: isoline reports at their wire size,
    then position-only retractions (one from a reporting source too)."""
    reports = IsoMapProtocol(QUERY, FilterConfig.disabled()).run(net)
    frames = [(r.source, r.wire_bytes) for r in reports.generated_reports]
    reporting = {s for s, _ in frames}
    retracting = [
        s for s in _sensing_sources(net) if s not in reporting
    ][::9] + [frames[0][0], net.sink_index]
    return frames + [(s, RETRACTION_BYTES) for s in retracting]


class TestZeroFaultAnalytic:
    def test_analytic_forwarding_matches_per_frame_walk(self):
        # forward_reports_to_sink collapses the zero-fault epoch to
        # closed-form subtree sums; the oracle's per-frame walk and the
        # level driver must charge the identical integers.
        def make():
            net = radial_grid_net(seed=2)
            return net, [(s, VALUE_REPORT_BYTES) for s in _sensing_sources(net)]

        _forward_both_ways(make)

    def test_mixed_frame_sizes_reports_and_retractions(self):
        def make():
            net = radial_net(seed=4)
            return net, _delta_frames(net)

        net, frames = make()
        assert len({size for _, size in frames}) >= 2
        assert sum(size == RETRACTION_BYTES for _, size in frames) >= 3
        delivered, *_ = _forward_both_ways(make, ops_per_forward=0)
        # Indices address frames, so a source's report and retraction are
        # delivered separately.
        assert delivered == sorted(delivered)
        assert len({frames[i][0] for i in delivered}) < len(delivered)

    def test_tree_rebuilt_after_crashes(self):
        def make():
            net = radial_net(seed=5)
            frames = [(s, VALUE_REPORT_BYTES) for s in _sensing_sources(net)]
            net.fail_random(0.1, random.Random(99), mode="crash")
            return net, frames

        net, frames = make()
        unrouted = [s for s, _ in frames if net.tree.level[s] < 0]
        assert unrouted  # crashed sources (and any cut-off survivors)
        delivered, *_ = _forward_both_ways(make)
        assert len(delivered) == len(frames) - len(unrouted)


class TestRepairTraffic:
    def test_reparenting_charges_identically_and_is_exercised(self):
        # Crash-heavy plan with recovery: orphans must be adopted, the
        # probe/reply/join traffic charged, and the level driver's
        # adoption (including same-level adopters) byte-identical to the
        # oracle's.
        plan = FaultPlan(seed=17, crash_ratio=0.25, recover_ratio=0.3)
        config = TransportConfig.hardened()
        fast = _differential("tinydb", plan, config)
        assert fast.degradation.repaired_orphans > 0
        # Repair traffic is real charged traffic: the crash-only epoch
        # must cost strictly more than its reparent-disabled twin on the
        # surviving topology (probes, replies and joins are not free).
        off = _run_protocol(
            "tinydb", plan, dataclasses.replace(config, reparent=False)
        )
        assert fast.costs.tx_bytes.sum() > off.costs.tx_bytes.sum()


class TestDisconnectedCount:
    # A 0.6 kill ratio shatters the graph into several components.
    @pytest.mark.parametrize(
        "seed,kill",
        [(0, 0.3), (3, 0.3), (8, 0.3), (0, 0.6), (3, 0.6), (8, 0.6)],
        ids=["0", "3", "8", "0-kill0.6", "3-kill0.6", "8-kill0.6"],
    )
    def test_vectorized_matches_reference(self, seed, kill):
        net = radial_net(seed=seed)
        rng = random.Random(seed)
        for node in net.nodes:
            if node.node_id != net.sink_index and rng.random() < kill:
                node.alive = False
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        regions = transport._count_disconnected()
        assert regions == count_disconnected_reference(transport)
        if kill > 0.5:
            assert regions >= 3

    def test_no_failures_means_zero(self):
        net = radial_net(seed=1)
        transport = EpochTransport(net, CostAccountant(net.n_nodes))
        assert transport._count_disconnected() == 0
        assert count_disconnected_reference(transport) == 0


class TestConservationProperty:
    @pytest.mark.parametrize("case_seed", range(8))
    def test_is_conserved_under_randomized_combined_faults(self, case_seed):
        # Property: whatever combination of crash/recover, burst loss,
        # corruption and duplication an epoch throws at any protocol, the
        # instance conservation law holds exactly on the level driver.
        rng = random.Random(1000 + case_seed)
        link = rng.choice(
            [
                None,
                BernoulliLink(rng.uniform(0.5, 1.0)),
                GilbertElliottLink(
                    p_enter_bad=rng.uniform(0.05, 0.5),
                    p_exit_bad=rng.uniform(0.2, 0.9),
                    deliver_good=1.0,
                    deliver_bad=rng.uniform(0.1, 0.9),
                ),
            ]
        )
        plan = FaultPlan(
            seed=rng.randrange(2**16),
            crash_ratio=rng.uniform(0.0, 0.4),
            recover_ratio=rng.uniform(0.0, 1.0),
            link=link,
            corruption=rng.uniform(0.0, 0.2),
            duplication=rng.uniform(0.0, 0.2),
        )
        name = PROTOCOLS[case_seed % len(PROTOCOLS)]
        run = _run_protocol(name, plan, TransportConfig.hardened())
        deg = run.degradation
        assert deg is not None and deg.generated > 0
        assert deg.is_conserved, f"{name} seed={case_seed}: {deg.summary()}"
        total_charged = int(run.costs.tx_bytes.sum())
        assert total_charged >= 0
        assert np.all(run.costs.tx_bytes >= 0)
