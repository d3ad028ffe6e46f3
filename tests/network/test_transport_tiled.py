"""Differential tests: tile-sharded epoch resolution vs the global batch.

Fault draws are keyed by ``(edge, frame, attempt)`` and each directed
edge is owned by exactly one sender tile, so resolving a level's frames
per tile and merging at the deterministic barrier must be *bit-identical*
to the single global batch: byte-identical per-node tx/rx/ops accounting
and an identical :class:`DegradationReport` at **any** tile size, any
tile-worker count, and every defense-toggle combination.  The n=2500
pins below are the acceptance gate for the million-node scaling path --
whatever tiling does for memory, it must not move a single byte.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.core.wire import VALUE_REPORT_BYTES
from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.tiling import TilePartition
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    forward_reports_to_sink,
)

BOX = BoundingBox(0, 0, 20, 20)
QUERY = ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2)

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


def radial_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


def _evidence(run):
    costs = run.costs
    deg = run.degradation
    return (
        hashlib.sha256(costs.tx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.rx_bytes.tobytes()).hexdigest(),
        hashlib.sha256(costs.ops.tobytes()).hexdigest(),
        dataclasses.asdict(deg) if deg is not None else None,
    )


def _run(plan, config=None, n=400, seed=3, tile_size=None, tile_jobs=1):
    cfg = config if config is not None else TransportConfig.hardened()
    return IsoMapProtocol(
        QUERY,
        FilterConfig(30, 4),
        fault_plan=plan,
        transport_config=cfg,
        tile_size=tile_size,
        tile_jobs=tile_jobs,
    ).run(radial_net(n=n, seed=seed))


class TestAcceptancePin2500:
    """ISSUE acceptance: n=2500, moderate faults, >= 2 tile layouts."""

    @pytest.fixture(scope="class")
    def untiled(self):
        run = _run(FaultPlan.moderate(seed=5), n=2500, seed=1)
        assert run.degradation.is_conserved
        return _evidence(run)

    @pytest.mark.parametrize("tile_size", [10.0, 18.0])
    def test_tiled_bit_identical(self, untiled, tile_size):
        run = _run(
            FaultPlan.moderate(seed=5), n=2500, seed=1, tile_size=tile_size
        )
        assert run.degradation.is_conserved
        assert _evidence(run) == untiled, (
            f"tile_size={tile_size} diverged from the untiled epoch"
        )


class TestTiledMatchesGlobal:
    @pytest.mark.parametrize("cfg", sorted(CONFIGS))
    def test_every_config_toggle(self, cfg):
        plan = FaultPlan.at_intensity(0.5, seed=11)
        base = _evidence(_run(plan, CONFIGS[cfg]))
        tiled = _evidence(_run(plan, CONFIGS[cfg], tile_size=6.0))
        assert tiled == base, f"{cfg} diverged under tiling"

    def test_no_crc_mangler_order(self):
        # Without a CRC, corrupted-but-delivered frames feed the shared
        # Mersenne mangler stream; its draws must happen in global slot
        # order at the merge barrier, not per tile.  A heavy-corruption
        # plan makes any reordering visible immediately.
        plan = FaultPlan(seed=23, corruption=0.4, link=None)
        base = _evidence(_run(plan, CONFIGS["no-crc"]))
        for ts in (3.0, 8.0):
            assert _evidence(_run(plan, CONFIGS["no-crc"], tile_size=ts)) == base

    def test_crash_recovery_with_tiling(self):
        plan = FaultPlan(seed=17, crash_ratio=0.25, recover_ratio=0.3)
        base = _run(plan)
        tiled = _run(plan, tile_size=5.0)
        assert _evidence(tiled) == _evidence(base)
        assert tiled.degradation.repaired_orphans > 0

    def test_single_tile_degenerates_to_global(self):
        plan = FaultPlan.moderate(seed=5)
        base = _evidence(_run(plan))
        assert _evidence(_run(plan, tile_size=100.0)) == base

    @settings(deadline=None, max_examples=10)
    @given(
        tile_size=st.floats(min_value=1.5, max_value=30.0),
        seed=st.integers(min_value=0, max_value=40),
    )
    def test_randomized_layouts_and_seeds(self, tile_size, seed):
        plan = FaultPlan.at_intensity(0.6, seed=seed)
        base = _evidence(_run(plan, seed=seed))
        tiled = _evidence(_run(plan, seed=seed, tile_size=tile_size))
        assert tiled == base

    def test_worker_pool_matches_inline(self):
        # tile_jobs=2 ships detached draw jobs (cursor-restored rng
        # streams) to a process pool; results and stream write-back must
        # match the inline per-tile path byte for byte.
        plan = FaultPlan.at_intensity(0.5, seed=7)
        inline = _evidence(_run(plan, tile_size=5.0, tile_jobs=1))
        pooled = _evidence(_run(plan, tile_size=5.0, tile_jobs=2))
        assert pooled == inline


class TestTransportLevelTiling:
    def test_forward_reports_with_explicit_partition(self):
        # Below the protocol layer: hand the transport a TilePartition
        # directly and drive the plain store-and-forward walk.
        plan = FaultPlan.moderate(seed=9)

        def run(tiling):
            net = radial_net(seed=6)
            costs = CostAccountant(net.n_nodes)
            transport = EpochTransport(
                net, costs, plan=plan, tiling=tiling, tile_jobs=1
            )
            sources = [
                node.node_id
                for node in net.nodes
                if node.can_sense and node.level is not None
            ]
            delivered = forward_reports_to_sink(
                net, [(s, VALUE_REPORT_BYTES) for s in sources], costs,
                ops_per_forward=3, transport=transport,
            )
            deg = transport.finalize()
            return (
                delivered,
                costs.tx_bytes.tobytes(),
                costs.rx_bytes.tobytes(),
                costs.ops.tobytes(),
                dataclasses.asdict(deg),
            )

        net = radial_net(seed=6)
        part = TilePartition.build(net.positions_array, net.bounds, 4.0)
        assert run(part) == run(None)

    def test_zero_fault_ignores_tiling(self):
        # Null plan -> no engine -> tiling must be inert (the analytic
        # and scalar zero-fault paths stay byte-identical).
        base = _evidence(_run(None))
        assert _evidence(_run(None, tile_size=4.0)) == base
