"""Benchmark of the slot-batched collection transport -> ``BENCH_transport.json``.

Times the level-at-a-time collection driver
(``EpochTransport.run_collection``) against the per-frame oracle walk in
``tests/network/transport_reference.py``, plus the vectorized topology
construction against its scalar reference:

- ``epoch_moderate_faults``  one full collection epoch (one report per
                             sensing node forwarded to the sink) under
                             ``FaultPlan.moderate()`` -- ARQ, CRC, dedup
                             and re-parenting all exercised.  This is the
                             headline: the level driver is pinned
                             bit-identical to the oracle by the
                             differential suite and re-verified here
                             before anything is timed.
- ``tree_build``             CSR frontier-array BFS + segmented parent
                             argmin vs the scalar FIFO-BFS reference.

An extra ``large_n`` section records the absolute wall clock of one
moderate-fault epoch at n = 40000 (the large-n feasibility point the
scaling experiments rely on).

``quick_report()`` runs the CI sizes that ``benchmarks/gates.py`` gates
(each kernel at no less than half its committed speedup);
``full_report()`` is what ``python benchmarks/record.py transport``
writes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict

import record  # puts src/ and the repo root on sys.path

import numpy as np

from repro.core.wire import VALUE_REPORT_BYTES
from repro.field import make_harbor_field
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.routing_tree import build_routing_tree
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    forward_reports_to_sink,
)
from tests.network.routing_tree_reference import build_routing_tree_reference
from tests.network.transport_reference import forward_reports_reference

#: Headline size: the paper's density-1 operating point.
FULL_N = 2500

#: CI smoke size.
QUICK_N = 400

#: Large-n feasibility point (side 200 at density 1).
LARGE_N = 40000


def _network(n: int, seed: int = 1) -> SensorNetwork:
    side = round(n**0.5)
    field = make_harbor_field(side=side)
    return SensorNetwork.random_deploy(field, n, radio_range=1.5, seed=seed)


def _run_epoch(net: SensorNetwork, forward=forward_reports_to_sink, seed: int = 3):
    """One collection epoch under the moderate plan, through ``forward``
    (the level driver by default, or the oracle's
    ``forward_reports_reference``); returns the evidence tuple the
    bit-identity check compares."""
    costs = CostAccountant(net.n_nodes)
    transport = EpochTransport(
        net,
        costs,
        config=TransportConfig.hardened(),
        plan=FaultPlan.moderate(seed=seed),
    )
    state = net.node_state()
    sources = np.flatnonzero(state.can_sense & state.routed).tolist()
    delivered = forward(
        net, [(s, VALUE_REPORT_BYTES) for s in sources], costs, transport=transport
    )
    degradation = transport.finalize()
    return delivered, costs, degradation


def _verify_epoch(net: SensorNetwork) -> None:
    """Assert the level driver's epoch is bit-identical to the oracle's."""
    d_fast, c_fast, g_fast = _run_epoch(net)
    d_ref, c_ref, g_ref = _run_epoch(net, forward_reports_reference)
    assert d_fast == d_ref
    assert np.array_equal(c_fast.tx_bytes, c_ref.tx_bytes)
    assert np.array_equal(c_fast.rx_bytes, c_ref.rx_bytes)
    assert np.array_equal(c_fast.ops, c_ref.ops)
    assert dataclasses.asdict(g_fast) == dataclasses.asdict(g_ref)


def _reference_inputs(net: SensorNetwork):
    """The scalar builder's inputs: position tuples and per-node
    neighbour lists read off the CSR (built outside any timed call)."""
    positions = [tuple(p) for p in net.positions_array.tolist()]
    lists = [net.csr.neighbors(i).tolist() for i in range(net.n_nodes)]
    return positions, lists


def _verify_tree(net: SensorNetwork) -> None:
    fast = build_routing_tree(net.positions_array, net.csr, net.sink_index)
    ref = build_routing_tree_reference(*_reference_inputs(net), net.sink_index)
    assert np.array_equal(fast.level, ref.level)
    assert np.array_equal(fast.parent, ref.parent)


def measure(n: int, quick: bool) -> Dict[str, Dict]:
    """Measure both kernels at size ``n`` (verifying bit-identity first)."""
    repeats = 2 if quick else 3
    net = _network(n)
    kernels: Dict[str, Dict] = {}

    _verify_epoch(net)
    fast_ms = record.best_of(lambda: _run_epoch(net), repeats)
    ref_ms = record.best_of(
        lambda: _run_epoch(net, forward_reports_reference), repeats
    )
    kernels["epoch_moderate_faults"] = record.kernel_entry(
        "per-frame oracle walk (tests/network/transport_reference.py)",
        "slot-batched level kernel (frame_draws_batch + charge_*_batch)",
        ref_ms,
        fast_ms,
    )

    _verify_tree(net)
    positions, lists = _reference_inputs(net)
    fast_ms = record.best_of(
        lambda: build_routing_tree(net.positions_array, net.csr, net.sink_index),
        repeats,
    )
    ref_ms = record.best_of(
        lambda: build_routing_tree_reference(positions, lists, net.sink_index),
        repeats,
    )
    kernels["tree_build"] = record.kernel_entry(
        "scalar FIFO-BFS + per-node parent scan",
        "CSR frontier-array BFS + segmented parent argmin",
        ref_ms,
        fast_ms,
    )
    return kernels


def measure_large_n() -> Dict[str, float]:
    """Absolute feasibility: one moderate-fault epoch at n = 40000."""
    t0 = time.perf_counter()
    net = _network(LARGE_N)
    build_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    _run_epoch(net)
    epoch_ms = (time.perf_counter() - t0) * 1e3
    return {
        "n": LARGE_N,
        "topology_build_ms": round(build_ms, 1),
        "epoch_ms": round(epoch_ms, 1),
        "peak_rss_mb": round(record.peak_rss_mb(), 1),
    }


def quick_report() -> Dict:
    """The CI-size section, shaped like the committed report."""
    return {"quick": {"n": QUICK_N, "kernels": measure(QUICK_N, quick=True)}}


def full_report() -> Dict:
    """The committed report: full sizes, the CI-size section and the
    large-n feasibility point."""
    quick = quick_report()
    return record.report(
        FULL_N,
        kernels=measure(FULL_N, quick=False),
        **quick,
        large_n=measure_large_n(),
    )
