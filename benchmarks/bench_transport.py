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

Usage::

    python benchmarks/bench_transport.py             # full + quick, writes BENCH_transport.json
    python benchmarks/bench_transport.py --quick     # CI smoke sizes only, no write
    python benchmarks/bench_transport.py --quick --check BENCH_transport.json
                                                     # fail if a kernel regressed >2x

``--check`` compares each measured speedup against the committed report
(the ``quick`` section when ``--quick`` is given) and exits 1 if any
kernel runs at less than half its committed speedup.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time
from typing import Dict, List, Optional

_HERE = pathlib.Path(__file__).resolve().parent
_ROOT = _HERE.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:  # standalone execution without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))
if str(_ROOT) not in sys.path:  # the oracle lives under tests/
    sys.path.insert(0, str(_ROOT))

import numpy as np

import record

from repro.core.wire import VALUE_REPORT_BYTES
from repro.field import make_harbor_field
from repro.network import CostAccountant, SensorNetwork
from repro.network.faults import FaultPlan
from repro.network.routing_tree import (
    build_routing_tree,
    build_routing_tree_reference,
)
from repro.network.transport import (
    EpochTransport,
    TransportConfig,
    forward_reports_to_sink,
)
from tests.network.transport_reference import forward_reports_reference

BENCH_JSON = _HERE.parent / "BENCH_transport.json"

#: Headline size: the paper's density-1 operating point.
FULL_N = 2500

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


def check_against(
    committed: Optional[Dict], measured: Dict[str, Dict], quick: bool
) -> List[str]:
    """Regression messages (empty = pass): any kernel at < committed/2."""
    if committed is None:
        return ["no committed report to check against"]
    section = committed.get("quick", {}) if quick else committed
    baseline = section.get("kernels", {})
    problems = []
    for name, entry in measured.items():
        if name not in baseline:
            problems.append(f"{name}: missing from committed report")
            continue
        floor = baseline[name]["speedup"] / 2.0
        if entry["speedup"] < floor:
            problems.append(
                f"{name}: measured {entry['speedup']:.2f}x < floor {floor:.2f}x "
                f"(committed {baseline[name]['speedup']:.2f}x)"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke sizes only; does not write the report")
    ap.add_argument("--check", metavar="PATH", default=None,
                    help="compare against a committed report; exit 1 if any "
                    "kernel runs at < half its committed speedup")
    args = ap.parse_args(argv)

    quick_n = 400
    if args.quick:
        print(f"measuring quick sizes (n={quick_n}) ...")
        quick_kernels = measure(quick_n, quick=True)
        print(record.format_kernels(quick_kernels))
        measured, rep = quick_kernels, None
    else:
        print(f"measuring full sizes (n={FULL_N}) ...")
        full_kernels = measure(FULL_N, quick=False)
        print(record.format_kernels(full_kernels))
        print(f"\nmeasuring quick sizes (n={quick_n}) ...")
        quick_kernels = measure(quick_n, quick=True)
        print(record.format_kernels(quick_kernels))
        print(f"\nmeasuring large-n feasibility (n={LARGE_N}) ...")
        large = measure_large_n()
        print(
            f"n={large['n']}: topology {large['topology_build_ms']:.0f} ms, "
            f"moderate-fault epoch {large['epoch_ms']:.0f} ms"
        )
        rep = record.report(
            FULL_N,
            full_kernels,
            quick={"n": quick_n, "kernels": quick_kernels},
            large_n=large,
        )
        measured = full_kernels

    if args.check:
        problems = check_against(
            record.load_report(pathlib.Path(args.check)), measured, args.quick
        )
        if problems:
            print("\nspeedup regression vs committed report:")
            for p in problems:
                print(f"  {p}")
            return 1
        print(f"\nno kernel regressed vs {args.check}")
    elif rep is not None:
        record.write_report(BENCH_JSON, rep)
        print(f"\nwrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
