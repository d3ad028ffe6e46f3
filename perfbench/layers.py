"""What the traced run wraps, and the per-layer metrics it derives.

:data:`TARGETS` lists one :class:`~perfbench.spans.Target` per public
call the benchmark times, each patched at every module that looks the
name up.  Private phases are not wrapped: the query flood and the
collection loop show up as the self time of ``IsoMapProtocol.run``, and
the continuous monitor's private forwarder as the self time of
``ContinuousIsoMap.epoch``.

:data:`PER_LAYER` is the per-layer metric table -- unit, direction and
the end-to-end metric each one should move -- and :func:`layer_metrics`
computes every entry from a span table.  A layer a workload does not run
reports 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.spans import SpanTable, Target


def _wrap_callbacks(rec, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Time the protocol's collection callbacks as protocol work."""
    transport, frames_for, on_arrival, *rest = args
    return (
        transport,
        rec.wrap("protocol.callback", frames_for),
        rec.wrap("protocol.callback", on_arrival),
        *rest,
    )


def _degradation(report, _args) -> Dict[str, float]:
    return {
        "generated": report.generated,
        "delivered": report.delivered,
        "lost": report.lost,
        "retransmissions": report.retransmissions,
    }


def _epoch_result(result, _args) -> Dict[str, float]:
    return {
        "new_reports": len(result.new_reports),
        "retractions": len(result.retractions),
        "cached": result.cached_reports,
        "predicted": result.predicted,
        "heartbeats": result.heartbeats,
        "tracks": result.tracks,
        "staleness": result.staleness,
    }


def _reconstruct(_result, args) -> Dict[str, float]:
    sink = args[0]
    return {
        "dirty_frac": sink.last_dirty_fraction(),
        "full_rebuilds": sink.last_full_rebuilds,
    }


def _worker_payload(result, _args) -> Dict[str, float]:
    return {
        "records": len(result["records"]),
        "s_records": len(result.get("s_records", ())),
    }


_P = "repro.core.protocol"
_C = "repro.core.continuous"
_N = "repro.network.network"
_T = "repro.network.transport"
_R = "repro.core.reconstruction"
_S = "repro.serving.session"
_PB = "repro.core.prediction:PredictorBank"

#: Every wrapped call.  Sites name the module where callers look it up.
TARGETS: Tuple[Target, ...] = (
    Target("network.deploy", (f"{_N}:SensorNetwork.random_deploy",)),
    Target(
        "topology.csr",
        (f"{_N}:build_csr_adjacency",),
        count=lambda csr, _a: {"edges": len(csr.indices) // 2},
    ),
    Target(
        "routing_tree.build",
        (f"{_N}:build_routing_tree",),
        count=lambda tree, _a: {"depth": tree.depth},
    ),
    Target("network.resense", (f"{_N}:SensorNetwork.resense",)),
    Target("protocol.run", (f"{_P}:IsoMapProtocol.run",)),
    Target(
        "detection.detect",
        (f"{_P}:detect_isoline_nodes", f"{_C}:detect_isoline_nodes"),
        count=lambda r, _a: {
            "candidates": len(r.candidates),
            "isoline_nodes": len(r.isoline_nodes),
        },
    ),
    Target(
        "gradient.batch",
        (f"{_P}:estimate_gradients_batch",),
        count=lambda r, _a: {"estimates": len(r)},
    ),
    Target(
        "filtering.offer",
        ("repro.core.filtering:InNetworkFilter.offer",),
        count=lambda accepted, _a: {"offers": 1, "accepted": int(bool(accepted))},
    ),
    Target("transport.init", (f"{_T}:EpochTransport.__init__",)),
    Target(
        "transport.collect",
        (f"{_T}:EpochTransport.run_collection",),
        wrap_args=_wrap_callbacks,
    ),
    Target(
        "transport.finalize",
        (f"{_T}:EpochTransport.finalize",),
        count=_degradation,
    ),
    Target(
        "faults.draw",
        ("repro.network.faults:FaultEngine.frame_draws_batch",),
        count=lambda _r, _a: {"calls": 1},
    ),
    Target(
        "tiling.partition",
        (f"{_P}:TilePartition.build",),
        count=lambda part, _a: {"tiles": part.n_tiles},
    ),
    Target("tiling.reduce", (f"{_T}:reduce_attempt_draws",)),
    Target("contour_map.build", (f"{_P}:build_contour_map",)),
    Target(
        "contour_map.reconstruct",
        ("repro.core.contour_map:SinkReconstructor.reconstruct",),
        count=_reconstruct,
    ),
    Target(
        "voronoi.build",
        (f"{_R}:bounded_voronoi",),
        count=lambda cells, _a: {"cells": len(cells)},
    ),
    Target(
        "voronoi.recompute",
        (f"{_R}:recompute_cell",),
        count=lambda _r, _a: {"cells": 1},
    ),
    Target(
        "continuous.epoch",
        (f"{_C}:ContinuousIsoMap.epoch",),
        count=_epoch_result,
    ),
    Target("prediction.advance", (f"{_PB}.advance",)),
    Target("prediction.decide", (f"{_PB}.decide",)),
    Target("prediction.decide_retractions", (f"{_PB}.decide_retractions",)),
    Target("prediction.apply", (f"{_PB}.apply",)),
    Target("prediction.extrapolated", (f"{_PB}.extrapolated",)),
    Target(
        "session.advance",
        (f"{_S}:MapSession.advance",),
        epoch=lambda a: a[0].store.latest_epoch + 1,
    ),
    Target(
        "supervisor.compute",
        ("repro.serving.supervisor:SupervisedShardPool.compute",),
        epoch=lambda a: a[2],
    ),
    Target(
        "session.worker",
        ("repro.serving.worker:compute_epoch",),
        epoch=lambda a: a[1],
        count=_worker_payload,
        cross_thread=True,
    ),
    Target(
        "session.compute",
        (f"{_S}:SessionCompute.epoch",),
        epoch=lambda a: a[1],
    ),
    Target("wire.encode", (f"{_S}:encode_delta",)),
    Target("wire.simplify", ("repro.serving.wire:SimplifiedStream.fold_epoch",)),
    Target("store.put", ("repro.serving.store:MapStore.put_epoch",)),
    Target(
        "store.snapshot",
        ("repro.serving.store:MapStore.snapshot",),
        epoch=lambda a: a[0].latest_epoch,
    ),
)

#: Spans of the epoch-level call every workload roots its epochs in.
ROOT_SPANS = ("protocol.run", "session.advance")

_SETUP = ("network.deploy", "topology.csr", "routing_tree.build")
_ONESHOT = _SETUP + (
    "protocol.run",
    "protocol.callback",
    "detection.detect",
    "gradient.batch",
    "filtering.offer",
    "transport.init",
    "transport.collect",
    "transport.finalize",
    "faults.draw",
    "tiling.reduce",
    "contour_map.build",
    "voronoi.build",
)

#: The spans each workload declares; every one must fire in its traced run.
#: ``voronoi.recompute`` is wrapped but declared nowhere: at the serving
#: operating point every epoch moves more cells than the splice
#: threshold allows, so both levels rebuild in full (dirty_frac 1.0).
DECLARED: Dict[str, Tuple[str, ...]] = {
    "paper_faulted": _ONESHOT,
    "large_tiled": _ONESHOT + ("tiling.partition",),
    "serve_fanout": _SETUP
    + (
        "network.resense",
        "session.advance",
        "supervisor.compute",
        "session.worker",
        "session.compute",
        "continuous.epoch",
        "detection.detect",
        "gradient.batch",
        "prediction.advance",
        "prediction.decide",
        "prediction.decide_retractions",
        "prediction.apply",
        "prediction.extrapolated",
        "contour_map.reconstruct",
        "voronoi.build",
        "wire.encode",
        "wire.simplify",
        "store.put",
        "store.snapshot",
    ),
}

_PF, _LT, _SF = "paper_faulted", "large_tiled", "serve_fanout"

#: (name, unit, better, should move) for every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("network.build_self_ms", "ms", "lower", f"setup_s on {_LT}"),
    ("network.resense_ms", "ms", "lower", f"fresh_ms_p50 on {_SF} (small)"),
    ("topology.csr_ms", "ms", "lower", f"setup_s on {_LT}"),
    ("topology.edges", "count", "lower", f"setup_s on {_LT}"),
    ("routing_tree.build_ms", "ms", "lower", f"setup_s on {_LT}"),
    ("routing_tree.depth", "count", "lower", f"setup_s on {_LT}"),
    ("protocol.run_self_ms", "ms", "lower", f"epoch_s on {_LT}"),
    ("detection.ms", "ms", "lower", f"epoch_s on {_LT} (most), {_PF}; fresh_ms_p50 on {_SF}"),
    ("detection.candidates", "count", "lower", f"epoch_s on {_LT}"),
    ("detection.isoline_nodes", "count", "lower", f"epoch_s on {_LT}"),
    ("detection.hit_ratio", "fraction", "higher", f"epoch_s on {_LT}"),
    ("gradient.ms", "ms", "lower", f"epoch_s on {_PF}"),
    ("gradient.estimates", "count", "lower", f"epoch_s on {_PF}"),
    ("filtering.ms", "ms", "lower", f"epoch_s on {_PF}"),
    ("filtering.offers", "count", "lower", f"epoch_s on {_PF}"),
    ("filtering.accept_ratio", "fraction", "lower", f"epoch_s and traffic_kb on {_PF}"),
    ("transport.self_ms", "ms", "lower", f"epoch_s on {_PF}"),
    ("transport.finalize_ms", "ms", "lower", f"epoch_s on {_PF}"),
    ("transport.generated", "count", "lower", f"traffic_kb on {_PF}"),
    ("transport.delivered", "count", "higher", f"map_accuracy on {_PF}"),
    ("transport.lost", "count", "lower", f"map_accuracy on {_PF}"),
    ("transport.retransmissions", "count", "lower", f"epoch_s and traffic_kb on {_PF}"),
    ("transport.delivery_rate", "fraction", "higher", f"map_accuracy on {_PF}"),
    ("faults.draw_ms", "ms", "lower", f"epoch_s on {_PF} and {_LT}"),
    ("faults.draw_calls", "count", "lower", f"epoch_s on {_PF} and {_LT}"),
    ("tiling.partition_ms", "ms", "lower", f"epoch_s on {_LT}"),
    ("tiling.reduce_ms", "ms", "lower", f"epoch_s on {_LT}"),
    ("tiling.tiles", "count", "lower", f"epoch_s on {_LT}"),
    ("contour_map.build_ms", "ms", "lower", f"epoch_s on {_PF}"),
    ("contour_map.reconstruct_ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("contour_map.dirty_frac", "fraction", "lower", f"fresh_ms_p50 on {_SF}"),
    ("contour_map.full_rebuilds", "count", "lower", f"fresh_ms_p50 on {_SF}"),
    ("voronoi.ms", "ms", "lower", f"epoch_s on {_PF}; fresh_ms_p50 on {_SF}"),
    ("voronoi.cells", "count", "lower", f"epoch_s on {_PF}; fresh_ms_p50 on {_SF}"),
    ("continuous.self_ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("continuous.new_reports", "count", "lower", f"traffic_kb on {_SF}"),
    ("continuous.retractions", "count", "lower", f"traffic_kb on {_SF}"),
    ("continuous.cached", "count", "lower", f"fresh_ms_p50 on {_SF}"),
    ("prediction.ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("prediction.predicted", "count", "higher", f"traffic_kb on {_SF}"),
    ("prediction.heartbeats", "count", "lower", f"traffic_kb on {_SF}"),
    ("prediction.tracks", "count", "lower", f"fresh_ms_p50 on {_SF}"),
    ("prediction.staleness_max", "epochs", "lower", f"map_accuracy on {_SF}"),
    ("session.compute_self_ms", "ms", "lower", f"fresh_ms_p90 on {_SF}"),
    ("session.advance_self_ms", "ms", "lower", f"fresh_ms_p90 on {_SF}"),
    ("session.queue_ms_p50", "ms", "lower", f"fresh_ms_p90 on {_SF}"),
    ("session.queue_ms_p90", "ms", "lower", f"fresh_ms_p90 on {_SF}"),
    ("session.evicted", "count", "lower", f"fresh_ms_p90 on {_SF}"),
    ("supervisor.overhead_ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("supervisor.retries", "count", "lower", f"fresh_ms_p50 on {_SF}"),
    ("wire.encode_ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("wire.simplify_ms", "ms", "lower", f"fresh_ms_p50 on {_SF}"),
    ("wire.kept_ratio", "fraction", "lower", f"delivery_bytes on {_SF}"),
    ("store.put_ms", "ms", "lower", f"fresh_ms_p90 on {_SF}"),
    ("store.snapshot_us_p50", "us", "lower", f"fresh_ms_p90 on {_SF}"),
    ("store.snapshot_renders", "count", "lower", f"fresh_ms_p90 on {_SF}"),
    ("driver.late_ms_max", "ms", "lower", "none: benchmark health"),
    ("driver.unattributed_frac", "fraction", "lower", "none: benchmark health"),
    ("driver.trace_overhead_frac", "fraction", "lower", "none: benchmark health"),
)

#: Per-layer counts the program makes; they must repeat exactly at one
#: seed.  Snapshot renders, evictions and supervisor retries depend on
#: how the read clock, the epoch clock and the deadlines interleave, so
#: they are load outcomes, not program counts.
DETERMINISTIC = tuple(
    name
    for name, unit, _b, _m in PER_LAYER
    if unit in ("count", "fraction", "epochs")
    and not name.startswith("driver.")
    and name not in ("store.snapshot_renders", "session.evicted", "supervisor.retries")
)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    table: SpanTable,
    epochs: Sequence[int],
    window: Sequence[int],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    Args:
        table: the traced run's spans (set-up and measured epochs).
        epochs: the measured epoch ids; times are per-epoch medians.
        window: the fixed epochs whose counts are reported (per-epoch
            means), identical at every run length.
        extra: metrics measured outside the spans (queue latencies,
            driver health, supervision and store counters).
    """
    self_t = table.self_times()
    epoch_set = set(epochs)
    window_set = set(window)
    rows = table.rows

    def per_epoch_ms(*names: str, own: bool = True) -> float:
        """Median over epochs of the summed (self or whole) time, ms."""
        totals = {e: 0.0 for e in epoch_set}
        for i in rows(*names):
            e = table.epoch[i]
            if e in totals:
                totals[e] += self_t[i] if own else table.duration(i)
        return 1e3 * _median(list(totals.values()))

    def any_ms(name: str, own: bool = False) -> float:
        """Median over every span of ``name`` (set-up layers), ms."""
        vals = [self_t[i] if own else table.duration(i) for i in rows(name)]
        return 1e3 * _median(vals)

    def reported(name: str, key: str, in_window: bool = True) -> List[float]:
        """The ``key`` counts ``name``'s calls reported (window only)."""
        out = []
        for i in rows(name):
            counts = table.values.get(i)
            if counts is not None and (not in_window or table.epoch[i] in window_set):
                out.append(counts[key])
        return out

    def total(name: str, key: str) -> float:
        return sum(reported(name, key))

    def mean(name: str, key: str) -> float:
        return total(name, key) / len(window) if window else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def build_mean(name: str, key: str) -> float:
        """Mean over every call (set-up layers build once per deployment)."""
        hits = reported(name, key, in_window=False)
        return sum(hits) / len(hits) if hits else 0.0

    roots = [
        i
        for i in rows(*ROOT_SPANS)
        if table.epoch[i] in epoch_set and table.duration(i) > 0
    ]
    snap_us = [1e6 * table.duration(i) for i in rows("store.snapshot")]
    out = {
        "network.build_self_ms": any_ms("network.deploy", own=True),
        "network.resense_ms": per_epoch_ms("network.resense"),
        "topology.csr_ms": any_ms("topology.csr"),
        "topology.edges": build_mean("topology.csr", "edges"),
        "routing_tree.build_ms": any_ms("routing_tree.build"),
        "routing_tree.depth": build_mean("routing_tree.build", "depth"),
        "protocol.run_self_ms": per_epoch_ms("protocol.run", "protocol.callback"),
        "detection.ms": per_epoch_ms("detection.detect"),
        "detection.candidates": mean("detection.detect", "candidates"),
        "detection.isoline_nodes": mean("detection.detect", "isoline_nodes"),
        "detection.hit_ratio": ratio(
            total("detection.detect", "isoline_nodes"),
            total("detection.detect", "candidates"),
        ),
        "gradient.ms": per_epoch_ms("gradient.batch"),
        "gradient.estimates": mean("gradient.batch", "estimates"),
        "filtering.ms": per_epoch_ms("filtering.offer"),
        "filtering.offers": mean("filtering.offer", "offers"),
        "filtering.accept_ratio": ratio(
            total("filtering.offer", "accepted"), total("filtering.offer", "offers")
        ),
        "transport.self_ms": per_epoch_ms(
            "transport.init", "transport.collect", "transport.finalize"
        ),
        "transport.finalize_ms": per_epoch_ms("transport.finalize", own=False),
        "transport.generated": mean("transport.finalize", "generated"),
        "transport.delivered": mean("transport.finalize", "delivered"),
        "transport.lost": mean("transport.finalize", "lost"),
        "transport.retransmissions": mean("transport.finalize", "retransmissions"),
        "transport.delivery_rate": ratio(
            total("transport.finalize", "delivered"),
            total("transport.finalize", "generated"),
        ),
        "faults.draw_ms": per_epoch_ms("faults.draw"),
        "faults.draw_calls": mean("faults.draw", "calls"),
        "tiling.partition_ms": per_epoch_ms("tiling.partition"),
        "tiling.reduce_ms": per_epoch_ms("tiling.reduce"),
        "tiling.tiles": build_mean("tiling.partition", "tiles"),
        "contour_map.build_ms": per_epoch_ms("contour_map.build", own=False),
        "contour_map.reconstruct_ms": per_epoch_ms(
            "contour_map.reconstruct", own=False
        ),
        "contour_map.dirty_frac": mean("contour_map.reconstruct", "dirty_frac"),
        "contour_map.full_rebuilds": mean("contour_map.reconstruct", "full_rebuilds"),
        "voronoi.ms": per_epoch_ms("voronoi.build", "voronoi.recompute"),
        "voronoi.cells": mean("voronoi.build", "cells")
        + mean("voronoi.recompute", "cells"),
        "continuous.self_ms": per_epoch_ms("continuous.epoch"),
        "continuous.new_reports": mean("continuous.epoch", "new_reports"),
        "continuous.retractions": mean("continuous.epoch", "retractions"),
        "continuous.cached": mean("continuous.epoch", "cached"),
        "prediction.ms": per_epoch_ms(
            "prediction.advance",
            "prediction.decide",
            "prediction.decide_retractions",
            "prediction.apply",
            "prediction.extrapolated",
        ),
        "prediction.predicted": mean("continuous.epoch", "predicted"),
        "prediction.heartbeats": mean("continuous.epoch", "heartbeats"),
        "prediction.tracks": mean("continuous.epoch", "tracks"),
        "prediction.staleness_max": max(
            reported("continuous.epoch", "staleness"), default=0
        ),
        "session.compute_self_ms": per_epoch_ms("session.compute"),
        "session.advance_self_ms": per_epoch_ms("session.advance"),
        "supervisor.overhead_ms": per_epoch_ms("supervisor.compute"),
        "wire.encode_ms": per_epoch_ms("wire.encode", own=False),
        "wire.simplify_ms": per_epoch_ms("wire.simplify", own=False),
        "wire.kept_ratio": ratio(
            total("session.worker", "s_records"), total("session.worker", "records")
        ),
        "store.put_ms": per_epoch_ms("store.put", own=False),
        "store.snapshot_us_p50": _median(snap_us),
        "driver.unattributed_frac": _median(
            [self_t[i] / table.duration(i) for i in roots]
        ),
    }
    for name, _unit, _better, _moves in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra)
    return {name: float(out[name]) for name, *_ in PER_LAYER}
