"""The benchmark's three workloads and the phase runners behind them.

A workload's inputs derive from the workload seed (:func:`fault_seed`,
:func:`deployment_seed`) unless its spec pins them: one deployment's
figures can differ from the next by more than any bound a run-to-run
comparison could keep (see ``WORKLOADS``).  A phase runs epochs until
both its time budget is spent and its minimum epoch count is reached;
the counts it reports (traffic, energy, accuracy, delivery bytes) are
averaged over a fixed window of epochs, so they repeat exactly at one
seed whatever the run length.

- :func:`run_oneshot` -- closed loop, one caller: consecutive one-shot
  ``IsoMapProtocol.run`` epochs, rotating over the deployments, under a
  fresh ``FaultPlan.at_intensity`` each epoch.
- :func:`run_serve` -- open loop: a ``MapService`` session is advanced
  on a fixed clock while thousands of delta subscribers drain their
  streams and snapshot reads arrive at a fixed rate; the session's
  monitor is then replayed closed loop to time its epoch compute.  The
  whole session runs on the event-loop thread (:class:`InlineExecutor`).
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
from array import array
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from perfbench.spans import NO_EPOCH, SpanRecorder

#: Raster of the accuracy metric (the experiments' 80 x 80 grid).
ACCURACY_RASTER = 80


def fault_seed(seed: int, epoch: int) -> int:
    """Seed of epoch ``epoch``'s fault plan under workload seed ``seed``."""
    return seed * 1_000_003 + epoch


def deployment_seed(seed: int, j: int, count: int, attempt: int = 0) -> int:
    """Seed of the ``j``-th of ``count`` deployments under workload seed
    ``seed`` (disjoint across workload seeds); ``attempt`` > 0 redraws."""
    return seed * count + j + attempt * 1_000_003


#: ``FaultPlan.at_intensity`` of every one-shot epoch.
FAULT_INTENSITY = 0.5

#: Snapshot reads due per second on the serving workload.
READS_PER_S = 100.0

#: Set-up is timed at least this often per phase (the median is reported).
SETUP_SAMPLES = 5

#: A deployment whose routing tree reaches fewer nodes is redrawn: the
#: paper's operating point is a connected network, and an isolated sink
#: would turn every epoch on it into an empty map.
MIN_REACHABLE = 0.9


@dataclass(frozen=True)
class OneShotSpec:
    """A closed-loop one-shot workload.

    Attributes:
        n: deployment size (density 1: the field side is sqrt(n)).
        side: side of the harbor field; None = the paper's 50 x 50 trace.
        tile_size: spatial tile edge for the tiled transport (None =
            the untiled batched route); ``tile_jobs`` is always 1.
        deployments: deployments the epochs rotate over, each built
            (and timed as set-up) once; one deployment's counts vary too
            much between seeds for a steady run-to-run figure.
        window: epochs whose counts are reported (a multiple of
            ``deployments``, so each deployment weighs the same).
        min_epochs: epochs a phase runs at least (>= ``window``).
        input_seed: when set, deployments and fault plans derive from
            this fixed seed instead of the workload seed.
    """

    n: int
    side: Optional[int]
    tile_size: Optional[float]
    deployments: int
    window: int
    min_epochs: int
    input_seed: Optional[int] = None


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop serving workload.

    Attributes:
        subscribers: delta subscribers, half PLAIN and half SIMPLIFIED,
            all attached before epoch 1.
        interval_s: an epoch is due every ``interval_s`` seconds.
        window: epochs after epoch 1 whose counts are reported.
        min_epochs: epochs a phase publishes at least (> ``window``).
    """

    subscribers: int
    interval_s: float
    window: int
    min_epochs: int


Spec = Union[OneShotSpec, ServeSpec]

#: The benchmark workloads (BENCHMARK.json holds their reasons).
WORKLOADS: Dict[str, Spec] = {
    "paper_faulted": OneShotSpec(
        n=2500, side=None, tile_size=None, deployments=16, window=96, min_epochs=100
    ),
    # Fixed inputs: at n=40000 under faults one epoch delivers anywhere
    # from 8 to 100 of its ~1000 reports, so the delivery and accuracy
    # of a 3-epoch window spread by ~45% between seeds.
    "large_tiled": OneShotSpec(
        n=40000, side=200, tile_size=25.0, deployments=1, window=3, min_epochs=3,
        input_seed=1,
    ),
    "serve_fanout": ServeSpec(
        subscribers=3000, interval_s=0.150, window=100, min_epochs=101
    ),
}

#: Modules each kind of workload imports; timed as part of set-up.
IMPORTS: Dict[type, Tuple[str, ...]] = {
    OneShotSpec: (
        "repro.core.protocol",
        "repro.experiments.common",
        "repro.field",
        "repro.network",
        "repro.network.faults",
    ),
    ServeSpec: ("repro.serving",),
}


@dataclass
class Phase:
    """What one phase (untraced or traced) measured.

    ``counts`` holds the window-averaged end-to-end counts; ``epochs``
    and ``window`` are the epoch ids measured and counted.
    """

    setup_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    fresh_ms: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    epochs: List[int] = field(default_factory=list)
    window: List[int] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _fail(phase: Phase, message: str, operations: int = 1) -> None:
    phase.failed += operations
    if len(phase.errors) < 20:
        phase.errors.append(message)


# ----------------------------------------------------------------------
# One-shot workloads
# ----------------------------------------------------------------------


def run_oneshot(
    spec: OneShotSpec,
    seed: int,
    seconds: float,
    rec: Optional[SpanRecorder] = None,
    stop_tracing: Callable[[], None] = lambda: None,
) -> Phase:
    """Consecutive one-shot epochs, rotating over the deployments."""
    from repro.core.protocol import IsoMapProtocol
    from repro.experiments.common import PAPER_FILTER, PAPER_QUERY
    from repro.field import make_harbor_field
    from repro.network import SensorNetwork
    from repro.network.faults import FaultPlan

    phase = Phase()
    if spec.input_seed is not None:
        seed = spec.input_seed
    field_ = make_harbor_field() if spec.side is None else make_harbor_field(side=spec.side)

    def deploy(j: int):
        for attempt in range(16):
            t0 = time.perf_counter()
            network = SensorNetwork.random_deploy(
                field_,
                spec.n,
                radio_range=1.5,
                seed=deployment_seed(seed, j, spec.deployments, attempt),
            )
            build_s = time.perf_counter() - t0
            if network.tree.reachable_count() >= MIN_REACHABLE * spec.n:
                return network, build_s
        raise RuntimeError(f"no connected deployment {j} for seed {seed}")

    # Set-up is timed at least SETUP_SAMPLES times; extra builds of the
    # first deployment are dropped before the next one starts.
    for _ in range(SETUP_SAMPLES - spec.deployments):
        phase.setup_s.append(deploy(0)[1])
    networks = []
    for j in range(spec.deployments):
        network, build_s = deploy(j)
        networks.append(network)
        phase.setup_s.append(build_s)

    # Metric and delivery code stays outside set-up.
    from repro.core.codec import ReportCodec
    from repro.energy.accounting import energy_from_costs
    from repro.metrics.accuracy import mapping_accuracy
    from repro.serving.wire import encode_snapshot

    codec = ReportCodec.for_query(PAPER_QUERY, field_.bounds)
    sinks = []
    for network in networks:
        sink_node = network.nodes[network.sink_index]
        sinks.append(codec.quantize_value(sink_node.value) if sink_node.can_sense else None)
    sums = {"traffic_kb": 0.0, "energy_mj": 0.0, "map_accuracy": 0.0, "delivery_bytes": 0.0}

    k = 0
    t_start = time.perf_counter()
    while k < spec.min_epochs or time.perf_counter() - t_start < seconds:
        network = networks[k % len(networks)]
        protocol = IsoMapProtocol(
            PAPER_QUERY,
            PAPER_FILTER,
            fault_plan=FaultPlan.at_intensity(FAULT_INTENSITY, seed=fault_seed(seed, k)),
            tile_size=spec.tile_size,
            tile_jobs=1,
        )
        phase.attempted += 1
        phase.epochs.append(k)
        if rec is not None:
            rec.default_epoch = k
        try:
            t0 = time.perf_counter()
            result = protocol.run(network)
            t1 = time.perf_counter()
            # The map is fresh once the sink can hand it to a user: its
            # delivered reports encoded as a wire snapshot.
            records = {
                codec.quantize_position(r.position): codec.encode(r)
                for r in result.delivered_reports
            }
            snapshot = encode_snapshot(k, records.values(), sinks[k % len(networks)])
            t2 = time.perf_counter()
        except Exception as exc:  # an epoch that raises is a failed operation
            _fail(phase, f"epoch {k} raised {exc!r}")
            k += 1
            continue
        finally:
            if rec is not None:
                rec.default_epoch = NO_EPOCH
        phase.epoch_s.append(t1 - t0)
        phase.fresh_ms.append(1e3 * (t2 - t0))
        if not result.degradation.is_conserved:
            _fail(phase, f"epoch {k}: DegradationReport is not conserved")
        elif not (result.contour_map.regions or result.contour_map.full_levels):
            # A level is non-empty when reports outline it or the sink
            # infers it covers the whole field (an epoch can lose every
            # report under faults and still map from the sink's reading).
            _fail(phase, f"epoch {k}: the map has no non-empty level")
        if k < spec.window:
            phase.window.append(k)
            sums["traffic_kb"] += result.costs.total_traffic_kb()
            sums["energy_mj"] += 1e3 * energy_from_costs(result.costs).network_total_j
            sums["map_accuracy"] += mapping_accuracy(
                field_,
                result.contour_map,
                PAPER_QUERY.isolevels,
                ACCURACY_RASTER,
                ACCURACY_RASTER,
            )
            sums["delivery_bytes"] += len(snapshot)
        k += 1
    stop_tracing()
    phase.counts = {key: value / len(phase.window) for key, value in sums.items()}
    return phase


# ----------------------------------------------------------------------
# The serving workload
# ----------------------------------------------------------------------


def run_serve(
    spec: ServeSpec,
    seed: int,
    seconds: float,
    rec: Optional[SpanRecorder] = None,
    stop_tracing: Callable[[], None] = lambda: None,
) -> Phase:
    """One open-loop serving session (see :class:`ServeSpec`)."""
    return asyncio.run(_serve(spec, seed, seconds, stop_tracing))


class InlineExecutor(ThreadPoolExecutor):
    """A default executor that runs each call on the submitting thread.

    ``MapService`` with ``n_shards=0`` computes every epoch through the
    event loop's default executor.  With a worker thread, each epoch
    crossed two thread hand-offs, each waiting on the host's scheduler,
    and snapshot reads took the GIL from the computing thread; measured
    so, freshness spread past its bound from run to run.  Run inline,
    the serving process is one thread that never waits on another.
    (``loop.set_default_executor`` accepts only a
    ``ThreadPoolExecutor``; this one never starts a thread.)
    """

    def __init__(self) -> None:
        super().__init__(max_workers=1)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # read back by the awaiting caller
            future.set_exception(exc)
        return future


#: Deployment seed of the serving session.  Fixed: at n=300 the traffic
#: of one deployment differs by about 30% (quartile spread) from the
#: next, far above any bound a run-to-run figure could keep, and a run
#: has time for one session only.  The workload seed varies the
#: subscriber encodings and the snapshot-read phase instead.
SERVE_DEPLOYMENT_SEED = 1


async def _serve(
    spec: ServeSpec, seed: int, seconds: float, stop_tracing: Callable[[], None]
) -> Phase:
    from repro.serving import (
        ENCODING_PLAIN,
        ENCODING_SIMPLIFIED,
        MapService,
        SessionConfig,
        SlowConsumerEvicted,
        worker,
    )

    asyncio.get_running_loop().set_default_executor(InlineExecutor())
    config = SessionConfig(
        query_id="fanout",
        n_nodes=300,
        seed=SERVE_DEPLOYMENT_SEED,
        field="radial",
        scenario="tide",
        simplify_tolerance=1.0,
        prediction_tolerance=1.1,
        prediction_heartbeat=8,
    )
    rng = random.Random(seed)
    qid = config.query_id
    phase = Phase()

    for _ in range(SETUP_SAMPLES):
        worker.reset()
        t0 = time.perf_counter()
        service = MapService([config], n_shards=0)
        await service.session(qid).advance()
        phase.setup_s.append(time.perf_counter() - t0)
        await service.stop()
    worker.reset()

    service = MapService([config], n_shards=0)
    session = service.session(qid)
    encodings = [
        ENCODING_PLAIN if i % 2 == 0 else ENCODING_SIMPLIFIED
        for i in range(spec.subscribers)
    ]
    rng.shuffle(encodings)
    # Per subscriber: epochs received and receipt times, in flat arrays.
    # Messages are kept once per (encoding, epoch) -- the session hands
    # every subscriber of an encoding the same object -- and per
    # subscriber only for one that received a different object.
    got = [array("i") for _ in encodings]
    receipt = [array("d") for _ in encodings]
    canon: Dict[Tuple[str, int], Any] = {}
    diverged: Dict[int, List[Any]] = {}
    evicted = [False] * len(encodings)

    async def consume(i: int, subscription) -> None:
        enc, epochs, times = encodings[i], got[i], receipt[i]
        try:
            async for msg in subscription:
                times.append(time.perf_counter())
                epochs.append(msg.epoch)
                own = diverged.get(i)
                if own is not None:
                    own.append(msg)
                elif canon.setdefault((enc, msg.epoch), msg) is not msg:
                    diverged[i] = [canon[(enc, e)] for e in epochs[:-1]] + [msg]
        except SlowConsumerEvicted:
            evicted[i] = True

    consumers = [
        asyncio.create_task(consume(i, service.subscribe(qid, 0, encodings=(enc,))))
        for i, enc in enumerate(encodings)
    ]
    running = True
    reads = 0

    async def read_snapshots(t0: float) -> None:
        nonlocal reads
        while running:
            due = t0 + reads / READS_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            enc = ENCODING_PLAIN if reads % 2 == 0 else ENCODING_SIMPLIFIED
            service.snapshot(qid, encoding=enc)
            reads += 1

    due: Dict[int, float] = {}
    published: Dict[int, float] = {}
    #: epoch -> (traffic bytes, PLAIN delta bytes, SIMPLIFIED delta bytes)
    payload_stats: Dict[int, Tuple[int, int, int]] = {}
    t_first = time.perf_counter()
    reader = asyncio.create_task(
        read_snapshots(t_first + rng.random() / READS_PER_S)
    )
    epoch = 0
    try:
        while epoch < spec.min_epochs or time.perf_counter() - t_first < seconds:
            epoch += 1
            due[epoch] = t_first + (epoch - 1) * spec.interval_s
            # Poll the loop up to the tick instead of sleeping: a thread
            # that idles pays the host's wake-up latency at every tick.
            # Snapshot reads and deliveries still run while it polls.
            while time.perf_counter() < due[epoch]:
                await asyncio.sleep(0)
            start = time.perf_counter()
            result = await session.advance()
            phase.late_ms.append(1e3 * (start - due[epoch]))
            published[epoch] = session.publish_walltime(epoch)
            payload_stats[epoch] = (
                result["traffic_bytes"],
                len(result["delta"]),
                len(result["s_delta"]),
            )
    finally:
        running = False
        await reader
    last = epoch
    finals = {
        enc: service.snapshot(qid, epoch=last, encoding=enc).payload
        for enc in (ENCODING_PLAIN, ENCODING_SIMPLIFIED)
    }
    phase.extra["snapshot_renders"] = session.store.cache_misses
    phase.extra["snapshot_reads"] = reads
    phase.extra["retries"] = sum(s.health.retries for s in service.pool.supervisors)
    await service.stop(drain=True, timeout=30.0)
    await asyncio.wait_for(asyncio.gather(*consumers), 60.0)
    stop_tracing()
    phase.extra["evicted"] = sum(evicted)

    phase.epochs = list(range(2, last + 1))
    phase.window = list(range(2, spec.window + 2))
    phase.attempted = len(encodings) * last
    streams = [
        diverged.get(i) or [canon[(enc, e)] for e in got[i]]
        for i, enc in enumerate(encodings)
    ]
    _check_streams(phase, streams, encodings, evicted, finals, last)
    for epochs, times in zip(got, receipt):
        for e, t in zip(epochs, times):
            if e >= 2:
                phase.fresh_ms.append(1e3 * (t - due[e]))
                phase.queue_ms.append(1e3 * (t - published[e]))

    n_plain = encodings.count(ENCODING_PLAIN)
    n_simple = len(encodings) - n_plain
    traffic = delivered = 0.0
    for e in phase.window:
        traffic_bytes, d_plain, d_simple = payload_stats[e]
        traffic += traffic_bytes / 1024.0
        delivered += n_plain * d_plain + n_simple * d_simple
    w = len(phase.window)
    phase.counts = {
        "traffic_kb": traffic / w,
        "delivery_bytes": delivered / (w * len(encodings)),
    }
    _replay_session(config, phase, {e: stats[0] for e, stats in payload_stats.items()})
    return phase


def _check_streams(
    phase: Phase,
    received: List[List[Any]],
    encodings: List[str],
    evicted: List[bool],
    finals: Dict[str, bytes],
    last: int,
) -> None:
    """Fail missing deliveries, evicted subscribers and bad replays.

    A subscriber's stream is checked by folding it with a
    ``DeltaReplayer`` and comparing the render with the served snapshot
    of the last epoch.  Subscribers of one encoding receive the very
    same message objects, so a stream identical (object for object) to
    an already-folded one shares its fold.
    """
    from repro.serving import DeltaReplayer, ReplayGapError, WireFormatError

    folded: Dict[Tuple[Any, ...], bool] = {}
    expected = list(range(1, last + 1))
    for i, msgs in enumerate(received):
        if evicted[i]:
            _fail(phase, f"subscriber {i} was evicted", last)
            continue
        key = (encodings[i],) + tuple(id(m) for m in msgs)
        ok = folded.get(key)
        if ok is None:
            replayer = DeltaReplayer()
            try:
                for msg in msgs:
                    replayer.apply(msg)
                ok = replayer.render() == finals[encodings[i]]
            except (ReplayGapError, WireFormatError):
                ok = False
            folded[key] = ok
        if not ok:
            _fail(phase, f"subscriber {i} replay differs from the snapshot", last)
            continue
        epochs = [m.epoch for m in msgs]
        if epochs != expected:
            missing = last - len(set(epochs) & set(expected))
            _fail(phase, f"subscriber {i} stream is not epochs 1..{last}", max(missing, 1))


#: Closed-loop replays of the serving session's monitor; each epoch's
#: compute time is its median over the replays.
REPLAYS = 3


def _replay_session(config, phase: Phase, served_traffic: Dict[int, int]) -> None:
    """Replay the session's monitor closed loop, after the timed run.

    The served payload carries traffic bytes but no per-node costs or
    map, and ``advance()`` timed under the subscribers' load spreads too
    much from run to run to gate.  So epochs 1 to the end of the window
    are replayed ``REPLAYS`` times through the public calls
    ``SessionCompute`` makes (``resense``, then ``ContinuousIsoMap.epoch``).
    ``phase.epoch_s`` gets each window epoch's median compute time over
    the replays.  The first replay gives the window-mean energy (mJ) and
    accuracy, and its traffic must equal every served epoch's, byte for
    byte.
    """
    from repro.core.continuous import ContinuousIsoMap
    from repro.energy.accounting import energy_from_costs
    from repro.metrics.accuracy import mapping_accuracy
    from repro.network import SensorNetwork
    from repro.serving.session import base_field, field_for_epoch

    query = config.query()
    last = max(phase.window)
    times: Dict[int, List[float]] = {e: [] for e in phase.window}
    energy = accuracy = 0.0
    gc.collect()
    for replay in range(REPLAYS):
        network = SensorNetwork.random_deploy(
            base_field(config), config.n_nodes, radio_range=config.radio_range, seed=config.seed
        )
        monitor = ContinuousIsoMap(
            query, angle_delta_deg=config.angle_delta_deg, prediction=config.prediction()
        )
        for e in range(1, last + 1):
            truth = field_for_epoch(config, e)
            t0 = time.perf_counter()
            network.resense(truth)
            result = monitor.epoch(network)
            elapsed = time.perf_counter() - t0
            if e in times:
                times[e].append(elapsed)
            if replay > 0:
                continue
            if result.costs.total_traffic_bytes() != served_traffic[e]:
                phase.errors.append(f"epoch {e}: replayed traffic differs from the served payload")
            if e in times:
                energy += 1e3 * energy_from_costs(result.costs).network_total_j
                accuracy += mapping_accuracy(
                    truth, result.contour_map, query.isolevels, ACCURACY_RASTER, ACCURACY_RASTER
                )
    phase.epoch_s = [statistics.median(times[e]) for e in phase.window]
    phase.counts["energy_mj"] = energy / len(phase.window)
    phase.counts["map_accuracy"] = accuracy / len(phase.window)


def run_phase(spec: Spec, seed: int, seconds: float, rec=None, stop_tracing=lambda: None) -> Phase:
    runner = run_oneshot if isinstance(spec, OneShotSpec) else run_serve
    return runner(spec, seed, seconds, rec, stop_tracing)
