"""Map-serving sessions: deterministic epoch compute + asyncio fan-out.

A session is one standing contour query kept continuously up to date.
It has two halves:

- :class:`SessionCompute` -- the synchronous, picklable-config half: a
  seeded deployment, a :class:`~repro.core.continuous.ContinuousIsoMap`
  monitor, and a deterministic field *scenario* (the sensed field is a
  pure function of the epoch index).  Each :meth:`SessionCompute.epoch`
  advances the monitor one epoch and emits the wire payloads: the delta
  (delivered records + retracted positions) and the canonical record
  state.  Because everything derives from the config and the epoch
  index, the payload stream is byte-identical no matter where (or how
  often, after a rebuild) it is computed -- the property the sharded
  router leans on.

- :class:`MapSession` -- the asyncio half: owns a
  :class:`~repro.serving.store.MapStore`, computes the next epoch
  through a shard pool each time its caller invokes
  :meth:`MapSession.advance` (the session keeps no clock of its own),
  and fans each delta out to subscribers over bounded queues.  A
  subscriber that stops draining its queue is *evicted* (its backlog is
  dropped and its stream terminates with
  :class:`~repro.serving.errors.SlowConsumerEvicted`) so one slow client
  can never stall the epoch loop or balloon memory.  Graceful shutdown
  publishes an end-of-stream marker *behind* any queued deltas and waits
  for subscribers to drain them.
"""

from __future__ import annotations

import asyncio
import math
import time
import zlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.codec import ReportCodec
from repro.core.continuous import ContinuousIsoMap
from repro.core.prediction import PredictionConfig
from repro.core.query import ContourQuery
from repro.field import (
    CompositeField,
    GaussianBumpField,
    RadialField,
    make_harbor_field,
)
from repro.field.base import ScalarField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork
from repro.serving.errors import (
    EpochComputeFailed,
    SessionFailedError,
    ShardUnavailableError,
    SlowConsumerEvicted,
)
from repro.serving.store import MapStore
from repro.serving.wire import (
    DELTA,
    DELTA_PREDICTED,
    ENCODING_PLAIN,
    ENCODING_SIMPLIFIED,
    SNAPSHOT,
    SNAPSHOT_STALE,
    ServedMessage,
    SimplifiedStream,
    encode_delta,
    negotiate_encoding,
)

#: Radial test-field extent (matches the continuous-monitoring tests).
_RADIAL_BOX = BoundingBox(0.0, 0.0, 20.0, 20.0)


# ----------------------------------------------------------------------
# Configuration and deterministic field scenarios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    """Everything that determines a session's payload stream.

    The config is a frozen, JSON-able value: it crosses process
    boundaries as a plain dict and *is* the session's identity for the
    worker-side compute cache.

    Attributes:
        query_id: client-facing session name (also the shard key).
        n_nodes: deployment size.
        seed: deployment seed.
        field: ``"radial"`` (fast 20x20 cone, the test default) or
            ``"harbor"`` (the paper's 50x50 harbor stand-in).
        scenario: field evolution per epoch -- ``"steady"`` (no change),
            ``"tide"`` (smooth periodic drift), ``"storm"`` (a local
            event ramping in at epoch 3), ``"pulse"`` (the field
            collapses below every queried level at epochs 3, 7, 11, ...:
            the all-retract edge case), or ``"front"`` (a trench
            marching across the field at constant per-epoch speed: the
            steady-drift workload the drift predictor targets).
        value_lo / value_hi / granularity / epsilon_fraction: the
            standing :class:`~repro.core.query.ContourQuery`.
        radio_range: deployment radio range.
        angle_delta_deg: the monitor's re-report threshold.
        simplify_tolerance: when set, the session also produces the
            SIMPLIFIED stream (wire version 2): each epoch's record
            state is isoline-simplified to this Hausdorff tolerance and
            a parallel delta/snapshot encoding is published, negotiable
            per subscriber.  ``None`` (the default) disables the
            simplified pipeline entirely -- the PR-6 stream is produced
            alone, byte-for-byte as before.  ``0.0`` runs the pipeline
            as a strict passthrough (the byte-identity differential).
        prediction_tolerance: when set, the monitor runs with
            model-predictive suppression
            (:class:`~repro.core.prediction.PredictionConfig` at this
            position tolerance): suppressed epochs are served from the
            mirrored predictor's dead-reckoned extrapolation and live
            deltas are tagged
            :data:`~repro.serving.wire.DELTA_PREDICTED`.  ``None`` (the
            default) keeps the prediction-off protocol byte-identical
            to the pre-prediction stream.
        prediction_heartbeat: staleness bound (max consecutive
            extrapolated epochs per cache entry) when prediction is on.
    """

    query_id: str
    n_nodes: int = 600
    seed: int = 1
    field: str = "radial"
    scenario: str = "tide"
    value_lo: float = 14.0
    value_hi: float = 16.0
    granularity: float = 2.0
    epsilon_fraction: float = 0.2
    radio_range: float = 2.2
    angle_delta_deg: float = 10.0
    simplify_tolerance: Optional[float] = None
    prediction_tolerance: Optional[float] = None
    prediction_heartbeat: int = 8

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "SessionConfig":
        return SessionConfig(**d)

    def query(self) -> ContourQuery:
        return ContourQuery(
            self.value_lo,
            self.value_hi,
            self.granularity,
            epsilon_fraction=self.epsilon_fraction,
        )

    def prediction(self) -> Optional[PredictionConfig]:
        """The monitor's predictor config (None when prediction is off)."""
        if self.prediction_tolerance is None:
            return None
        return PredictionConfig(
            position_tolerance=self.prediction_tolerance,
            heartbeat=self.prediction_heartbeat,
        )


def base_field(config: SessionConfig) -> ScalarField:
    """The epoch-0 field the deployment is sensed against."""
    if config.field == "harbor":
        return make_harbor_field()
    if config.field == "radial":
        return RadialField(_RADIAL_BOX, center=(10.0, 10.0), peak=20.0, slope=1.0)
    raise ValueError(f"unknown field {config.field!r}")


def field_for_epoch(config: SessionConfig, epoch: int) -> ScalarField:
    """The sensed field at ``epoch`` -- a pure function of the config.

    No wall clock, no sequential RNG: any worker can recompute any
    epoch's field and get the identical object semantics, which is what
    keeps the payload stream byte-identical across shard layouts.
    """
    base = base_field(config)
    scenario = config.scenario
    if scenario == "steady" or epoch <= 0:
        return base
    bounds = base.bounds
    if scenario == "tide":
        # Smooth periodic drift: a broad deposit breathing with an
        # 8-epoch period, centred off the field middle.
        amp = 1.5 * math.sin(2.0 * math.pi * epoch / 8.0)
        if amp == 0.0:
            return base
        cx = bounds.xmin + 0.65 * (bounds.xmax - bounds.xmin)
        cy = bounds.ymin + 0.55 * (bounds.ymax - bounds.ymin)
        sigma = 0.2 * (bounds.xmax - bounds.xmin)
        return CompositeField(
            bounds, [base, GaussianBumpField(bounds, 0.0, [(-amp, (cx, cy), sigma)])]
        )
    if scenario == "storm":
        # A local event ramping in from epoch 3 and holding.
        severity = min(max(epoch - 2, 0), 4)
        if severity == 0:
            return base
        cx = bounds.xmin + 0.7 * (bounds.xmax - bounds.xmin)
        cy = bounds.ymin + 0.5 * (bounds.ymax - bounds.ymin)
        sigma = 0.1 * (bounds.xmax - bounds.xmin)
        return CompositeField(
            bounds,
            [base, GaussianBumpField(bounds, 0.0, [(-float(severity), (cx, cy), sigma)])],
        )
    if scenario == "pulse":
        # Every 4th epoch (3, 7, 11, ...) the field collapses below all
        # queried levels: every cached report retracts at once.
        if epoch % 4 == 3:
            lo = min(0.0, config.value_lo - 2.0 * config.granularity)
            return _collapsed(bounds, lo)
        return base
    if scenario == "front":
        # Steady drift: the whole phenomenon translates at a constant
        # 2.5%-of-span per epoch, so every isoline sweeps the stationary
        # deployment at uniform speed -- pure membership churn with
        # stable topology, the workload model-predictive suppression
        # targets.  On the radial field this is a rigid translation of
        # the center; on other fields a trench marching across stands in.
        span = bounds.xmax - bounds.xmin
        frac = 0.30 + min(0.025 * epoch, 0.40)
        cx = bounds.xmin + frac * span
        cy = bounds.ymin + 0.5 * (bounds.ymax - bounds.ymin)
        if config.field == "radial":
            return RadialField(bounds, center=(cx, cy), peak=20.0, slope=1.0)
        sigma = 0.16 * span
        return CompositeField(
            bounds,
            [base, GaussianBumpField(bounds, 0.0, [(-4.0, (cx, cy), sigma)])],
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _collapsed(bounds: BoundingBox, lo: float) -> ScalarField:
    """A constant field at ``lo`` (below every queried level)."""
    return RadialField(bounds, center=(bounds.xmin, bounds.ymin), peak=lo, slope=0.0)


# ----------------------------------------------------------------------
# Synchronous epoch compute (runs inline or inside a shard worker)
# ----------------------------------------------------------------------


class SessionCompute:
    """The deterministic, stateful compute core of one session.

    Mirrors the sink cache of its :class:`ContinuousIsoMap` as a
    position-keyed dict of encoded records (the same keying a
    :class:`~repro.serving.wire.DeltaReplayer` uses), so the delta it
    emits each epoch reconstructs the record state exactly.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.query = config.query()
        base = base_field(config)
        self.network = SensorNetwork.random_deploy(
            base, config.n_nodes, radio_range=config.radio_range, seed=config.seed
        )
        self.monitor = ContinuousIsoMap(
            self.query,
            angle_delta_deg=config.angle_delta_deg,
            prediction=config.prediction(),
        )
        self.codec = ReportCodec.for_query(self.query, self.network.bounds)
        self._state: Dict[Tuple[int, int], bytes] = {}
        self._source_pos: Dict[int, Tuple[int, int]] = {}
        self._simplified: Optional[SimplifiedStream] = (
            None
            if config.simplify_tolerance is None
            else SimplifiedStream(
                config.simplify_tolerance, self.codec.dequantize_position
            )
        )
        self.next_epoch = 1

    def epoch(self, epoch: int) -> Dict[str, Any]:
        """Advance to ``epoch`` (must be the next one) and emit payloads.

        Returns a picklable dict: ``epoch``, ``delta`` (bytes),
        ``records`` (canonical sorted record tuple), ``sink`` (quantised
        sink value or None), and per-epoch stats.
        """
        if epoch != self.next_epoch:
            raise ValueError(
                f"epoch {epoch} out of order (next is {self.next_epoch})"
            )
        self.network.resense(field_for_epoch(self.config, epoch))
        result = self.monitor.epoch(self.network)

        # Fold the sink cache's changes into records.  With prediction,
        # cache entries are predictor tracks whose dead-reckoned
        # positions MOVE between epochs, so a changed entry retracts its
        # old position key alongside the new record; without it,
        # ``cache_updates``/``cache_removed`` are the delivered reports
        # and retractions, and a key never moves.  Keys re-occupied by
        # this epoch's records are never retracted (the replayer applies
        # records first, so a same-key retraction would delete fresh
        # data).
        updates = [
            (
                self.codec.quantize_position(report.position),
                self.codec.encode(report),
                report.source,
            )
            for report in result.cache_updates
        ]
        new_keys = {key for key, _, _ in updates}
        vacated: List[Tuple[int, int]] = []
        for key, _, source in updates:
            prev = self._source_pos.get(source)
            if prev is not None and prev != key:
                vacated.append(prev)
        for source in result.cache_removed:
            prev = self._source_pos.pop(source, None)
            if prev is not None:
                vacated.append(prev)
        retractions: List[Tuple[int, int]] = []
        for key in vacated:
            if key not in new_keys and key in self._state:
                del self._state[key]
                retractions.append(key)
        new_records: List[bytes] = []
        for key, record, source in updates:
            self._state[key] = record
            self._source_pos[source] = key
            new_records.append(record)

        sink = (
            None
            if result.sink_value is None
            else self.codec.quantize_value(result.sink_value)
        )
        delta = encode_delta(epoch, new_records, retractions, sink)
        self.next_epoch = epoch + 1
        out: Dict[str, Any] = {
            "epoch": epoch,
            "delta": delta,
            # Integrity tag: the supervised pool re-checks this on the
            # router side, so a payload damaged in transit (or by the
            # chaos engine) is detected and recomputed, never published.
            "crc": zlib.crc32(delta) & 0xFFFFFFFF,
            "records": tuple(sorted(self._state.values())),
            "sink": sink,
            "new_reports": len(result.new_reports),
            "delivered": len(result.delivered_reports),
            "retracted": len(result.retractions),
            "suppressed": result.suppressed,
            "cached_reports": result.cached_reports,
            "traffic_bytes": result.costs.total_traffic_bytes(),
            "predicted": result.predicted,
            "heartbeats": result.heartbeats,
            "staleness": result.staleness,
            "tracks": result.tracks,
        }
        if self._simplified is not None:
            s_delta, s_records = self._simplified.fold_epoch(
                epoch,
                new_records,
                retractions,
                self._state.values(),
                sink,
            )
            out["s_delta"] = s_delta
            # Same transit-integrity contract as the plain delta: the
            # supervisor re-checks this CRC before publishing.
            out["s_crc"] = zlib.crc32(s_delta) & 0xFFFFFFFF
            out["s_records"] = s_records
        return out


# ----------------------------------------------------------------------
# Asyncio session
# ----------------------------------------------------------------------

#: Terminal queue markers (identity-compared).
_CLOSE = object()
_EVICT = object()
_FAIL = object()


@dataclass
class SessionStats:
    epochs: int = 0
    deltas_published: int = 0
    subscribers_evicted: int = 0
    subscribers_peak: int = 0
    #: Recoverable compute failures (attempts exhausted / breaker open).
    epochs_failed: int = 0
    #: Snapshot requests answered with a staleness-tagged payload.
    stale_snapshots: int = 0
    #: Total wall time spent degraded (shard recovering), seconds.
    degraded_s: float = 0.0


@dataclass
class _SubEntry:
    queue: "asyncio.Queue"
    closed: "asyncio.Event"
    #: The negotiated stream encoding for this subscriber.
    encoding: str = ENCODING_PLAIN


class Subscription:
    """One subscriber's view of a session's delta stream.

    Async-iterable: yields :class:`~repro.serving.wire.ServedMessage`
    objects -- first any replayed backlog (deltas, or a snapshot resync
    when the requested epoch fell out of retention), then live updates.
    Terminates with ``StopAsyncIteration`` on graceful shutdown and
    raises :class:`SlowConsumerEvicted` if the session evicted it.
    """

    def __init__(
        self,
        session: "MapSession",
        sub_id: int,
        entry: _SubEntry,
        replay: List[ServedMessage],
    ):
        self._session = session
        self._id = sub_id
        self._entry = entry
        self._replay = replay
        self._replay_idx = 0
        self._done = False

    @property
    def encoding(self) -> str:
        """The negotiated stream encoding (fixed at attach time)."""
        return self._entry.encoding

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> ServedMessage:
        if self._done:
            raise StopAsyncIteration
        if self._replay_idx < len(self._replay):
            msg = self._replay[self._replay_idx]
            self._replay_idx += 1
            return msg
        item = await self._entry.queue.get()
        if item is _CLOSE:
            self._finish()
            raise StopAsyncIteration
        if item is _EVICT:
            self._finish()
            raise SlowConsumerEvicted(
                f"subscriber {self._id} of {self._session.config.query_id!r} "
                f"overflowed its queue (depth {self._session.queue_depth})"
            )
        if item is _FAIL:
            self._finish()
            raise SessionFailedError(
                f"session {self._session.config.query_id!r} failed: "
                f"{self._session.failure!r}"
            ) from self._session.failure
        return item

    def close(self) -> None:
        """Detach from the session (idempotent)."""
        self._finish()

    async def __aenter__(self) -> "Subscription":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self.close()

    def _finish(self) -> None:
        if not self._done:
            self._done = True
            self._entry.closed.set()
            self._session._detach(self._id)


class MapSession:
    """A long-lived serving session over one standing query.

    The session moves only when :meth:`advance` is called (by the load
    harness :func:`~repro.serving.clients.run_load`, or by any caller
    that paces epochs itself).

    Args:
        config: the session's deterministic identity.
        pool: the shard pool epochs are computed through (see
            :class:`repro.serving.supervisor.SupervisedShardPool`).
        retention: store retention window (epochs).
        queue_depth: per-subscriber bounded queue size.
    """

    def __init__(
        self,
        config: SessionConfig,
        pool: Any,
        retention: int = 128,
        queue_depth: int = 16,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.config = config
        self.queue_depth = queue_depth
        self._pool = pool
        self.store = MapStore(config.query_id, retention=retention)
        self.stats = SessionStats()
        self._subs: Dict[int, _SubEntry] = {}
        self._next_sub_id = 0
        self._publish_walltime: Dict[int, float] = {}
        self._stopping = False
        #: True while the owning shard is failing/recovering; snapshot
        #: requests are answered with a staleness-tagged payload.
        self.degraded = False
        self._degraded_since: Optional[float] = None
        #: The terminal application error, if the session failed.
        self.failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Epoch advancement
    # ------------------------------------------------------------------

    @property
    def latest_epoch(self) -> int:
        return self.store.latest_epoch

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    def publish_walltime(self, epoch: int) -> Optional[float]:
        """``time.perf_counter()`` at which ``epoch`` was published."""
        return self._publish_walltime.get(epoch)

    async def advance(self) -> Dict[str, Any]:
        """Compute and publish the next epoch; returns its stats dict.

        Failure semantics:

        - a *recoverable* infrastructure failure (supervised attempts
          exhausted, circuit breaker open) marks the session degraded
          and re-raises -- the epoch was not published, so a later call
          retries the same epoch and, compute being deterministic,
          publishes the byte-identical payload;
        - an *application* error is terminal: the session fails, every
          subscriber's stream raises
          :class:`~repro.serving.errors.SessionFailedError`, and so does
          this call.
        """
        if self._stopping:
            raise RuntimeError("session is stopping")
        if self.failure is not None:
            raise SessionFailedError(
                f"session {self.config.query_id!r} already failed: "
                f"{self.failure!r}"
            ) from self.failure
        epoch = self.store.latest_epoch + 1
        try:
            result = await self._pool.compute(self.config, epoch)
        except (EpochComputeFailed, ShardUnavailableError):
            self.stats.epochs_failed += 1
            if not self.degraded:
                self.degraded = True
                self._degraded_since = time.perf_counter()
            raise
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)
            raise SessionFailedError(
                f"session {self.config.query_id!r} epoch {epoch} failed: "
                f"{exc!r}"
            ) from exc
        if self.degraded:
            self.degraded = False
            if self._degraded_since is not None:
                self.stats.degraded_s += time.perf_counter() - self._degraded_since
                self._degraded_since = None
        self.store.put_epoch(
            result["epoch"],
            result["delta"],
            result["records"],
            result["sink"],
            s_delta=result.get("s_delta"),
            s_records=result.get("s_records"),
        )
        now = time.perf_counter()
        self._publish_walltime[result["epoch"]] = now
        stale = result["epoch"] - self.store.retention
        self._publish_walltime.pop(stale, None)
        messages = {
            ENCODING_PLAIN: ServedMessage(
                self.delta_kind, result["epoch"], result["delta"]
            )
        }
        if "s_delta" in result:
            messages[ENCODING_SIMPLIFIED] = ServedMessage(
                self.delta_kind, result["epoch"], result["s_delta"]
            )
        for sub_id in list(self._subs):
            entry = self._subs.get(sub_id)
            if entry is None:
                continue
            try:
                entry.queue.put_nowait(messages[entry.encoding])
            except asyncio.QueueFull:
                self._evict(sub_id)
        self.stats.epochs += 1
        self.stats.deltas_published += 1
        return result

    # ------------------------------------------------------------------
    # Client paths
    # ------------------------------------------------------------------

    @property
    def simplified_available(self) -> bool:
        """True when this session produces the SIMPLIFIED stream."""
        return self.config.simplify_tolerance is not None

    @property
    def prediction_enabled(self) -> bool:
        """True when this session suppresses reports via prediction."""
        return self.config.prediction_tolerance is not None

    @property
    def delta_kind(self) -> str:
        """Wire kind for this session's deltas.

        Prediction-enabled sessions tag every delta
        :data:`~repro.serving.wire.DELTA_PREDICTED` so clients know some
        records may be dead-reckoned extrapolations rather than sensed
        reports; the payload layout is identical to a plain DELTA.
        """
        return DELTA_PREDICTED if self.prediction_enabled else DELTA

    def snapshot(
        self, epoch: Optional[int] = None, encoding: str = ENCODING_PLAIN
    ) -> ServedMessage:
        """The rendered snapshot at ``epoch`` (default latest).

        ``encoding`` selects the record selection the snapshot is
        rendered from: :data:`~repro.serving.wire.ENCODING_PLAIN` (every
        cached record) or :data:`~repro.serving.wire.ENCODING_SIMPLIFIED`
        (the tolerance-bounded subset; only on sessions configured with
        a ``simplify_tolerance`` -- otherwise
        :class:`~repro.serving.errors.EncodingUnavailable`).

        Graceful degradation: while the session is degraded (its shard
        is failing or recovering) or failed, a latest-snapshot request
        still answers -- with the last retained epoch, tagged
        :data:`~repro.serving.wire.SNAPSHOT_STALE` so the client *knows*
        the map may lag the field -- instead of erroring.

        Raises :class:`~repro.serving.errors.EpochEvicted` for explicit
        epochs outside retention.
        """
        encoding = negotiate_encoding((encoding,), self.simplified_available)
        payload = self.store.snapshot(
            epoch, simplified=encoding == ENCODING_SIMPLIFIED
        )
        kind = SNAPSHOT
        if epoch is None and (self.degraded or self.failure is not None):
            kind = SNAPSHOT_STALE
            self.stats.stale_snapshots += 1
        return ServedMessage(
            kind, epoch if epoch is not None else self.store.latest_epoch, payload
        )

    def attach(
        self,
        since_epoch: int = 0,
        encodings: Tuple[str, ...] = (ENCODING_PLAIN,),
    ) -> Subscription:
        """Subscribe from ``since_epoch``: the stream replays epochs
        ``since_epoch + 1 .. latest`` and then follows live updates.

        ``encodings`` is the subscriber's offer, in preference order;
        the negotiated pick (see
        :func:`~repro.serving.wire.negotiate_encoding`) fixes the stream
        encoding for the subscription's lifetime and is exposed as
        :attr:`Subscription.encoding`.

        Replay edge cases (all pinned by ``tests/serving``):

        - ``since_epoch`` >= the current epoch: nothing to replay, the
          stream is live-only (a future ``since_epoch`` is clamped);
        - ``since_epoch + 1`` fell out of retention: the stream starts
          with a single snapshot resync at the current epoch instead of
          an unreplayable (and silently wrong) partial delta sequence;
        - an all-retract or zero-isoline epoch replays like any other --
          its delta simply carries retractions (or nothing).
        """
        if since_epoch < 0:
            raise ValueError("since_epoch must be >= 0")
        if self.failure is not None:
            raise SessionFailedError(
                f"session {self.config.query_id!r} failed: {self.failure!r}"
            ) from self.failure
        encoding = negotiate_encoding(encodings, self.simplified_available)
        simplified = encoding == ENCODING_SIMPLIFIED
        entry = _SubEntry(
            queue=asyncio.Queue(maxsize=self.queue_depth),
            closed=asyncio.Event(),
            encoding=encoding,
        )
        sub_id = self._next_sub_id
        self._next_sub_id += 1
        # Registration and replay-range capture happen atomically w.r.t.
        # publishes (no awaits): live messages begin at current + 1.
        self._subs[sub_id] = entry
        self.stats.subscribers_peak = max(
            self.stats.subscribers_peak, len(self._subs)
        )
        replay: List[ServedMessage] = []
        current = self.store.latest_epoch
        start = since_epoch + 1
        if start <= current:
            oldest = self.store.oldest_retained()
            if oldest is not None and start >= oldest:
                for e in range(start, current + 1):
                    delta = self.store.delta(e, simplified=simplified)
                    assert delta is not None  # inside retention by check above
                    replay.append(ServedMessage(self.delta_kind, e, delta))
            else:
                replay.append(
                    ServedMessage(
                        SNAPSHOT,
                        current,
                        self.store.snapshot(current, simplified=simplified),
                    )
                )
        return Subscription(self, sub_id, entry, replay)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Close every subscriber stream; later :meth:`advance` calls raise.

        With ``drain`` (the default) the end-of-stream marker is queued
        *behind* any pending deltas and the session waits (up to
        ``timeout`` seconds) for subscribers to consume their backlog.
        """
        self._stopping = True
        entries = []
        for sub_id in list(self._subs):
            entry = self._subs.get(sub_id)
            if entry is None:
                continue
            try:
                entry.queue.put_nowait(_CLOSE)
                entries.append(entry)
            except asyncio.QueueFull:
                # A subscriber this far behind at shutdown is evicted --
                # its stream ends in SlowConsumerEvicted, not silence.
                self._evict(sub_id)
        if drain and entries:
            waiters = [entry.closed.wait() for entry in entries]
            try:
                await asyncio.wait_for(asyncio.gather(*waiters), timeout)
            except asyncio.TimeoutError:
                pass
        self._subs.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        """Mark the session terminally failed and notify every subscriber.

        The failure marker is queued *behind* any pending deltas, so a
        subscriber drains what was published before its stream raises
        :class:`SessionFailedError`; a subscriber too far behind to even
        queue the marker is evicted (its stream still terminates with a
        typed error, never a silent stall).
        """
        if self.failure is not None:
            return
        self.failure = exc
        for sub_id in list(self._subs):
            entry = self._subs.get(sub_id)
            if entry is None:
                continue
            try:
                entry.queue.put_nowait(_FAIL)
            except asyncio.QueueFull:
                self._evict(sub_id)

    def _evict(self, sub_id: int) -> None:
        entry = self._subs.pop(sub_id, None)
        if entry is None:
            return
        while not entry.queue.empty():
            entry.queue.get_nowait()
        entry.queue.put_nowait(_EVICT)
        self.stats.subscribers_evicted += 1

    def _detach(self, sub_id: int) -> None:
        self._subs.pop(sub_id, None)
