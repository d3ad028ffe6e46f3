"""Contour-map serving: the front door over continuous monitoring.

``repro.serving`` turns the simulator's sink pipeline into a service:
long-lived :class:`MapSession` objects compute the next
:class:`~repro.core.continuous.ContinuousIsoMap` epoch each time their
caller invokes ``advance()`` (sharded across worker processes by
:class:`SupervisedShardPool`), publish wire-encoded results through a
per-session :class:`MapStore`, and serve two client paths via the
:class:`MapService` router --

- ``snapshot(query_id)``: the latest (or a retained historical)
  rendered map, byte-for-byte reproducible;
- ``subscribe(query_id, since_epoch)``: a delta stream that replays
  missed epochs and then follows live updates, with bounded
  per-subscriber queues and slow-consumer eviction.

The service is self-healing: compute runs through a
:class:`SupervisedShardPool` with per-request deadlines, crash/hang
detection, kill-and-respawn recovery, deterministically jittered
retries and per-shard circuit breakers
(:mod:`repro.serving.supervisor`).  While a shard recovers,
``snapshot()`` keeps answering with the last retained epoch, tagged
:data:`SNAPSHOT_STALE` so clients can tell a degraded answer from a
live one.  A seeded :class:`ChaosPlan` (:mod:`repro.serving.chaos`)
injects worker kills, hangs, dropped results and corrupted payloads
from counter-based draws -- the service-level twin of
:mod:`repro.network.faults` -- so recovery is testable and
reproducible.

The wire contract is pinned by differential tests: a
:class:`~repro.serving.wire.DeltaReplayer` folding the delta stream from
epoch 0 renders snapshots byte-identical to the server's, which in turn
encode exactly the sink cache of a direct ``ContinuousIsoMap`` run under
the same seed -- regardless of the shard layout, and regardless of how
much chaos the recovery machinery had to absorb along the way.
"""

from repro.serving.chaos import (
    CORRUPT,
    DROP,
    HANG,
    KILL,
    ChaosEngine,
    ChaosEvent,
    ChaosPlan,
    ChaosStats,
)
from repro.serving.clients import LoadReport, run_load
from repro.serving.errors import (
    EncodingUnavailable,
    EpochComputeFailed,
    EpochEvicted,
    ReplayGapError,
    ServingError,
    SessionFailedError,
    ShardComputeError,
    ShardCrashError,
    ShardHangError,
    ShardResultCorrupted,
    ShardResultDropped,
    ShardUnavailableError,
    SlowConsumerEvicted,
    UnknownQueryError,
    WireFormatError,
)
from repro.serving.router import MapService
from repro.serving.session import (
    MapSession,
    SessionCompute,
    SessionConfig,
    SessionStats,
    Subscription,
    field_for_epoch,
)
from repro.serving.store import MapStore
from repro.serving.supervisor import (
    CircuitBreaker,
    ShardHealth,
    ShardSupervisor,
    SupervisedShardPool,
    SupervisorConfig,
)
from repro.serving.wire import (
    DELTA,
    DELTA_PREDICTED,
    ENCODING_PLAIN,
    ENCODING_SIMPLIFIED,
    SNAPSHOT,
    SNAPSHOT_STALE,
    WIRE_VERSION_PLAIN,
    WIRE_VERSION_SIMPLIFIED,
    DeltaReplayer,
    ServedMessage,
    SimplifiedStream,
    decode_delta,
    decode_snapshot,
    encode_delta,
    encode_snapshot,
    negotiate_encoding,
    select_simplified_records,
)

__all__ = [
    "CORRUPT",
    "DELTA",
    "DELTA_PREDICTED",
    "DROP",
    "ENCODING_PLAIN",
    "ENCODING_SIMPLIFIED",
    "HANG",
    "KILL",
    "SNAPSHOT",
    "SNAPSHOT_STALE",
    "WIRE_VERSION_PLAIN",
    "WIRE_VERSION_SIMPLIFIED",
    "ChaosEngine",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosStats",
    "CircuitBreaker",
    "DeltaReplayer",
    "EncodingUnavailable",
    "EpochComputeFailed",
    "EpochEvicted",
    "LoadReport",
    "MapService",
    "MapSession",
    "MapStore",
    "ReplayGapError",
    "ServedMessage",
    "ServingError",
    "SessionCompute",
    "SessionConfig",
    "SessionFailedError",
    "SessionStats",
    "ShardComputeError",
    "ShardCrashError",
    "ShardHangError",
    "ShardHealth",
    "ShardResultCorrupted",
    "ShardResultDropped",
    "ShardSupervisor",
    "ShardUnavailableError",
    "SimplifiedStream",
    "SlowConsumerEvicted",
    "Subscription",
    "SupervisedShardPool",
    "SupervisorConfig",
    "UnknownQueryError",
    "WireFormatError",
    "decode_delta",
    "decode_snapshot",
    "encode_delta",
    "encode_snapshot",
    "field_for_epoch",
    "negotiate_encoding",
    "run_load",
    "select_simplified_records",
]
