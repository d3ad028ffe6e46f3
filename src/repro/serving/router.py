"""The async front door: the service router over sharded sessions.

:class:`MapService` is the single async router in front of the shards:
it owns one :class:`~repro.serving.session.MapSession` per standing
query and exposes the two client paths -- ``snapshot(query_id)`` and
``subscribe(query_id, since_epoch)`` -- plus ``health()`` and ``stop()``.
Epochs advance when a caller invokes ``session(query_id).advance()``.

Compute runs through a
:class:`~repro.serving.supervisor.SupervisedShardPool`: one
single-worker process per shard, a session pinned to its shard by a
stable hash of its query id (so the worker-side state table of
:mod:`repro.serving.worker` stays warm), or inline in the event loop's
default executor with ``n_shards = 0`` -- byte-identical payloads either
way (the sharding-determinism tests pin inline vs. 1-shard vs.
2-shard).  The pool adds per-request deadlines, crash/hang recovery,
retries and per-shard circuit breakers (see
:mod:`repro.serving.supervisor`), and closes without ever hanging.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.serving.chaos import ChaosPlan
from repro.serving.errors import UnknownQueryError
from repro.serving.session import MapSession, SessionConfig, Subscription
from repro.serving.supervisor import SupervisedShardPool, SupervisorConfig
from repro.serving.wire import ENCODING_PLAIN, ServedMessage


class MapService:
    """Async router over many serving sessions.

    Args:
        configs: one :class:`SessionConfig` per standing query.
        n_shards: worker processes for the shard pool (0 = inline).
        supervision: deadlines/retry/breaker tuning for the supervised
            pool (None = production defaults).
        chaos: a seeded :class:`~repro.serving.chaos.ChaosPlan` to
            inject failures between the supervisor and the workers
            (None = no injection).
        retention / queue_depth: every session's store retention window
            (epochs) and per-subscriber queue size (see
            :class:`MapSession`).
    """

    def __init__(
        self,
        configs: Iterable[SessionConfig],
        n_shards: int = 0,
        supervision: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
        retention: int = 128,
        queue_depth: int = 16,
    ):
        self.pool = SupervisedShardPool(
            n_shards, supervision=supervision, chaos=chaos
        )
        self.sessions: Dict[str, MapSession] = {}
        for config in configs:
            if config.query_id in self.sessions:
                raise ValueError(f"duplicate query id {config.query_id!r}")
            self.sessions[config.query_id] = MapSession(
                config, self.pool, retention=retention, queue_depth=queue_depth
            )

    # ------------------------------------------------------------------
    # Client paths
    # ------------------------------------------------------------------

    def session(self, query_id: str) -> MapSession:
        try:
            return self.sessions[query_id]
        except KeyError:
            raise UnknownQueryError(
                f"no session for query {query_id!r} "
                f"(serving: {sorted(self.sessions)})"
            ) from None

    def snapshot(
        self,
        query_id: str,
        epoch: Optional[int] = None,
        encoding: str = ENCODING_PLAIN,
    ) -> ServedMessage:
        """The latest (or a retained historical) rendered map snapshot.

        ``encoding`` picks the PLAIN or SIMPLIFIED rendering (the latter
        only on sessions configured with a ``simplify_tolerance``)."""
        return self.session(query_id).snapshot(epoch, encoding=encoding)

    def subscribe(
        self,
        query_id: str,
        since_epoch: int = 0,
        encodings: Tuple[str, ...] = (ENCODING_PLAIN,),
    ) -> Subscription:
        """A delta stream that replays from ``since_epoch`` then follows
        live updates (see :meth:`MapSession.attach` for edge semantics).
        ``encodings`` is the subscriber's offer for version negotiation."""
        return self.session(query_id).attach(since_epoch, encodings=encodings)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """A structured view of service health for operators and tests.

        Returns per-shard supervision counters (crashes, hangs,
        restarts, breaker state), per-session liveness (latest epoch,
        degraded/failed flags, subscriber count), and -- when chaos is
        plugged in -- the injected-failure counts.
        """
        report: Dict[str, Any] = {
            "shards": self.pool.status(),
            "sessions": {
                qid: {
                    "latest_epoch": s.latest_epoch,
                    "degraded": s.degraded,
                    "failed": s.failure is not None,
                    "epochs_failed": s.stats.epochs_failed,
                    "stale_snapshots": s.stats.stale_snapshots,
                    "subscribers": s.subscriber_count,
                }
                for qid, s in self.sessions.items()
            },
        }
        if self.pool.chaos is not None:
            report["chaos"] = self.pool.chaos.stats.to_dict()
        return report

    async def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop every session (draining subscribers) and the shard pool.

        Never hangs: worker processes that do not join within the pool's
        close deadline are killed.  Safe to call more than once.
        """
        await asyncio.gather(
            *(s.stop(drain=drain, timeout=timeout) for s in self.sessions.values())
        )
        self.pool.close()

    async def __aenter__(self) -> "MapService":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()
