"""Shard supervision: deadlines, crash/hang detection, respawn, retries.

A plain process-sharded pool assumes perfect workers: a crashed or
wedged shard process stalls ``compute`` forever and takes every session
pinned to it down with it.  This module runs the sharded layout in a
self-healing control loop:

- every compute attempt runs under a **per-request deadline**
  (:attr:`SupervisorConfig.compute_timeout`); a worker that crashes
  raises a broken-pool error, a worker that hangs blows the deadline --
  both are *detected*, classified, and recovered from;
- recovery is **kill + respawn + deterministic rebuild**: the shard's
  process is killed, a fresh single-worker pool is spawned lazily, and
  the worker-side compute (:func:`repro.serving.worker.compute_epoch`)
  rebuilds the session and fast-forwards to the requested epoch --
  byte-identical to an uninterrupted run, because every payload is a
  pure function of ``(config, epoch)``;
- failed attempts are retried, up to :data:`MAX_ATTEMPTS` per call,
  with **capped, jittered exponential backoff** -- the serving mirror of
  the transport's ARQ policy (``min(base << (k - 2), cap)`` windows),
  with the jitter drawn from a counter-based stream keyed ``(query,
  epoch, attempt)`` so even the retry timing is reproducible;
- each shard carries a **circuit breaker**: after
  :data:`BREAKER_THRESHOLD` consecutive infrastructure failures it opens
  and the next :data:`BREAKER_COOLDOWN` compute calls fail fast
  (:class:`ShardUnavailableError`) instead of burning deadlines on a
  shard that is clearly down, then a half-open trial call decides
  between closing and re-opening.  The cooldown is counted in *calls*,
  not seconds, so chaos runs replay identically on any machine;
- results carry a CRC integrity tag; a payload damaged in transit is
  rejected and recomputed, never published;
- a :class:`~repro.serving.chaos.ChaosEngine` can be plugged between the
  supervisor and the workers to inject kills, hangs, drops and
  corruption from seeded counter-based draws (the reproducible chaos
  harness).

Hangs are detected only by the per-request deadline: a wedged shard is
found by the next compute sent to it.  Health is first-class: per-shard
:class:`ShardHealth` counters (crashes, hangs, restarts, retries, MTTR
samples) feed ``MapService.health()`` and ``BENCH_serving_faults.json``.

The module constants below are read when a pool is built or a call
runs, so a test can patch them.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.network.rngstream import derive_key, uniform_at
from repro.serving import worker as worker_mod
from repro.serving.chaos import CORRUPT, DROP, HANG, KILL, ChaosEngine, ChaosPlan
from repro.serving.errors import (
    EpochComputeFailed,
    ShardComputeError,
    ShardCrashError,
    ShardHangError,
    ShardResultCorrupted,
    ShardResultDropped,
    ShardUnavailableError,
)
from repro.serving.session import SessionConfig

#: Backoff-jitter stream tag (sibling of the chaos engine's tags).
_TAG_BACKOFF = 103

#: Attempts per ``compute`` call (first try included), mirroring the
#: transport's ``max_retries + 1`` ARQ budget.
MAX_ATTEMPTS = 4

#: Seed of the backoff-jitter stream.
BACKOFF_SEED = 0

#: Consecutive infrastructure failures that open a shard's breaker.
BREAKER_THRESHOLD = 3

#: Compute *calls* that fail fast while a breaker is open, before the
#: half-open trial.
BREAKER_COOLDOWN = 2

#: Worker-join deadline on shutdown (seconds); stragglers are killed.
CLOSE_TIMEOUT = 5.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Deadline and backoff of the self-healing layer.

    Attributes:
        compute_timeout: per-request deadline (seconds); a compute that
            has not answered by then is treated as a hang.
        backoff_base / backoff_cap: retry ``k`` (k >= 2) sleeps
            ``min(backoff_base * 2**(k - 2), backoff_cap)`` seconds,
            scaled by a deterministic jitter in [0.5, 1.0) -- the capped
            exponential backoff of the transport, in wall time.
    """

    compute_timeout: float = 30.0
    backoff_base: float = 0.01
    backoff_cap: float = 0.08

    def __post_init__(self) -> None:
        if self.compute_timeout <= 0:
            raise ValueError("compute_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")


class CircuitBreaker:
    """Per-shard three-state breaker with call-counted cooldown.

    Closed: calls flow.  Open: the next ``cooldown`` calls fail fast.
    Half-open: one trial call runs; success closes the breaker, failure
    re-opens it.
    """

    def __init__(self, threshold: int, cooldown: int):
        self.threshold = threshold
        self.cooldown = cooldown
        self.consecutive_failures = 0
        self.opens = 0
        self._budget = 0

    @property
    def state(self) -> str:
        if self._budget > 0:
            return "open"
        if self.consecutive_failures >= self.threshold:
            return "half_open"
        return "closed"

    @property
    def is_open(self) -> bool:
        return self._budget > 0

    def allows(self) -> bool:
        """Gate one compute call; consumes one cooldown slot when open."""
        if self._budget > 0:
            self._budget -= 1
            return False
        return True

    def on_success(self) -> None:
        self.consecutive_failures = 0
        self._budget = 0

    def on_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold and self._budget == 0:
            self._budget = self.cooldown
            self.opens += 1


@dataclass
class ShardHealth:
    """What one shard's supervisor has seen and done."""

    computes: int = 0
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    drops: int = 0
    corruptions: int = 0
    restarts: int = 0
    failures: int = 0  # compute calls that exhausted every attempt
    breaker_fast_fails: int = 0
    recovery_ms: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "computes": self.computes,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "drops": self.drops,
            "corruptions": self.corruptions,
            "restarts": self.restarts,
            "failures": self.failures,
            "breaker_fast_fails": self.breaker_fast_fails,
            "recoveries": len(self.recovery_ms),
        }


def drain_executor(executor: ProcessPoolExecutor) -> None:
    """Shut a process pool down without ever hanging the caller.

    Queued-but-unstarted work is cancelled, workers get
    :data:`CLOSE_TIMEOUT` seconds to join, and stragglers
    (dead-but-unreaped or genuinely wedged processes) are killed -- so
    ``MapService.stop()`` can never block on a worker that will not come
    back.
    """
    executor.shutdown(wait=False, cancel_futures=True)
    # _processes is None once the executor has fully shut down.
    procs = [
        p for p in (getattr(executor, "_processes", None) or {}).values()
        if p is not None
    ]
    deadline = time.monotonic() + CLOSE_TIMEOUT
    for p in procs:
        p.join(max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.kill()
    for p in procs:
        if p.is_alive():
            p.join(1.0)


class ShardSupervisor:
    """Owns one shard's worker process, breaker, and health counters.

    ``inline=True`` is the processless (``n_shards = 0``) twin: compute
    runs in the event loop's default thread executor, and "respawn"
    wipes the in-process session table instead of killing anything --
    the recovery path still exercises the deterministic rebuild, so
    inline and sharded chaos runs stay byte-identical.
    """

    def __init__(self, index: int, inline: bool = False):
        self.index = index
        self.inline = inline
        self.health = ShardHealth()
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor (respawned lazily); None in inline mode."""
        if self.inline:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=1)
        return self._executor

    def kill_workers(self) -> int:
        """SIGKILL every live worker process of this shard.

        Returns how many processes were actually killed (0 inline, or
        when the pool has not spawned its worker yet).
        """
        if self._executor is None:
            return 0
        killed = 0
        for p in (getattr(self._executor, "_processes", None) or {}).values():
            if p is not None and p.is_alive():
                p.kill()
                killed += 1
        return killed

    def respawn(self) -> None:
        """Tear the shard's worker down and arrange a fresh one.

        The replacement pool is created lazily on the next request; the
        worker-side session table dies with the old process, so the next
        epoch compute rebuilds and fast-forwards deterministically.
        """
        self.health.restarts += 1
        if self.inline:
            worker_mod.reset()
            return
        if self._executor is not None:
            self.kill_workers()
            old = self._executor
            self._executor = None
            old.shutdown(wait=False, cancel_futures=True)

    def on_crash(self) -> None:
        self.health.crashes += 1
        self.respawn()

    def on_hang(self) -> None:
        self.health.hangs += 1
        self.respawn()

    def close(self) -> None:
        """Shut the shard's worker down; never hangs (see
        :func:`drain_executor`).  Idempotent."""
        if self._executor is not None:
            old = self._executor
            self._executor = None
            drain_executor(old)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        d = self.health.to_dict()
        d["shard"] = self.index
        d["inline"] = self.inline
        d["breaker"] = self.breaker.state
        d["breaker_opens"] = self.breaker.opens
        return d


class SupervisedShardPool:
    """Self-healing process-sharded epoch compute.

    Stable crc32 pinning of sessions to shards (``n_shards = 0`` =
    inline) with deterministic payloads, plus the supervision loop
    described in the module docstring.

    Args:
        n_shards: worker processes; 0 computes inline.
        supervision: deadline and backoff (defaults are
            production-shaped: generous deadline, small backoff).
        chaos: a seeded :class:`~repro.serving.chaos.ChaosPlan` to
            inject failures (None or a null plan = no injection).
    """

    def __init__(
        self,
        n_shards: int = 0,
        supervision: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
    ):
        if n_shards < 0:
            raise ValueError("n_shards must be >= 0")
        self.n_shards = n_shards
        self.supervision = supervision if supervision is not None else SupervisorConfig()
        self.chaos: Optional[ChaosEngine] = None
        if chaos is not None and not chaos.is_null:
            self.chaos = ChaosEngine(chaos)
        if n_shards:
            self.supervisors = [ShardSupervisor(i) for i in range(n_shards)]
        else:
            self.supervisors = [ShardSupervisor(0, inline=True)]
        #: perf_counter of the first failed attempt per (query, epoch),
        #: kept across compute calls so MTTR spans breaker-open gaps.
        self._first_failure: Dict[Tuple[str, int], float] = {}

    def shard_of(self, query_id: str) -> int:
        """The shard a query id is pinned to (stable across runs)."""
        if not self.n_shards:
            return 0
        return zlib.crc32(query_id.encode("utf-8")) % self.n_shards

    # ------------------------------------------------------------------
    # The supervised compute path
    # ------------------------------------------------------------------

    async def compute(self, config: SessionConfig, epoch: int) -> Dict[str, Any]:
        """Run one session epoch with supervision, retries and breaker.

        Raises:
            ShardUnavailableError: the shard's breaker is open (fail
                fast, nothing was attempted).
            EpochComputeFailed: every attempt failed; the epoch can be
                retried later and will produce identical bytes.
        """
        qid = config.query_id
        shard_idx = self.shard_of(qid)
        sup = self.supervisors[shard_idx]
        if not sup.breaker.allows():
            sup.health.breaker_fast_fails += 1
            raise ShardUnavailableError(
                f"shard {shard_idx} circuit open "
                f"(cooling down after {sup.breaker.consecutive_failures} "
                f"consecutive failures)",
                shard=shard_idx,
            )
        last: Optional[ShardComputeError] = None
        attempts = 0
        for k in range(1, MAX_ATTEMPTS + 1):
            if k > 1:
                sup.health.retries += 1
                delay = self._backoff_delay(qid, epoch, k)
                if delay > 0:
                    await asyncio.sleep(delay)
            attempt = (
                self.chaos.next_attempt(qid, epoch) if self.chaos is not None else k
            )
            action = (
                self.chaos.action(shard_idx, qid, epoch, attempt)
                if self.chaos is not None
                else None
            )
            attempts = k
            try:
                result = await self._attempt(sup, config, epoch, action, attempt)
            except ShardComputeError as exc:
                last = exc
                self._first_failure.setdefault((qid, epoch), time.perf_counter())
                sup.breaker.on_failure()
                if sup.breaker.is_open:
                    break  # fail the call; the breaker gates the next ones
                continue
            sup.breaker.on_success()
            sup.health.computes += 1
            t0 = self._first_failure.pop((qid, epoch), None)
            if t0 is not None:
                sup.health.recovery_ms.append((time.perf_counter() - t0) * 1e3)
            return result
        sup.health.failures += 1
        raise EpochComputeFailed(
            f"epoch {epoch} of {qid!r} failed after {attempts} attempts "
            f"(last: {last!r})",
            query_id=qid,
            epoch=epoch,
            attempts=attempts,
        )

    async def _attempt(
        self,
        sup: ShardSupervisor,
        config: SessionConfig,
        epoch: int,
        action: Optional[str],
        attempt: int,
    ) -> Dict[str, Any]:
        """One supervised attempt; infrastructure failures raise
        :class:`ShardComputeError` subclasses (and have already been
        recovered from -- the shard is respawned before the raise)."""
        scfg = self.supervision
        qid = config.query_id
        loop = asyncio.get_running_loop()

        if action == HANG:
            # A wedged worker: the deadline passes with no answer.  The
            # recovery is the real one -- kill whatever the shard runs
            # and respawn -- so the rebuild path is genuinely exercised.
            await asyncio.sleep(scfg.compute_timeout)
            sup.on_hang()
            raise ShardHangError(
                f"shard {sup.index} hung on epoch {epoch} of {qid!r} "
                f"(deadline {scfg.compute_timeout}s)",
                shard=sup.index,
            )

        if action == KILL:
            # A real SIGKILL when the shard has a live worker; the broken
            # pool then surfaces below.  Inline -- or before the lazy
            # pool has spawned its worker -- there is nothing to kill,
            # so the crash (and the state loss) is simulated instead.
            if sup.kill_workers() == 0:
                sup.on_crash()
                raise ShardCrashError(
                    f"shard {sup.index} worker killed (simulated) "
                    f"on epoch {epoch} of {qid!r}",
                    shard=sup.index,
                )

        try:
            fut = loop.run_in_executor(
                sup.executor(), worker_mod.compute_epoch, config.to_dict(), epoch
            )
            result = await asyncio.wait_for(fut, scfg.compute_timeout)
        except asyncio.TimeoutError:
            sup.on_hang()
            raise ShardHangError(
                f"shard {sup.index} blew its {scfg.compute_timeout}s deadline "
                f"on epoch {epoch} of {qid!r}",
                shard=sup.index,
            ) from None
        except BrokenExecutor as exc:
            sup.on_crash()
            raise ShardCrashError(
                f"shard {sup.index} worker died on epoch {epoch} of {qid!r}: "
                f"{exc!r}",
                shard=sup.index,
            ) from exc

        if action == DROP:
            sup.health.drops += 1
            raise ShardResultDropped(
                f"shard {sup.index} result for epoch {epoch} of {qid!r} "
                f"dropped in transit",
                shard=sup.index,
            )
        if action == CORRUPT and self.chaos is not None:
            result = dict(result)
            result["delta"] = self.chaos.corrupt_payload(
                result["delta"], sup.index, qid, epoch, attempt
            )

        crc = result.get("crc")
        if crc is not None and (zlib.crc32(result["delta"]) & 0xFFFFFFFF) != crc:
            sup.health.corruptions += 1
            raise ShardResultCorrupted(
                f"shard {sup.index} payload for epoch {epoch} of {qid!r} "
                f"failed its CRC check",
                shard=sup.index,
            )
        # The SIMPLIFIED stream's delta carries its own integrity tag:
        # both payloads must survive transit for the epoch to publish.
        s_crc = result.get("s_crc")
        if s_crc is not None and (
            zlib.crc32(result["s_delta"]) & 0xFFFFFFFF
        ) != s_crc:
            sup.health.corruptions += 1
            raise ShardResultCorrupted(
                f"shard {sup.index} simplified payload for epoch {epoch} of "
                f"{qid!r} failed its CRC check",
                shard=sup.index,
            )
        return result

    def _backoff_delay(self, query_id: str, epoch: int, k: int) -> float:
        """Deterministically jittered capped exponential backoff."""
        scfg = self.supervision
        window = min(scfg.backoff_base * (2 ** (k - 2)), scfg.backoff_cap)
        if window <= 0:
            return 0.0
        key = derive_key(
            BACKOFF_SEED, _TAG_BACKOFF,
            zlib.crc32(query_id.encode("utf-8")), epoch, k,
        )
        return window * (0.5 + 0.5 * uniform_at(key, 0))

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------

    def status(self) -> List[Dict[str, Any]]:
        return [sup.status() for sup in self.supervisors]

    def close(self) -> None:
        """Shut every shard down; never hangs (stragglers are killed)."""
        for sup in self.supervisors:
            sup.close()
