"""Shard supervision: deadlines, recovery, breakers, clean shutdown.

Covers the self-healing machinery in isolation: the circuit breaker
state machine, the chaos engine's determinism, each injected failure
mode recovering to byte-identical payloads, genuine (non-injected)
hang detection via the per-request deadline, and the close-paths that
must never hang even with a wedged worker.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.serving.chaos import (
    CORRUPT,
    DROP,
    HANG,
    KILL,
    ChaosEngine,
    ChaosEvent,
    ChaosPlan,
)
from repro.serving.errors import (
    EpochComputeFailed,
    ShardUnavailableError,
)
from repro.serving import supervisor, worker
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.supervisor import (
    CircuitBreaker,
    SupervisedShardPool,
    SupervisorConfig,
)
from repro.serving.worker import wedge

CONFIG_KW = dict(n_nodes=200, seed=3, radio_range=2.2)

#: Fast supervision for tests: short deadline (epochs at n=200 take
#: ~10 ms), tiny backoff, default breaker.
FAST = SupervisorConfig(
    compute_timeout=0.5,
    backoff_base=0.002,
    backoff_cap=0.01,
)


def _config(query_id="sup"):
    return SessionConfig(query_id=query_id, scenario="tide", **CONFIG_KW)


async def _truth(config, epochs):
    pool = SupervisedShardPool(0)
    return [await pool.compute(config, e) for e in range(1, epochs + 1)]


# ----------------------------------------------------------------------
# Chaos plan / engine
# ----------------------------------------------------------------------


def test_chaos_plan_validation():
    with pytest.raises(ValueError):
        ChaosPlan(kill=0.6, hang=0.5)  # sum > 1
    with pytest.raises(ValueError):
        ChaosPlan(drop=-0.1)
    with pytest.raises(ValueError):
        ChaosEvent(epoch=0, attempt=1, kind=KILL)
    with pytest.raises(ValueError):
        ChaosEvent(epoch=1, attempt=1, kind="explode")
    assert ChaosPlan.none().is_null
    assert ChaosPlan.at_intensity(0.0).is_null
    assert not ChaosPlan.moderate().is_null


def test_chaos_engine_is_deterministic():
    plan = ChaosPlan.moderate(seed=11)
    a, b = ChaosEngine(plan), ChaosEngine(plan)
    addresses = [
        (shard, qid, epoch, attempt)
        for shard in (0, 1)
        for qid in ("q0", "q1")
        for epoch in range(1, 30)
        for attempt in (1, 2)
    ]
    actions_a = [a.action(*addr) for addr in addresses]
    actions_b = [b.action(*addr) for addr in addresses]
    assert actions_a == actions_b
    assert a.stats.to_dict() == b.stats.to_dict()
    # Moderate intensity injects *something* over 480 attempts...
    assert any(act is not None for act in actions_a)
    # ...and every mode has non-zero probability mass.
    assert sum(a.stats.to_dict().values()) == sum(
        1 for act in actions_a if act is not None
    )


def test_chaos_attempt_cursor_is_monotone_across_calls():
    engine = ChaosEngine(ChaosPlan.moderate())
    assert engine.next_attempt("q", 1) == 1
    assert engine.next_attempt("q", 1) == 2
    assert engine.next_attempt("q", 2) == 1  # per-epoch cursor
    assert engine.next_attempt("q", 1) == 3  # survives interleaving


def test_corrupt_payload_flips_bits_deterministically():
    engine = ChaosEngine(ChaosPlan(seed=5, corrupt=1.0))
    payload = bytes(range(64))
    damaged = engine.corrupt_payload(payload, 0, "q", 1, 1)
    assert damaged != payload
    assert len(damaged) == len(payload)
    assert damaged == engine.corrupt_payload(payload, 0, "q", 1, 1)
    # A different attempt damages different bits (new draw address).
    assert damaged != engine.corrupt_payload(payload, 0, "q", 1, 2)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


def test_circuit_breaker_state_machine():
    b = CircuitBreaker(threshold=3, cooldown=2)
    assert b.state == "closed" and b.allows()
    b.on_failure(); b.on_failure()
    assert b.state == "closed"
    b.on_failure()  # threshold reached
    assert b.state == "open" and b.opens == 1
    assert not b.allows()  # cooldown call 1
    assert not b.allows()  # cooldown call 2
    assert b.state == "half_open"
    assert b.allows()  # the trial call
    b.on_failure()  # trial fails -> re-open
    assert b.state == "open" and b.opens == 2
    assert not b.allows(); assert not b.allows()
    assert b.allows()
    b.on_success()  # trial succeeds -> closed
    assert b.state == "closed" and b.consecutive_failures == 0


def test_breaker_fail_fast_then_half_open_recovery():
    config = _config("breaker")
    # Kill the first three attempts at epoch 1: the breaker (threshold
    # 3) opens mid-call, the next two calls fail fast, the half-open
    # trial succeeds and closes it.
    plan = ChaosPlan(events=tuple(
        ChaosEvent(epoch=1, attempt=k, kind=KILL) for k in (1, 2, 3)
    ))

    async def main():
        truth = (await _truth(config, 1))[0]
        pool = SupervisedShardPool(0, supervision=FAST, chaos=plan)
        with pytest.raises(EpochComputeFailed) as exc_info:
            await pool.compute(config, 1)
        assert exc_info.value.attempts == 3  # breaker cut the 4th attempt
        for _ in range(2):
            with pytest.raises(ShardUnavailableError):
                await pool.compute(config, 1)
        result = await pool.compute(config, 1)  # half-open trial
        assert result["delta"] == truth["delta"]
        status = pool.status()[0]
        assert status["breaker"] == "closed"
        assert status["breaker_opens"] == 1
        assert status["breaker_fast_fails"] == 2
        assert status["crashes"] == 3
        pool.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Injected failures recover byte-identically
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", [KILL, DROP, CORRUPT])
def test_injected_failure_recovers_byte_identically(kind):
    config = _config(f"inj-{kind}")
    plan = ChaosPlan(events=(ChaosEvent(epoch=2, attempt=1, kind=kind),))

    async def main():
        truth = await _truth(config, 3)
        pool = SupervisedShardPool(0, supervision=FAST, chaos=plan)
        for e in range(1, 4):
            result = await pool.compute(config, e)
            assert result["delta"] == truth[e - 1]["delta"]
            assert result["records"] == truth[e - 1]["records"]
            assert result["sink"] == truth[e - 1]["sink"]
        status = pool.status()[0]
        assert status["retries"] == 1
        assert status["recoveries"] == 1
        pool.close()

    asyncio.run(main())


@pytest.mark.deadline(60)
def test_injected_hang_blows_deadline_then_recovers():
    config = _config("inj-hang")
    plan = ChaosPlan(events=(ChaosEvent(epoch=1, attempt=1, kind=HANG),))

    async def main():
        truth = (await _truth(config, 1))[0]
        pool = SupervisedShardPool(1, supervision=FAST, chaos=plan)
        result = await pool.compute(config, 1)
        assert result["delta"] == truth["delta"]
        status = pool.status()[0]
        assert status["hangs"] == 1 and status["restarts"] == 1
        pool.close()

    asyncio.run(main())


@pytest.mark.deadline(60)
def test_worker_kill_mid_run_recovers_byte_identically():
    """A real SIGKILL of a live shard process: the supervisor detects
    the broken pool, respawns, and the rebuilt worker fast-forwards to
    the exact pre-failure state."""
    config = _config("warmkill")
    plan = ChaosPlan(events=(ChaosEvent(epoch=3, attempt=1, kind=KILL),))

    async def main():
        truth = await _truth(config, 4)
        pool = SupervisedShardPool(1, supervision=FAST, chaos=plan)
        for e in range(1, 5):
            result = await pool.compute(config, e)
            assert result["delta"] == truth[e - 1]["delta"]
        status = pool.status()[0]
        assert status["crashes"] == 1
        assert status["restarts"] == 1
        assert status["recoveries"] == 1
        pool.close()

    asyncio.run(main())


@pytest.mark.deadline(60)
def test_genuine_hang_detected_by_deadline():
    """A non-injected hang: the single worker is genuinely busy, the
    request blows the compute deadline, and supervision recovers."""
    config = _config("realhang")

    async def main():
        pool = SupervisedShardPool(1, supervision=FAST)
        sup = pool.supervisors[0]
        truth = (await _truth(config, 1))[0]
        # Wedge the worker: the next compute waits behind a 5 s sleep
        # on a 0.5 s deadline.
        sup.executor().submit(wedge, 5.0)
        result = await pool.compute(config, 1)
        assert result["delta"] == truth["delta"]
        assert sup.health.hangs >= 1
        assert sup.health.restarts >= 1
        pool.close()

    asyncio.run(main())


@pytest.mark.deadline(60)
def test_abandoned_inline_compute_cannot_take_over_its_session(monkeypatch):
    """Inline, a compute that blows its deadline keeps running on its
    executor thread after the reset.  If it was still building its
    session, finishing later must not install that session over the
    retry's, and the stream after the retry is the clean run's."""
    config = _config("abandoned")
    clean = SessionCompute(config)
    truth = [clean.epoch(e)["delta"] for e in (1, 2, 3)]

    built = []
    release = threading.Event()

    class FirstBuildOverruns(SessionCompute):
        def __init__(self, cfg):
            super().__init__(cfg)
            built.append(self)
            if len(built) == 1:
                release.wait(10)

    monkeypatch.setattr(worker, "SessionCompute", FirstBuildOverruns)
    worker.reset()
    pool = SupervisedShardPool(
        0,
        supervision=SupervisorConfig(
            compute_timeout=0.2, backoff_base=0.002, backoff_cap=0.01
        ),
    )

    async def first_epoch():
        try:
            return await pool.compute(config, 1)
        finally:
            release.set()

    # asyncio.run joins the default executor's threads before returning,
    # so the abandoned compute has finished by then.
    first = asyncio.run(first_epoch())
    assert len(built) == 2
    assert worker._SESSIONS[config.query_id] is built[1]

    async def later_epochs():
        return [await pool.compute(config, e) for e in (2, 3)]

    deltas = [first["delta"]] + [r["delta"] for r in asyncio.run(later_epochs())]
    assert deltas == truth
    status = pool.status()[0]
    assert status["hangs"] == 1 and status["restarts"] == 1
    pool.close()


@pytest.mark.deadline(60)
def test_session_table_never_keeps_a_build_from_before_a_reset(monkeypatch):
    """Stress the table under resets: computes on more threads than
    cores, a short switch interval, and resets until they finish.  After
    each reset the table must never hold a session built before it."""

    class Session:
        def __init__(self, config):
            self.config = config
            self.next_epoch = 1
            self.generation = worker._GENERATION
            time.sleep(0)  # let a reset land mid-build

        def epoch(self, e):
            self.next_epoch = e + 1
            return {}

    monkeypatch.setattr(worker, "SessionCompute", Session)
    config = _config("stress").to_dict()

    def computes():
        for e in range(1, 200):
            worker.compute_epoch(config, 1 + e % 3)

    stale = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=computes) for _ in range(6)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            worker.reset()
            time.sleep(0)
            with worker._LOCK:
                stale += sum(
                    s.generation < worker._GENERATION
                    for s in worker._SESSIONS.values()
                )
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert stale == 0
    worker.reset()


# ----------------------------------------------------------------------
# Shutdown can never hang (the PR's close-regression satellite)
# ----------------------------------------------------------------------


@pytest.mark.deadline(30)
def test_supervised_pool_close_kills_wedged_worker(monkeypatch):
    """Regression: ``close()`` used to ``shutdown(wait=True)``, hanging
    forever behind a wedged worker.  Now stragglers are killed."""
    monkeypatch.setattr(supervisor, "CLOSE_TIMEOUT", 1.0)
    pool = SupervisedShardPool(1, supervision=FAST)
    pool.supervisors[0].executor().submit(wedge, 60.0)
    time.sleep(0.2)  # let the worker pick the task up
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < 10.0
    pool.close()  # idempotent


@pytest.mark.deadline(30)
def test_service_stop_never_hangs_on_wedged_shard():
    config = _config("stopwedge")

    async def main():
        service = MapService([config], n_shards=1, supervision=FAST)
        await service.session("stopwedge").advance()
        service.pool.supervisors[0].executor().submit(wedge, 60.0)
        await asyncio.sleep(0.2)
        t0 = time.monotonic()
        await service.stop(drain=True)
        assert time.monotonic() - t0 < 10.0

    asyncio.run(main())


# ----------------------------------------------------------------------
# Service-level degradation: stale snapshots, health report
# ----------------------------------------------------------------------


def test_snapshot_goes_stale_while_degraded_then_live_again(monkeypatch):
    config = _config("stale")
    # Every attempt at epoch 2 drops (MAX_ATTEMPTS 4 = 4 events): the
    # advance fails, the session degrades, and snapshot() serves the
    # retained epoch-1 payload tagged stale.
    plan = ChaosPlan(events=tuple(
        ChaosEvent(epoch=2, attempt=k, kind=DROP) for k in range(1, 5)
    ))
    # Keep the breaker out of this test.
    monkeypatch.setattr(supervisor, "BREAKER_THRESHOLD", 10)

    async def main():
        service = MapService([config], supervision=FAST, chaos=plan)
        session = service.session("stale")
        await session.advance()
        live = service.snapshot("stale")
        assert live.kind == "snapshot" and not live.stale

        with pytest.raises(EpochComputeFailed):
            await session.advance()
        assert session.degraded
        degraded = service.snapshot("stale")
        assert degraded.kind == "snapshot_stale" and degraded.stale
        assert degraded.epoch == 1
        assert degraded.payload == live.payload  # last retained epoch

        health = service.health()
        assert health["sessions"]["stale"]["degraded"]
        assert health["sessions"]["stale"]["epochs_failed"] == 1
        assert health["sessions"]["stale"]["stale_snapshots"] == 1
        assert health["chaos"]["drops"] == 4

        # The cursor moved past the events: the retry succeeds and the
        # session serves live answers again.
        await session.advance()
        assert not session.degraded
        recovered = service.snapshot("stale")
        assert recovered.kind == "snapshot" and recovered.epoch == 2
        assert session.stats.degraded_s > 0
        await service.stop()

    asyncio.run(main())


def test_health_report_shape():
    config = _config("health")

    async def main():
        service = MapService([config])
        await service.session("health").advance()
        health = service.health()
        assert [s["shard"] for s in health["shards"]] == [0]
        assert health["shards"][0]["computes"] == 1
        entry = health["sessions"]["health"]
        assert entry == {
            "latest_epoch": 1,
            "degraded": False,
            "failed": False,
            "epochs_failed": 0,
            "stale_snapshots": 0,
            "subscribers": 0,
        }
        assert "chaos" not in health  # no plan plugged in
        await service.stop()

    asyncio.run(main())


def test_supervisor_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(compute_timeout=0)
    with pytest.raises(ValueError):
        SupervisorConfig(backoff_base=-0.1)
    with pytest.raises(ValueError):
        SupervisorConfig(backoff_cap=-0.1)
    with pytest.raises(ValueError):
        SupervisedShardPool(-1)
