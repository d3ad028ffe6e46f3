"""The PR's acceptance bar: chaos changes *nothing* about the bytes.

Under seeded moderate chaos -- worker kills, hangs, dropped results and
corrupted payloads injected between the supervisor and the workers --
every subscriber's replayed delta stream and every post-recovery
snapshot must be byte-identical to the fault-free run at the same
epoch, across scenarios and shard layouts.  Recovery is allowed to
cost retries and wall-time; it is never allowed to cost bytes.
"""

import asyncio

import pytest

from repro.serving.chaos import ChaosPlan
from repro.serving.errors import EpochComputeFailed, ShardUnavailableError
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.supervisor import SupervisorConfig
from repro.serving.wire import DELTA, DeltaReplayer, encode_snapshot

CONFIG_KW = dict(n_nodes=300, seed=3, radio_range=2.2)
EPOCHS = 6

#: Chaos-test supervision: a deadline a few times the ~15 ms epoch
#: compute (injected hangs each burn one deadline), fast retries.
CHAOS_SUPERVISION = SupervisorConfig(
    compute_timeout=0.3,
    backoff_base=0.002,
    backoff_cap=0.01,
)


def truth_snapshots(config: SessionConfig, epochs: int):
    """Fault-free ground truth, straight from the compute core."""
    compute = SessionCompute(config)
    results = [compute.epoch(e) for e in range(1, epochs + 1)]
    return [
        encode_snapshot(e, r["records"], r["sink"])
        for e, r in enumerate(results, 1)
    ]


async def drive_through_chaos(session, epochs: int) -> int:
    """Advance to ``epochs`` published epochs, riding out failures.

    Returns how many advance attempts failed along the way (breaker
    fast-fails included)."""
    failed = 0
    rounds = 0
    while session.latest_epoch < epochs:
        rounds += 1
        assert rounds <= 60 * epochs, "chaos run is not converging"
        try:
            await session.advance()
        except (EpochComputeFailed, ShardUnavailableError):
            failed += 1
            await asyncio.sleep(0.002)
    return failed


@pytest.mark.deadline(120)
@pytest.mark.parametrize("scenario", ["tide", "storm"])
@pytest.mark.parametrize("n_shards", [0, 2])
def test_chaos_run_is_byte_identical_to_fault_free(scenario, n_shards):
    config = SessionConfig(query_id="chaos", scenario=scenario, **CONFIG_KW)
    truth = truth_snapshots(config, EPOCHS)

    async def main():
        service = MapService(
            [config],
            n_shards=n_shards,
            supervision=CHAOS_SUPERVISION,
            chaos=ChaosPlan.moderate(seed=6),
            retention=EPOCHS,
        )
        session = service.session("chaos")
        replayer = DeltaReplayer()
        sub = service.subscribe("chaos", since_epoch=0)
        await drive_through_chaos(session, EPOCHS)

        # The delta stream replays to the exact fault-free bytes at
        # every epoch (failed attempts published nothing).
        for e in range(1, EPOCHS + 1):
            message = await sub.__anext__()
            assert message.kind == DELTA and message.epoch == e
            replayer.apply(message)
            assert replayer.render() == truth[e - 1]
        sub.close()

        # Every retained post-recovery snapshot is fault-free-identical.
        for e in range(1, EPOCHS + 1):
            served = service.snapshot("chaos", epoch=e)
            assert served.payload == truth[e - 1]
            assert not served.stale  # fully recovered: live answers

        # The seeded plan really did inject (else this test is vacuous).
        injected = sum(service.pool.chaos.stats.to_dict().values())
        assert injected > 0
        await service.stop()
        return injected

    asyncio.run(main())


@pytest.mark.deadline(120)
def test_chaos_injection_counts_are_reproducible():
    """Same plan, same layout -> the same injected-failure counts (the
    breaker cools down in calls, not seconds, so a slow machine sees
    the exact run a fast one does)."""
    config = SessionConfig(query_id="chaos", scenario="tide", **CONFIG_KW)

    async def run_once():
        service = MapService(
            [config],
            supervision=CHAOS_SUPERVISION,
            chaos=ChaosPlan.moderate(seed=6),
        )
        session = service.session("chaos")
        failed = await drive_through_chaos(session, EPOCHS)
        stats = dict(service.pool.chaos.stats.to_dict())
        status = service.pool.status()[0]
        await service.stop()
        return failed, stats, status

    failed_a, stats_a, status_a = asyncio.run(run_once())
    failed_b, stats_b, status_b = asyncio.run(run_once())
    assert stats_a == stats_b
    assert failed_a == failed_b
    for key in ("retries", "crashes", "hangs", "drops", "corruptions",
                "failures", "breaker_fast_fails"):
        assert status_a[key] == status_b[key], key


@pytest.mark.deadline(120)
def test_two_sessions_one_chaotic_shard_layout():
    """Two standing queries through the same supervised pool: chaos on
    the pool leaves *both* delta streams byte-identical to their own
    fault-free runs."""
    configs = [
        SessionConfig(query_id="qa", scenario="tide", **CONFIG_KW),
        SessionConfig(query_id="qb", scenario="storm", **CONFIG_KW),
    ]
    truths = {c.query_id: truth_snapshots(c, 4) for c in configs}

    async def main():
        service = MapService(
            configs,
            n_shards=2,
            supervision=CHAOS_SUPERVISION,
            chaos=ChaosPlan.moderate(seed=9),
            retention=4,
        )
        replayers = {qid: DeltaReplayer() for qid in truths}
        subs = {qid: service.subscribe(qid, since_epoch=0) for qid in truths}
        for qid in truths:
            await drive_through_chaos(service.session(qid), 4)
        for qid, truth in truths.items():
            for e in range(1, 5):
                message = await subs[qid].__anext__()
                assert message.epoch == e
                replayers[qid].apply(message)
                assert replayers[qid].render() == truth[e - 1]
            subs[qid].close()
        await service.stop()

    asyncio.run(main())
