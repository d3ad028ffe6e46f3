"""The headline serving guarantees, checked differentially.

A subscriber that folds the delta stream from epoch 0 must render, at
*every* epoch, a snapshot byte-identical to both

1. what ``MapService.snapshot`` serves for that epoch, and
2. the canonical encoding of the sink cache of a direct
   :class:`~repro.core.continuous.ContinuousIsoMap` run under the same
   seed and scenario -- the serving layer must add nothing and lose
   nothing relative to the simulator it wraps.

Plus the concurrency contracts: backpressure eviction, mid-stream
join/leave, and graceful shutdown draining.
"""

import asyncio

import pytest

from repro.core.codec import ReportCodec
from repro.core.continuous import ContinuousIsoMap
from repro.network import SensorNetwork
from repro.serving.errors import SlowConsumerEvicted
from repro.serving.router import MapService
from repro.serving.session import SessionConfig, base_field, field_for_epoch
from repro.serving.wire import DELTA, DeltaReplayer, encode_snapshot

CONFIG_KW = dict(n_nodes=400, seed=3, radio_range=2.2)
EPOCHS = 6


def direct_run_snapshots(config: SessionConfig, epochs: int):
    """Ground truth: canonical per-epoch snapshot payloads from a direct
    ContinuousIsoMap run (no serving machinery at all)."""
    query = config.query()
    network = SensorNetwork.random_deploy(
        base_field(config),
        config.n_nodes,
        radio_range=config.radio_range,
        seed=config.seed,
    )
    monitor = ContinuousIsoMap(query, angle_delta_deg=config.angle_delta_deg)
    codec = ReportCodec.for_query(query, network.bounds)
    payloads = []
    for e in range(1, epochs + 1):
        network.resense(field_for_epoch(config, e))
        result = monitor.epoch(network)
        records = [codec.encode(r) for r in monitor.sink_reports]
        sink = (
            None
            if result.sink_value is None
            else codec.quantize_value(result.sink_value)
        )
        payloads.append(encode_snapshot(e, records, sink))
    return payloads


@pytest.mark.parametrize("scenario", ["tide", "storm"])
def test_replay_matches_snapshot_and_direct_run(scenario):
    config = SessionConfig(query_id="diff", scenario=scenario, **CONFIG_KW)
    truth = direct_run_snapshots(config, EPOCHS)

    async def main():
        async with MapService([config]) as service:
            session = service.session("diff")
            replayer = DeltaReplayer()
            sub = service.subscribe("diff", since_epoch=0)
            for e in range(1, EPOCHS + 1):
                await session.advance()
                message = await sub.__anext__()
                assert message.kind == DELTA and message.epoch == e
                replayer.apply(message)
                served = service.snapshot("diff").payload
                assert replayer.render() == served
                assert served == truth[e - 1]
            sub.close()

    asyncio.run(main())


def test_historical_snapshots_stay_identical():
    """Retained epochs re-render the exact payload they had when live."""
    config = SessionConfig(query_id="hist", scenario="tide", **CONFIG_KW)
    truth = direct_run_snapshots(config, EPOCHS)

    async def main():
        async with MapService([config], retention=EPOCHS) as service:
            session = service.session("hist")
            for _ in range(EPOCHS):
                await session.advance()
            for e in range(1, EPOCHS + 1):
                assert service.snapshot("hist", epoch=e).payload == truth[e - 1]

    asyncio.run(main())


def test_slow_consumer_is_evicted_others_unaffected():
    config = SessionConfig(query_id="slow", scenario="tide", **CONFIG_KW)

    async def main():
        async with MapService([config], queue_depth=2) as service:
            session = service.session("slow")
            lazy = service.subscribe("slow")  # never drained
            diligent = service.subscribe("slow")
            replayer = DeltaReplayer()
            for e in range(1, 5):
                await session.advance()
                message = await diligent.__anext__()
                replayer.apply(message)
            # queue_depth 2 < 4 published epochs: the lazy one is gone.
            with pytest.raises(SlowConsumerEvicted):
                await lazy.__anext__()
            assert session.stats.subscribers_evicted == 1
            assert replayer.render() == service.snapshot("slow").payload
            assert session.subscriber_count == 1  # diligent still attached

    asyncio.run(main())


def test_mid_stream_join_and_leave():
    config = SessionConfig(query_id="join", scenario="tide", **CONFIG_KW)

    async def main():
        async with MapService([config]) as service:
            session = service.session("join")
            for _ in range(3):
                await session.advance()
            # Joining at since_epoch=1 replays 2..3, then goes live.
            sub = service.subscribe("join", since_epoch=1)
            assert [(await sub.__anext__()).epoch for _ in range(2)] == [2, 3]
            await session.advance()
            assert (await sub.__anext__()).epoch == 4
            sub.close()
            # A closed subscriber receives nothing further.
            await session.advance()
            assert session.subscriber_count == 0

    asyncio.run(main())


def test_shutdown_drains_backlog_then_ends_stream():
    config = SessionConfig(query_id="drain", scenario="tide", **CONFIG_KW)

    async def main():
        service = MapService([config], queue_depth=16)
        session = service.session("drain")
        sub = service.subscribe("drain")
        for _ in range(3):
            await session.advance()

        async def consume():
            return [message.epoch async for message in sub]

        consumer = asyncio.ensure_future(consume())
        await asyncio.sleep(0)  # let the consumer start
        await service.stop(drain=True)
        # All three queued deltas arrive before the stream ends.
        assert await consumer == [1, 2, 3]

    asyncio.run(main())
