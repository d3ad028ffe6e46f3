"""Session-task crashes must surface, never silently stall a queue.

An exception inside a session's epoch loop (an *application* error --
bad config, a bug in the compute -- as opposed to the infrastructure
failures the supervisor retries) must reach every subscriber as a typed
:class:`SessionFailedError` carrying the original exception as its
cause, and must leave every *other* session streaming byte-identically
to a run where the doomed session never existed.
"""

import asyncio

import pytest

from repro.serving.errors import SessionFailedError
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.wire import DELTA, DeltaReplayer, encode_snapshot

CONFIG_KW = dict(n_nodes=200, seed=3, radio_range=2.2)


def _good(query_id="ok", scenario="tide"):
    return SessionConfig(query_id=query_id, scenario=scenario, **CONFIG_KW)


def _bad(query_id="bad"):
    # Constructs fine; the compute's first epoch raises ValueError.
    return SessionConfig(query_id=query_id, scenario="bogus", **CONFIG_KW)


def _truth(config, epochs):
    compute = SessionCompute(config)
    results = [compute.epoch(e) for e in range(1, epochs + 1)]
    return [
        encode_snapshot(e, r["records"], r["sink"])
        for e, r in enumerate(results, 1)
    ]


def test_epoch_crash_surfaces_as_typed_error_to_subscribers():
    async def main():
        service = MapService([_bad()])
        session = service.session("bad")
        sub = service.subscribe("bad", since_epoch=0)

        with pytest.raises(SessionFailedError) as exc_info:
            await session.advance()
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert session.failure is exc_info.value.__cause__

        # The subscriber is woken with the typed error -- not left
        # waiting on a queue nothing will ever feed again.
        with pytest.raises(SessionFailedError):
            await asyncio.wait_for(sub.__anext__(), timeout=5.0)

        # Late joiners are refused up front, same type.
        with pytest.raises(SessionFailedError):
            service.subscribe("bad")

        # A failed session stays failed (no zombie advances)...
        with pytest.raises(SessionFailedError):
            await session.advance()
        # ...and degrades reads explicitly: the snapshot is the last
        # retained state, tagged stale.
        assert service.snapshot("bad").stale

        health = service.health()
        assert health["sessions"]["bad"]["failed"] is True
        await service.stop()

    asyncio.run(main())


def test_sibling_sessions_stream_byte_identically_after_a_crash():
    """One session dying must not perturb the bytes of the survivors."""
    good = _good()
    truth = _truth(good, 4)

    async def main():
        service = MapService([good, _bad()])
        ok_session = service.session("ok")
        sub = service.subscribe("ok", since_epoch=0)
        replayer = DeltaReplayer()

        with pytest.raises(SessionFailedError):
            await service.session("bad").advance()

        for e in range(1, 5):
            await ok_session.advance()
            message = await sub.__anext__()
            assert message.kind == DELTA and message.epoch == e
            replayer.apply(message)
            assert replayer.render() == truth[e - 1]
            assert service.snapshot("ok").payload == truth[e - 1]
            assert not service.snapshot("ok").stale
        sub.close()
        await service.stop()

    asyncio.run(main())
