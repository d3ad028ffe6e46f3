"""Multi-worker sharding determinism.

The same configs must produce byte-identical payload streams whether
epochs run inline, in one worker process, or spread over several --
the shard layout is an operational knob, never a semantic one.
"""

import asyncio

import pytest

from repro.serving import worker
from repro.serving.errors import UnknownQueryError
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.supervisor import SupervisedShardPool

CONFIGS = [
    SessionConfig(query_id="alpha", n_nodes=300, seed=1, scenario="storm"),
    SessionConfig(query_id="beta", n_nodes=300, seed=2, scenario="tide"),
]
EPOCHS = 3


def stream(n_shards: int):
    """(query_id, epoch) -> (delta, records, sink) under a shard layout."""

    async def main():
        out = {}
        async with MapService(CONFIGS, n_shards=n_shards) as service:
            sessions = list(service.sessions.values())
            for _ in range(EPOCHS):
                # Concurrently across shards.
                results = await asyncio.gather(*(s.advance() for s in sessions))
                for session, r in zip(sessions, results):
                    qid = session.config.query_id
                    out[(qid, r["epoch"])] = (r["delta"], r["records"], r["sink"])
        return out

    return asyncio.run(main())


@pytest.mark.parametrize("n_shards", [1, 2])
def test_sharded_streams_match_inline(n_shards):
    assert stream(n_shards) == stream(0)


def test_shard_pinning_is_stable():
    pool = SupervisedShardPool(3)
    try:
        for qid in ("alpha", "beta", "gamma", "delta"):
            assert pool.shard_of(qid) == pool.shard_of(qid)
            assert 0 <= pool.shard_of(qid) < 3
    finally:
        pool.close()


def test_worker_rebuild_fast_forwards_deterministically():
    """A cold worker asked for epoch k rebuilds the session and fast
    forwards 1..k-1, landing on the same payload as an uninterrupted
    run (what makes worker restarts invisible to clients)."""
    worker.reset()
    config = CONFIGS[0]
    continuous = SessionCompute(config)
    expected = [continuous.epoch(e) for e in range(1, 4)]

    worker.reset()
    warm = [worker.compute_epoch(config.to_dict(), e) for e in range(1, 3)]
    worker.reset()  # simulate a worker restart before epoch 3
    cold = worker.compute_epoch(config.to_dict(), 3)
    for got, want in zip(warm + [cold], expected):
        assert got["delta"] == want["delta"]
        assert got["records"] == want["records"]
        assert got["sink"] == want["sink"]
    worker.reset()


def test_worker_detects_config_change():
    worker.reset()
    a = worker.compute_epoch(SessionConfig(query_id="q", n_nodes=200).to_dict(), 1)
    b = worker.compute_epoch(
        SessionConfig(query_id="q", n_nodes=200, seed=9).to_dict(), 1
    )
    # Same query id, new config: the worker rebuilt rather than reusing
    # the stale session (different seed ==> different deployment).
    assert a["delta"] != b["delta"]
    worker.reset()


def test_unknown_query_is_rejected():
    async def main():
        async with MapService(CONFIGS[:1]) as service:
            with pytest.raises(UnknownQueryError):
                service.snapshot("nope")
            with pytest.raises(ValueError):
                MapService([CONFIGS[0], CONFIGS[0]])

    asyncio.run(main())
