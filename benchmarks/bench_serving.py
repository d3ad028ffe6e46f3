"""Serving-layer load benchmark -> ``BENCH_serving.json``.

Drives :func:`repro.serving.clients.run_load` against a
:class:`~repro.serving.router.MapService`: one tide-scenario session
advancing epochs while simulated clients hammer both paths --

- snapshot clients measuring ``snapshot()`` request throughput/latency,
- delta subscribers measuring publish-to-delivery latency.

The full run serves >= 1200 concurrent subscribers (the ISSUE
acceptance load) over a 2-shard pool; the quick run is an inline
CI-sized smoke.  Before anything is timed, a correctness pass asserts
the byte-identity contract (a replayed delta stream renders the served
snapshot exactly) on the benchmark configuration itself.

``quick_report()`` runs the correctness pass and the CI-size load that
``benchmarks/gates.py`` gates: snapshot req/s and delta deliveries/s at
no less than a quarter of their committed values.  Latency percentiles
are reported but never gated -- they are too machine-dependent for CI.
``full_report()`` is what ``python benchmarks/record.py serving``
writes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

import record  # puts src/ on sys.path

from repro.serving.clients import run_load
from repro.serving.router import MapService
from repro.serving.session import SessionConfig
from repro.serving.wire import DeltaReplayer

#: Full-size load: the ISSUE acceptance bar is >= 1000 subscribers.
FULL = dict(n_nodes=600, subscribers=1200, snapshot_clients=64, epochs=6, shards=2)
QUICK = dict(n_nodes=300, subscribers=200, snapshot_clients=16, epochs=4, shards=0)


def _config(n_nodes: int) -> SessionConfig:
    return SessionConfig(query_id="bench", n_nodes=n_nodes, scenario="tide")


def verify(n_nodes: int, epochs: int) -> None:
    """Untimed correctness pass: replayed deltas render served bytes."""

    async def main():
        async with MapService([_config(n_nodes)]) as service:
            session = service.session("bench")
            replayer = DeltaReplayer()
            sub = service.subscribe("bench", since_epoch=0)
            for _ in range(epochs):
                await session.advance()
                replayer.apply(await sub.__anext__())
                assert replayer.render() == service.snapshot("bench").payload
            sub.close()

    asyncio.run(main())


def measure(sizes: Dict[str, int]) -> Dict[str, Any]:
    """One timed load run -> the ``serving`` section of the report."""

    async def main():
        service = MapService(
            [_config(sizes["n_nodes"])],
            n_shards=sizes["shards"],
            queue_depth=max(16, sizes["epochs"] + 2),
        )
        return await run_load(
            service,
            "bench",
            epochs=sizes["epochs"],
            n_snapshot_clients=sizes["snapshot_clients"],
            n_subscribers=sizes["subscribers"],
        )

    report = asyncio.run(main())
    print(report.to_table())
    return report.to_dict()


TIMING = "one load run, wall clock (latencies ms, throughput /s)"


def quick_report() -> Dict[str, Any]:
    """The correctness pass, then the CI-size load, shaped like the
    committed report."""
    print("verifying replay/snapshot byte-identity ...")
    verify(QUICK["n_nodes"], QUICK["epochs"])
    print(f"measuring quick load ({QUICK['subscribers']} subscribers, inline) ...")
    return {"quick": {"n": QUICK["subscribers"], "serving": measure(QUICK)}}


def full_report() -> Dict[str, Any]:
    """The committed report: the full load plus the CI-size section."""
    quick = quick_report()
    print(
        f"measuring full load ({FULL['subscribers']} subscribers, "
        f"{FULL['shards']} shards) ..."
    )
    return record.report(
        FULL["subscribers"], TIMING, serving=measure(FULL), **quick
    )
