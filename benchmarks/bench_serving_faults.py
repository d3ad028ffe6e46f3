"""Serving-layer fault-recovery benchmark -> ``BENCH_serving_faults.json``.

Runs the load harness through a :class:`~repro.serving.supervisor.
SupervisedShardPool` with a seeded moderate :class:`ChaosPlan` injecting
worker kills, hangs, dropped results and corrupted payloads, and
measures what self-healing costs and delivers:

- **injected** -- what the chaos engine did (counter-based draws, so
  the counts are a pure function of the plan: the CI gate checks them
  for *exact* equality against the committed report);
- **detected** -- what the supervisors saw and recovered from
  (crashes, hangs, drops, corruptions, restarts, retries);
- **recovery** -- MTTR (first failed attempt of an epoch to its
  successful recompute) and availability (1 - degraded time / run
  time).

Before anything is measured, a correctness pass asserts the PR's
acceptance bar on the benchmark configuration itself: the chaos run's
replayed delta stream and every retained snapshot are byte-identical
to a fault-free run at the same epoch.

``quick_report()`` runs the correctness pass and the CI-size chaos run
that ``benchmarks/gates.py`` gates: the injected counts and the epoch
count must equal the committed report (a determinism break otherwise),
and availability must stay at no less than half its committed value (a
recovery regression otherwise).  MTTR is reported but not gated -- it
is wall-clock and machine-dependent.  ``full_report()`` is what
``python benchmarks/record.py serving_faults`` writes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

import record  # puts src/ on sys.path

from repro.serving.chaos import ChaosPlan
from repro.serving.clients import percentile, run_load
from repro.serving.errors import EpochComputeFailed, ShardUnavailableError
from repro.serving.router import MapService
from repro.serving.session import SessionCompute, SessionConfig
from repro.serving.supervisor import SupervisorConfig
from repro.serving.wire import DeltaReplayer, encode_snapshot

#: The one seed every run uses: the injected-failure counts below are
#: reproducible *because* the draws are counter-based, and the gate
#: checks them exactly.
CHAOS_SEED = 6

FULL = dict(
    n_nodes=600, subscribers=100, snapshot_clients=8, epochs=10, shards=2,
    compute_timeout=0.75,
)
QUICK = dict(
    n_nodes=300, subscribers=25, snapshot_clients=4, epochs=6, shards=0,
    compute_timeout=0.3,
)


def _config(n_nodes: int) -> SessionConfig:
    return SessionConfig(query_id="bench", n_nodes=n_nodes, scenario="tide")


def _supervision(compute_timeout: float) -> SupervisorConfig:
    return SupervisorConfig(
        compute_timeout=compute_timeout,
        backoff_base=0.002,
        backoff_cap=0.02,
    )


def verify(sizes: Dict[str, Any]) -> None:
    """Untimed acceptance pass: chaos costs retries, never bytes."""
    config = _config(sizes["n_nodes"])
    compute = SessionCompute(config)
    truth = []
    for e in range(1, sizes["epochs"] + 1):
        r = compute.epoch(e)
        truth.append(encode_snapshot(e, r["records"], r["sink"]))

    async def main():
        service = MapService(
            [config],
            n_shards=sizes["shards"],
            supervision=_supervision(sizes["compute_timeout"]),
            chaos=ChaosPlan.moderate(seed=CHAOS_SEED),
            retention=sizes["epochs"],
        )
        session = service.session("bench")
        replayer = DeltaReplayer()
        sub = service.subscribe("bench", since_epoch=0)
        rounds = 0
        while session.latest_epoch < sizes["epochs"]:
            rounds += 1
            assert rounds <= 60 * sizes["epochs"], "chaos run not converging"
            try:
                await session.advance()
            except (EpochComputeFailed, ShardUnavailableError):
                await asyncio.sleep(0.002)
        for e in range(1, sizes["epochs"] + 1):
            replayer.apply(await sub.__anext__())
            assert replayer.render() == truth[e - 1], f"replay differs at {e}"
            assert service.snapshot("bench", epoch=e).payload == truth[e - 1]
        sub.close()
        injected = sum(service.pool.chaos.stats.to_dict().values())
        assert injected > 0, "the seeded plan injected nothing"
        await service.stop()

    asyncio.run(main())


def measure(sizes: Dict[str, Any]) -> Dict[str, Any]:
    """One chaos load run -> the ``serving_faults`` report section."""

    async def main():
        service = MapService(
            [_config(sizes["n_nodes"])],
            n_shards=sizes["shards"],
            supervision=_supervision(sizes["compute_timeout"]),
            chaos=ChaosPlan.moderate(seed=CHAOS_SEED),
            queue_depth=max(16, sizes["epochs"] + 2),
        )
        report = await run_load(
            service,
            "bench",
            epochs=sizes["epochs"],
            n_snapshot_clients=sizes["snapshot_clients"],
            n_subscribers=sizes["subscribers"],
        )
        return service, report

    service, report = asyncio.run(main())
    assert report.epochs == sizes["epochs"], "not every epoch recovered"

    shards = service.pool.status()
    recovery_ms: List[float] = []
    for sup in service.pool.supervisors:
        recovery_ms.extend(sup.health.recovery_ms)
    detected = {
        key: sum(s[key] for s in shards)
        for key in ("crashes", "hangs", "drops", "corruptions",
                    "retries", "restarts", "failures", "breaker_fast_fails")
    }
    availability = (
        1.0 - report.degraded_s / report.elapsed_s if report.elapsed_s else 1.0
    )
    section = {
        "epochs": report.epochs,
        "elapsed_s": round(report.elapsed_s, 3),
        "chaos": {"intensity": 1.0, "seed": CHAOS_SEED},
        "injected": service.pool.chaos.stats.to_dict(),
        "detected": detected,
        "recovery": {
            "recoveries": len(recovery_ms),
            "mttr_ms_mean": round(
                sum(recovery_ms) / len(recovery_ms), 3
            ) if recovery_ms else 0.0,
            "mttr_ms_p95": round(percentile(recovery_ms, 0.95), 3),
            "availability": round(availability, 4),
        },
        "client_impact": {
            "epochs_failed": report.epochs_failed,
            "stale_snapshots": report.stale_snapshots,
            "degraded_s": round(report.degraded_s, 3),
            "deltas_delivered": report.deltas_delivered,
        },
    }
    inj, rec = section["injected"], section["recovery"]
    print(
        f"injected   : {inj['kills']} kills, {inj['hangs']} hangs, "
        f"{inj['drops']} drops, {inj['corruptions']} corruptions"
    )
    print(
        f"detected   : {detected['crashes']} crashes, {detected['hangs']} hangs, "
        f"{detected['drops']} drops, {detected['corruptions']} corruptions, "
        f"{detected['restarts']} restarts"
    )
    print(
        f"recovery   : {rec['recoveries']} recoveries, "
        f"MTTR mean {rec['mttr_ms_mean']:.1f} ms / p95 {rec['mttr_ms_p95']:.1f} ms, "
        f"availability {rec['availability']:.2%}"
    )
    return section


TIMING = "one seeded chaos run, wall clock (MTTR ms)"


def quick_report() -> Dict[str, Any]:
    """The correctness pass, then the CI-size chaos run, shaped like the
    committed report."""
    print("verifying chaos-run byte-identity vs fault-free truth ...")
    verify(QUICK)
    print(f"measuring quick chaos run ({QUICK['epochs']} epochs, inline) ...")
    return {"quick": {"n": QUICK["subscribers"], "serving_faults": measure(QUICK)}}


def full_report() -> Dict[str, Any]:
    """The committed report: the full chaos run plus the CI-size section."""
    quick = quick_report()
    print(
        f"measuring full chaos run ({FULL['epochs']} epochs, "
        f"{FULL['shards']} shards) ..."
    )
    return record.report(
        FULL["subscribers"], TIMING, serving_faults=measure(FULL), **quick
    )
