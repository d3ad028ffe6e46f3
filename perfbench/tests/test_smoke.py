"""Each workload at reduced size, with every check the benchmark runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import DECLARED, DETERMINISTIC, PER_LAYER, TARGETS
from perfbench.spans import installed_wrappers
from perfbench.workloads import WORKLOADS, OneShotSpec, ServeSpec

ROOT = Path(__file__).resolve().parents[2]

#: The workloads shrunk to seconds: same code paths, smaller inputs.
SMALL = {
    "paper_faulted": OneShotSpec(
        n=400, side=20, tile_size=None, deployments=2, window=4, min_epochs=4
    ),
    "large_tiled": OneShotSpec(
        n=900, side=30, tile_size=3.75, deployments=1, window=2, min_epochs=2
    ),
    "serve_fanout": ServeSpec(subscribers=50, interval_s=0.03, window=6, min_epochs=8),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    result = run.run_workload(workload, 3, 0.0, trace=False, spec=SMALL[workload])
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [name for name, *_ in run.END_TO_END] == list(result["metrics"])
    for name, unit, _better in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    assert installed_wrappers(TARGETS) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_fire_every_declared_span_and_repeat_their_counts(
    workload, capsys
):
    first = run.run_workload(workload, 3, 0.0, trace=True, spec=SMALL[workload])
    out = capsys.readouterr().out
    assert first["correct"], out
    assert "declared spans never fired" not in out
    assert [name for name, *_ in PER_LAYER] == list(first["metrics"])
    assert installed_wrappers(TARGETS) == []
    second = run.run_workload(workload, 3, 0.0, trace=True, spec=SMALL[workload])
    assert second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    ran = {span.split(".")[0] for span in DECLARED[workload]}
    for name in ("detection.candidates", "voronoi.cells"):
        assert first["metrics"][name]["value"] > 0
    if "session" in ran:
        assert first["metrics"]["session.queue_ms_p50"]["value"] > 0
        assert first["metrics"]["prediction.tracks"]["value"] > 0
    else:
        assert first["metrics"]["transport.generated"]["value"] > 0
        assert 0 < first["metrics"]["driver.unattributed_frac"]["value"] < 1


def test_a_second_seed_changes_the_inputs_and_passes_the_checks(capsys):
    spec = SMALL["paper_faulted"]
    one = run.run_workload("paper_faulted", 3, 0.0, trace=False, spec=spec)
    two = run.run_workload("paper_faulted", 4, 0.0, trace=False, spec=spec)
    assert one["correct"] and two["correct"]
    assert one["metrics"]["traffic_kb"] != two["metrics"]["traffic_kb"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_faulted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stream_check_fails_every_delivery_of_a_bad_subscriber():
    from repro.serving.wire import DELTA, DeltaReplayer, ServedMessage, encode_delta

    from perfbench.workloads import Phase, _check_streams

    record = bytes(range(8))
    stream = [
        ServedMessage(DELTA, 1, encode_delta(1, [record], [], None)),
        ServedMessage(DELTA, 2, encode_delta(2, [], [], None)),
        ServedMessage(DELTA, 3, encode_delta(3, [], [], None)),
    ]
    replayer = DeltaReplayer()
    for msg in stream:
        replayer.apply(msg)
    finals = {"plain": replayer.render()}
    phase = Phase(attempted=4 * 3)
    streams = [stream, stream, [stream[0], stream[2]], stream]
    evicted = [False, False, False, True]
    _check_streams(phase, streams, ["plain"] * 4, evicted, finals, last=3)
    # The gapped replay and the evicted subscriber fail all three of
    # their deliveries; the two whole streams pass.
    assert phase.failed == 6
    assert len(phase.errors) == 2


def test_an_epoch_that_raises_is_a_failed_operation(monkeypatch, capsys):
    from repro.core.protocol import IsoMapProtocol

    original = IsoMapProtocol.run
    calls = []

    def flaky(self, network):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return original(self, network)

    monkeypatch.setattr(IsoMapProtocol, "run", flaky)
    result = run.run_workload("paper_faulted", 3, 0.0, trace=False, spec=SMALL["paper_faulted"])
    assert result["failed"] == 1 and not result["correct"]
    assert "injected" in capsys.readouterr().out


def test_inline_executor_runs_calls_on_the_loop_thread():
    import asyncio
    import threading

    from perfbench.workloads import InlineExecutor

    def fail():
        raise ValueError("inside")

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_default_executor(InlineExecutor())
        ran_on = await loop.run_in_executor(None, threading.get_ident)
        with pytest.raises(ValueError, match="inside"):
            await loop.run_in_executor(None, fail)
        return ran_on

    before = threading.active_count()
    assert asyncio.run(main()) == threading.get_ident()
    assert threading.active_count() == before
