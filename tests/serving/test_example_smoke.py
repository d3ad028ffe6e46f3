"""examples/serving_demo.py and the ``repro serve`` CLI stay runnable."""

import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main

_REPO = pathlib.Path(__file__).resolve().parents[2]


def test_serving_demo_runs():
    proc = subprocess.run(
        [
            sys.executable,
            str(_REPO / "examples" / "serving_demo.py"),
            "--nodes", "200", "--epochs", "4",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(_REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "MISMATCH" not in proc.stdout
    assert "identical map" in proc.stdout


def test_serving_demo_runs_with_prediction():
    proc = subprocess.run(
        [
            sys.executable,
            str(_REPO / "examples" / "serving_demo.py"),
            "--nodes", "200", "--epochs", "4",
            "--scenario", "front", "--prediction-tolerance", "1.1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(_REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "PDELTA" in proc.stdout
    assert "MISMATCH" not in proc.stdout
    assert "identical map" in proc.stdout


def test_cli_serve_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.subscribers == 200
    assert args.shards == 0
    assert args.scenario == "tide"
    assert args.prediction_tolerance is None
    assert args.prediction_heartbeat == 8


def test_cli_serve_runs(capsys):
    rc = main(
        [
            "serve", "--nodes", "200", "--epochs", "3",
            "--clients", "2", "--subscribers", "10",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "serving load" in out
    assert "10 subscribers" in out


def test_cli_serve_drives_every_epoch_to_every_subscriber(capsys):
    """``repro serve`` end to end: ``run_load`` advances the session
    through both epochs and each subscriber receives both deltas."""
    rc = main(
        [
            "serve", "--nodes", "200", "--epochs", "2",
            "--subscribers", "4", "--clients", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 epochs" in out
    assert "4 subscribers, 8 deliveries" in out
    assert "0 slow subscribers" in out


def test_cli_serve_rejects_unknown_scenario(capsys):
    rc = main(["serve", "--scenario", "tsunami"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_serve_rejects_bad_prediction_tolerance(capsys):
    rc = main(["serve", "--prediction-tolerance", "0"])
    assert rc == 2
    assert "--prediction-tolerance" in capsys.readouterr().err


def test_cli_serve_runs_with_prediction(capsys):
    rc = main(
        [
            "serve", "--nodes", "200", "--epochs", "3",
            "--clients", "2", "--subscribers", "5",
            "--scenario", "front", "--prediction-tolerance", "1.1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "serving load" in out


def test_cli_serve_rejects_bad_chaos_intensity(capsys):
    rc = main(["serve", "--chaos", "1.5"])
    assert rc == 2
    assert "--chaos" in capsys.readouterr().err


def test_cli_serve_runs_under_chaos(capsys):
    """A seeded chaos run finishes, publishes every epoch, and reports
    what the recovery machinery absorbed."""
    rc = main(
        [
            "serve", "--nodes", "200", "--epochs", "4",
            "--clients", "2", "--subscribers", "5",
            "--chaos", "1.0", "--chaos-seed", "6",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "serving load" in out
    assert "4 epochs" in out


@pytest.mark.deadline(120)
def test_cli_serve_sigint_stops_cleanly():
    """``repro serve`` must install signal handlers and shut down via
    ``MapService.stop(drain=True)`` -- exit code 0 and an explicit
    clean-stop line, not a KeyboardInterrupt traceback."""
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--nodes", "200", "--epochs", "1000000",
            "--clients", "2", "--subscribers", "5",
            "--interval", "0.05",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(_REPO / "src")},
    )
    try:
        time.sleep(3.0)  # let the service start and publish a few epochs
        assert proc.poll() is None, "serve exited before the signal"
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "service stopped cleanly" in stdout
    assert "Traceback" not in stderr
