"""The benchmark gate table and its runner (``benchmarks/gates.py``).

Each rule kind must fail just past its bound and hold inside it, every
row must name a quantity the committed report holds, and the runner must
list every failing row and exit non-zero.  Nothing here measures: the
reports are small dicts, and the runner test swaps in a fake bench.
"""

import json
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import gates  # noqa: E402
import record  # noqa: E402
from gates import (  # noqa: E402
    ABOVE,
    BAR_MAX,
    BAR_MIN,
    BOUND,
    CEILING,
    EQUAL,
    FLOOR,
    Gate,
    check,
    lookup,
)

COMMITTED = {
    "suppression": {"reduction": 2.0, "cells": 1.0},
    "quick": {
        "rss_ceiling_mb": 600.0,
        "kernels": {"k": {"speedup": 4.0}},
        "points": [{"n": 2500, "reports": 214}, {"n": 10000, "reports": 420}],
        "injected": {"hangs": 1, "drops": 0},
    },
}


def holds(gate, measured, committed=COMMITTED):
    return check(gate, measured, committed)[0]


def speedup(x):
    return {"quick": {"kernels": {"k": {"speedup": x}}}}


def point(n, **values):
    return {"quick": {"points": [{"n": 1}, {"n": n, **values}]}}


@pytest.mark.parametrize(
    "gate, inside, past",
    [
        (Gate("b", "quick/kernels/k/speedup", FLOOR, 0.5), speedup(2.0), speedup(1.999)),
        (
            Gate("b", "quick/points/n=2500/reports", EQUAL),
            point(2500, reports=214),
            point(2500, reports=215),
        ),
        (
            Gate("b", "quick/points/n=10000/peak", CEILING, limit="quick/rss_ceiling_mb"),
            point(10000, peak=600.0),
            point(10000, peak=600.1),
        ),
        (Gate("b", "x", ABOVE, 2.0), {"x": 2.001}, {"x": 2.0}),
    ],
)
def test_measured_rules_fail_just_past_their_bound(gate, inside, past):
    assert holds(gate, inside)
    assert not holds(gate, past)


def test_bound_compares_two_measured_values():
    gate = Gate("b", "staleness", BOUND, limit="heartbeat")
    assert holds(gate, {"staleness": 8, "heartbeat": 8})
    assert not holds(gate, {"staleness": 9, "heartbeat": 8})


def test_equal_compares_whole_sections():
    gate = Gate("b", "quick/injected", EQUAL)
    assert holds(gate, {"quick": {"injected": {"hangs": 1, "drops": 0}}})
    assert not holds(gate, {"quick": {"injected": {"hangs": 1, "drops": 1}}})
    assert not holds(gate, {"quick": {"injected": {"hangs": 1, "drops": 0, "kills": 0}}})


def test_bars_read_the_committed_report():
    low = {"suppression": {"reduction": 1.99, "cells": 1.01}}
    assert holds(Gate("b", "suppression/reduction", BAR_MIN, 2.0), {})
    assert not holds(Gate("b", "suppression/reduction", BAR_MIN, 2.0), {}, low)
    assert holds(Gate("b", "suppression/cells", BAR_MAX, 1.0), {})
    assert not holds(Gate("b", "suppression/cells", BAR_MAX, 1.0), {}, low)


def test_a_path_that_does_not_resolve_fails_the_row():
    gate = Gate("b", "quick/kernels/missing/speedup", FLOOR, 0.5)
    ok, line = check(gate, {"quick": {"kernels": {}}}, COMMITTED)
    assert not ok and "missing" in line
    assert not holds(Gate("b", "quick/points/n=5/reports", EQUAL), COMMITTED)


def test_every_row_resolves_in_its_committed_report():
    for gate in gates.GATES:
        committed = json.loads(record.bench_json(gate.bench).read_text())
        lookup(committed, gate.path)
        if gate.limit:
            lookup(committed, gate.limit)


def test_every_gated_bench_has_a_report_module():
    for bench in {g.bench for g in gates.GATES}:
        module = (ROOT / "benchmarks" / f"{record.BENCHES[bench]}.py").read_text()
        assert "def quick_report(" in module and "def full_report(" in module


def test_runner_lists_every_failing_row_and_exits_nonzero(
    monkeypatch, tmp_path, capsys
):
    (tmp_path / "BENCH_fake.json").write_text(json.dumps(COMMITTED))
    fake = types.SimpleNamespace(
        quick_report=lambda: {"quick": {"kernels": {"k": {"speedup": 1.0}}}}
    )
    monkeypatch.setattr(record, "bench_json", lambda name: tmp_path / f"BENCH_{name}.json")
    monkeypatch.setattr(record, "bench_module", lambda name: fake)
    monkeypatch.setattr(
        gates,
        "GATES",
        (
            Gate("fake", "quick/kernels/k/speedup", FLOOR, 0.25),
            Gate("fake", "quick/kernels/k/speedup", FLOOR, 0.5),
            Gate("fake", "suppression/cells", BAR_MAX, 0.5),
        ),
    )
    assert gates.main(["fake"]) == 1
    out = capsys.readouterr().out
    assert "2 failing row(s)" in out
    assert "quick/kernels/k/speedup: 1.0 >= 2.0" in out
    assert "committed suppression/cells: 1.0 <= 0.5" in out

    monkeypatch.setattr(gates, "GATES", gates.GATES[:1])
    assert gates.main(["fake"]) == 0


def test_runner_rejects_unknown_benches():
    with pytest.raises(SystemExit):
        gates.main(["no_such_bench"])
