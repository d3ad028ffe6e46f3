"""The benchmark gate table, and the one runner that checks it.

Each :class:`Gate` row names one quantity a bench measures, where it sits
in the bench's committed ``BENCH_*.json`` (the measured report has the
same shape) and the rule it must satisfy.  For each selected bench the
runner runs ``quick_report()`` once -- the bench's verification pass and
its CI-size measurement -- checks every row of that bench, then lists
every failing row and exits 1 if there is one::

    python benchmarks/gates.py                  # every bench in the table
    python benchmarks/gates.py sink transport   # only these

It writes nothing; ``python benchmarks/record.py`` regenerates the
committed reports.
"""

from __future__ import annotations

import json
import operator
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import record

#: Rule kinds.  Every rule but the two bars reads the gated value from
#: the measured report at the row's ``path``.
FLOOR = "floor"  # >= factor x the committed value at path
EQUAL = "equal"  # == the committed value at path
CEILING = "ceiling"  # <= the committed value at limit
BOUND = "bound"  # <= the measured value at limit
ABOVE = "above"  # > factor
BAR_MIN = "bar_min"  # the committed value at path is >= factor
BAR_MAX = "bar_max"  # the committed value at path is <= factor


@dataclass(frozen=True)
class Gate:
    """One gated quantity.

    ``path`` is ``/``-separated; a list element is addressed by
    ``key=value`` (``points/n=2500`` is the point whose ``n`` is 2500).
    """

    bench: str
    path: str
    rule: str
    factor: float = 1.0
    limit: str = ""


def _speedups(bench: str, names: Sequence[str]) -> Tuple[Gate, ...]:
    """Each named quick kernel at no less than half its committed speedup
    -- tolerant enough for loaded CI machines, tight enough to catch a
    devectorized kernel."""
    return tuple(
        Gate(bench, f"quick/kernels/{name}/speedup", FLOOR, 0.5) for name in names
    )


#: The scaling bench's CI sizes (``bench_scaling.QUICK_NS``).
_SCALING_NS = (2500, 10000)

GATES: Tuple[Gate, ...] = (
    *_speedups("continuous", ("steady_drift", "local_storm")),
    Gate("kernels", "kernels/adjacency/speedup", ABOVE, 2.0),
    Gate("kernels", "kernels/gradient_regression/speedup", ABOVE, 2.0),
    *_speedups("predict", ("advance_tracks", "track_accept", "join_accept")),
    Gate("predict", "quick/suppression/reduction", FLOOR, 0.9),
    Gate(
        "predict", "quick/suppression/staleness_max", BOUND,
        limit="quick/suppression/heartbeat",
    ),
    Gate("predict", "suppression/reduction", BAR_MIN, 2.0),
    Gate("predict", "suppression/penalty_cells_mean", BAR_MAX, 1.0),
    *(
        Gate("scaling", f"quick/points/n={n}/{key}", EQUAL)
        for n in _SCALING_NS
        for key in ("isomap_reports", "diameter_hops")
    ),
    *(
        Gate(
            "scaling", f"quick/points/n={n}/peak_rss_mb", CEILING,
            limit="quick/rss_ceiling_mb",
        )
        for n in _SCALING_NS
    ),
    Gate("serving", "quick/serving/snapshot/rps", FLOOR, 0.25),
    Gate("serving", "quick/serving/delta_stream/deliveries_per_s", FLOOR, 0.25),
    Gate("serving_faults", "quick/serving_faults/injected", EQUAL),
    Gate("serving_faults", "quick/serving_faults/epochs", EQUAL),
    Gate("serving_faults", "quick/serving_faults/recovery/availability", FLOOR, 0.5),
    *_speedups("simplify", ("simplify_polyline", "simplify_ring")),
    Gate("simplify", "quick/serving/bytes_ratio", FLOOR, 0.9),
    Gate(
        "simplify", "quick/serving/hausdorff_dev", BOUND,
        limit="quick/serving/tolerance",
    ),
    Gate("simplify", "serving/bytes_ratio", BAR_MIN, 5.0),
    Gate("simplify", "serving/hausdorff_cells", BAR_MAX, 1.0),
    *_speedups(
        "sink",
        (
            "voronoi", "dedupe", "reconstruction", "marching_squares",
            "resample", "hausdorff", "fig12_hausdorff_eval",
        ),
    ),
    *_speedups("transport", ("epoch_moderate_faults", "tree_build")),
)


def lookup(report: Any, path: str) -> Any:
    """The value at ``path`` in a report.

    Raises:
        KeyError: when ``path`` does not resolve.
    """
    node = report
    for part in path.split("/"):
        if isinstance(node, list):
            key, _, want = part.partition("=")
            matches = [e for e in node if str(e.get(key)) == want]
            if len(matches) != 1:
                raise KeyError(f"{path}: no single element {part}")
            node = matches[0]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise KeyError(f"{path}: no {part!r}")
    return node


#: The comparison each rule makes between the gated value and its limit.
_COMPARE = {
    FLOOR: (">=", operator.ge),
    EQUAL: ("==", operator.eq),
    CEILING: ("<=", operator.le),
    BOUND: ("<=", operator.le),
    ABOVE: (">", operator.gt),
    BAR_MIN: (">=", operator.ge),
    BAR_MAX: ("<=", operator.le),
}


def check(gate: Gate, measured: Any, committed: Any) -> Tuple[bool, str]:
    """Whether the row holds, and a line saying what it compared."""
    where = "committed " if gate.rule in (BAR_MIN, BAR_MAX) else ""
    try:
        got = lookup(committed if where else measured, gate.path)
        if gate.rule == FLOOR:
            limit = gate.factor * lookup(committed, gate.path)
        elif gate.rule == EQUAL:
            limit = lookup(committed, gate.path)
        elif gate.rule == CEILING:
            limit = lookup(committed, gate.limit)
        elif gate.rule == BOUND:
            limit = lookup(measured, gate.limit)
        else:
            limit = gate.factor
    except KeyError as exc:
        return False, f"{gate.bench} {exc.args[0]}"
    op, holds = _COMPARE[gate.rule]
    return holds(got, limit), f"{gate.bench} {where}{gate.path}: {got!r} {op} {limit!r}"


def run(benches: Sequence[str]) -> int:
    """Check every row of ``benches``; 0 when all hold, else 1."""
    failures: List[str] = []
    for bench in benches:
        gates = [g for g in GATES if g.bench == bench]
        committed = json.loads(record.bench_json(bench).read_text())
        print(f"== {bench}: verifying and measuring quick sizes ...", flush=True)
        t0 = time.perf_counter()
        try:
            measured = record.bench_module(bench).quick_report()
        except Exception as exc:  # a failed bench fails its rows; go on
            traceback.print_exc()
            failures += [f"{bench} {g.path}: not measured ({exc!r})" for g in gates]
            continue
        for gate in gates:
            ok, line = check(gate, measured, committed)
            print(f"  {'ok  ' if ok else 'FAIL'} {line}")
            if not ok:
                failures.append(line)
        print(f"== {bench}: {time.perf_counter() - t0:.1f} s", flush=True)
    if failures:
        print(f"\n{len(failures)} failing row(s):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"\nall {sum(g.bench in benches for g in GATES)} rows pass")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = list(dict.fromkeys(g.bench for g in GATES))
    return run(record.parse_benches(argv, __doc__.split("\n")[0], names))


if __name__ == "__main__":
    sys.exit(main())
