"""Shared helpers of the benchmark reports, and their full-size regeneration.

Every gated bench (``bench_<module>.py`` in :data:`BENCHES`) publishes a
committed ``BENCH_<name>.json`` at the repo root.  Most share this
shape::

    {
      "n": 2500,
      "python": "3.11.7",
      "numpy": "2.4.6",
      "timing": "min over repeats, wall clock (ms)",
      "kernels": {
        "<stage>": {
          "reference": "<what the scalar reference is>",
          "vectorized": "<what replaced it>",
          "reference_ms": 9.064,
          "vectorized_ms": 2.371,
          "speedup": 3.82
        },
        ...
      },
      "quick": {"n": 500, "kernels": {...}}
    }

plus bench-specific sections.  Each bench module defines
``quick_report()`` -- its verification pass and the CI-size measurement,
shaped like the committed file, which ``benchmarks/gates.py`` checks --
and ``full_report()``, the whole committed file.  Running this module
regenerates the committed files (minutes per bench; the numbers are the
host's)::

    python benchmarks/record.py                 # every bench
    python benchmarks/record.py sink transport  # only these

Importing it puts ``src/`` and the repo root on ``sys.path``, so the
benches import ``repro`` and the test-side oracles (``tests/<area>/
*_reference.py``) without an install.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import pathlib
import platform
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: Every bench with a committed report: name -> module.  The report is
#: ``BENCH_<name>.json`` at the repo root.
BENCHES = {
    "continuous": "bench_continuous",
    "kernels": "bench_kernel",
    "predict": "bench_predict",
    "scaling": "bench_scaling",
    "serving": "bench_serving",
    "serving_faults": "bench_serving_faults",
    "simplify": "bench_simplify",
    "sink": "bench_sink",
    "transport": "bench_transport",
}


def bench_json(name: str) -> pathlib.Path:
    return ROOT / f"BENCH_{name}.json"


def bench_module(name: str):
    return importlib.import_module(BENCHES[name])


def parse_benches(
    argv: Optional[Sequence[str]], description: str, names: Sequence[str]
) -> List[str]:
    """The bench names given on the command line (all of ``names`` when
    none are given)."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "benches", nargs="*", metavar="bench",
        help=f"one of: {', '.join(names)} (default: all)",
    )
    args = ap.parse_args(argv)
    unknown = sorted(set(args.benches) - set(names))
    if unknown:
        ap.error(f"unknown bench: {', '.join(unknown)}")
    return args.benches or list(names)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    high-water marks, so a meaningful per-measurement number needs a
    fresh process (see :func:`run_isolated`).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def run_isolated(target: Callable[..., None], *args: Any) -> Dict[str, Any]:
    """Run ``target(conn, *args)`` in a fresh spawned process.

    ``target`` must be a module-level function (spawn pickles it) that
    sends exactly one dict through ``conn``.  Spawn -- not fork -- is
    essential for memory benchmarks: a forked child inherits the
    parent's ``ru_maxrss`` high-water mark, so its peak-RSS reading
    would be the *parent's* peak, not the measurement's.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(child_conn, *args))
    proc.start()
    child_conn.close()
    try:
        out = parent_conn.recv()
    except EOFError:
        out = {"error": "isolated worker died before reporting"}
    finally:
        proc.join()
        parent_conn.close()
    if proc.exitcode not in (0, None) and "error" not in out:
        out = {"error": f"isolated worker exited {proc.exitcode}"}
    return out


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Min-of-repeats wall time in ms (robust against machine noise)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def kernel_entry(
    reference: str, vectorized: str, reference_ms: float, vectorized_ms: float
) -> Dict[str, Any]:
    """One ``kernels`` record: descriptions, timings and the speedup."""
    return {
        "reference": reference,
        "vectorized": vectorized,
        "reference_ms": round(reference_ms, 3),
        "vectorized_ms": round(vectorized_ms, 3),
        "speedup": round(reference_ms / vectorized_ms, 2),
    }


def report(
    n: int, timing: str = "min over repeats, wall clock (ms)", **sections: Any
) -> Dict[str, Any]:
    """A committed report: ``n``, the interpreter and NumPy versions,
    how ``timing`` was taken, then ``sections``."""
    return {"n": n, **versions(), "timing": timing, **sections}


def versions() -> Dict[str, str]:
    """The interpreter and NumPy versions a report was measured on."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def write_report(path: pathlib.Path, rep: Dict[str, Any]) -> None:
    path.write_text(json.dumps(rep, indent=2) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    for name in parse_benches(
        argv, "Regenerate committed BENCH_*.json reports at full size.", list(BENCHES)
    ):
        print(f"{name}: measuring full and quick sizes ...", flush=True)
        write_report(bench_json(name), bench_module(name).full_report())
        print(f"wrote {bench_json(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
