"""Performance microbenchmarks of the hot kernels.

Unlike the figure benches (single-shot experiment regenerations), these
time the computational kernels properly (multiple rounds) so performance
regressions in the geometry/reconstruction/simulation code are visible.

The ``*_vs_reference`` section times the vectorized kernels against the
pure-Python originals they replaced (and are bit-compatible with):
``quick_report()`` is what ``benchmarks/gates.py`` gates (each speedup
above 2x), and ``python benchmarks/record.py kernels`` writes
``BENCH_kernels.json`` at the repo root.
"""

import math
import random
from typing import Dict

import record  # puts src/ and the repo root on sys.path

import numpy as np
import pytest

from repro.core import ContourQuery, FilterConfig, IsoMapProtocol
from repro.core.gradient import estimate_gradient, estimate_gradients_batch
from repro.core.reconstruction import build_level_region
from repro.core.reports import IsolineReport
from repro.field import extract_isolines, make_harbor_field
from repro.geometry import BoundingBox, bounded_voronoi
from repro.network import SensorNetwork, build_csr_adjacency
from tests.network.topology_reference import (
    build_adjacency_reference,
    k_hop_neighbors,
)


@pytest.fixture(scope="module")
def harbor_net():
    return SensorNetwork.random_deploy(make_harbor_field(), 2500, seed=1)


def _ring_reports(n, seed=0):
    rng = random.Random(seed)
    out = []
    for k in range(n):
        t = 2 * math.pi * k / n + rng.uniform(-0.1, 0.1)
        r = 15 + rng.uniform(-2, 2)
        p = (25 + r * math.cos(t), 25 + r * math.sin(t))
        out.append(IsolineReport(8.0, p, (math.cos(t), math.sin(t)), k))
    return out


def test_kernel_voronoi_100_sites(benchmark):
    rng = random.Random(1)
    sites = [(rng.uniform(1, 49), rng.uniform(1, 49)) for _ in range(100)]
    box = BoundingBox(0, 0, 50, 50)
    cells = benchmark(bounded_voronoi, sites, box)
    assert len(cells) == 100


def test_kernel_level_reconstruction_60_reports(benchmark):
    reports = _ring_reports(60)
    box = BoundingBox(0, 0, 50, 50)
    region = benchmark(build_level_region, 8.0, reports, box)
    assert region.loops


def test_kernel_adjacency_2500_nodes(benchmark):
    rng = random.Random(2)
    pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(2500)]
    csr = benchmark(build_csr_adjacency, pts, 1.5)
    assert csr.n_nodes == 2500


def test_kernel_full_protocol_2500(benchmark, harbor_net):
    query = ContourQuery(6.0, 12.0, 2.0)
    proto = IsoMapProtocol(query, FilterConfig(30.0, 4.0))
    result = benchmark(proto.run, harbor_net)
    assert result.delivered_reports


def test_kernel_marching_squares_200(benchmark):
    field = make_harbor_field()
    lines = benchmark(extract_isolines, field, 8.0, 200, 200)
    assert lines


def test_kernel_raster_classification(benchmark, harbor_net):
    query = ContourQuery(6.0, 12.0, 2.0)
    result = IsoMapProtocol(query, FilterConfig(30.0, 4.0)).run(harbor_net)
    raster = benchmark(result.contour_map.classify_raster, 100, 100)
    assert raster.shape == (100, 100)


# ----------------------------------------------------------------------
# Vectorized kernels vs their pure-Python reference implementations
# ----------------------------------------------------------------------

#: Node count for the before/after comparison (the paper's density-1
#: operating point on the 50 x 50 field).
BENCH_N = 2500


def _bench_positions(n=BENCH_N, seed=2):
    rng = random.Random(seed)
    return [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]


def _bench_gradient_tasks(n=BENCH_N, seed=7, degree=8):
    rng = random.Random(seed)
    tasks = []
    for _ in range(n):
        cx, cy, cv = rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0, 30)
        nbrs = [
            ((cx + rng.uniform(-1.5, 1.5), cy + rng.uniform(-1.5, 1.5)),
             rng.uniform(0, 30))
            for _ in range(degree)
        ]
        tasks.append(((cx, cy), cv, nbrs))
    return tasks


def test_kernel_adjacency_reference_2500_nodes(benchmark):
    pts = _bench_positions()
    adj = benchmark(build_adjacency_reference, pts, 1.5)
    assert len(adj) == BENCH_N


def test_kernel_csr_adjacency_2500_nodes(benchmark):
    arr = np.asarray(_bench_positions())
    csr = benchmark(build_csr_adjacency, arr, 1.5)
    assert csr.n_nodes == BENCH_N


def test_kernel_gradient_scalar_2500(benchmark):
    tasks = _bench_gradient_tasks()
    out = benchmark(lambda: [estimate_gradient(*t) for t in tasks])
    assert sum(e is not None for e in out) == BENCH_N


def test_kernel_gradient_batch_2500(benchmark):
    tasks = _bench_gradient_tasks()
    out = benchmark(estimate_gradients_batch, tasks)
    assert sum(e is not None for e in out) == BENCH_N


def _assert_agreement(pts, arr, tasks) -> None:
    """Each vectorized kernel agrees exactly with its reference (the
    differential/property tests pin that; spot-checked here too)."""
    ref_sets = build_adjacency_reference(pts, 1.5)
    csr = build_csr_adjacency(arr, 1.5)
    assert [set(csr.neighbors(i).tolist()) for i in range(BENCH_N)] == ref_sets
    assert np.array_equal(
        csr.k_hop_neighbors(0, 2), np.array(sorted(k_hop_neighbors(ref_sets, 0, 2)))
    )
    spot = [100, 1700, 2400]
    batch = estimate_gradients_batch([tasks[i] for i in spot])
    for got, i in zip(batch, spot):
        assert got == estimate_gradient(*tasks[i])


def test_kernels_agree_with_reference():
    pts = _bench_positions()
    _assert_agreement(pts, np.asarray(pts), _bench_gradient_tasks())


def quick_report() -> Dict:
    """Before/after speedups at the paper's n=2500 operating point (the
    only size), shaped like the committed report."""
    pts = _bench_positions()
    arr = np.asarray(pts)
    tasks = _bench_gradient_tasks()
    _assert_agreement(pts, arr, tasks)

    adj_ref_ms = record.best_of(lambda: build_adjacency_reference(pts, 1.5), repeats=12)
    adj_vec_ms = record.best_of(lambda: build_csr_adjacency(arr, 1.5), repeats=40)
    grad_ref_ms = record.best_of(
        lambda: [estimate_gradient(*t) for t in tasks], repeats=8
    )
    grad_vec_ms = record.best_of(lambda: estimate_gradients_batch(tasks), repeats=20)
    return {
        "kernels": {
            "adjacency": record.kernel_entry(
                "build_adjacency_reference (per-node spatial hash)",
                "build_csr_adjacency (bucketed batch pass)",
                adj_ref_ms,
                adj_vec_ms,
            ),
            "gradient_regression": record.kernel_entry(
                "estimate_gradient per node (scalar 3x3 solve)",
                "estimate_gradients_batch (stacked solve)",
                grad_ref_ms,
                grad_vec_ms,
            ),
        }
    }


def full_report() -> Dict:
    """The committed report."""
    return record.report(BENCH_N, **quick_report())
