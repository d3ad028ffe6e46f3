"""Differential tests: fast reconstruction kernels vs their references.

The sink pipeline swaps three inner kernels (all-pairs dedupe -> spatial
hash, sorted Voronoi -> prefiltered Voronoi, rescanning boundary
extraction -> edge-indexed extraction) while claiming bit-identical
output.  These tests pin each swap and then the whole composition:
``build_level_region`` against ``build_level_region_reference``
(``reconstruction_reference.py``) must agree on every float of every
cell, loop and statistic.
"""

import math
import random

import pytest

from repro.core.reconstruction import (
    DEDUPE_TOL,
    _dedupe_reports,
    build_level_region,
)
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox
from tests.core.reconstruction_reference import (
    assert_regions_identical,
    build_level_region_reference,
    dedupe_reports_reference,
)

BOX = BoundingBox(0, 0, 50, 50)


def ring_reports(n, seed=0, level=8.0):
    rng = random.Random(seed)
    out = []
    for k in range(n):
        ang = 2 * math.pi * k / n + rng.uniform(-0.4, 0.4) * math.pi / n
        r = 15 + 4 * math.sin(3 * ang) + rng.uniform(-0.4, 0.4)
        pos = (25 + r * math.cos(ang), 25 + r * math.sin(ang))
        out.append(IsolineReport(level, pos, (math.cos(ang), math.sin(ang)), k))
    return out


def noisy_reports(n, seed, dup_fraction=0.4):
    """Random reports, a ``dup_fraction`` of them near-clones of earlier
    ones -- half inside the dedupe tolerance, half just outside it."""
    rng = random.Random(seed)
    base = ring_reports(max(2, int(n * (1 - dup_fraction))), seed=seed)
    out = list(base)
    while len(out) < n:
        src = rng.choice(base)
        eps = (
            rng.uniform(0.05, 0.95) * DEDUPE_TOL
            if rng.random() < 0.5
            else rng.uniform(1.5, 4.0) * DEDUPE_TOL
        )
        ang = rng.uniform(0, 2 * math.pi)
        pos = (src.position[0] + eps * math.cos(ang),
               src.position[1] + eps * math.sin(ang))
        out.append(IsolineReport(src.isolevel, pos, src.direction, len(out)))
    rng.shuffle(out)
    return out


class TestDedupeDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_all_pairs_reference(self, seed):
        reports = noisy_reports(120, seed)
        assert _dedupe_reports(reports) == dedupe_reports_reference(reports)

    def test_exact_duplicates_first_wins(self):
        reports = ring_reports(10)
        doubled = reports + [
            IsolineReport(r.isolevel, r.position, r.direction, 99) for r in reports
        ]
        got = _dedupe_reports(doubled)
        assert got == reports  # originals kept, clones dropped
        assert got == dedupe_reports_reference(doubled)

    def test_survivors_are_pairwise_separated(self):
        got = _dedupe_reports(noisy_reports(150, seed=42))
        for i, a in enumerate(got):
            for b in got[i + 1 :]:
                dx = a.position[0] - b.position[0]
                dy = a.position[1] - b.position[1]
                assert dx * dx + dy * dy > DEDUPE_TOL**2

    def test_bucket_boundary_pairs(self):
        # Duplicates straddling a hash-bucket boundary must still be found
        # (the 3x3 neighbourhood scan).
        k = 1.0  # exact bucket edge at multiples of DEDUPE_TOL
        a = IsolineReport(8.0, (k * DEDUPE_TOL - 0.2 * DEDUPE_TOL, 5.0), (1.0, 0.0), 0)
        b = IsolineReport(8.0, (k * DEDUPE_TOL + 0.2 * DEDUPE_TOL, 5.0), (1.0, 0.0), 1)
        far = IsolineReport(8.0, (10.0, 10.0), (0.0, 1.0), 2)
        reports = [a, b, far]
        assert _dedupe_reports(reports) == dedupe_reports_reference(reports) == [a, far]


class TestRegionDifferential:
    @pytest.mark.parametrize("n,seed", [(60, 1), (90, 2), (130, 3)])
    def test_ring_regions_identical(self, n, seed):
        reports = ring_reports(n, seed=seed)
        assert_regions_identical(
            build_level_region(8.0, reports, BOX),
            build_level_region_reference(8.0, reports, BOX),
        )

    def test_noisy_region_identical(self):
        reports = noisy_reports(100, seed=7)
        assert_regions_identical(
            build_level_region(8.0, reports, BOX),
            build_level_region_reference(8.0, reports, BOX),
        )

    def test_unregulated_region_identical(self):
        reports = ring_reports(70, seed=11)
        assert_regions_identical(
            build_level_region(8.0, reports, BOX, regulate=False),
            build_level_region_reference(8.0, reports, BOX, regulate=False),
        )

    def test_small_report_set_identical(self):
        # Below the Voronoi batch threshold both paths share the scalar
        # clipper; the dedupe/boundary swaps must still agree.
        reports = ring_reports(12, seed=13)
        assert_regions_identical(
            build_level_region(8.0, reports, BOX),
            build_level_region_reference(8.0, reports, BOX),
        )
