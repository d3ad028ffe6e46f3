"""Differential tests: incremental reconstruction vs from-scratch rebuild.

``ReconstructionCache.update`` claims its spliced region is *bit
identical* to ``build_level_region`` on the same reports -- every float
of every cell polygon, label list, neighbor list, inner polygon, loop
and regulation statistic.  These tests pin that contract across seeded
multi-epoch workloads:

- *drift*: a contiguous arc of the isoline retracts behind and extends
  ahead each epoch, with occasional direction rotations and small
  position moves (the steady-state tide shape);
- *storm*: one epoch replaces a whole localized cluster at once (high
  dirty fraction, exercising the full-rebuild fallback).

They also pin the retention machinery itself: untouched cells must be
the *same objects* (no silent recompute), and the fallback threshold
must behave as documented.
"""

import math
import random

import pytest

from repro.core.contour_map import SinkReconstructor, build_contour_map
from repro.core.reconstruction import ReconstructionCache, build_level_region
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox
from tests.core.reconstruction_reference import assert_regions_identical

BOX = BoundingBox(0, 0, 100, 100)
LEVEL = 8.0


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------


def make_pool(n_pool, seed):
    """Fixed sensor positions along a noisy 5-lobed ring.

    Reports come from *fixed* deployed sensors; epoch churn activates
    and retracts pool members, it does not teleport them.
    """
    rng = random.Random(seed)
    pool = []
    for k in range(n_pool):
        th = 2 * math.pi * k / n_pool
        r = 30.0 + 5.0 * math.sin(5 * th) + rng.uniform(-2.5, 2.5)
        pos = (50.0 + r * math.cos(th), 50.0 + r * math.sin(th))
        pool.append((pos, (math.cos(th), math.sin(th))))
    return pool


def reports_from(pool, active, overrides=None):
    overrides = overrides or {}
    out = []
    for k in sorted(active):
        pos, direction = overrides.get(k, pool[k])
        out.append(IsolineReport(LEVEL, pos, direction, source=k))
    return out


def drift_epochs(n_pool, seed, epochs, churn, rotate=0, move=0):
    """Yield successive report lists for a drifting-arc workload."""
    pool = make_pool(n_pool, seed)
    rng = random.Random(seed + 1)
    active = set(range(0, n_pool, 2))
    overrides = {}
    arc = rng.randrange(n_pool)
    yield reports_from(pool, active, overrides)
    for _ in range(epochs):
        changed = 0
        while changed < churn:
            k = arc % n_pool
            if k in active:
                active.discard(k)
                overrides.pop(k, None)
                active.add((k + 1) % n_pool)
                changed += 1
            arc += 1
        for k in rng.sample(sorted(active), min(rotate, len(active))):
            ang = rng.uniform(0, 2 * math.pi)
            overrides[k] = (overrides.get(k, pool[k])[0],
                            (math.cos(ang), math.sin(ang)))
        for k in rng.sample(sorted(active), min(move, len(active))):
            pos, direction = overrides.get(k, pool[k])
            overrides[k] = ((pos[0] + rng.uniform(-0.3, 0.3),
                             pos[1] + rng.uniform(-0.3, 0.3)), direction)
        yield reports_from(pool, active, overrides)


def storm_epochs(n_pool, seed, epochs):
    """Yield report lists where one epoch replaces a whole cluster."""
    pool = make_pool(n_pool, seed)
    rng = random.Random(seed + 1)
    active = set(range(0, n_pool, 2))
    yield reports_from(pool, active)
    for ep in range(epochs):
        if ep == epochs // 2:
            start = rng.randrange(n_pool)
            width = n_pool // 3
            cluster = {(start + j) % n_pool for j in range(width)}
            active = (active - cluster) | {
                k for k in cluster if (k + 1) % 2 == 0
            } | {(k + 1) % n_pool for k in cluster if k % 2 == 0}
        else:
            for _ in range(max(1, n_pool // 50)):
                k = rng.randrange(n_pool)
                if k in active:
                    active.discard(k)
                else:
                    active.add(k)
        yield reports_from(pool, active)


def run_differential(epoch_iter, **cache_kwargs):
    cache = ReconstructionCache(LEVEL, BOX, **cache_kwargs)
    saw_incremental = False
    for reports in epoch_iter:
        got = cache.update(reports)
        want = build_level_region(LEVEL, reports, BOX)
        assert_regions_identical(got, want)
        saw_incremental |= not cache.stats.last_full_rebuild
    return cache, saw_incremental


# ----------------------------------------------------------------------
# The 20+ seeded sequences
# ----------------------------------------------------------------------


class TestDriftDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_pure_churn_drift(self, seed):
        _, inc = run_differential(
            drift_epochs(400, seed, epochs=4, churn=6)
        )
        assert inc  # the workload must actually exercise the delta path

    @pytest.mark.parametrize("seed", range(4))
    def test_drift_with_rotations_and_moves(self, seed):
        run_differential(
            drift_epochs(400, 100 + seed, epochs=4, churn=5, rotate=3, move=2)
        )


class TestStormDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_localized_storm(self, seed):
        cache, _ = run_differential(storm_epochs(360, 200 + seed, epochs=5))
        # The cluster-replacement epoch must have tripped the fallback.
        assert cache.stats.full_rebuilds >= 2  # cold start + storm


class TestSmallInputDifferential:
    """Below the batching cutoff the Voronoi reference path is used; the
    incremental splice must stay bit-identical there too."""

    @pytest.mark.parametrize("seed", range(4))
    def test_small_m_drift(self, seed):
        run_differential(drift_epochs(60, 300 + seed, epochs=4, churn=2))


# ----------------------------------------------------------------------
# Retention and fallback machinery
# ----------------------------------------------------------------------


class TestRetention:
    def test_untouched_cells_are_same_objects(self):
        pool = make_pool(400, 7)
        active = set(range(0, 400, 2))
        cache = ReconstructionCache(LEVEL, BOX)
        cache.update(reports_from(pool, active))
        before = {c.site: c for c in cache.region.cells}
        # Retract one source and activate its pool neighbor: a localized
        # delta far from most of the ring.
        active.discard(0)
        active.add(1)
        cache.update(reports_from(pool, active))
        assert not cache.stats.last_full_rebuild
        retained = 0
        for cell in cache.region.cells:
            old = before.get(cell.site)
            if old is not None and old.polygon is cell.polygon:
                retained += 1
        assert retained == cache.stats.last_cells_total - \
            cache.stats.last_cells_recomputed
        assert retained > cache.stats.last_cells_total // 2

    def test_threshold_zero_always_rebuilds(self):
        it = drift_epochs(200, 11, epochs=3, churn=4)
        cache, saw_incremental = run_differential(
            it, full_rebuild_threshold=0.0
        )
        assert not saw_incremental
        assert cache.stats.full_rebuilds == cache.stats.epochs

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ReconstructionCache(LEVEL, BOX, full_rebuild_threshold=1.5)
        with pytest.raises(ValueError):
            ReconstructionCache(LEVEL, BOX, full_rebuild_threshold=-0.1)

    def test_empty_reports_rejected(self):
        cache = ReconstructionCache(LEVEL, BOX)
        with pytest.raises(ValueError):
            cache.update([])

    def test_reset_forces_full_rebuild(self):
        it = drift_epochs(200, 13, epochs=1, churn=3)
        cache = ReconstructionCache(LEVEL, BOX)
        first = next(it)
        cache.update(first)
        cache.reset()
        assert cache.region is None
        cache.update(first)
        assert cache.stats.last_full_rebuild

    def test_unregulated_cache_matches_unregulated_build(self):
        it = drift_epochs(300, 17, epochs=3, churn=4)
        cache = ReconstructionCache(LEVEL, BOX, regulate=False)
        for reports in it:
            got = cache.update(reports)
            want = build_level_region(LEVEL, reports, BOX, regulate=False)
            assert_regions_identical(got, want)
        assert got.regulation_stats == {"rule1": 0, "rule2": 0}


# ----------------------------------------------------------------------
# SinkReconstructor: multi-level assembly and level-crossing eviction
# ----------------------------------------------------------------------


def two_level_reports(pool, active_by_level, overrides=None):
    overrides = overrides or {}
    out = []
    for level, active in sorted(active_by_level.items()):
        for k in sorted(active):
            pos, direction = pool[k]
            level_here = overrides.get(k, level)
            out.append(IsolineReport(level_here, pos, direction, source=k))
    return out


class TestSinkReconstructor:
    def assert_maps_identical(self, got, want):
        assert got.levels == want.levels
        assert got.full_levels == want.full_levels
        assert set(got.regions) == set(want.regions)
        for v in got.regions:
            assert_regions_identical(got.regions[v], want.regions[v])

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_level_drift_matches_full_build(self, seed):
        pool = make_pool(300, seed)
        levels = [6.0, 8.0]
        recon = SinkReconstructor(levels, BOX)
        rng = random.Random(seed)
        low = set(range(0, 300, 4))
        high = set(range(2, 300, 4))
        for _ in range(4):
            reports = []
            for level, active in ((6.0, low), (8.0, high)):
                for k in sorted(active):
                    pos, direction = pool[k]
                    reports.append(IsolineReport(level, pos, direction, k))
            got = recon.reconstruct(reports, sink_value=9.0)
            want = build_contour_map(reports, levels, BOX, sink_value=9.0)
            self.assert_maps_identical(got, want)
            for active in (low, high):
                k = rng.choice(sorted(active))
                active.discard(k)

    def test_level_crossing_evicts_old_level_cell(self):
        """A source whose value crosses to a different isolevel (same
        position) must disappear from the old level's retained region --
        the cache-consistency regression this suite pins."""
        pool = make_pool(200, 3)
        levels = [6.0, 8.0]
        recon = SinkReconstructor(levels, BOX)
        low = set(range(0, 200, 4))
        high = set(range(2, 200, 4))
        crosser = sorted(low)[3]

        def build(low_set, high_set):
            reports = []
            for level, active in ((6.0, low_set), (8.0, high_set)):
                for k in sorted(active):
                    pos, direction = pool[k]
                    reports.append(IsolineReport(level, pos, direction, k))
            return reports

        first = build(low, high)
        recon.reconstruct(first)
        assert any(
            r.source == crosser for r in recon.cache(6.0).region.reports
        )
        # The field rose at ``crosser``: same position, new isolevel.
        second = build(low - {crosser}, high | {crosser})
        got = recon.reconstruct(second)
        want = build_contour_map(second, levels, BOX)
        self.assert_maps_identical(got, want)
        low_region = recon.cache(6.0).region
        assert all(r.source != crosser for r in low_region.reports)
        assert any(
            r.source == crosser for r in recon.cache(8.0).region.reports
        )
        assert all(
            c.site != pool[crosser][0] for c in low_region.cells
        )

    def test_level_emptying_resets_cache(self):
        pool = make_pool(100, 5)
        levels = [6.0, 8.0]
        recon = SinkReconstructor(levels, BOX)
        low = set(range(0, 100, 2))
        high = set(range(1, 100, 2))
        recon.reconstruct(two_level_reports(pool, {6.0: low, 8.0: high}))
        assert recon.cache(8.0).region is not None
        # Every high-level source drops out; evidence from the low level
        # no longer exists for 8.0, so the level is simply absent.
        got = recon.reconstruct(two_level_reports(pool, {6.0: low}))
        assert recon.cache(8.0).region is None
        assert 8.0 not in got.regions
        want = build_contour_map(
            two_level_reports(pool, {6.0: low}), levels, BOX
        )
        self.assert_maps_identical(got, want)

    def test_stats_rollup(self):
        pool = make_pool(200, 9)
        recon = SinkReconstructor([8.0], BOX)
        active = set(range(0, 200, 2))
        recon.reconstruct(reports_from(pool, active))
        assert recon.last_full_rebuilds == 1
        assert recon.last_dirty_fraction() == 1.0
        active.discard(0)
        active.add(1)
        recon.reconstruct(reports_from(pool, active))
        assert recon.last_full_rebuilds == 0
        assert 0.0 < recon.last_dirty_fraction() < 1.0
        assert recon.last_seconds > 0.0
