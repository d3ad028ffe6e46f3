"""Unit tests for the continuous-monitoring (epoch-delta) extension."""

import numpy as np
import pytest

from repro.core import ContourQuery
from repro.core.continuous import ContinuousIsoMap
from repro.core.contour_map import build_contour_map
from repro.field import CompositeField, GaussianBumpField, RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork

BOX = BoundingBox(0, 0, 20, 20)


def radial_net(n=600, seed=1):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.2, seed=seed)


def monitor(eps=0.2):
    return ContinuousIsoMap(
        ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=eps), angle_delta_deg=10.0
    )


class TestColdStart:
    def test_first_epoch_reports_everything(self):
        net = radial_net()
        mon = monitor()
        r = mon.epoch(net)
        assert r.new_reports
        assert r.suppressed == 0
        assert r.retractions == []
        assert r.cached_reports == len(r.new_reports)

    def test_first_epoch_map_usable(self):
        net = radial_net()
        r = monitor().epoch(net)
        assert r.contour_map.band_at((10, 10)) >= 1
        assert r.contour_map.band_at((1, 1)) == 0


class TestSteadyState:
    def test_unchanged_field_suppresses_all_reports(self):
        net = radial_net()
        mon = monitor()
        first = mon.epoch(net)
        second = mon.epoch(net)
        assert second.new_reports == []
        assert second.suppressed == len(first.new_reports)
        assert second.retractions == []
        # Steady-state report traffic is zero; only the local probes of
        # the detection phase remain.
        assert (
            second.costs.total_traffic_bytes() < first.costs.total_traffic_bytes()
        )

    def test_cache_survives_quiet_epochs(self):
        net = radial_net()
        mon = monitor()
        mon.epoch(net)
        size = mon.cache_size
        mon.epoch(net)
        assert mon.cache_size == size


class TestFieldChange:
    def test_local_event_reports_only_the_change(self):
        net = radial_net(n=800, seed=2)
        mon = monitor()
        first = mon.epoch(net)

        # Flatten one side of the cone: isolines shift there only.
        bump = GaussianBumpField(BOX, base=0.0, bumps=[(-2.0, (14, 10), 2.0)])
        net.resense(CompositeField(BOX, [net.field, bump]))
        second = mon.epoch(net)

        assert second.new_reports, "the event must trigger re-reports"
        assert len(second.new_reports) < len(first.new_reports)
        # Changed reports cluster near the event site.
        import math

        near = sum(
            1
            for r in second.new_reports
            if math.dist(r.position, (14, 10)) < 6.0
        )
        assert near > len(second.new_reports) / 2

    def test_retractions_evict_cache(self):
        net = radial_net(n=800, seed=3)
        mon = monitor()
        mon.epoch(net)
        before = mon.cache_size
        # Collapse the cone: no node sits on the queried isolevels any more.
        flat = RadialField(BOX, center=(10, 10), peak=5, slope=0.1)
        net.resense(flat)
        r = mon.epoch(net)
        assert r.retractions
        assert mon.cache_size < before
        assert r.cached_reports == mon.cache_size


class TestMapConsistency:
    def test_delta_map_equals_snapshot_map(self):
        """After any sequence of epochs, the cache-built map must match a
        from-scratch run on the current field (same reports, since delta
        suppression only skips unchanged ones and filtering is off)."""
        from repro.core import FilterConfig, IsoMapProtocol

        net = radial_net(n=700, seed=4)
        mon = monitor()
        mon.epoch(net)
        bump = GaussianBumpField(BOX, base=0.0, bumps=[(1.5, (7, 12), 2.0)])
        net.resense(CompositeField(BOX, [net.field, bump]))
        delta = mon.epoch(net)

        snapshot = IsoMapProtocol(
            mon.query, FilterConfig.disabled(), regulate=True
        ).run(net)
        # Same sources end up in both maps (delta cache == fresh reports),
        # except sources whose direction drifted less than angle_delta
        # (cache keeps the slightly stale direction) -- so compare the
        # classification, which is robust to sub-threshold drift.
        a = delta.contour_map.classify_raster(40, 40)
        b = snapshot.contour_map.classify_raster(40, 40)
        agreement = (a == b).mean()
        assert agreement > 0.97

    def test_invalid_angle_delta(self):
        with pytest.raises(ValueError):
            ContinuousIsoMap(ContourQuery(0, 10, 2), angle_delta_deg=-1)


class TestRetractionEdgeCases:
    def test_retraction_of_disconnected_source_is_not_charged(self):
        """A cached source whose node crash-fails (falling off the routing
        tree) still retracts cleanly: the sink evicts it, and no hop
        traffic is charged for the unroutable retraction."""
        net = radial_net()
        mon = monitor()
        first = mon.epoch(net)
        victim = first.new_reports[0].source
        assert victim in (r.source for r in mon.sink_reports)
        net.nodes[victim].alive = False
        net.nodes[victim].sensing_ok = False
        net.rebuild_tree()
        assert net.tree.level[victim] == -1  # precondition: unroutable
        r = mon.epoch(net)
        assert victim in r.retractions
        assert all(rep.source != victim for rep in mon.sink_reports)
        assert r.costs.tx_bytes[victim] == 0

    def test_retraction_of_never_cached_source(self):
        """The module docstring warns a dropped delta desynchronises the
        sink cache; a later retraction of that never-cached source must
        still be a clean no-op eviction, not an error."""
        net = radial_net()
        mon = monitor()
        first = mon.epoch(net)
        victim = first.new_reports[0].source
        # Simulate the lost delivery: the node believes it reported, the
        # sink never received it.
        del mon._sink_cache[victim]
        flat = RadialField(BOX, center=(10, 10), peak=5, slope=0.1)
        net.resense(flat)
        r = mon.epoch(net)
        assert victim in r.retractions
        assert all(rep.source != victim for rep in mon.sink_reports)
        assert r.cached_reports == mon.cache_size


class TestZeroIsolineEpochs:
    def test_epoch_with_no_isoline_nodes(self):
        """A field entirely below every queried level yields an epoch with
        zero isoline nodes and an empty (not full) map."""
        flat = RadialField(BOX, center=(10, 10), peak=5, slope=0.1)
        net = SensorNetwork.random_deploy(flat, 600, radio_range=2.2, seed=1)
        mon = monitor()
        r = mon.epoch(net)
        assert r.new_reports == []
        assert r.cached_reports == 0
        assert r.contour_map.regions == {}
        assert r.contour_map.full_levels == []
        assert r.contour_map.band_at((10, 10)) == 0

    def test_all_retract_then_recover(self):
        """Populated -> empty -> repopulated: the incremental sink must
        reset on the empty epoch and rebuild from scratch after it,
        matching a from-scratch map of the sink cache bit for bit."""
        net = radial_net(seed=3)
        mon = monitor()
        fields = [
            net.field,
            RadialField(BOX, center=(10, 10), peak=5, slope=0.1),  # empty
            RadialField(BOX, center=(10, 10), peak=20, slope=1),  # recover
        ]
        cached = []
        for f in fields:
            net.resense(f)
            r = mon.epoch(net)
            cached.append(mon.cache_size)
            full = build_contour_map(
                mon.sink_reports,
                mon.query.isolevels,
                net.bounds,
                sink_value=r.sink_value,
            )
            assert sorted(r.contour_map.regions) == sorted(full.regions)
            assert r.contour_map.full_levels == full.full_levels
            assert np.array_equal(
                r.contour_map.classify_raster(30, 30),
                full.classify_raster(30, 30),
            )
        assert cached[0] > 0 and cached[1] == 0 and cached[2] > 0
        # The empty epoch reset the per-level caches; the recovery epoch
        # was therefore a full rebuild, not a splice against stale cells.
        assert mon.reconstructor is not None
        assert mon.reconstructor.last_full_rebuilds >= 1


class TestAngleThreshold:
    """The re-report predicate is ``angle <= angle_delta``: a rotation of
    *exactly* the configured threshold is still suppressed."""

    def _mon(self, deg):
        return ContinuousIsoMap(
            ContourQuery(14.0, 16.0, 2.0, epsilon_fraction=0.2),
            angle_delta_deg=deg,
        )

    def _report(self, direction):
        from repro.core.reports import IsolineReport

        return IsolineReport(14.0, (1.0, 2.0), direction, source=0)

    def test_rotation_exactly_at_threshold_is_suppressed(self):
        import math

        mon = self._mon(90.0)
        prev = self._report((1.0, 0.0))
        new = self._report((0.0, 1.0))  # exactly 90 degrees
        assert math.acos(0.0) == math.radians(90.0)  # exact in floats
        assert mon._unchanged(prev, new)

    def test_rotation_just_past_threshold_reports(self):
        mon = self._mon(90.0)
        prev = self._report((1.0, 0.0))
        new = self._report((-1e-9, 1.0))  # a hair past 90 degrees
        assert not mon._unchanged(prev, new)

    def test_zero_threshold_suppresses_only_identical_direction(self):
        mon = self._mon(0.0)
        prev = self._report((1.0, 0.0))
        assert mon._unchanged(prev, self._report((1.0, 0.0)))
        assert not mon._unchanged(prev, self._report((1.0, 1e-7)))

    def test_level_change_always_reports(self):
        from repro.core.reports import IsolineReport

        mon = self._mon(90.0)
        prev = self._report((1.0, 0.0))
        new = IsolineReport(16.0, (1.0, 2.0), (1.0, 0.0), source=0)
        assert not mon._unchanged(prev, new)
