"""Unit tests for polyline utilities and loop stitching."""

import pytest

from repro.geometry import polyline_length, stitch_segments_into_loops
from repro.geometry.polyline import (
    TYPE1,
    TYPE2,
    BoundarySegment,
    loop_is_closed,
    loop_points,
    resample_polyline_fast,
)


def seg(a, b, kind=TYPE1, cell=0):
    return BoundarySegment(a, b, kind, cell)


class TestPolylineBasics:
    def test_length(self):
        assert polyline_length([(0, 0), (3, 0), (3, 4)]) == pytest.approx(7.0)
        assert polyline_length([(0, 0)]) == 0.0

    def test_resample_spacing(self):
        pts = resample_polyline_fast([(0, 0), (10, 0)], spacing=1.0)
        assert len(pts) == 11
        assert pts[0] == (0, 0)
        assert pts[-1] == (10, 0)
        for i in range(len(pts) - 1):
            assert polyline_length(pts[i : i + 2]) == pytest.approx(1.0, abs=1e-6)

    def test_resample_includes_endpoints(self):
        pts = resample_polyline_fast([(0, 0), (1, 0), (1, 1)], spacing=0.7)
        assert pts[0] == (0, 0)
        assert pts[-1] == (1, 1)

    def test_resample_invalid_spacing(self):
        with pytest.raises(ValueError):
            resample_polyline_fast([(0, 0), (1, 1)], spacing=0)

    def test_resample_empty(self):
        assert resample_polyline_fast([], 1.0) == []
        assert resample_polyline_fast([(2, 2)], 1.0) == [(2, 2)]


class TestStitching:
    def test_square_loop(self):
        segs = [
            seg((0, 0), (1, 0)),
            seg((1, 0), (1, 1)),
            seg((1, 1), (0, 1)),
            seg((0, 1), (0, 0)),
        ]
        loops = stitch_segments_into_loops(segs)
        assert len(loops) == 1
        assert loop_is_closed(loops[0])
        assert len(loops[0]) == 4

    def test_loop_with_reversed_segments(self):
        segs = [
            seg((0, 0), (1, 0)),
            seg((1, 1), (1, 0)),  # reversed
            seg((1, 1), (0, 1)),
            seg((0, 0), (0, 1)),  # reversed
        ]
        loops = stitch_segments_into_loops(segs)
        assert len(loops) == 1
        assert loop_is_closed(loops[0])

    def test_two_disjoint_loops(self):
        square1 = [
            seg((0, 0), (1, 0)),
            seg((1, 0), (1, 1)),
            seg((1, 1), (0, 1)),
            seg((0, 1), (0, 0)),
        ]
        square2 = [
            seg((5, 5), (6, 5)),
            seg((6, 5), (6, 6)),
            seg((6, 6), (5, 6)),
            seg((5, 6), (5, 5)),
        ]
        loops = stitch_segments_into_loops(square1 + square2)
        assert len(loops) == 2
        assert all(loop_is_closed(lp) for lp in loops)

    def test_tolerance_bridges_small_gaps(self):
        segs = [
            seg((0, 0), (1, 0)),
            seg((1 + 1e-8, 0), (1, 1)),
            seg((1, 1), (0, 1)),
            seg((0, 1), (0, 1e-8)),
        ]
        loops = stitch_segments_into_loops(segs, tol=1e-6)
        assert len(loops) == 1
        assert loop_is_closed(loops[0], tol=1e-6)

    def test_zero_length_segments_dropped(self):
        segs = [
            seg((0, 0), (0, 0)),
            seg((0, 0), (1, 0)),
            seg((1, 0), (1, 1)),
            seg((1, 1), (0, 0)),
        ]
        loops = stitch_segments_into_loops(segs)
        assert len(loops) == 1
        assert len(loops[0]) == 3

    def test_empty_input(self):
        assert stitch_segments_into_loops([]) == []

    def test_loop_points_order(self):
        segs = [
            seg((0, 0), (1, 0)),
            seg((1, 0), (1, 1)),
            seg((1, 1), (0, 0)),
        ]
        loops = stitch_segments_into_loops(segs)
        pts = loop_points(loops[0])
        assert len(pts) == 3
        assert pts[0] == (0, 0)

    def test_kind_preserved_through_stitching(self):
        segs = [
            seg((0, 0), (1, 0), kind=TYPE1),
            seg((1, 0), (1, 1), kind=TYPE2),
            seg((1, 1), (0, 0), kind=TYPE1),
        ]
        loops = stitch_segments_into_loops(segs)
        kinds = sorted(s.kind for s in loops[0])
        assert kinds == [TYPE1, TYPE1, TYPE2]
