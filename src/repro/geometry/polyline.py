"""Polyline utilities and boundary-loop stitching.

After the merge step removes interior edge portions, the contour-region
boundary is a soup of labelled segments.  :func:`stitch_segments_into_loops`
reassembles them into closed loops by matching endpoints with a spatial
hash, tolerating the small floating-point drift accumulated through
clipping and interval subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import Vec, dist

#: Segment kind labels used by the reconstruction pipeline.
TYPE1 = 1  #: lies on a cut line (perpendicular to a report's gradient)
TYPE2 = 2  #: lies on a Voronoi cell border between inner and outer parts
BORDER = 3  #: lies on the field bounding box


@dataclass(frozen=True)
class BoundarySegment:
    """A directed boundary segment with its Iso-Map kind and owning cell.

    Attributes:
        a: start point.
        b: end point.
        kind: one of TYPE1 / TYPE2 / BORDER.
        cell: site index of the Voronoi cell that produced the segment.
        other: for TYPE2 segments, the adjacent cell's site index
            (``-1`` otherwise).
    """

    a: Vec
    b: Vec
    kind: int
    cell: int
    other: int = -1

    @property
    def length(self) -> float:
        return dist(self.a, self.b)

    def reversed(self) -> "BoundarySegment":
        return BoundarySegment(self.b, self.a, self.kind, self.cell, self.other)


def polyline_length(points: Sequence[Vec]) -> float:
    """Total length of an open polyline."""
    return sum(dist(points[i], points[i + 1]) for i in range(len(points) - 1))


def resample_polyline_fast(points: Sequence[Vec], spacing: float) -> List[Vec]:
    """Points along the polyline at (approximately) uniform ``spacing``.

    Samples sit at global arclengths ``spacing, 2 * spacing, ...``, plus
    the first and last input points; the interpolation is one NumPy pass
    over the cumulative segment lengths.  Used to turn estimated and true
    isolines into point sets for the Hausdorff-distance metric.

    Deviation contract with the scalar arclength walk in
    ``tests/geometry/polyline_reference.py`` -- this is the ONE kernel
    pair in the repo that is *not* pinned bit-identical, and the exact
    deviation is bounded by a property test
    (``tests/geometry/test_polyline_resample_contract.py``):

    1. both outputs begin with ``points[0]`` and end with ``points[-1]``;
    2. their lengths differ by at most one sample -- both target global
       arclengths ``k * spacing``, but the scalar walk accumulates the
       arclength prefix per segment while this kernel takes one
       ``cumsum``, so when a sample lands within floating-point noise of
       the total length one implementation emits it and the other does
       not; the extra sample lies within ``spacing`` of the final point;
    3. over the common prefix, corresponding samples agree to absolute
       coordinate error ``<= 1e-6`` -- the two formulas target the same
       global arclengths and differ only in summation order (running
       scalar sum vs. one ``cumsum``), i.e. by accumulated ULPs.  (When
       a target lands within ULPs of a vertex the two paths may assign
       it to adjacent segments, but either way the emitted point is that
       vertex to within the same tolerance.)

    The Hausdorff metric consuming these samples is insensitive to all
    three deviations.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    n = len(points)
    if n == 0:
        return []
    if n == 1:
        return [points[0]]
    pts = np.asarray(points, dtype=float)
    dx = np.diff(pts[:, 0])
    dy = np.diff(pts[:, 1])
    seg = np.hypot(dx, dy)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])
    out: List[Vec] = [points[0]]
    if total > 0.0:
        k = int(total / spacing)
        s = spacing * np.arange(1, k + 1)
        s = s[s <= total]
        if len(s):
            # Segment owning each sample: first i with cum[i] >= s, minus 1.
            idx = np.searchsorted(cum, s, side="left") - 1
            idx = np.clip(idx, 0, len(seg) - 1)
            f = (s - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
            f = np.clip(f, 0.0, 1.0)
            px = pts[idx, 0] + f * dx[idx]
            py = pts[idx, 1] + f * dy[idx]
            out.extend(zip(px.tolist(), py.tolist()))
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out


def stitch_segments_into_loops(
    segments: Sequence[BoundarySegment], tol: float = 1e-6
) -> List[List[BoundarySegment]]:
    """Assemble boundary segments into closed loops.

    Each input segment is used exactly once.  Endpoints within ``tol`` are
    considered identical.  Open chains (which indicate a numerical defect in
    the merge step) are returned as loops too -- closed implicitly -- so
    callers never lose boundary geometry; the test suite asserts closure on
    well-formed inputs.

    Segments may need reversal to chain head-to-tail; the stitcher tries
    both orientations.
    """
    segs = [s for s in segments if s.length > tol]
    if not segs:
        return []

    index = _EndpointIndex(tol)
    for k, s in enumerate(segs):
        index.add(s.a, k)
        index.add(s.b, k)

    used = [False] * len(segs)
    loops: List[List[BoundarySegment]] = []

    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        chain = [segs[start]]
        # Extend forward from the chain's tail until we return to its head.
        while True:
            tail = chain[-1].b
            head = chain[0].a
            if dist(tail, head) <= tol and len(chain) >= 2:
                break
            next_k = None
            next_rev = False
            for k in index.near(tail):
                if used[k]:
                    continue
                if dist(segs[k].a, tail) <= tol:
                    next_k, next_rev = k, False
                    break
                if dist(segs[k].b, tail) <= tol:
                    next_k, next_rev = k, True
                    break
            if next_k is None:
                break  # open chain; accept as-is
            used[next_k] = True
            chain.append(segs[next_k].reversed() if next_rev else segs[next_k])
        loops.append(chain)
    return loops


def loop_points(loop: Sequence[BoundarySegment]) -> List[Vec]:
    """The vertex ring of a stitched loop (one point per segment start)."""
    return [s.a for s in loop]


def loop_is_closed(loop: Sequence[BoundarySegment], tol: float = 1e-5) -> bool:
    """True when the loop's tail meets its head."""
    if not loop:
        return False
    return dist(loop[-1].b, loop[0].a) <= tol


class _EndpointIndex:
    """Spatial hash from points to segment indices (both endpoints)."""

    def __init__(self, tol: float):
        self._cell = max(tol * 4.0, 1e-9)
        self._buckets: Dict[Tuple[int, int], List[int]] = {}

    def _key(self, p: Vec) -> Tuple[int, int]:
        return (int(math.floor(p[0] / self._cell)), int(math.floor(p[1] / self._cell)))

    def add(self, p: Vec, k: int) -> None:
        self._buckets.setdefault(self._key(p), []).append(k)

    def near(self, p: Vec) -> List[int]:
        kx, ky = self._key(p)
        out: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out.extend(self._buckets.get((kx + dx, ky + dy), ()))
        return out
