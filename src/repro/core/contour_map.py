"""The multi-level contour map assembled at the sink (Section 3.4).

Levels are reconstructed independently and then nested: "the sink
initially builds isolines of the lowest isolevel, and the isolines of
isolevel v_L restrict the boundaries for all contour regions above ...
only the area inside the boundary is kept".  Point classification
implements that recursion directly: walk the levels in ascending order
and stop at the first level whose region does not contain the point;
the band index is the number of levels passed.

Levels with no surviving reports need disambiguation -- the field either
never reaches that level (empty region) or lies entirely above it (full
region).  If any report exists at a *higher* isolevel, the field provably
exceeds this level somewhere, so the region is the whole field;
otherwise the sink falls back to its own locally sensed value (the sink
is a sensor too).
"""

from __future__ import annotations

import time

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.reconstruction import (
    LevelRegion,
    ReconstructionCache,
    build_level_region,
)
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox, Vec


@dataclass
class ContourMap:
    """A reconstructed contour map over ``bounds``.

    Attributes:
        bounds: the field extent.
        levels: queried isolevels, ascending.
        regions: per-isolevel reconstruction (absent for empty levels).
        full_levels: isolevels whose region was inferred to be the whole
            field (no reports, but higher-level evidence or the sink's own
            reading says the field exceeds the level everywhere reports
            could have come from).
    """

    bounds: BoundingBox
    levels: List[float]
    regions: Dict[float, LevelRegion] = field(default_factory=dict)
    full_levels: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def level_contains(self, level: float, p: Vec) -> bool:
        """Membership of ``p`` in the (possibly inferred) region of ``level``."""
        if level in self.full_levels:
            return True
        region = self.regions.get(level)
        if region is None:
            return False
        return region.contains(p)

    def band_at(self, p: Vec) -> int:
        """The band index of ``p``: how many nested level regions hold it."""
        band = 0
        for level in self.levels:
            if self.level_contains(level, p):
                band += 1
            else:
                break
        return band

    def classify_points(self, points: Sequence[Vec]) -> np.ndarray:
        """Vectorised band classification of many points.

        Implements the same nested recursion as :meth:`band_at` but one
        level at a time over the whole point set, using the vectorised
        region membership.
        """
        pts = np.asarray(points, dtype=float)
        band = np.zeros(len(pts), dtype=int)
        active = np.ones(len(pts), dtype=bool)
        for level in self.levels:
            if not active.any():
                break
            if level in self.full_levels:
                band[active] += 1
                continue
            region = self.regions.get(level)
            if region is None:
                break
            inside = np.zeros(len(pts), dtype=bool)
            idx = np.nonzero(active)[0]
            inside[idx] = region.contains_many(pts[idx])
            band[inside] += 1
            active &= inside
        return band

    def classify_raster(self, nx: int, ny: int) -> np.ndarray:
        """Band raster of shape ``(ny, nx)`` over the bounds (cell centres)."""
        pts = self.bounds.sample_grid(nx, ny)
        return self.classify_points(pts).reshape(ny, nx)

    # ------------------------------------------------------------------
    # Geometry accessors
    # ------------------------------------------------------------------

    def isolines(self, level: float, regulated: bool = True) -> List[List[Vec]]:
        """Estimated isoline polylines at one level (empty if no region)."""
        region = self.regions.get(level)
        if region is None:
            return []
        return region.isoline_polylines(regulated=regulated)

    def report_count(self) -> int:
        """Total reports used across all levels (after dedup)."""
        return sum(len(r.reports) for r in self.regions.values())


def build_contour_map(
    reports: Sequence[IsolineReport],
    levels: Sequence[float],
    bounds: BoundingBox,
    sink_value: Optional[float] = None,
    regulate: bool = True,
) -> ContourMap:
    """Assemble the full map from delivered reports.

    Args:
        reports: reports that reached the sink (post filtering).
        levels: the queried isolevels.
        bounds: field extent.
        sink_value: the sink's own sensed value, used to disambiguate
            all-empty levels (see module docstring).
        regulate: apply Rules 1-2 to each level's boundary.
    """
    return _assemble_map(
        reports,
        sorted(levels),
        bounds,
        sink_value,
        lambda v, group: build_level_region(v, group, bounds, regulate=regulate),
    )


def _assemble_map(
    reports: Sequence[IsolineReport],
    levels: List[float],
    bounds: BoundingBox,
    sink_value: Optional[float],
    build: Callable[[float, List[IsolineReport]], LevelRegion],
) -> ContourMap:
    """Group ``reports`` by isolevel and build each reported level with
    ``build(level, reports)``; a level without reports is full or absent
    (see module docstring)."""
    by_level: Dict[float, List[IsolineReport]] = {v: [] for v in levels}
    for r in reports:
        if r.isolevel in by_level:
            by_level[r.isolevel].append(r)

    cmap = ContourMap(bounds=bounds, levels=list(levels))
    for i, v in enumerate(levels):
        if by_level[v]:
            cmap.regions[v] = build(v, by_level[v])
        else:
            higher_evidence = any(by_level[w] for w in levels[i + 1 :])
            sink_above = sink_value is not None and sink_value >= v
            if higher_evidence or sink_above:
                cmap.full_levels.append(v)
            # else: empty region -- the level is simply absent.
    return cmap


class SinkReconstructor:
    """Stateful multi-level map assembly across monitoring epochs.

    Drop-in incremental counterpart of :func:`build_contour_map`: one
    :class:`~repro.core.reconstruction.ReconstructionCache` per queried
    isolevel, the same per-level grouping, and the same empty-level
    inference (full vs. absent), so :meth:`reconstruct` returns a map
    bit-identical to a from-scratch build of the same reports -- the
    differential tests pin this across drift and storm epoch sequences.

    Level membership is part of the per-level diff: reports are grouped
    by their *current* isolevel each epoch, so a source whose value
    crosses to a different level simply stops appearing in the old
    level's group and is evicted there as a retraction-like removal
    (and a level whose group empties entirely has its cache reset).
    A source can therefore never leave a stale cell behind on a level
    it no longer belongs to.
    """

    def __init__(self, levels: Sequence[float], bounds: BoundingBox):
        self.levels = sorted(levels)
        self.bounds = bounds
        self._caches: Dict[float, ReconstructionCache] = {
            v: ReconstructionCache(v, bounds) for v in self.levels
        }
        #: Wall-clock seconds of the most recent :meth:`reconstruct`.
        self.last_seconds: float = 0.0
        self.last_cells_total: int = 0
        self.last_cells_recomputed: int = 0
        self.last_full_rebuilds: int = 0

    def cache(self, level: float) -> ReconstructionCache:
        """The per-level cache (for stats inspection and tests)."""
        return self._caches[level]

    def last_dirty_fraction(self) -> float:
        """Recomputed-cell share of the last epoch (1.0 when nothing ran)."""
        if self.last_cells_total == 0:
            return 1.0
        return self.last_cells_recomputed / self.last_cells_total

    def reconstruct(
        self,
        reports: Sequence[IsolineReport],
        sink_value: Optional[float] = None,
    ) -> ContourMap:
        """Assemble the epoch's map, reusing retained per-level geometry.

        Takes the sink's *complete* current report cache (same contract
        as :func:`build_contour_map`); the per-level caches derive the
        epoch deltas themselves.
        """
        t0 = time.perf_counter()
        cmap = _assemble_map(
            reports,
            self.levels,
            self.bounds,
            sink_value,
            lambda v, group: self._caches[v].update(group),
        )
        for v, cache in self._caches.items():
            if v not in cmap.regions:
                # The level emptied: retained cells would be stale, and a
                # later non-empty epoch must rebuild from scratch.
                cache.reset()
        self.last_seconds = time.perf_counter() - t0
        built = [self._caches[v].stats for v in cmap.regions]
        self.last_cells_total = sum(st.last_cells_total for st in built)
        self.last_cells_recomputed = sum(st.last_cells_recomputed for st in built)
        self.last_full_rebuilds = sum(int(st.last_full_rebuild) for st in built)
        return cmap
