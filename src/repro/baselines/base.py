"""Shared baseline infrastructure.

A baseline run produces a :class:`ProtocolRun`: a name, a band map the
metrics can rasterise, the cost accountant, and bookkeeping counts.  The
band map used by the value-reporting baselines is
:class:`NearestReportBandMap`: the sink knows a set of (position, value)
readings and classifies any point by the band of the nearest reading --
the "sink interpolation" the paper attributes to TinyDB and the
data-suppression protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.field.contours import band_of, extract_isolines
from repro.field.grid_field import SampledGridField
from repro.geometry import BoundingBox, Vec
from repro.network import CostAccountant
from repro.network.transport import DegradationReport


@dataclass
class ProtocolRun:
    """Uniform result record for any contour protocol run.

    Attributes:
        name: protocol name (for experiment tables).
        band_map: an object with ``classify_raster(nx, ny)``, ``band_at(p)``
            and ``isolines(level)``.
        costs: the per-node cost counters.
        reports_delivered: application reports that reached the sink.
        degradation: the collection transport's account of this epoch
            (None only for code paths that predate the transport).
    """

    name: str
    band_map: "NearestReportBandMap"
    costs: CostAccountant
    reports_delivered: int
    degradation: Optional[DegradationReport] = None


class NearestReportBandMap:
    """Sink-side map built from raw (position, value) readings.

    Classification assigns each point the band of its nearest reading --
    nearest-neighbour sink interpolation.  Isolines for the Hausdorff
    metric are extracted by running marching squares over the interpolated
    surface (the sink has unconstrained resources, so this mirrors what a
    real TinyDB front-end would render).
    """

    def __init__(
        self,
        bounds: BoundingBox,
        positions: Sequence[Vec],
        values: Sequence[float],
        levels: Sequence[float],
    ):
        if len(positions) != len(values):
            raise ValueError("positions and values must parallel")
        self.bounds = bounds
        self.positions = list(positions)
        self.values = list(values)
        self.levels = sorted(levels)
        self._pos_arr = (
            np.array(self.positions, dtype=float)
            if self.positions
            else np.zeros((0, 2))
        )
        self._val_arr = np.array(self.values, dtype=float)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def band_at(self, p: Vec) -> int:
        if not self.positions:
            return 0
        best = min(
            range(len(self.positions)),
            key=lambda i: (p[0] - self.positions[i][0]) ** 2
            + (p[1] - self.positions[i][1]) ** 2,
        )
        return band_of(self.values[best], self.levels)

    def value_at(self, p: Vec) -> Optional[float]:
        """Nearest-reading value (None when no readings arrived)."""
        if not self.positions:
            return None
        d2 = (self._pos_arr[:, 0] - p[0]) ** 2 + (self._pos_arr[:, 1] - p[1]) ** 2
        return float(self._val_arr[d2.argmin()])

    def classify_points(self, points: Sequence[Vec]) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if not self.positions:
            return np.zeros(len(pts), dtype=int)
        # Chunk the distance matrix so 10k-report x 10k-point queries stay
        # within a few tens of MB.
        chunk = max(1, int(4e6 // max(1, len(self.positions))))
        nearest_vals = np.empty(len(pts))
        for start in range(0, len(pts), chunk):
            block = pts[start : start + chunk]
            d2 = (
                (block[:, None, 0] - self._pos_arr[None, :, 0]) ** 2
                + (block[:, None, 1] - self._pos_arr[None, :, 1]) ** 2
            )
            nearest_vals[start : start + chunk] = self._val_arr[d2.argmin(axis=1)]
        bands = np.zeros(len(pts), dtype=int)
        for v in self.levels:
            bands += (nearest_vals >= v).astype(int)
        return bands

    def classify_raster(self, nx: int, ny: int) -> np.ndarray:
        pts = self.bounds.sample_grid(nx, ny)
        return self.classify_points(pts).reshape(ny, nx)

    # ------------------------------------------------------------------
    # Isolines (for the Hausdorff metric)
    # ------------------------------------------------------------------

    def isolines(self, level: float, grid: int = 100) -> List[List[Vec]]:
        """Isolines of the interpolated surface via marching squares.

        The interpolated surface is memoised per resolution (the readings
        are fixed once the map is built), so the Hausdorff metric's
        per-level calls interpolate once instead of once per level.
        """
        if not self.positions:
            return []
        cache = self.__dict__.setdefault("_surface_cache", {})
        surface = cache.get(grid)
        if surface is None:
            surface = self._interpolated_field(grid)
            cache[grid] = surface
        return extract_isolines(surface, level, nx=grid, ny=grid)

    def _interpolated_field(self, grid: int) -> SampledGridField:
        pts = self.bounds.sample_grid(grid, grid)
        vals = np.empty(len(pts))
        chunk = max(1, int(4e6 // max(1, len(self.positions))))
        for start in range(0, len(pts), chunk):
            block = np.asarray(pts[start : start + chunk], dtype=float)
            d2 = (
                (block[:, None, 0] - self._pos_arr[None, :, 0]) ** 2
                + (block[:, None, 1] - self._pos_arr[None, :, 1]) ** 2
            )
            vals[start : start + chunk] = self._val_arr[d2.argmin(axis=1)]
        return SampledGridField(self.bounds, vals.reshape(grid, grid))
