"""The scalar-field interface sensed by the network.

A :class:`ScalarField` maps positions to attribute values (water depth in
the harbor scenario).  Sensors sample :meth:`value`; the evaluation
pipeline additionally uses :meth:`gradient` (for ground-truth gradient
error, Fig. 7) and :meth:`sample_grid` (for ground-truth contour maps).
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.geometry import BoundingBox, Vec


class ScalarField(abc.ABC):
    """A continuous scalar attribute over a rectangular field."""

    def __init__(self, bounds: BoundingBox):
        self._bounds = bounds

    @property
    def bounds(self) -> BoundingBox:
        """The rectangular extent over which the field is defined."""
        return self._bounds

    @abc.abstractmethod
    def value(self, x: float, y: float) -> float:
        """The attribute value at position ``(x, y)``."""

    def gradient(self, x: float, y: float, h: float = 1e-4) -> Vec:
        """The spatial gradient ``(df/dx, df/dy)`` at ``(x, y)``.

        The default implementation uses central differences with step ``h``;
        fields with an analytic gradient override this.  Note the *gradient
        direction* reported by Iso-Map nodes is ``d = -grad f`` (Eq. 1 of
        the paper): the direction of steepest descent.
        """
        fx = (self.value(x + h, y) - self.value(x - h, y)) / (2 * h)
        fy = (self.value(x, y + h) - self.value(x, y - h)) / (2 * h)
        return (fx, fy)

    def descent_direction(self, x: float, y: float) -> Vec:
        """``d = -grad f``, the paper's gradient-direction parameter."""
        gx, gy = self.gradient(x, y)
        return (-gx, -gy)

    def value_range(self, samples: int = 64) -> Tuple[float, float]:
        """(min, max) of the field estimated on a ``samples x samples`` grid."""
        grid = self.sample_grid(samples, samples)
        return float(grid.min()), float(grid.max())

    def sample_grid(self, nx: int, ny: int) -> np.ndarray:
        """Field values at the cell centres of an ``nx x ny`` raster.

        Returns an array of shape ``(ny, nx)`` with ``[j, i]`` the value at
        the centre of raster cell ``(i, j)`` (x-index i, y-index j).

        Fields are immutable by construction, so the sampled grid is
        memoised per resolution: the evaluation pipeline asks for the same
        ground-truth raster once per isolevel and once per protocol under
        comparison, and re-evaluating ``value`` point by point dominated
        the Fig. 11/12 sweeps before this cache.  The returned array is
        marked read-only because it is shared between callers.
        """
        cache = self.__dict__.setdefault("_sample_grid_cache", {})
        key = (int(nx), int(ny))
        hit = cache.get(key)
        if hit is None:
            from repro import profiling

            with profiling.stage("field.sample_grid"):
                hit = self._sample_grid(nx, ny)
            hit.setflags(write=False)
            cache[key] = hit
        return hit

    def _sample_grid(self, nx: int, ny: int) -> np.ndarray:
        """Uncached grid evaluation; subclasses with a vectorized (and
        bit-compatible) evaluation override this, not :meth:`sample_grid`."""
        b = self.bounds
        dx = b.width / nx
        dy = b.height / ny
        xs = b.xmin + (np.arange(nx) + 0.5) * dx
        ys = b.ymin + (np.arange(ny) + 0.5) * dy
        out = np.empty((ny, nx), dtype=float)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                out[j, i] = self.value(float(x), float(y))
        return out
