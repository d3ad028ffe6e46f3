"""Hausdorff distance between true and estimated isolines (Fig. 12).

"Hausdorff Distance measures the maximum departure between two curves,
thus providing an accuracy metric on the irregularity of the estimated
isolines to the real ones."  Curves are resampled to dense point sets and
the symmetric Hausdorff distance is computed on those.

The point-set kernels are blocked NumPy broadcasts at every size.  NumPy
squares an array (``** 2``) by multiplication, which is correctly
rounded; min and max are exact in any order, and sqrt is monotone and
correctly rounded.  So the kernels match the scalar oracle in
``tests/metrics/hausdorff_reference.py`` bit for bit, which the
differential tests pin.  (A Python float's ``** 2`` goes through C
``pow``, which is not correctly rounded on every libm, so the oracle
multiplies too.)

Empty-input policy: the point-set functions raise ``ValueError`` (an
undefined supremum is a programming error at that layer), and
:func:`isoline_hausdorff` is the *single* place where empty curve
families are absorbed into ``None``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import profiling
from repro.field.base import ScalarField
from repro.field.contours import extract_isolines
from repro.geometry import Vec
from repro.geometry.polyline import resample_polyline_fast

#: Scratch budget for one distance block (~16 MB of float64).
_BLOCK_FLOATS = 1 << 21


def directed_hausdorff(a: Sequence[Vec], b: Sequence[Vec]) -> float:
    """``sup_{p in a} inf_{q in b} |p - q|`` for finite point sets.

    Raises:
        ValueError: when either set is empty (the supremum/infimum would
            be undefined).
    """
    if not len(a) or not len(b):
        raise ValueError("directed Hausdorff distance needs non-empty sets")
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    return math.sqrt(_directed_sq(pa, pb))


def hausdorff_distance(a: Sequence[Vec], b: Sequence[Vec]) -> float:
    """Symmetric Hausdorff distance between two finite point sets.

    Both directed distances come from one blocked distance matrix (row
    minima for ``a -> b``, running column minima for ``b -> a``), so the
    pairwise distances are evaluated once.
    """
    if not len(a) or not len(b):
        raise ValueError("directed Hausdorff distance needs non-empty sets")
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    d_ab, d_ba = _directed_sq_both(pa, pb)
    # sqrt is monotone and correctly rounded, so sqrt(max) == max(sqrt).
    return math.sqrt(max(d_ab, d_ba))


def isoline_hausdorff(
    field: ScalarField,
    level: float,
    estimated_polylines: Sequence[Sequence[Vec]],
    spacing: float = 0.5,
    grid: int = 150,
    normalize: bool = False,
) -> Optional[float]:
    """Hausdorff distance between true and estimated isolines of one level.

    Both curve families are resampled at ``spacing``; the true isolines
    come from marching squares at ``grid x grid`` resolution.

    This is the single empty-handling point of the Hausdorff pipeline:
    it returns ``None`` when either family is empty (no isoline exists at
    that level, or the protocol produced none), so no caller ever sees
    the ``ValueError`` the point-set kernels raise on empty sets --
    callers aggregate over the levels that are comparable.  With
    ``normalize`` the distance is divided by the field diagonal (the
    paper normalises against the 50 x 50 unit field).
    """
    with profiling.stage("hausdorff.truth_isolines"):
        true_lines = extract_isolines(field, level, nx=grid, ny=grid)
    with profiling.stage("hausdorff.resample"):
        true_pts = _sample_all(true_lines, spacing)
        est_pts = _sample_all(estimated_polylines, spacing)
    if not true_pts or not est_pts:
        return None
    with profiling.stage("hausdorff.distance"):
        d = hausdorff_distance(true_pts, est_pts)
    if normalize:
        d /= field.bounds.diagonal
    return d


def mean_isoline_hausdorff(
    field: ScalarField,
    band_map,
    levels: Sequence[float],
    spacing: float = 0.5,
    grid: int = 150,
) -> Optional[float]:
    """Average Hausdorff distance over all comparable levels.

    ``band_map`` must expose ``isolines(level) -> polylines`` (a
    :class:`repro.core.ContourMap` or a baseline map).  Levels where
    either side has no isoline are skipped; returns ``None`` when no level
    is comparable.
    """
    values: List[float] = []
    for v in levels:
        d = isoline_hausdorff(field, v, band_map.isolines(v), spacing, grid)
        if d is not None:
            values.append(d)
    if not values:
        return None
    return sum(values) / len(values)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _directed_sq(pa: np.ndarray, pb: np.ndarray) -> float:
    """Max over ``pa`` of the min squared distance to ``pb``, blocked."""
    bx = pb[:, 0]
    by = pb[:, 1]
    block = max(1, _BLOCK_FLOATS // max(1, len(pb)))
    worst = 0.0
    for lo in range(0, len(pa), block):
        chunk = pa[lo : lo + block]
        d2 = (chunk[:, 0:1] - bx[None, :]) ** 2
        d2 += (chunk[:, 1:2] - by[None, :]) ** 2
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst


def _directed_sq_both(pa: np.ndarray, pb: np.ndarray) -> Tuple[float, float]:
    """(directed a->b, directed b->a) squared, sharing one blocked pass."""
    bx = pb[:, 0]
    by = pb[:, 1]
    block = max(1, _BLOCK_FLOATS // max(1, len(pb)))
    worst_ab = 0.0
    col_min = np.full(len(pb), np.inf)
    for lo in range(0, len(pa), block):
        chunk = pa[lo : lo + block]
        d2 = (chunk[:, 0:1] - bx[None, :]) ** 2
        d2 += (chunk[:, 1:2] - by[None, :]) ** 2
        worst_ab = max(worst_ab, float(d2.min(axis=1).max()))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return worst_ab, float(col_min.max())


def _sample_all(polylines: Sequence[Sequence[Vec]], spacing: float) -> List[Vec]:
    pts: List[Vec] = []
    for line in polylines:
        if len(line) >= 2:
            pts.extend(resample_polyline_fast(list(line), spacing))
        elif len(line):
            pts.append(line[0])
    return pts
