"""Scalar Hausdorff evaluation: the reference for :mod:`repro.metrics.hausdorff`.

- :func:`directed_hausdorff_reference` is the nested min/max loop the
  blocked kernel must match bit for bit.  It squares by multiplication,
  as NumPy's ``** 2`` on an array does; a Python float's ``** 2`` goes
  through C ``pow``, which on glibc 2.36 differs from ``x * x`` in the
  last bit for about one double in a thousand.
- :func:`sample_all_reference` resamples a polyline family with the
  scalar arclength walk (``tests/geometry/polyline_reference.py``).

``benchmarks/bench_sink.py`` times both as the ``hausdorff`` and
``fig12_hausdorff_eval`` references.
"""

import math
from typing import List, Sequence

from repro.geometry import Vec
from tests.geometry.polyline_reference import resample_polyline_reference


def directed_hausdorff_reference(a: Sequence[Vec], b: Sequence[Vec]) -> float:
    """``sup_{p in a} inf_{q in b} |p - q|``, one pair at a time.

    Raises:
        ValueError: when either set is empty.
    """
    if not len(a) or not len(b):
        raise ValueError("directed Hausdorff distance needs non-empty sets")
    worst = 0.0
    for p in a:
        best = min(
            (p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])
            for q in b
        )
        if best > worst:
            worst = best
    return math.sqrt(worst)


def sample_all_reference(
    polylines: Sequence[Sequence[Vec]], spacing: float
) -> List[Vec]:
    """Every polyline resampled at ``spacing`` (single points kept as is)."""
    pts: List[Vec] = []
    for line in polylines:
        if len(line) >= 2:
            pts.extend(resample_polyline_reference(list(line), spacing))
        elif len(line):
            pts.append(line[0])
    return pts
