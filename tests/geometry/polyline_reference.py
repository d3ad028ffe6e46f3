"""The scalar arclength walk: the reference for ``resample_polyline_fast``.

This is resampling as it ran before :mod:`repro.geometry.polyline` took
one cumulative-sum pass: a walk over the segments that carries the
arclength of each segment's start and emits every global sample
``k * spacing`` the segment covers.  The two are tolerance-compatible,
not bit-identical; the deviation contract is on
:func:`repro.geometry.polyline.resample_polyline_fast` and
``test_polyline_resample_contract.py`` bounds it.
"""

from typing import List, Sequence

from repro.geometry.primitives import Vec, dist


def resample_polyline_reference(points: Sequence[Vec], spacing: float) -> List[Vec]:
    """Points along the polyline at global arclengths ``k * spacing``,
    plus the first and last input points."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if len(points) == 0:
        return []
    if len(points) == 1:
        return [points[0]]
    out: List[Vec] = [points[0]]
    cum = 0.0  # arclength at the current segment's start
    k = 1  # next global sample index; target arclength is k * spacing
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
        seg_len = dist(a, b)
        if seg_len <= 0:
            continue
        end = cum + seg_len
        s = k * spacing
        while s <= end:
            f = (s - cum) / seg_len
            out.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
            k += 1
            s = k * spacing
        cum = end
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out
