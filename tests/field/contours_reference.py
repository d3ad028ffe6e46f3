"""Per-square marching squares: the reference for ``extract_isolines``.

This is isoline extraction as it ran before
:func:`repro.field.contours.extract_isolines` classified every grid cell
in one array pass: a row-major loop that interpolates the crossings of
one 2x2 sample square at a time, with no memoisation.  The two must give
the same segments, float for float and in the same order
(``test_contours_differential.py``); ``benchmarks/bench_sink.py`` times
the pair.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.field.base import ScalarField
from repro.field.contours import chain_segments
from repro.geometry import Vec


def extract_isolines_reference(
    field: ScalarField, level: float, nx: int = 200, ny: int = 200
) -> List[List[Vec]]:
    """Isolines of ``field`` at ``level``, one 2x2 square at a time."""
    grid = field.sample_grid(nx, ny)
    b = field.bounds
    dx = b.width / nx
    dy = b.height / ny
    xs = b.xmin + (np.arange(nx) + 0.5) * dx
    ys = b.ymin + (np.arange(ny) + 0.5) * dy

    segments: List[Tuple[Vec, Vec]] = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            v00 = grid[j, i]
            v10 = grid[j, i + 1]
            v01 = grid[j + 1, i]
            v11 = grid[j + 1, i + 1]
            segments.extend(
                _square_segments(
                    level,
                    (float(xs[i]), float(ys[j])),
                    dx,
                    dy,
                    v00,
                    v10,
                    v01,
                    v11,
                )
            )
    return chain_segments(segments)




def _interp(level: float, pa: Vec, pb: Vec, va: float, vb: float) -> Vec:
    """Point on segment pa-pb where the value linearly crosses ``level``."""
    if va == vb:
        t = 0.5
    else:
        t = (level - va) / (vb - va)
        t = max(0.0, min(1.0, t))
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def _square_segments(
    level: float,
    origin: Vec,
    dx: float,
    dy: float,
    v00: float,
    v10: float,
    v01: float,
    v11: float,
) -> List[Tuple[Vec, Vec]]:
    """Crossing segments inside one 2x2 sample square.

    Corner layout (sample positions)::

        p01 -- p11        top edge:    p01-p11
         |      |          bottom:     p00-p10
        p00 -- p10         left/right: p00-p01 / p10-p11
    """
    x0, y0 = origin
    p00 = (x0, y0)
    p10 = (x0 + dx, y0)
    p01 = (x0, y0 + dy)
    p11 = (x0 + dx, y0 + dy)

    case = 0
    if v00 >= level:
        case |= 1
    if v10 >= level:
        case |= 2
    if v11 >= level:
        case |= 4
    if v01 >= level:
        case |= 8

    if case in (0, 15):
        return []

    bottom = _interp(level, p00, p10, v00, v10)
    right = _interp(level, p10, p11, v10, v11)
    top = _interp(level, p01, p11, v01, v11)
    left = _interp(level, p00, p01, v00, v01)

    table: Dict[int, List[Tuple[Vec, Vec]]] = {
        1: [(left, bottom)],
        2: [(bottom, right)],
        3: [(left, right)],
        4: [(right, top)],
        6: [(bottom, top)],
        7: [(left, top)],
        8: [(top, left)],
        9: [(top, bottom)],
        11: [(top, right)],
        12: [(right, left)],
        13: [(right, bottom)],
        14: [(bottom, left)],
    }
    if case in table:
        return table[case]

    # Saddle cases 5 and 10: disambiguate with the centre average.
    centre = (v00 + v10 + v01 + v11) / 4.0
    if case == 5:
        if centre >= level:
            return [(left, top), (right, bottom)]
        return [(left, bottom), (right, top)]
    # case == 10
    if centre >= level:
        return [(bottom, right), (top, left)]
    return [(bottom, left), (top, right)]
