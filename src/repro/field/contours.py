"""Ground-truth contours: isolevel helpers, band classification, marching squares.

The accuracy metric (Fig. 11) compares a protocol's contour map against the
*true* map of the field, band by band; the Hausdorff metric (Fig. 12)
compares estimated isolines against the *true* isolines.  Both ground
truths come from here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import profiling
from repro.field.base import ScalarField
from repro.geometry import Vec


def isolevels_for(lo: float, hi: float, granularity: float) -> List[float]:
    """The isolevels ``v_i = lo + i * T`` inside ``[lo, hi]`` (Section 3.2).

    Raises:
        ValueError: on non-positive granularity or an empty range.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    if hi < lo:
        raise ValueError("empty data space: hi < lo")
    levels = []
    i = 0
    while True:
        v = lo + i * granularity
        if v > hi + 1e-12:
            break
        levels.append(v)
        i += 1
    return levels


def band_of(value: float, levels: Sequence[float]) -> int:
    """The contour band of ``value``: the number of isolevels it reaches.

    Band 0 is below the lowest isolevel; band ``len(levels)`` is at or
    above the highest.  Contour *regions* in the paper are exactly the
    preimages of these bands.
    """
    band = 0
    for v in levels:
        if value >= v:
            band += 1
        else:
            break
    return band


def classify_raster(
    field: ScalarField, levels: Sequence[float], nx: int, ny: int
) -> np.ndarray:
    """Band index of every cell of an ``nx x ny`` raster of the field.

    Shape ``(ny, nx)``, dtype int -- the ground-truth contour map at raster
    resolution.
    """
    grid = field.sample_grid(nx, ny)
    out = np.zeros(grid.shape, dtype=int)
    for v in sorted(levels):
        out += (grid >= v).astype(int)
    return out


def extract_isolines(
    field: ScalarField, level: float, nx: int = 200, ny: int = 200
) -> List[List[Vec]]:
    """True isolines of ``field`` at ``level`` via marching squares.

    The field is sampled on an ``nx x ny`` grid of cell centres; each 2x2
    sample square contributes 0-2 linearly interpolated crossing segments,
    which are then chained into polylines.  Closed isolines come back as
    closed rings (first point repeated at the end is NOT included; closure
    is implicit); isolines that leave the field come back as open chains.

    The grid cells are classified in one vectorized pass (bit-compatible
    with the scalar per-square loop in ``tests/field/contours_reference.py``)
    and the result is memoised on the field instance -- the evaluation
    pipeline asks for the same ground-truth isolines once per protocol
    under comparison, and fields are immutable by construction.
    """
    cache = field.__dict__.setdefault("_isolines_cache", {})
    key = (float(level), int(nx), int(ny))
    hit = cache.get(key)
    if hit is None:
        grid = field.sample_grid(nx, ny)
        with profiling.stage("contours.marching_squares"):
            segments = _marching_squares_segments(field, grid, level, nx, ny)
        with profiling.stage("contours.chain"):
            hit = chain_segments(segments)
        cache[key] = hit
    return hit


# ----------------------------------------------------------------------
# Marching-squares internals
# ----------------------------------------------------------------------

#: Case -> crossing segments as index pairs into the per-cell edge-point
#: table ``[bottom, right, top, left]``.  Mirrors the per-square case
#: table of the scalar reference exactly (order included); saddles
#: (5, 10) are resolved separately against the centre average.
_CASE_EDGES: Dict[int, Tuple[Tuple[int, int], ...]] = {
    1: ((3, 0),),
    2: ((0, 1),),
    3: ((3, 1),),
    4: ((1, 2),),
    6: ((0, 2),),
    7: ((3, 2),),
    8: ((2, 3),),
    9: ((2, 0),),
    11: ((2, 1),),
    12: ((1, 3),),
    13: ((1, 0),),
    14: ((0, 3),),
}
_SADDLE_EDGES: Dict[Tuple[int, bool], Tuple[Tuple[int, int], ...]] = {
    (5, True): ((3, 2), (1, 0)),
    (5, False): ((3, 0), (1, 2)),
    (10, True): ((0, 1), (2, 3)),
    (10, False): ((0, 3), (2, 1)),
}


def _marching_squares_segments(
    field: ScalarField, grid: np.ndarray, level: float, nx: int, ny: int
) -> List[Tuple[Vec, Vec]]:
    """All crossing segments of the raster, classified in one array pass.

    Produces the identical segment list -- same floats, same order -- as
    the reference's row-major loop over single squares: cells are
    emitted in (j, i) order (``np.nonzero`` is row-major) and the edge
    interpolation repeats the scalar formulas elementwise.
    """
    b = field.bounds
    dx = b.width / nx
    dy = b.height / ny
    xs = b.xmin + (np.arange(nx) + 0.5) * dx
    ys = b.ymin + (np.arange(ny) + 0.5) * dy

    v00 = grid[:-1, :-1]
    v10 = grid[:-1, 1:]
    v01 = grid[1:, :-1]
    v11 = grid[1:, 1:]
    case = (
        (v00 >= level).astype(np.int8)
        | ((v10 >= level).astype(np.int8) << 1)
        | ((v11 >= level).astype(np.int8) << 2)
        | ((v01 >= level).astype(np.int8) << 3)
    )
    jj, ii = np.nonzero((case != 0) & (case != 15))
    if not len(jj):
        return []
    cases = case[jj, ii]
    a00 = v00[jj, ii]
    a10 = v10[jj, ii]
    a01 = v01[jj, ii]
    a11 = v11[jj, ii]
    x0 = xs[ii]
    y0 = ys[jj]
    # Square corners exactly as the scalar code builds them: the far
    # corner is (x0 + dx, y0 + dy) computed from this cell's origin.
    x1 = x0 + dx
    y1 = y0 + dy

    def interp(va, vb):
        same = va == vb
        denom = np.where(same, 1.0, vb - va)
        t = (level - va) / denom
        return np.where(same, 0.5, np.clip(t, 0.0, 1.0))

    tb = interp(a00, a10)  # bottom: p00 -> p10
    tr = interp(a10, a11)  # right:  p10 -> p11
    tt = interp(a01, a11)  # top:    p01 -> p11
    tl = interp(a00, a01)  # left:   p00 -> p01
    # pa + t * (pb - pa), with pb - pa taken on the already-rounded
    # corner coordinates (x1 - x0, not dx) to match the scalar path.
    ex = np.stack(
        [x0 + tb * (x1 - x0), x1 + tr * (x1 - x1), x0 + tt * (x1 - x0), x0 + tl * (x0 - x0)],
        axis=1,
    ).tolist()
    ey = np.stack(
        [y0 + tb * (y0 - y0), y0 + tr * (y1 - y0), y1 + tt * (y1 - y1), y0 + tl * (y1 - y0)],
        axis=1,
    ).tolist()

    saddle = (cases == 5) | (cases == 10)
    centre_hi = np.zeros(len(cases), dtype=bool)
    if saddle.any():
        centre = (a00 + a10 + a01 + a11) / 4.0
        centre_hi = centre >= level

    segments: List[Tuple[Vec, Vec]] = []
    cases_list = cases.tolist()
    hi_list = centre_hi.tolist()
    for k, c in enumerate(cases_list):
        pairs = _CASE_EDGES.get(c)
        if pairs is None:
            pairs = _SADDLE_EDGES[(c, hi_list[k])]
        exk = ex[k]
        eyk = ey[k]
        for ea, eb in pairs:
            segments.append(((exk[ea], eyk[ea]), (exk[eb], eyk[eb])))
    return segments


def chain_segments(
    segments: Sequence[Tuple[Vec, Vec]], tol: float = 1e-9
) -> List[List[Vec]]:
    """Chain point-pair segments into maximal polylines.

    Greedy endpoint matching on a hash of rounded coordinates; each segment
    is used once.  Returns polylines as vertex lists; a closed ring repeats
    no vertex (closure is implicit when the last point equals the first --
    callers can test that).
    """
    if not segments:
        return []

    def key(p: Vec) -> Tuple[int, int]:
        return (int(round(p[0] / max(tol, 1e-12))), int(round(p[1] / max(tol, 1e-12))))

    # endpoint key -> list of (segment index, endpoint selector)
    index: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for k, (a, b) in enumerate(segments):
        index.setdefault(key(a), []).append((k, 0))
        index.setdefault(key(b), []).append((k, 1))

    used = [False] * len(segments)
    polylines: List[List[Vec]] = []

    def take_from(p: Vec) -> Tuple[Vec, Vec] | None:
        """Pop an unused segment incident to ``p``; return it oriented away."""
        for k, end in index.get(key(p), ()):
            if used[k]:
                continue
            used[k] = True
            a, b = segments[k]
            return (a, b) if end == 0 else (b, a)
        return None

    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain: List[Vec] = [a, b]
        # Extend forward.
        while True:
            nxt = take_from(chain[-1])
            if nxt is None:
                break
            chain.append(nxt[1])
        # Extend backward.
        while True:
            prv = take_from(chain[0])
            if prv is None:
                break
            chain.insert(0, prv[1])
        polylines.append(chain)
    return polylines


def total_isoline_length(field: ScalarField, levels: Sequence[float], nx: int = 200, ny: int = 200) -> float:
    """Total length of all true isolines at the given levels.

    Theorem 4.1 bounds the number of isoline nodes by (density x epsilon x
    this length); the scaling benchmark checks that empirically.
    """
    total = 0.0
    for level in levels:
        for line in extract_isolines(field, level, nx, ny):
            total += sum(
                math.hypot(line[i + 1][0] - line[i][0], line[i + 1][1] - line[i][1])
                for i in range(len(line) - 1)
            )
    return total
