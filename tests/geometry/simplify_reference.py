"""Scalar Douglas-Peucker: the reference for :mod:`repro.geometry.simplify`.

The vectorized simplifier evaluates one span's distances in a NumPy
pass; this is the same recursion with one point-to-segment distance at a
time.  Both evaluate the module's shared formula in the same order, so
their outputs must be bit-identical (``test_simplify.py``), and
``benchmarks/bench_simplify.py`` times the pair.
"""

from typing import List, Sequence, Tuple

from repro.geometry.primitives import Vec
from repro.geometry.simplify import _simplify_ring_with


def _seg_dist_sq(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Squared distance from point ``p`` to segment ``a-b`` (scalar)."""
    dx = bx - ax
    dy = by - ay
    apx = px - ax
    apy = py - ay
    denom = dx * dx + dy * dy
    if denom > 0.0:
        t = (apx * dx + apy * dy) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
    else:
        t = 0.0
    ex = apx - t * dx
    ey = apy - t * dy
    return ex * ex + ey * ey


def simplify_polyline_reference(
    points: Sequence[Vec], tolerance: float
) -> List[Vec]:
    """Scalar Douglas-Peucker with the exact segment-tolerance guarantee."""
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    n = len(points)
    if tolerance == 0.0 or n <= 2:
        return [(p[0], p[1]) for p in points]
    tol_sq = tolerance * tolerance
    keep = [False] * n
    keep[0] = keep[n - 1] = True
    stack: List[Tuple[int, int]] = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        ax, ay = points[i][0], points[i][1]
        bx, by = points[j][0], points[j][1]
        worst = -1.0
        worst_k = -1
        for k in range(i + 1, j):
            d = _seg_dist_sq(points[k][0], points[k][1], ax, ay, bx, by)
            if d > worst:  # strict: first maximum wins, matching argmax
                worst = d
                worst_k = k
        if worst > tol_sq:
            keep[worst_k] = True
            stack.append((i, worst_k))
            stack.append((worst_k, j))
    return [(points[k][0], points[k][1]) for k in range(n) if keep[k]]


def simplify_ring_reference(points: Sequence[Vec], tolerance: float) -> List[Vec]:
    """Scalar ring simplification: the ring split of
    :func:`repro.geometry.simplify.simplify_ring` over the scalar arcs."""
    return _simplify_ring_with(points, tolerance, simplify_polyline_reference)
