"""Tolerance-bounded isoline simplification (minimum-link style).

Reconstructed isolines are *dense* polylines -- one vertex per boundary
segment the merge step produced -- so shipping them (the serving
layer's wire payloads) costs an order of magnitude more bytes than the
geometry requires.  This
module implements the ROADMAP's "minimum-link isoline simplification"
stage, grounded in *Scalable Isocontour Visualization in Road Networks
via Minimum-Link Paths* (arXiv:1602.01777): a Douglas-Peucker-style
link minimiser with an **exact per-segment tolerance guarantee** --

    every dropped vertex lies within ``tolerance`` of the retained
    segment that spans it (point-to-*segment* distance, not distance to
    the infinite chord line),

which bounds the symmetric Hausdorff distance between the original and
the simplified curve by ``tolerance`` (each original segment has both
endpoints within ``tolerance`` of one *convex* retained segment, so the
whole original curve stays inside the tolerance tube; retained vertices
are a subset of the original, so the reverse direction is immediate).

Kernel pairing: the scalar reference in
``tests/geometry/simplify_reference.py`` evaluates the *same*
floating-point formula as :func:`simplify_polyline`, in the same order,
so their outputs are **bit-identical** -- pinned by the differential
tests in ``tests/geometry/test_simplify.py`` and re-verified by
``benchmarks/bench_simplify.py``.

Closed rings (:func:`simplify_ring`) are split at two anchor vertices
(the first vertex and the vertex farthest from it), each arc simplified
independently, and rejoined -- orientation and the starting vertex are
preserved, and the per-arc guarantee carries over to the ring.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import Vec

__all__ = [
    "simplify_polyline",
    "simplify_ring",
    "polyline_deviation",
    "chain_points",
]


# ----------------------------------------------------------------------
# Shared distance formula (the pairing contract)
# ----------------------------------------------------------------------
#
# The kernel and its scalar reference MUST evaluate exactly this
# expression, in this order, on IEEE-754 doubles:
# t = clamp(((p-a).(b-a)) / |b-a|^2), e = (p-a) - t*(b-a), d^2 = e.e.
# NumPy float64 and Python floats share rounding for +,-,*,/, so
# elementwise evaluation of the same expression is bitwise equal.


def _span_dist_sq(pts: np.ndarray, i: int, j: int) -> np.ndarray:
    """Squared distances of vertices ``i+1 .. j-1`` to segment ``i-j``.

    The shared formula above, evaluated elementwise over one span.
    """
    ax, ay = pts[i, 0], pts[i, 1]
    dx = pts[j, 0] - ax
    dy = pts[j, 1] - ay
    apx = pts[i + 1 : j, 0] - ax
    apy = pts[i + 1 : j, 1] - ay
    denom = dx * dx + dy * dy
    if denom > 0.0:
        t = (apx * dx + apy * dy) / denom
        np.clip(t, 0.0, 1.0, out=t)
    else:
        t = np.zeros(j - i - 1)
    ex = apx - t * dx
    ey = apy - t * dy
    return ex * ex + ey * ey


# ----------------------------------------------------------------------
# Open polylines
# ----------------------------------------------------------------------


def simplify_polyline(points: Sequence[Vec], tolerance: float) -> List[Vec]:
    """Douglas-Peucker with the exact segment-tolerance guarantee.

    Endpoints are always kept; with ``tolerance == 0`` the input is
    returned unchanged (the tolerance-0 identity the serving
    differentials lean on), and a negative tolerance raises
    ``ValueError``.  Distances for a whole span are evaluated in
    one NumPy pass with the shared formula, and ``argmax`` picks the
    first maximum, exactly as the scalar reference's strict comparison
    does.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    n = len(points)
    if tolerance == 0.0 or n <= 2:
        return [(p[0], p[1]) for p in points]
    pts = np.asarray(points, dtype=float)
    tol_sq = tolerance * tolerance
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True
    stack: List[Tuple[int, int]] = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        d = _span_dist_sq(pts, i, j)
        k = int(np.argmax(d))  # first maximum, like the scalar strict >
        if float(d[k]) > tol_sq:
            worst_k = i + 1 + k
            keep[worst_k] = True
            stack.append((i, worst_k))
            stack.append((worst_k, j))
    return [(points[k][0], points[k][1]) for k in np.nonzero(keep)[0]]


def polyline_deviation(
    original: Sequence[Vec], simplified: Sequence[Vec]
) -> float:
    """Max distance from ``original``'s vertices to the simplified curve.

    The quantity the simplifier guarantees to keep ``<= tolerance``
    (and, by the convexity argument in the module docstring, a bound on
    the symmetric Hausdorff distance between the two curves).  Used by
    the property tests and the fidelity sweeps.
    """
    if len(simplified) == 0:
        raise ValueError("simplified polyline is empty")
    if len(simplified) == 1:
        sx, sy = simplified[0]
        return float(
            max(
                np.hypot(p[0] - sx, p[1] - sy)
                for p in original
            )
        )
    pts = np.asarray(original, dtype=float)
    seg = np.asarray(simplified, dtype=float)
    a = seg[:-1]
    b = seg[1:]
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    denom = dx * dx + dy * dy
    denom_safe = np.where(denom > 0.0, denom, 1.0)
    worst = 0.0
    for px, py in pts:
        apx = px - a[:, 0]
        apy = py - a[:, 1]
        t = np.clip((apx * dx + apy * dy) / denom_safe, 0.0, 1.0)
        t = np.where(denom > 0.0, t, 0.0)
        ex = apx - t * dx
        ey = apy - t * dy
        best = float(np.min(ex * ex + ey * ey))
        if best > worst:
            worst = best
    return float(np.sqrt(worst))


# ----------------------------------------------------------------------
# Closed rings
# ----------------------------------------------------------------------


def _ring_anchors(points: Sequence[Vec]) -> int:
    """The second anchor: index of the vertex farthest from vertex 0.

    First maximum wins (strict comparison), so both ring kernels split
    at the identical vertex.
    """
    x0, y0 = points[0][0], points[0][1]
    worst = -1.0
    worst_k = 0
    for k in range(1, len(points)):
        dx = points[k][0] - x0
        dy = points[k][1] - y0
        d = dx * dx + dy * dy
        if d > worst:
            worst = d
            worst_k = k
    return worst_k


def _simplify_ring_with(
    points: Sequence[Vec],
    tolerance: float,
    open_simplify: Callable[[Sequence[Vec], float], List[Vec]],
) -> List[Vec]:
    """Shared ring logic: split at anchors, simplify both arcs, rejoin."""
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    pts = [(p[0], p[1]) for p in points]
    n = len(pts)
    if tolerance == 0.0 or n <= 4:
        return pts
    split = _ring_anchors(pts)
    if split == 0:  # all vertices coincide with vertex 0
        return pts
    arc1 = open_simplify(pts[: split + 1], tolerance)
    arc2 = open_simplify(pts[split:] + pts[:1], tolerance)
    out = arc1[:-1] + arc2[:-1]
    if len(out) < 3:
        # Degenerate collapse (a ring needs at least a triangle): the
        # topology-safe answer is the original ring.
        return pts
    return out


def simplify_ring(points: Sequence[Vec], tolerance: float) -> List[Vec]:
    """Ring simplification (ring = vertex list, closed implicitly).

    The starting vertex, vertex order and orientation (signed area sign)
    are preserved; the per-arc tolerance guarantee carries over to the
    ring because every dropped vertex belongs to exactly one arc.
    """
    return _simplify_ring_with(points, tolerance, simplify_polyline)


# ----------------------------------------------------------------------
# Point chaining (for unordered isoline samples, e.g. wire records)
# ----------------------------------------------------------------------


def chain_points(
    points: Sequence[Vec],
    max_gap: Optional[float] = None,
    gap_factor: float = 3.0,
) -> List[Tuple[List[int], bool]]:
    """Order an unordered isoline point sample into polyline chains.

    Greedy deterministic nearest-neighbour chaining: starting from the
    lowest-index unvisited point, the chain is extended from its tail
    (then from its head) to the nearest unvisited point within
    ``max_gap``; ties break on the lower index.  Returns
    ``(indices, is_ring)`` per chain, where ``is_ring`` is True when the
    chain's endpoints are themselves within ``max_gap``.

    ``max_gap`` defaults to ``gap_factor`` (3x) the median
    nearest-neighbour distance -- a deterministic, data-derived cutoff
    that connects points along one isoline branch without jumping across
    to another.  Callers chaining for *record selection* rather than
    display can pass a larger ``gap_factor``: longer chains expose more
    interior points to simplification (chain endpoints are always kept),
    and a mis-bridge cannot break the tolerance guarantee because every
    dropped point is bounded against the retained span of its own chain.
    """
    n = len(points)
    if n == 0:
        return []
    if n == 1:
        return [([0], False)]
    pts = np.asarray(points, dtype=float)
    # Dense pairwise distances; isoline samples per level are small
    # (hundreds), so the O(n^2) matrix is cheap and deterministic.
    d2 = (pts[:, 0:1] - pts[None, :, 0]) ** 2 + (pts[:, 1:2] - pts[None, :, 1]) ** 2
    np.fill_diagonal(d2, np.inf)
    if max_gap is None:
        nn = np.sqrt(d2.min(axis=1))
        max_gap = gap_factor * float(np.median(nn))
    gap_sq = max_gap * max_gap

    visited = np.zeros(n, dtype=bool)
    chains: List[Tuple[List[int], bool]] = []
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        chain = [start]
        for grow_head in (False, True):
            while True:
                tip = chain[0] if grow_head else chain[-1]
                row = np.where(visited, np.inf, d2[tip])
                k = int(np.argmin(row))  # first minimum: lowest index wins ties
                if not np.isfinite(row[k]) or row[k] > gap_sq:
                    break
                visited[k] = True
                if grow_head:
                    chain.insert(0, k)
                else:
                    chain.append(k)
        is_ring = (
            len(chain) >= 3
            and float(d2[chain[0], chain[-1]]) <= gap_sq
        )
        chains.append((chain, is_ring))
    return chains
