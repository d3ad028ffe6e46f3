"""Sink-side contour-region reconstruction for one isolevel (Section 3.4).

Given the isoline reports of one isolevel, the sink:

1. builds the bounded Voronoi diagram of the isopositions (Fig. 8c);
2. cuts each cell with the *type-1 boundary*: the line through the
   isoposition perpendicular to its gradient direction.  The part of the
   cell in the gradient (descent) direction is the *outer* part, the
   opposite part -- toward higher values -- is the *inner* part (Fig. 8d);
3. merges the inner parts of all cells and complements the boundary with
   *type-2 boundaries* along cell borders where an inner part meets a
   neighbour's outer part;
4. regulates pinnacles and concaves with Rules 1 and 2 (Fig. 8e; see
   :mod:`repro.core.regulation`).

Membership in the merged (pre-regulation) region has a closed form used
by the fast raster metrics: a point belongs to the region iff, for its
*nearest* isoposition ``p`` with direction ``d``, ``(x - p) . d <= 0``.
That is exactly "x falls in the inner part of the Voronoi cell that
contains it"; a property test pins the equivalence to the polygon
pipeline.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import profiling
from repro.core.reports import IsolineReport
from repro.geometry import (
    BORDER_LABEL,
    BoundingBox,
    ConvexPolygon,
    HalfPlane,
    Interval,
    Line,
    Vec,
    bounded_voronoi,
    dist_sq,
    dot,
    normalize,
    subtract_intervals,
)
from repro.geometry.lines import param_on_line
from repro.geometry.polyline import (
    BORDER,
    TYPE1,
    TYPE2,
    BoundarySegment,
    stitch_segments_into_loops,
)
from repro.geometry.voronoi import CellLocality, VoronoiCell, recompute_cell

#: Edge label for the type-1 cut chord inside a Voronoi cell.  Distinct
#: from BORDER_LABEL (-1) and from all site indices (>= 0).
CUT_LABEL = -2

#: Coincident isopositions closer than this are deduplicated before the
#: Voronoi construction (their bisector would be undefined).
DEDUPE_TOL = 1e-6

#: Scratch budget for the blocked raster-membership kernel: the distance
#: matrix of one block holds at most this many float64 values (~8 MB).
_MEMBERSHIP_BLOCK_FLOATS = 1 << 20


@dataclass
class LevelRegion:
    """The reconstructed contour region at (or above) one isolevel.

    Attributes:
        isolevel: the region's isolevel.
        bounds: the field extent.
        reports: the (deduplicated) reports the reconstruction used.
        cells: the Voronoi cells, parallel to ``reports``.
        inner_polys: each cell's inner part, parallel to ``cells``
            (possibly empty polygons).
        loops: merged boundary loops before regulation.
        regulated_loops: boundary loops after Rule-1/Rule-2 regulation.
        regulation_stats: counts of applied rules, for diagnostics.
    """

    isolevel: float
    bounds: BoundingBox
    reports: List[IsolineReport]
    cells: List[VoronoiCell]
    inner_polys: List[ConvexPolygon]
    loops: List[List[BoundarySegment]] = field(default_factory=list)
    regulated_loops: List[List[BoundarySegment]] = field(default_factory=list)
    regulation_stats: Dict[str, int] = field(default_factory=dict)

    # Vectorised report arrays, built lazily for the raster classifier.
    _positions_arr: Optional[np.ndarray] = None
    _directions_arr: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def contains(self, p: Vec) -> bool:
        """Implicit membership: inner side of the nearest report's cut.

        Equivalent to membership in the merged inner parts (the Voronoi
        cell containing ``p`` belongs to the nearest isoposition, and the
        inner half of that cell is where ``(p - site) . d <= 0``).
        """
        if not self.reports:
            return False
        best = min(
            self.reports, key=lambda r: dist_sq(p, r.position)
        )
        dx = p[0] - best.position[0]
        dy = p[1] - best.position[1]
        return dx * best.direction[0] + dy * best.direction[1] <= 0.0

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` for an ``(n, 2)`` array of points.

        Points are processed in blocks so the ``(block, m)`` distance
        matrix stays memory-bounded regardless of the raster size; the
        per-point ``argmin`` (first index on ties, like the scalar
        ``min``) is unaffected by the blocking.
        """
        if not self.reports:
            return np.zeros(len(points), dtype=bool)
        if self._positions_arr is None:
            self._positions_arr = np.array(
                [r.position for r in self.reports], dtype=float
            )
            self._directions_arr = np.array(
                [r.direction for r in self.reports], dtype=float
            )
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        m = len(self._positions_arr)
        out = np.empty(n, dtype=bool)
        # ~8 MB of float64 scratch per block at the default budget.
        block = max(1, _MEMBERSHIP_BLOCK_FLOATS // max(1, m))
        px = self._positions_arr[:, 0]
        py = self._positions_arr[:, 1]
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            chunk = pts[lo:hi]
            # (block, m) squared distances; nearest report per point.
            d2 = (chunk[:, 0:1] - px[None, :]) ** 2
            d2 += (chunk[:, 1:2] - py[None, :]) ** 2
            nearest = d2.argmin(axis=1)
            rel = chunk - self._positions_arr[nearest]
            dirs = self._directions_arr[nearest]
            out[lo:hi] = (rel * dirs).sum(axis=1) <= 0.0
        return out

    # ------------------------------------------------------------------
    # Geometry accessors
    # ------------------------------------------------------------------

    def area(self) -> float:
        """Area of the merged inner parts (pre-regulation)."""
        return sum(poly.area() for poly in self.inner_polys)

    def isoline_polylines(self, regulated: bool = True) -> List[List[Vec]]:
        """The estimated *isolines*: boundary runs excluding field-border
        segments.

        The true isoline never runs along the field border; dropping
        BORDER segments makes the result comparable with marching-squares
        ground truth in the Hausdorff metric (Fig. 12).
        """
        loops = self.regulated_loops if regulated else self.loops
        polylines: List[List[Vec]] = []
        for lp in loops:
            run: List[Vec] = []
            for seg in lp:
                if seg.kind == BORDER:
                    if len(run) >= 2:
                        polylines.append(run)
                    run = []
                else:
                    if not run:
                        run = [seg.a, seg.b]
                    else:
                        run.append(seg.b)
            if len(run) >= 2:
                polylines.append(run)
        return polylines


def build_level_region(
    isolevel: float,
    reports: Sequence[IsolineReport],
    bounds: BoundingBox,
    regulate: bool = True,
) -> LevelRegion:
    """Run the full single-level reconstruction (steps 1-4 above).

    Raises:
        ValueError: when no reports are given (an empty level is handled
            one layer up, by :class:`repro.core.contour_map.ContourMap`).
    """
    with profiling.stage("reconstruction.dedupe"):
        deduped = _dedupe_reports(reports)
    if not deduped:
        raise ValueError("cannot reconstruct a level without reports")
    region, _ = _region_from_deduped(isolevel, deduped, bounds, regulate)
    return region


def _region_from_deduped(
    isolevel: float,
    deduped: List[IsolineReport],
    bounds: BoundingBox,
    regulate: bool,
) -> Tuple[LevelRegion, List[List[BoundarySegment]]]:
    """From-scratch reconstruction of already-deduplicated reports.

    Shared by :func:`build_level_region` and the full-rebuild path of
    :class:`ReconstructionCache`; additionally returns the boundary
    segments grouped per cell, which the cache retains for splicing.
    """
    sites = [r.position for r in deduped]
    with profiling.stage("reconstruction.voronoi"):
        cells = bounded_voronoi(sites, bounds)

    with profiling.stage("reconstruction.inner_cut"):
        inner_polys: List[ConvexPolygon] = []
        for cell, report in zip(cells, deduped):
            inner_polys.append(_inner_part(cell, report))

    with profiling.stage("reconstruction.boundary"):
        cell_segments = _boundary_segments_by_cell(cells, inner_polys, sites)
        loops = stitch_segments_into_loops(
            [s for segs in cell_segments for s in segs]
        )

    region = LevelRegion(
        isolevel=isolevel,
        bounds=bounds,
        reports=deduped,
        cells=cells,
        inner_polys=inner_polys,
        loops=loops,
    )
    return _finish_region(region, regulate), cell_segments


def _finish_region(region: LevelRegion, regulate: bool) -> LevelRegion:
    """Apply (or skip) boundary regulation -- the common assembly tail."""
    if regulate:
        from repro.core.regulation import regulate_loops

        with profiling.stage("reconstruction.regulate"):
            region.regulated_loops, region.regulation_stats = regulate_loops(
                region.loops, region.reports
            )
    else:
        region.regulated_loops = region.loops
        region.regulation_stats = {"rule1": 0, "rule2": 0}
    return region


# ----------------------------------------------------------------------
# Incremental (epoch-delta) reconstruction
# ----------------------------------------------------------------------


@dataclass
class ReconstructionStats:
    """Counters describing how a :class:`ReconstructionCache` ran.

    ``last_*`` fields describe the most recent :meth:`update`; the rest
    accumulate over the cache's lifetime.  A full rebuild counts every
    cell as recomputed.
    """

    epochs: int = 0
    full_rebuilds: int = 0
    incremental_updates: int = 0
    cells_recomputed: int = 0
    cells_retained: int = 0
    last_full_rebuild: bool = False
    last_dirty_fraction: float = 1.0
    last_cells_total: int = 0
    last_cells_recomputed: int = 0
    last_segments_rebuilt: int = 0


class ReconstructionCache:
    """Incremental single-level reconstruction across monitoring epochs.

    The continuous-monitoring sink receives a small *delta* of its report
    cache each epoch (new/changed reports, retractions), yet
    :func:`build_level_region` pays the full Voronoi + boundary cost --
    ~90% of it in the Voronoi construction -- for the mostly-unchanged
    remainder.  This cache exploits Voronoi locality instead: a changed
    site can only perturb cells whose guard neighbourhood it touches
    (:func:`repro.geometry.voronoi.cell_guard_radius`), so each
    :meth:`update`

    1. dedupes the reports and diffs them against the previous epoch by
       source (added / removed / moved / rotated);
    2. marks dirty every cell the changed positions can reach
       (:class:`repro.geometry.voronoi.CellLocality`, an exact per-cell
       test from the last-cutter radius and the final ring) and rebuilds
       only those cells (:func:`repro.geometry.voronoi.recompute_cell`);
    3. retains every other cell and inner part verbatim (renumbering
       edge labels when retractions shift site indices), recomputes the
       type-1 cut only where the gradient direction changed, and splices
       retained boundary segments with freshly extracted ones for the
       dirty cells and their Voronoi neighbours;
    4. restitches loops and re-regulates globally (both are cheap
       relative to the Voronoi stage).

    The result is **bit-identical** to ``build_level_region`` on the same
    reports -- retained geometry is reused object-for-object and dirty
    geometry is recomputed with the exact kernels of the full path, so
    not a single float differs (the differential tests assert exact
    equality across seeded epoch sequences).  When the dirty fraction
    exceeds ``full_rebuild_threshold`` the cache falls back to the full
    path, which is faster than splicing a mostly-dirty map.

    Not thread-safe; one cache serves one isolevel.
    """

    def __init__(
        self,
        isolevel: float,
        bounds: BoundingBox,
        regulate: bool = True,
        full_rebuild_threshold: float = 0.35,
    ):
        if not 0.0 <= full_rebuild_threshold <= 1.0:
            raise ValueError("full_rebuild_threshold must be within [0, 1]")
        self.isolevel = isolevel
        self.bounds = bounds
        self.regulate = regulate
        self.full_rebuild_threshold = full_rebuild_threshold
        self.stats = ReconstructionStats()
        self._region: Optional[LevelRegion] = None
        self._index_of: Dict[int, int] = {}
        self._cell_segments: List[List[BoundarySegment]] = []
        self._locality: Optional[CellLocality] = None

    @property
    def region(self) -> Optional[LevelRegion]:
        """The retained region of the last :meth:`update` (None initially)."""
        return self._region

    def reset(self) -> None:
        """Drop all retained state; the next :meth:`update` rebuilds fully."""
        self._region = None
        self._index_of = {}
        self._cell_segments = []
        self._locality = None

    def update(self, reports: Sequence[IsolineReport]) -> LevelRegion:
        """Reconstruct this level's region for the epoch's report set.

        ``reports`` is the *complete* current report set (the sink cache
        for this isolevel), not the delta -- the cache derives the delta
        itself by source id, which keeps it correct even when callers
        and dedupe disagree about which duplicate report survives.

        Raises:
            ValueError: when ``reports`` is empty (an empty level is
                handled one layer up; see :func:`build_level_region`).
        """
        self.stats.epochs += 1
        with profiling.stage("reconstruction.dedupe"):
            deduped = _dedupe_reports(reports)
        if not deduped:
            raise ValueError("cannot reconstruct a level without reports")
        if self._region is None:
            return self._install_full(deduped)

        prev = self._region
        old_reports = prev.reports
        old_index = self._index_of
        m_new = len(deduped)

        with profiling.stage("reconstruction.delta.diff"):
            new_index = {r.source: k for k, r in enumerate(deduped)}
            recompute: Set[int] = set()  # new indices needing a fresh cell
            cut_dirty: Set[int] = set()  # retained cells, changed cut line
            remap: Dict[int, int] = {}  # old -> new index, stable positions
            added_pts: List[Vec] = []
            removed_pts: List[Vec] = []
            for k, r in enumerate(deduped):
                ok = old_index.get(r.source)
                if ok is None:
                    recompute.add(k)
                    added_pts.append(r.position)
                    continue
                old_r = old_reports[ok]
                if old_r.position != r.position:
                    recompute.add(k)
                    removed_pts.append(old_r.position)
                    added_pts.append(r.position)
                else:
                    remap[ok] = k
                    if old_r.direction != r.direction:
                        cut_dirty.add(k)
            for source, ok in old_index.items():
                if source not in new_index:
                    removed_pts.append(old_reports[ok].position)

        with profiling.stage("reconstruction.delta.locality"):
            # A position-stable survivor keeps its cell only when the
            # exact locality test clears it against every changed point.
            old_of_new: Dict[int, int] = {}
            if remap:
                affected = self._locality.affected(added_pts, removed_pts)
                for ok, k in remap.items():
                    if affected[ok]:
                        recompute.add(k)
                    else:
                        old_of_new[k] = ok

        dirty_fraction = len(recompute) / m_new
        if dirty_fraction > self.full_rebuild_threshold:
            return self._install_full(deduped, dirty_fraction=dirty_fraction)

        # Retained labels reference position-stable survivors only (any
        # neighbour that changed would have dirtied the cell), so `remap`
        # covers them; when no retraction shifted indices the remap is
        # the identity and retained objects are reused without copying.
        identity = all(ok == k for ok, k in remap.items())
        sites = [r.position for r in deduped]
        arr = np.asarray(sites, dtype=float)
        xs = arr[:, 0]
        ys = arr[:, 1]
        old_cells = prev.cells

        with profiling.stage("reconstruction.delta.cells"):
            cells: List[VoronoiCell] = []
            for k, r in enumerate(deduped):
                ok = old_of_new.get(k)
                if ok is None:
                    cells.append(
                        recompute_cell(k, r.position, xs, ys, self.bounds)
                    )
                elif identity:
                    cells.append(old_cells[ok])
                else:
                    oc = old_cells[ok]
                    labels = [
                        remap[lab] if lab >= 0 else lab
                        for lab in oc.polygon.labels
                    ]
                    cells.append(
                        VoronoiCell(
                            k,
                            oc.site,
                            oc.polygon.with_labels(labels),
                            {remap[j] for j in oc.neighbors},
                        )
                    )

        with profiling.stage("reconstruction.delta.inner"):
            old_inner = prev.inner_polys
            inner_polys: List[ConvexPolygon] = []
            for k, r in enumerate(deduped):
                ok = old_of_new.get(k)
                if ok is None or k in cut_dirty:
                    inner_polys.append(_inner_part(cells[k], r))
                elif identity:
                    inner_polys.append(old_inner[ok])
                else:
                    op = old_inner[ok]
                    labels = [
                        remap[lab] if lab >= 0 else lab for lab in op.labels
                    ]
                    inner_polys.append(op.with_labels(labels))

        with profiling.stage("reconstruction.delta.boundary"):
            # A cell's segments depend on its own inner part and its
            # neighbours' (twin-edge interval subtraction), so the dirty
            # set for segments is the inner-dirty cells plus neighbours.
            inner_dirty = recompute | cut_dirty
            seg_dirty = set(inner_dirty)
            for k in inner_dirty:
                seg_dirty.update(cells[k].neighbors)
            by_site = {c.site_index: k for k, c in enumerate(cells)}
            edge_index: _EdgeIndex = [None] * m_new
            cell_segments: List[List[BoundarySegment]] = []
            rebuilt = 0
            for k in range(m_new):
                ok = old_of_new.get(k)
                if ok is None or k in seg_dirty:
                    rebuilt += 1
                    segs = _cell_boundary_segments(
                        k, cells, inner_polys, sites, by_site, edge_index
                    )
                elif identity:
                    segs = self._cell_segments[ok]
                else:
                    segs = [
                        BoundarySegment(
                            s.a,
                            s.b,
                            s.kind,
                            cell=remap[s.cell],
                            other=remap[s.other] if s.other >= 0 else s.other,
                        )
                        for s in self._cell_segments[ok]
                    ]
                cell_segments.append(segs)

        with profiling.stage("reconstruction.delta.stitch"):
            loops = stitch_segments_into_loops(
                [s for segs in cell_segments for s in segs]
            )

        region = LevelRegion(
            isolevel=self.isolevel,
            bounds=self.bounds,
            reports=deduped,
            cells=cells,
            inner_polys=inner_polys,
            loops=loops,
        )
        region = _finish_region(region, self.regulate)

        with profiling.stage("reconstruction.delta.locality_table"):
            locality = CellLocality.splice(self._locality, old_of_new, cells, arr)

        self._region = region
        self._index_of = new_index
        self._cell_segments = cell_segments
        self._locality = locality

        st = self.stats
        st.incremental_updates += 1
        st.last_full_rebuild = False
        st.last_dirty_fraction = dirty_fraction
        st.last_cells_total = m_new
        st.last_cells_recomputed = len(recompute)
        st.last_segments_rebuilt = rebuilt
        st.cells_recomputed += len(recompute)
        st.cells_retained += m_new - len(recompute)
        return region

    def _install_full(
        self, deduped: List[IsolineReport], dirty_fraction: float = 1.0
    ) -> LevelRegion:
        """From-scratch build; retains everything the delta path needs."""
        region, cell_segments = _region_from_deduped(
            self.isolevel, deduped, self.bounds, self.regulate
        )
        self._region = region
        self._index_of = {r.source: k for k, r in enumerate(deduped)}
        self._cell_segments = cell_segments
        with profiling.stage("reconstruction.delta.locality_table"):
            self._locality = CellLocality.from_cells(
                region.cells,
                np.asarray([r.position for r in deduped], dtype=float),
            )
        st = self.stats
        m = len(region.cells)
        st.full_rebuilds += 1
        st.last_full_rebuild = True
        st.last_dirty_fraction = dirty_fraction
        st.last_cells_total = m
        st.last_cells_recomputed = m
        st.last_segments_rebuilt = m
        st.cells_recomputed += m
        return region


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _dedupe_reports(reports: Sequence[IsolineReport]) -> List[IsolineReport]:
    """Drop reports whose position coincides with an earlier one.

    Spatial-hash pass: kept positions are bucketed on a DEDUPE_TOL-sized
    grid, so each report only compares against kept reports in its 3x3
    bucket neighbourhood (any position within DEDUPE_TOL is at most one
    bucket away).  First-report-wins order is identical to the pairwise
    scan in ``tests/core/reconstruction_reference.py``, which the tests
    pin; expected cost is O(k) instead of O(k^2).
    """
    kept: List[IsolineReport] = []
    buckets: Dict[Tuple[int, int], List[Vec]] = {}
    inv = 1.0 / DEDUPE_TOL
    tol_sq = DEDUPE_TOL**2
    for r in reports:
        x, y = r.position
        bx = math.floor(x * inv)
        by = math.floor(y * inv)
        coincides = False
        for kx in (bx - 1, bx, bx + 1):
            for ky in (by - 1, by, by + 1):
                for pos in buckets.get((kx, ky), ()):
                    if dist_sq(r.position, pos) <= tol_sq:
                        coincides = True
                        break
                if coincides:
                    break
            if coincides:
                break
        if not coincides:
            kept.append(r)
            buckets.setdefault((bx, by), []).append(r.position)
    return kept


def _inner_part(cell: VoronoiCell, report: IsolineReport) -> ConvexPolygon:
    """The inner half of a cell: the side *against* the descent direction.

    The separating line passes through the isoposition perpendicular to
    the gradient direction ``d``; "the part in the gradient direction is
    the outer part" (Section 3.4), so the inner part satisfies
    ``(x - p) . d <= 0``.
    """
    d = normalize(report.direction)
    hp = HalfPlane(d, dot(d, report.position))
    return cell.polygon.clip(hp, CUT_LABEL)


#: Lazily-built per-inner-polygon edge index: ``label -> twin edges``.
_EdgeIndex = List[Optional[Dict[int, List[Tuple[Vec, Vec]]]]]


def _boundary_segments_by_cell(
    cells: List[VoronoiCell],
    inner_polys: List[ConvexPolygon],
    sites: List[Vec],
) -> List[List[BoundarySegment]]:
    """Extract the merged region's boundary from the per-cell inner parts,
    grouped per cell.

    - Cut-chord edges are type-1 boundary, always.
    - Field-border edges of inner parts are boundary (of kind BORDER).
    - A shared Voronoi edge contributes the portions covered by exactly
      one of the two adjacent inner parts (symmetric difference), found by
      1-D interval subtraction along the bisector line; these are type-2.

    Each inner part's edges are indexed by label once (lazily), so every
    type-2 edge finds its twin edges in one dict lookup instead of
    rescanning the neighbour's whole edge list -- O(edges) overall where
    the rescanning reference in ``tests/core/reconstruction_reference.py``
    is O(edges * degree).  Hole order within a label follows ``edges()``
    order either way, so the interval subtraction (and hence the output)
    is bit-identical.  Flattening in cell order gives the reference's
    segment list; the grouping exists so :class:`ReconstructionCache`
    can retain and splice clean cells' segments across epochs.
    """
    by_site = {c.site_index: k for k, c in enumerate(cells)}
    edge_index: _EdgeIndex = [None] * len(inner_polys)
    return [
        _cell_boundary_segments(k, cells, inner_polys, sites, by_site, edge_index)
        for k in range(len(cells))
    ]


def _twin_edges(
    inner_polys: List[ConvexPolygon],
    edge_index: _EdgeIndex,
    poly_k: int,
    label: int,
) -> List[Tuple[Vec, Vec]]:
    index = edge_index[poly_k]
    if index is None:
        index = {}
        for c, d, lab in inner_polys[poly_k].edges():
            index.setdefault(lab, []).append((c, d))
        edge_index[poly_k] = index
    return index.get(label, [])


def _cell_boundary_segments(
    k: int,
    cells: List[VoronoiCell],
    inner_polys: List[ConvexPolygon],
    sites: List[Vec],
    by_site: Dict[int, int],
    edge_index: _EdgeIndex,
) -> List[BoundarySegment]:
    """Boundary segments contributed by cell ``k`` alone."""
    cell = cells[k]
    inner = inner_polys[k]
    segments: List[BoundarySegment] = []
    if inner.is_empty:
        return segments
    i = cell.site_index
    for a, b, label in inner.edges():
        if label == CUT_LABEL:
            segments.append(BoundarySegment(a, b, TYPE1, cell=i))
        elif label == BORDER_LABEL:
            segments.append(BoundarySegment(a, b, BORDER, cell=i))
        else:
            j = label
            bisector = _bisector_line(sites[i], sites[j])
            ta = param_on_line(bisector, a)
            tb = param_on_line(bisector, b)
            holes = [
                Interval(param_on_line(bisector, c), param_on_line(bisector, d))
                for (c, d) in _twin_edges(inner_polys, edge_index, by_site[j], i)
            ]
            remaining = subtract_intervals(Interval(ta, tb), holes)
            for iv in remaining:
                segments.append(
                    BoundarySegment(
                        _point_at_param(bisector, iv.lo),
                        _point_at_param(bisector, iv.hi),
                        TYPE2,
                        cell=i,
                        other=j,
                    )
                )
    return segments


def _bisector_line(a: Vec, b: Vec) -> Line:
    """The perpendicular bisector of two sites, with a *unit* normal.

    :class:`Line` parameterisation (``point_on``, ``param_on_line``)
    requires a unit normal; ``HalfPlane.bisector`` deliberately keeps the
    raw difference vector (it only needs the sign of the dot product), so
    it cannot be reused here.
    """
    n = normalize((b[0] - a[0], b[1] - a[1]))
    mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    return Line(n, dot(n, mid))


def _point_at_param(line: Line, t: float) -> Vec:
    """Inverse of :func:`param_on_line` for points on ``line``."""
    origin = line.point_on()
    t0 = param_on_line(line, origin)
    direction = line.direction()
    return (
        origin[0] + (t - t0) * direction[0],
        origin[1] + (t - t0) * direction[1],
    )
