"""Scalar sink reconstruction: the reference for ``build_level_region``.

This is one level's reconstruction composed of the scalar kernels the
fast pipeline replaced: the all-pairs report dedupe, the per-site-sorted
Voronoi (``bounded_voronoi_reference``, which :mod:`repro.geometry.voronoi`
still runs for small diagrams) and the boundary extraction that rescans
each neighbour's edges.  Regions must come out bit-identical
(``test_reconstruction_differential.py``); ``benchmarks/bench_sink.py``
times the dedupe and the whole build.  :func:`assert_regions_identical`
is the one exact comparison the tests and benches apply to regions.
"""

from typing import List, Sequence, Tuple

from repro.core.reconstruction import (
    CUT_LABEL,
    DEDUPE_TOL,
    LevelRegion,
    _bisector_line,
    _finish_region,
    _inner_part,
    _point_at_param,
)
from repro.core.reports import IsolineReport
from repro.geometry import (
    BORDER_LABEL,
    BoundingBox,
    ConvexPolygon,
    Interval,
    Line,
    Vec,
    dist_sq,
    subtract_intervals,
)
from repro.geometry.lines import param_on_line
from repro.geometry.polyline import (
    TYPE1,
    TYPE2,
    BORDER,
    BoundarySegment,
    stitch_segments_into_loops,
)
from repro.geometry.voronoi import VoronoiCell, bounded_voronoi_reference


def build_level_region_reference(
    isolevel: float,
    reports: Sequence[IsolineReport],
    bounds: BoundingBox,
    regulate: bool = True,
) -> LevelRegion:
    """One level's region, built from the scalar kernels end to end."""
    deduped = dedupe_reports_reference(reports)
    if not deduped:
        raise ValueError("cannot reconstruct a level without reports")

    sites = [r.position for r in deduped]
    cells = bounded_voronoi_reference(sites, bounds)

    inner_polys = [_inner_part(c, r) for c, r in zip(cells, deduped)]
    segments = boundary_segments_reference(cells, inner_polys, sites)
    loops = stitch_segments_into_loops(segments)

    region = LevelRegion(
        isolevel=isolevel,
        bounds=bounds,
        reports=deduped,
        cells=cells,
        inner_polys=inner_polys,
        loops=loops,
    )
    return _finish_region(region, regulate)


def dedupe_reports_reference(
    reports: Sequence[IsolineReport],
) -> List[IsolineReport]:
    """Drop reports coinciding with an earlier kept one (all-pairs scan)."""
    kept: List[IsolineReport] = []
    for r in reports:
        if all(dist_sq(r.position, k.position) > DEDUPE_TOL**2 for k in kept):
            kept.append(r)
    return kept


def boundary_segments_reference(
    cells: List[VoronoiCell],
    inner_polys: List[ConvexPolygon],
    sites: List[Vec],
) -> List[BoundarySegment]:
    """The merged region's boundary, rescanning each neighbour's inner
    part for the twin edges of every shared Voronoi edge."""
    by_site = {c.site_index: k for k, c in enumerate(cells)}
    segments: List[BoundarySegment] = []

    for k, (cell, inner) in enumerate(zip(cells, inner_polys)):
        if inner.is_empty:
            continue
        i = cell.site_index
        for a, b, label in inner.edges():
            if label == CUT_LABEL:
                segments.append(BoundarySegment(a, b, TYPE1, cell=i))
            elif label == BORDER_LABEL:
                segments.append(BoundarySegment(a, b, BORDER, cell=i))
            else:
                j = label
                neighbor_inner = inner_polys[by_site[j]]
                bisector = _bisector_line(sites[i], sites[j])
                uncovered = _uncovered_portions(bisector, (a, b), neighbor_inner, j, i)
                for (pa, pb) in uncovered:
                    segments.append(
                        BoundarySegment(pa, pb, TYPE2, cell=i, other=j)
                    )
    return segments


def _uncovered_portions(
    bisector: Line,
    edge: Tuple[Vec, Vec],
    neighbor_inner: ConvexPolygon,
    neighbor_site: int,
    my_site: int,
) -> List[Tuple[Vec, Vec]]:
    """Portions of ``edge`` (on ``bisector``) not covered by the neighbour's
    inner part's twin edges."""
    a, b = edge
    ta = param_on_line(bisector, a)
    tb = param_on_line(bisector, b)
    base = Interval(ta, tb)
    holes: List[Interval] = []
    if not neighbor_inner.is_empty:
        for (c, d, label) in neighbor_inner.edges():
            if label == my_site:
                holes.append(
                    Interval(param_on_line(bisector, c), param_on_line(bisector, d))
                )
    remaining = subtract_intervals(base, holes)
    return [
        (_point_at_param(bisector, iv.lo), _point_at_param(bisector, iv.hi))
        for iv in remaining
    ]


def assert_cells_identical(got: List[VoronoiCell], want: List[VoronoiCell]) -> None:
    """Every cell's site, vertices, edge labels and neighbours match."""
    assert len(got) == len(want)
    for cg, cw in zip(got, want):
        assert cg.site_index == cw.site_index
        assert cg.site == cw.site
        assert cg.polygon.vertices == cw.polygon.vertices
        assert cg.polygon.labels == cw.polygon.labels
        assert cg.neighbors == cw.neighbors


def assert_regions_identical(got: LevelRegion, want: LevelRegion) -> None:
    """Every float, label and index of two regions match (no tolerance)."""
    assert got.isolevel == want.isolevel
    assert got.reports == want.reports
    assert_cells_identical(got.cells, want.cells)
    assert [(p.vertices, p.labels) for p in got.inner_polys] == [
        (p.vertices, p.labels) for p in want.inner_polys
    ]
    assert got.loops == want.loops
    assert got.regulated_loops == want.regulated_loops
    assert got.regulation_stats == want.regulation_stats
