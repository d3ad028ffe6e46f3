"""Computational-geometry substrate for the Iso-Map reproduction.

Everything the sink-side contour reconstruction needs is implemented here
from scratch on plain Python floats:

- :mod:`repro.geometry.primitives` -- points, vectors, bounding boxes.
- :mod:`repro.geometry.lines` -- infinite lines, intersections, projections.
- :mod:`repro.geometry.polygon` -- convex polygons with per-edge provenance
  labels and half-plane clipping.
- :mod:`repro.geometry.voronoi` -- bounded Voronoi diagrams with neighbour
  adjacency, built by half-plane intersection.
- :mod:`repro.geometry.intervals` -- 1-D interval arithmetic used to subtract
  shared cell-border portions when merging inner half-cells.
- :mod:`repro.geometry.polyline` -- polyline utilities and loop stitching.

The module deliberately avoids scipy/shapely so that the reconstruction
pipeline is self-contained and its numerical tolerances are under our
control.
"""

from repro.geometry.primitives import (
    EPS,
    BoundingBox,
    Vec,
    add,
    angle_between,
    cross,
    dist,
    dist_sq,
    dot,
    norm,
    normalize,
    perpendicular,
    scale,
    sub,
    unit_from_angle,
)
from repro.geometry.lines import (
    Line,
    line_through,
    line_point_normal,
    intersect_lines,
    project_point,
    point_line_signed_distance,
)
from repro.geometry.polygon import (
    BORDER_LABEL,
    ConvexPolygon,
    HalfPlane,
    polygon_area,
    point_in_convex,
    point_in_polygon,
)
from repro.geometry.voronoi import VoronoiCell, bounded_voronoi
from repro.geometry.intervals import Interval, merge_intervals, subtract_intervals
from repro.geometry.polyline import (
    polyline_length,
    resample_polyline,
    stitch_segments_into_loops,
)
from repro.geometry.simplify import (
    chain_points,
    polyline_deviation,
    simplify_polyline,
    simplify_polyline_reference,
    simplify_ring,
    simplify_ring_reference,
)

__all__ = [
    "EPS",
    "BoundingBox",
    "Vec",
    "add",
    "angle_between",
    "cross",
    "dist",
    "dist_sq",
    "dot",
    "norm",
    "normalize",
    "perpendicular",
    "scale",
    "sub",
    "unit_from_angle",
    "Line",
    "line_through",
    "line_point_normal",
    "intersect_lines",
    "project_point",
    "point_line_signed_distance",
    "BORDER_LABEL",
    "ConvexPolygon",
    "HalfPlane",
    "polygon_area",
    "point_in_convex",
    "point_in_polygon",
    "VoronoiCell",
    "bounded_voronoi",
    "Interval",
    "merge_intervals",
    "subtract_intervals",
    "polyline_length",
    "resample_polyline",
    "stitch_segments_into_loops",
    "chain_points",
    "polyline_deviation",
    "simplify_polyline",
    "simplify_polyline_reference",
    "simplify_ring",
    "simplify_ring_reference",
]
