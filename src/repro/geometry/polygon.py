"""Convex polygons with per-edge provenance labels, and half-plane clipping.

The Iso-Map sink builds each Voronoi cell by clipping the field bounding box
against one bisector half-plane per competing site.  To later tell which cell
edge came from which neighbour (needed for type-2 boundary extraction and for
the Rule-1/Rule-2 regulation), every edge of a :class:`ConvexPolygon` carries
an integer *label*:

- ``label >= 0``   -- the edge lies on the bisector against site ``label``
  (or, after the inner/outer cut, on the cut line when the cut uses its own
  dedicated label);
- ``BORDER_LABEL`` -- the edge lies on the field boundary box.

Clipping is Sutherland–Hodgman restricted to a single half-plane, which for
convex input yields convex output and introduces at most one new edge (the
clip chord), labelled by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geometry.lines import Line
from repro.geometry.primitives import EPS, Vec, cross, dot, sub

#: Edge label for edges lying on the field bounding box.
BORDER_LABEL = -1


@dataclass(frozen=True)
class HalfPlane:
    """The closed half-plane ``{x : normal . x <= offset}``.

    The *inside* is the side the normal points away from.  A Voronoi
    bisector half-plane keeping site ``a`` against site ``b`` is built with
    :meth:`bisector`.
    """

    normal: Vec
    offset: float

    def contains(self, p: Vec, tol: float = EPS) -> bool:
        """Closed-containment test with tolerance."""
        return dot(self.normal, p) <= self.offset + tol

    def signed_violation(self, p: Vec) -> float:
        """How far ``p`` is outside the half-plane (negative = inside)."""
        return dot(self.normal, p) - self.offset

    @staticmethod
    def bisector(keep: Vec, other: Vec) -> "HalfPlane":
        """Half-plane of points at least as close to ``keep`` as to ``other``.

        Raises:
            ValueError: if the two sites coincide (no bisector exists).
        """
        n = sub(other, keep)
        n2 = dot(n, n)
        if n2 < EPS * EPS:
            raise ValueError("cannot build a bisector between coincident sites")
        mid = ((keep[0] + other[0]) / 2.0, (keep[1] + other[1]) / 2.0)
        return HalfPlane(n, dot(n, mid))

    @staticmethod
    def from_line(line: Line, inside_point: Vec) -> "HalfPlane":
        """The half-plane bounded by ``line`` that contains ``inside_point``.

        Used to build the Iso-Map inner half-plane: the cut line through an
        isoposition, keeping the side *opposite* the gradient direction
        (the uphill / inside-the-contour side).
        """
        if line.signed_distance(inside_point) <= 0:
            return HalfPlane(line.normal, line.offset)
        return HalfPlane((-line.normal[0], -line.normal[1]), -line.offset)


class ConvexPolygon:
    """A convex polygon with counter-clockwise vertices and labelled edges.

    ``labels[i]`` describes the edge from ``vertices[i]`` to
    ``vertices[(i + 1) % len]``.  The polygon may be empty (fully clipped
    away); an empty polygon has no vertices and zero area.
    """

    __slots__ = ("vertices", "labels")

    def __init__(self, vertices: Sequence[Vec], labels: Optional[Sequence[int]] = None):
        verts = _dedupe_ring(list(vertices))
        if len(verts) < 3:
            # Degenerate input collapses to the empty polygon.
            self.vertices: List[Vec] = []
            self.labels: List[int] = []
            return
        if labels is None:
            labels = [BORDER_LABEL] * len(vertices)
        if len(labels) != len(vertices):
            raise ValueError("labels must parallel vertices (one per outgoing edge)")
        # Re-run dedupe with labels attached so labels stay aligned.
        verts_l = _dedupe_ring_labeled(list(vertices), list(labels))
        if verts_l is None:
            self.vertices = []
            self.labels = []
            return
        self.vertices, self.labels = verts_l

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_box(xmin: float, ymin: float, xmax: float, ymax: float) -> "ConvexPolygon":
        """The rectangle as a polygon with all edges labelled BORDER."""
        return ConvexPolygon(
            [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)],
            [BORDER_LABEL] * 4,
        )

    @staticmethod
    def empty() -> "ConvexPolygon":
        return ConvexPolygon([])

    # ------------------------------------------------------------------
    # Predicates and measures
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def area(self) -> float:
        """Unsigned area (shoelace; vertices are CCW so the sum is >= 0)."""
        return polygon_area(self.vertices)

    def centroid(self) -> Vec:
        """Area centroid.

        Raises:
            ValueError: on the empty polygon.
        """
        if self.is_empty:
            raise ValueError("empty polygon has no centroid")
        a2 = 0.0
        cx = 0.0
        cy = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            w = x0 * y1 - x1 * y0
            a2 += w
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        if abs(a2) < EPS:
            # Near-degenerate sliver: fall back to the vertex mean.
            return (
                sum(v[0] for v in verts) / n,
                sum(v[1] for v in verts) / n,
            )
        return (cx / (3.0 * a2), cy / (3.0 * a2))

    def contains(self, p: Vec, tol: float = EPS) -> bool:
        """Closed point-in-polygon test (convex: all edges on the left)."""
        return point_in_convex(self.vertices, p, tol)

    def edges(self) -> List[Tuple[Vec, Vec, int]]:
        """All edges as ``(start, end, label)`` triples."""
        verts = self.vertices
        n = len(verts)
        return [(verts[i], verts[(i + 1) % n], self.labels[i]) for i in range(n)]

    def edges_with_label(self, label: int) -> List[Tuple[Vec, Vec]]:
        """Edges whose label equals ``label``."""
        return [(a, b) for a, b, l in self.edges() if l == label]

    def max_vertex_distance(self, p: Vec) -> float:
        """Largest distance from ``p`` to any vertex (cell circumradius).

        Drives the early-exit in the Voronoi construction: a site farther
        than twice this radius cannot cut the current cell.
        """
        if self.is_empty:
            return 0.0
        return max(
            ((v[0] - p[0]) ** 2 + (v[1] - p[1]) ** 2) ** 0.5 for v in self.vertices
        )

    def with_labels(self, labels: Sequence[int]) -> "ConvexPolygon":
        """Copy with the same vertices but new edge labels.

        Bypasses the constructor's ring dedupe (the vertices are already
        a normalised ring), so the geometry is shared verbatim -- the
        incremental reconstruction uses this to renumber retained cells
        after a site-index remap without perturbing a single bit.
        """
        if len(labels) != len(self.labels):
            raise ValueError("labels must parallel the existing edges")
        result = ConvexPolygon.__new__(ConvexPolygon)
        result.vertices = list(self.vertices)
        result.labels = list(labels)
        return result

    # ------------------------------------------------------------------
    # Clipping
    # ------------------------------------------------------------------

    def clip(self, hp: HalfPlane, new_label: int) -> "ConvexPolygon":
        """Intersection of this polygon with ``hp``.

        Any newly created edge (the clip chord) is labelled ``new_label``.
        Edges that survive keep their labels; edges cut in half keep theirs
        on the surviving portion.  Returns the empty polygon when nothing
        survives.
        """
        if self.is_empty:
            return self
        verts = self.vertices
        labels = self.labels
        n = len(verts)
        dists = [hp.signed_violation(v) for v in verts]

        if all(d <= EPS for d in dists):
            return self  # fully inside, untouched
        if all(d >= -EPS for d in dists):
            return ConvexPolygon.empty()  # fully outside

        out_v: List[Vec] = []
        out_l: List[int] = []
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            da, db = dists[i], dists[(i + 1) % n]
            lab = labels[i]
            a_in = da <= EPS
            b_in = db <= EPS
            if a_in:
                out_v.append(a)
                if b_in:
                    out_l.append(lab)
                else:
                    out_l.append(lab)
                    out_v.append(_lerp_crossing(a, b, da, db))
                    out_l.append(new_label)
            elif b_in:
                out_v.append(_lerp_crossing(a, b, da, db))
                out_l.append(lab)
        result = ConvexPolygon.__new__(ConvexPolygon)
        deduped = _dedupe_ring_labeled(out_v, out_l)
        if deduped is None:
            result.vertices = []
            result.labels = []
        else:
            result.vertices, result.labels = deduped
        return result

    def split(self, hp: HalfPlane, new_label: int) -> Tuple["ConvexPolygon", "ConvexPolygon"]:
        """Split into (inside-of-hp, outside-of-hp) parts.

        The Iso-Map inner/outer partition of a Voronoi cell by the type-1
        cut line is exactly this operation: both halves carry the cut chord
        labelled ``new_label``.
        """
        inside = self.clip(hp, new_label)
        flipped = HalfPlane((-hp.normal[0], -hp.normal[1]), -hp.offset)
        outside = self.clip(flipped, new_label)
        return inside, outside

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area():.4g})"


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------


def polygon_area(vertices: Sequence[Vec]) -> float:
    """Unsigned shoelace area of a (not necessarily convex) simple polygon."""
    n = len(vertices)
    if n < 3:
        return 0.0
    a2 = 0.0
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        a2 += x0 * y1 - x1 * y0
    return abs(a2) / 2.0


def point_in_convex(vertices: Sequence[Vec], p: Vec, tol: float = EPS) -> bool:
    """Closed containment in a CCW convex polygon.

    ``p`` is inside iff it lies on the left of (or on) every directed edge.
    The tolerance is an absolute cross-product bound, adequate for the
    O(10)-unit coordinates of the simulation field.
    """
    n = len(vertices)
    if n < 3:
        return False
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if cross(sub(b, a), sub(p, a)) < -tol * max(1.0, abs(p[0]) + abs(p[1])):
            return False
    return True


def point_in_polygon(vertices: Sequence[Vec], p: Vec) -> bool:
    """Even-odd (ray casting) containment test for simple polygons.

    Used for the regulated, possibly non-convex region loops.  Points
    exactly on an edge may land on either side; metric code samples interior
    raster points so this does not matter there.
    """
    n = len(vertices)
    if n < 3:
        return False
    x, y = p
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _lerp_crossing(a: Vec, b: Vec, da: float, db: float) -> Vec:
    """Point on segment ``a-b`` where the signed violation crosses zero."""
    t = da / (da - db)
    t = max(0.0, min(1.0, t))
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _dedupe_ring(verts: List[Vec], tol: float = 1e-9) -> List[Vec]:
    """Remove consecutive (cyclically) duplicate vertices."""
    out: List[Vec] = []
    for v in verts:
        if not out or abs(v[0] - out[-1][0]) > tol or abs(v[1] - out[-1][1]) > tol:
            out.append(v)
    while len(out) >= 2 and abs(out[0][0] - out[-1][0]) <= tol and abs(out[0][1] - out[-1][1]) <= tol:
        out.pop()
    return out


def _dedupe_ring_labeled(
    verts: List[Vec], labels: List[int], tol: float = 1e-9
) -> Optional[Tuple[List[Vec], List[int]]]:
    """Dedupe a labelled ring, keeping labels aligned with surviving edges.

    When vertex ``i+1`` duplicates vertex ``i``, the zero-length edge
    between them (label ``labels[i]``... the *outgoing* edge of the dropped
    vertex) disappears; the surviving vertex keeps its own outgoing label
    only if its edge has positive length.  Concretely we keep the label of
    the *last* occurrence in each duplicate run, since that is the edge that
    actually leaves the merged vertex.
    """
    n = len(verts)
    if n == 0:
        return None
    out_v: List[Vec] = []
    out_l: List[int] = []
    for i in range(n):
        v = verts[i]
        lab = labels[i]
        if out_v and abs(v[0] - out_v[-1][0]) <= tol and abs(v[1] - out_v[-1][1]) <= tol:
            # v duplicates the previous vertex: drop it, but its outgoing
            # edge label supersedes the (zero-length) one recorded before.
            out_l[-1] = lab
            continue
        out_v.append(v)
        out_l.append(lab)
    # Close the ring: last vertex duplicating the first.
    while (
        len(out_v) >= 2
        and abs(out_v[0][0] - out_v[-1][0]) <= tol
        and abs(out_v[0][1] - out_v[-1][1]) <= tol
    ):
        # The last vertex merges into the first: its outgoing edge (to the
        # first vertex) is zero-length and disappears; the first vertex
        # keeps its own outgoing label, so both the vertex and its label
        # are simply dropped.
        out_v.pop()
        out_l.pop()
    if len(out_v) < 3:
        return None
    return out_v, out_l
