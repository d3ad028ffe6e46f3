"""BFS spanning tree rooted at the sink.

The paper assumes the tree-based routing of TAG/TinyDB (Section 3.1): each
node gets a level equal to its hop count from the sink and forwards through
a parent one level below.  Among the candidate parents (neighbours at
``level - 1``) we pick the geographically closest to the sink, a stand-in
for the link-quality-based parent selection of [13]/[26] that keeps the
construction deterministic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry import Vec, dist
from repro.network.topology import CsrAdjacency


@dataclass(eq=False)
class RoutingTree:
    """The routing structure used by every protocol in the reproduction.

    A tree is never mutated after it is built (a rebuild makes a new
    tree), so its arrays are read-only and its derived views are
    computed once.

    Attributes:
        sink: node index of the root.
        level: int64, ``level[i]`` = hop count of node i (-1 if
            unreachable or dead).
        parent: int64, ``parent[i]`` = next hop toward the sink (-1 for
            the sink and unreachable nodes).
    """

    sink: int
    level: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.level.flags.writeable = False
        self.parent.flags.writeable = False

    @cached_property
    def depth(self) -> int:
        """Maximum level over reachable nodes (the network diameter proxy
        used by Figs. 14-16: "network diameter varies from 10 to 50 hops")."""
        return int(self.level.max(initial=0))

    @cached_property
    def _by_level(self) -> Tuple[np.ndarray, np.ndarray]:
        """Node ids stably sorted by level, and each level's start offset
        (``starts[l]`` for ``l`` in ``0..depth + 1``); unreachable nodes
        (level -1) come first, before ``starts[0]``."""
        order = np.argsort(self.level, kind="stable")
        order.flags.writeable = False
        starts = np.searchsorted(self.level[order], np.arange(self.depth + 2))
        return order, starts

    def members_at(self, lvl: int) -> np.ndarray:
        """The nodes at level ``lvl`` (``0 <= lvl <= depth``), in ascending
        id (a read-only view)."""
        order, starts = self._by_level
        return order[starts[lvl] : starts[lvl + 1]]

    def reachable_count(self) -> int:
        return int(np.count_nonzero(self.level >= 0))


def build_routing_tree(
    positions: Union[np.ndarray, Sequence[Vec]],
    csr: CsrAdjacency,
    sink: int,
    alive: Optional[Sequence[bool]] = None,
) -> RoutingTree:
    """Breadth-first spanning tree over the alive communication graph.

    Array-frontier BFS + segmented parent argmin over a CSR graph,
    equivalent to :func:`build_routing_tree_reference` result-for-result
    (pinned by a differential test): each BFS ring is discovered with one
    gather (first occurrence in the concatenated candidate array is
    exactly the FIFO discovery order), and parents are picked per node by
    a segmented ``(distance, id)`` argmin using distances computed with
    the same scalar ``math.hypot`` the reference's ``dist`` uses, so float
    ties break identically.

    Args:
        positions: node positions, an ``(n, 2)`` array or a sequence of
            points (used for deterministic parent choice).
        csr: the disk-radio adjacency.
        sink: root node index (must be alive).
        alive: liveness mask; dead nodes are excluded entirely.
    """
    n = len(positions)
    if not 0 <= sink < n:
        raise ValueError("sink index out of range")
    pts = np.asarray(positions, dtype=float).reshape(n, 2)
    if alive is None:
        live = np.ones(n, dtype=bool)
    else:
        live = np.array(alive, dtype=bool)
    if not live[sink]:
        raise ValueError("the sink must be alive")

    level_arr = np.full(n, -1, dtype=np.int64)
    level_arr[sink] = 0
    rings = [np.array([sink], dtype=np.int64)]
    frontier = rings[0]
    lvl = 0
    while frontier.size:
        cand = csr.gather(frontier)
        cand = cand[live[cand] & (level_arr[cand] < 0)]
        if cand.size == 0:
            break
        uniq, first = np.unique(cand, return_index=True)
        ring = uniq[np.argsort(first, kind="stable")]
        lvl += 1
        level_arr[ring] = lvl
        rings.append(ring)
        frontier = ring

    visited = np.concatenate(rings)
    non_sink = visited[1:]
    parent_arr = np.full(n, -1, dtype=np.int64)
    if non_sink.size:
        # Distance of every node to the sink, via the identical scalar
        # arithmetic the reference path uses (np.hypot may differ in the
        # last ulp, which would flip distance ties; the subtractions are
        # exact either way).
        sx, sy = pts[sink].tolist()
        d = np.fromiter(
            map(math.hypot, (pts[:, 0] - sx).tolist(), (pts[:, 1] - sy).tolist()),
            dtype=np.float64,
            count=n,
        )
        degrees = csr.indptr[non_sink + 1] - csr.indptr[non_sink]
        seg = np.repeat(np.arange(len(non_sink)), degrees)
        nb = csr.gather(non_sink)
        upstream = live[nb] & (level_arr[nb] == level_arr[non_sink][seg] - 1)
        nb = nb[upstream]
        seg = seg[upstream]
        order_idx = np.lexsort((nb, d[nb], seg))
        seg_sorted = seg[order_idx]
        is_first = np.ones(len(seg_sorted), dtype=bool)
        is_first[1:] = seg_sorted[1:] != seg_sorted[:-1]
        firsts = order_idx[is_first]
        assert len(firsts) == len(
            non_sink
        ), "BFS-levelled node must have an upstream neighbour"
        parent_arr[non_sink] = nb[firsts]
    return RoutingTree(sink=sink, level=level_arr, parent=parent_arr)


def build_routing_tree_reference(
    positions: Sequence[Vec],
    adjacency: Sequence[Iterable[int]],
    sink: int,
    alive: Optional[Sequence[bool]] = None,
) -> RoutingTree:
    """The scalar FIFO-BFS builder (differential-test reference).

    ``adjacency`` holds each node's neighbours as a Python iterable; the
    callers build those lists from the CSR themselves.
    """
    n = len(positions)
    live = [True] * n if alive is None else list(alive)
    if not 0 <= sink < n:
        raise ValueError("sink index out of range")
    if not live[sink]:
        raise ValueError("the sink must be alive")

    level: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    sink_pos = positions[sink]

    level[sink] = 0
    queue = deque([sink])
    # Plain BFS fixes levels; parents are then chosen among the
    # (level - 1) neighbours by distance to the sink.
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adjacency[u]:
            if live[v] and level[v] is None:
                level[v] = level[u] + 1  # type: ignore[operator]
                queue.append(v)

    for u in order:
        if u == sink:
            continue
        lu = level[u]
        candidates = [
            v for v in adjacency[u] if live[v] and level[v] == lu - 1  # type: ignore[operator]
        ]
        assert candidates, "BFS-levelled node must have an upstream neighbour"
        best = min(candidates, key=lambda v: (dist(positions[v], sink_pos), v))
        parent[u] = best

    return RoutingTree(
        sink=sink,
        level=np.array([-1 if l is None else l for l in level], dtype=np.int64),
        parent=np.array([-1 if p is None else p for p in parent], dtype=np.int64),
    )


def level_histogram(tree: RoutingTree) -> Dict[int, int]:
    """Number of reachable nodes per level (diagnostics and tests)."""
    counts = np.bincount(tree.level[tree.level >= 0])
    return {l: c for l, c in enumerate(counts.tolist()) if c}
