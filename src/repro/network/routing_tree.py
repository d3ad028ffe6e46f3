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
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.geometry import Vec, dist
from repro.network.topology import CsrAdjacency


@dataclass
class RoutingTree:
    """The routing structure used by every protocol in the reproduction.

    Attributes:
        sink: node index of the root.
        level: ``level[i]`` = hop count of node i (``None`` if unreachable
            or dead).
        parent: ``parent[i]`` = next hop toward the sink (``None`` for the
            sink and unreachable nodes).
        children: inverse of ``parent``.
    """

    sink: int
    level: List[Optional[int]]
    parent: List[Optional[int]]
    children: List[List[int]]

    # A tree is never mutated after it is built (a rebuild makes a new
    # tree), so its array views and depth are computed once.

    @cached_property
    def level_array(self) -> np.ndarray:
        """``level`` as int64, -1 where there is none."""
        return _optional_ints(self.level)

    @cached_property
    def parent_array(self) -> np.ndarray:
        """``parent`` as int64, -1 where there is none."""
        return _optional_ints(self.parent)

    @cached_property
    def depth(self) -> int:
        """Maximum level over reachable nodes (the network diameter proxy
        used by Figs. 14-16: "network diameter varies from 10 to 50 hops")."""
        return int(self.level_array.max(initial=0))

    def reachable_count(self) -> int:
        return sum(1 for l in self.level if l is not None)

    def path_to_sink(self, node: int) -> List[int]:
        """Node indices from ``node`` (inclusive) to the sink (inclusive).

        Raises:
            ValueError: when the node has no route.
        """
        if self.level[node] is None:
            raise ValueError(f"node {node} is unreachable")
        path = [node]
        cur = node
        while cur != self.sink:
            nxt = self.parent[cur]
            assert nxt is not None, "reachable non-sink node must have a parent"
            path.append(nxt)
            cur = nxt
        return path

    def hops_to_sink(self, node: int) -> int:
        lvl = self.level[node]
        if lvl is None:
            raise ValueError(f"node {node} is unreachable")
        return lvl

    def subtree_order_bottom_up(self) -> List[int]:
        """Reachable nodes ordered so children precede their parents.

        In-network aggregation and filtering walk reports up the tree; this
        order lets a single pass simulate the per-epoch, level-by-level
        forwarding schedule of TAG.
        """
        order = sorted(
            (i for i, l in enumerate(self.level) if l is not None),
            key=lambda i: -(self.level[i] or 0),
        )
        return order


def _optional_ints(values: Sequence[Optional[int]]) -> np.ndarray:
    """``values`` as a read-only int64 array, -1 for None (the tree's
    array views are shared by every reader)."""
    arr = np.fromiter(
        (-1 if v is None else v for v in values), dtype=np.int64, count=len(values)
    )
    arr.flags.writeable = False
    return arr


def build_routing_tree(
    positions: Sequence[Vec],
    adjacency: Union[CsrAdjacency, Sequence[Iterable[int]]],
    sink: int,
    alive: Optional[Sequence[bool]] = None,
) -> RoutingTree:
    """Breadth-first spanning tree over the alive communication graph.

    Args:
        positions: node positions (used for deterministic parent choice).
        adjacency: disk-radio neighbours per node.  A
            :class:`~repro.network.topology.CsrAdjacency` takes the
            vectorized frontier-array path; any other per-node iterable
            (sets, lists) takes the scalar reference.  Both produce the
            identical tree: BFS levels are hop distances, the parent
            choice tie-breaks explicitly on ``(distance, id)``, and the
            frontier path reproduces the FIFO discovery order exactly
            (pinned by a differential test).
        sink: root node index (must be alive).
        alive: liveness mask; dead nodes are excluded entirely.
    """
    if isinstance(adjacency, CsrAdjacency):
        return _build_routing_tree_csr(positions, adjacency, sink, alive)
    return build_routing_tree_reference(positions, adjacency, sink, alive)


def _build_routing_tree_csr(
    positions: Sequence[Vec],
    csr: CsrAdjacency,
    sink: int,
    alive: Optional[Sequence[bool]],
) -> RoutingTree:
    """Array-frontier BFS + segmented parent argmin over a CSR graph.

    Equivalent to :func:`build_routing_tree_reference` result-for-result:
    each BFS ring is discovered with one gather (first occurrence in the
    concatenated candidate array is exactly the FIFO discovery order),
    and parents are picked per node by a segmented ``(distance, id)``
    argmin using distances computed with the same scalar ``math.hypot``
    the reference's ``dist`` uses, so float ties break identically.
    """
    n = len(positions)
    if not 0 <= sink < n:
        raise ValueError("sink index out of range")
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
    children: List[List[int]] = [[] for _ in range(n)]
    parent_arr = np.full(n, -1, dtype=np.int64)
    if non_sink.size:
        # Distance of every node to the sink, via the identical scalar
        # arithmetic the reference path uses (np.hypot may differ in the
        # last ulp, which would flip distance ties).
        sx, sy = positions[sink]
        d = np.fromiter(
            (math.hypot(p[0] - sx, p[1] - sy) for p in positions),
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
        best = nb[firsts]
        parent_arr[non_sink] = best
        for u, p in zip(non_sink.tolist(), best.tolist()):
            children[p].append(u)

    level: List[Optional[int]] = [
        int(l) if l >= 0 else None for l in level_arr.tolist()
    ]
    parent: List[Optional[int]] = [
        int(p) if p >= 0 else None for p in parent_arr.tolist()
    ]
    return RoutingTree(sink=sink, level=level, parent=parent, children=children)


def build_routing_tree_reference(
    positions: Sequence[Vec],
    adjacency: Sequence[Iterable[int]],
    sink: int,
    alive: Optional[Sequence[bool]] = None,
) -> RoutingTree:
    """The scalar FIFO-BFS builder (differential-test reference)."""
    n = len(positions)
    live = [True] * n if alive is None else list(alive)
    if not 0 <= sink < n:
        raise ValueError("sink index out of range")
    if not live[sink]:
        raise ValueError("the sink must be alive")

    level: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    children: List[List[int]] = [[] for _ in range(n)]
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
        children[best].append(u)

    return RoutingTree(sink=sink, level=level, parent=parent, children=children)


def level_histogram(tree: RoutingTree) -> Dict[int, int]:
    """Number of reachable nodes per level (diagnostics and tests)."""
    hist: Dict[int, int] = {}
    for l in tree.level:
        if l is not None:
            hist[l] = hist.get(l, 0) + 1
    return hist
