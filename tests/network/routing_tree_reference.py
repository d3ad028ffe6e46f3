"""Scalar FIFO-BFS: the reference for ``build_routing_tree``.

This is the routing-tree build as it ran before
:mod:`repro.network.routing_tree` traversed the CSR one BFS ring at a
time: a deque walk over per-node neighbour lists, then one parent scan
per node.  Levels and parents must match the array build exactly
(``test_routing_tree_vectorized.py``); ``benchmarks/bench_transport.py``
times the pair.
"""

from collections import deque
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry import Vec, dist
from repro.network.routing_tree import RoutingTree


def build_routing_tree_reference(
    positions: Sequence[Vec],
    adjacency: Sequence[Iterable[int]],
    sink: int,
    alive: Optional[Sequence[bool]] = None,
) -> RoutingTree:
    """BFS spanning tree over the alive graph, one node at a time.

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
