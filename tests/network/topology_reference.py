"""Per-node Python sets: the references for :mod:`repro.network.topology`.

- :func:`build_adjacency_reference` is the unit-disk adjacency build as
  it ran before ``build_csr_adjacency`` enumerated candidate pairs in
  bucketed blocks: one loop over each node's 3x3 bucket neighbourhood,
  growing per-node sets.  It evaluates the same
  ``dx*dx + dy*dy <= r*r`` test, so the edge sets must match exactly
  (``test_topology_vectorized.py``); ``benchmarks/bench_kernel.py``
  times the pair.
- :func:`k_hop_neighbors` is the set-based k-hop expansion that
  ``CsrAdjacency.k_hop_neighbors`` and ``k_hop_pairs`` must agree with.
"""

import math
from typing import Dict, List, Sequence, Set, Tuple

from repro.geometry import Vec


def build_adjacency_reference(
    positions: Sequence[Vec], radio_range: float
) -> List[Set[int]]:
    """Unit-disk adjacency, one node's bucket neighbourhood at a time.

    Returns ``adj[i]`` = the set of node indices within ``radio_range``
    of node i (excluding i itself).
    """
    if radio_range <= 0:
        raise ValueError("radio range must be positive")
    n = len(positions)
    adj: List[Set[int]] = [set() for _ in range(n)]
    cell = radio_range
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for i, p in enumerate(positions):
        key = (int(math.floor(p[0] / cell)), int(math.floor(p[1] / cell)))
        buckets.setdefault(key, []).append(i)
    r2 = radio_range * radio_range
    for (kx, ky), members in buckets.items():
        neighbours_cells = [
            buckets.get((kx + dx, ky + dy), ())
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ]
        for i in members:
            xi, yi = positions[i]
            for other_cell in neighbours_cells:
                for j in other_cell:
                    if j <= i:
                        continue
                    xj, yj = positions[j]
                    dx = xi - xj
                    dy = yi - yj
                    if dx * dx + dy * dy <= r2:
                        adj[i].add(j)
                        adj[j].add(i)
    return adj


def k_hop_neighbors(
    adj: Sequence[Set[int]], start: int, k: int, alive: Sequence[bool] = None
) -> Set[int]:
    """All nodes within ``k`` hops of ``start`` (excluding ``start``)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    n = len(adj)
    live = [True] * n if alive is None else alive
    seen = {start}
    frontier = {start}
    out: Set[int] = set()
    for _ in range(k):
        nxt: Set[int] = set()
        for u in frontier:
            for v in adj[u]:
                if live[v] and v not in seen:
                    seen.add(v)
                    nxt.add(v)
        out |= nxt
        frontier = nxt
        if not frontier:
            break
    return out
