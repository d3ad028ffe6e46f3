"""Disk-radio communication graph.

Two nodes can communicate iff their distance is at most the radio range
(unit-disk model, perfect links -- Section 5 of the paper).  Adjacency is
computed with a spatial hash so building the graph is O(n) expected for
bounded density.

The hot kernels here are vectorized over a positions array: candidate
pairs come from bucketed block comparisons on a sorted cell code instead
of nested Python loops, and k-hop collection runs a frontier BFS on a CSR
adjacency.  The pure-Python originals are kept as ``*_reference``
implementations; differential tests assert the two agree exactly
(including nodes exactly at ``radio_range`` and on bucket borders), and
``benchmarks/bench_kernel.py`` tracks the speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import Vec


def build_csr_adjacency(
    positions: Sequence[Vec], radio_range: float
) -> "CsrAdjacency":
    """Unit-disk adjacency straight into CSR form (the hot-path kernel).

    This is what :class:`repro.network.SensorNetwork` consumes: the edge
    list is produced by the bucketed batch pass of :func:`_disk_edges`
    and laid out as CSR without ever materialising per-node Python
    collections.  The distance test is the same ``dx*dx + dy*dy <= r*r``
    :func:`build_adjacency_reference` evaluates, in the same IEEE-754
    arithmetic, so the edge set is identical -- only the candidate
    enumeration is batched.  Accepts a positions list or an ``(n, 2)``
    array; pass the array on hot paths.
    """
    ii, jj = _disk_edges(positions, radio_range)
    return CsrAdjacency.from_edges(len(positions), ii, jj)


#: Default candidate budget of :func:`_disk_edges`' chunked pass: the
#: distance test is evaluated over at most this many candidate pairs at
#: a time (~2M pairs = a few dozen MB of scratch), so adjacency build
#: memory is O(n * degree) output plus an n-independent working set.
#: Deployments whose whole candidate set fits run as one chunk.
DISK_EDGE_CANDIDATE_BUDGET = 1 << 21


def _disk_edges(
    positions: Sequence[Vec],
    radio_range: float,
    max_candidates: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique unit-disk edges as parallel index arrays (each pair once).

    Candidate pairs are generated per spatial-hash bucket: nodes are
    sorted by an integer cell code, and for each of the five forward cell
    offsets (0,0), (1,0), (0,1), (1,1), (1,-1) every node is paired with
    the contiguous sorted block of its offset cell.  Each unordered cell
    pair is visited exactly once, so no edge is produced twice.

    The ragged candidate gather is evaluated in block-aligned chunks of
    at most ``max_candidates`` pairs (default
    :data:`DISK_EDGE_CANDIDATE_BUDGET`): chunks cut only on
    candidate-block boundaries, so the concatenated per-chunk survivors
    are the same edge list at any budget.
    """
    if radio_range <= 0:
        raise ValueError("radio range must be positive")
    n = len(positions)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty
    pts = np.asarray(positions, dtype=float).reshape(n, 2)
    cell = radio_range
    cx = np.floor(pts[:, 0] / cell).astype(np.int64)
    cy = np.floor(pts[:, 1] / cell).astype(np.int64)
    # One collision-free integer per cell, with a +-1 margin in y so the
    # dy offsets of neighbouring cells never wrap across an x stripe.
    cy -= cy.min()
    span = int(cy.max()) + 3
    code = (cx - cx.min() + 1) * span + cy + 1
    order = np.argsort(code, kind="stable")
    sorted_codes = code[order]

    # Occupied cells as runs of the sorted codes.  All block lookups
    # happen per unique cell (a few hundred of them) rather than per
    # node, then broadcast back to nodes through ``cell_of``.
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=is_start[1:])
    cell_starts = np.flatnonzero(is_start)
    unique_codes = sorted_codes[cell_starts]
    cell_ends = np.append(cell_starts[1:], n)
    cell_sizes = cell_ends - cell_starts
    cell_of = np.cumsum(is_start) - 1  # sorted-domain node -> cell index
    n_cells = len(unique_codes)

    # Per cell, per forward offset: the sorted-domain block of candidate
    # partners.  Offset 0 (same cell) matches trivially; the other four
    # resolve with one searchsorted over the unique codes.
    offsets = np.array([span, 1, span + 1, span - 1], dtype=np.int64)
    targets = unique_codes[None, :] + offsets[:, None]
    pos = np.searchsorted(unique_codes, targets)
    pos_c = np.minimum(pos, n_cells - 1)
    hit = unique_codes[pos_c] == targets
    block_left = np.empty((5, n_cells), dtype=np.int64)
    block_count = np.empty((5, n_cells), dtype=np.int64)
    block_left[0] = cell_starts
    block_count[0] = cell_sizes
    block_left[1:] = np.where(hit, cell_starts[pos_c], 0)
    block_count[1:] = np.where(hit, cell_sizes[pos_c], 0)

    # Broadcast to nodes (sorted domain).  The flattened layout keeps the
    # same-cell offset first, so its candidates occupy a known prefix of
    # the candidate sequence.
    left = block_left[:, cell_of].ravel()
    counts = block_count[:, cell_of].ravel()
    xs_sorted = pts[:, 0][order]
    ys_sorted = pts[:, 1][order]
    # The first n blocks are exactly the same-cell blocks (offset 0):
    # their candidates pair every cell-mate twice and include the node
    # itself, so each unordered pair is kept once with j > i.
    same_cell_total = int(counts[:n].sum())
    budget = (
        DISK_EDGE_CANDIDATE_BUDGET if max_candidates is None else max_candidates
    )

    # Walk the 5n candidate blocks in order, cutting a chunk when its
    # candidate total would exceed the budget (a single oversized block
    # still runs whole -- correctness never depends on the cap).
    r2 = radio_range * radio_range
    node_of_block = np.tile(np.arange(n, dtype=np.int64), 5)
    block_ends = np.cumsum(counts)
    n_blocks = len(counts)
    ii_parts: List[np.ndarray] = []
    jj_parts: List[np.ndarray] = []
    b0 = 0
    while b0 < n_blocks:
        start_pos = int(block_ends[b0] - counts[b0])
        b1 = int(np.searchsorted(block_ends, start_pos + budget, side="right"))
        b1 = max(b1, b0 + 1)
        c = counts[b0:b1]
        sub_total = int(c.sum())
        if sub_total:
            ii_s = np.repeat(node_of_block[b0:b1], c)
            e = np.cumsum(c)
            j_s = np.arange(sub_total) + np.repeat(left[b0:b1] - (e - c), c)
            dx = xs_sorted[ii_s] - xs_sorted[j_s]
            dy = ys_sorted[ii_s] - ys_sorted[j_s]
            valid = dx * dx + dy * dy <= r2
            sc = min(max(same_cell_total - start_pos, 0), sub_total)
            if sc > 0:
                valid[:sc] &= j_s[:sc] > ii_s[:sc]
            if valid.any():
                ii_parts.append(order[ii_s[valid]])
                jj_parts.append(order[j_s[valid]])
        b0 = b1
    if not ii_parts:
        return empty, empty
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def build_adjacency_reference(
    positions: Sequence[Vec], radio_range: float
) -> List[Set[int]]:
    """The original per-node spatial-hash loop, kept as the differential
    and performance baseline for :func:`build_csr_adjacency`.

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


@dataclass(frozen=True)
class CsrAdjacency:
    """Compressed-sparse-row view of an adjacency, for batched traversal.

    ``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbours in
    ascending order.  The structure is immutable; liveness filtering is a
    per-query mask, so one CSR serves the whole failure-injection
    lifecycle of a network.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_edges(
        cls, n: int, ii: np.ndarray, jj: np.ndarray
    ) -> "CsrAdjacency":
        """CSR of the symmetric graph given each undirected edge once.

        Rows come out in ascending neighbour order (the same order
        ``sorted(set)`` gives), so traversals are deterministic.
        """
        if len(ii) == 0:
            return cls(
                indptr=np.zeros(n + 1, dtype=np.int64),
                indices=np.empty(0, dtype=np.int64),
            )
        a = np.concatenate([ii, jj])
        b = np.concatenate([jj, ii])
        order = np.argsort(a * np.int64(n) + b, kind="stable")
        indices = b[order]
        counts = np.bincount(a, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=indices)

    def neighbors(self, i: int) -> np.ndarray:
        """Node ``i``'s neighbours, ascending (a view into ``indices``)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The neighbour blocks of ``rows``, concatenated in row order.

        One ragged gather: row ``rows[k]``'s ascending neighbours follow
        those of ``rows[k - 1]``, so a caller recovers which row an entry
        came from by repeating row positions by their degrees.
        """
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        within = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return self.indices[np.repeat(starts, counts) + within]

    def flood(
        self, start: int, live: np.ndarray, seen: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Mask of the live nodes reachable from ``start`` (included).

        Array-frontier BFS: one :meth:`gather` per hop ring, masking
        dead and already-reached nodes.  Marks into ``seen`` when given
        (and returns it), so flooding several components into one mask
        costs their sizes, not one n-sized mask each.
        """
        if seen is None:
            seen = np.zeros(self.n_nodes, dtype=bool)
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            cand = self.gather(frontier)
            frontier = _sorted_unique(cand[live[cand] & ~seen[cand]])
            seen[frontier] = True
        return seen

    def k_hop_pairs(
        self,
        sources: Sequence[int],
        k: int,
        alive: Optional[Sequence[bool]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``(source, node)`` pair within ``k`` hops, for all sources.

        One multi-source frontier BFS: each hop ring is one :meth:`gather`
        over every source's frontier at once, and the ring's pairs are
        deduplicated by one sorted unique over ``owner * n + node`` keys.
        A pair found at ring ``h`` that is not new was seen at ring
        ``h - 1`` or ``h - 2`` (BFS distances of adjacent nodes differ by
        at most one), so only those two rings are kept to filter against.
        Paths run through ``alive`` nodes only, and a source is never its
        own pair (the semantics of the set-based :func:`k_hop_neighbors`).

        Args:
            sources: distinct node ids.
            k: hop radius (0 yields no pairs).
            alive: liveness mask (None = every node alive).

        Returns:
            ``(owner, node, hops)`` int64 arrays sorted by
            ``(owner, node)``; ``hops`` is the pair's hop distance.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = np.int64(self.n_nodes)
        alive_arr = None if alive is None else np.asarray(alive, dtype=bool)
        owner = _sorted_unique(np.asarray(sources, dtype=np.int64))
        node = owner
        rings = [owner * n + owner]
        for _ in range(k):
            counts = self.indptr[node + 1] - self.indptr[node]
            cand = self.gather(node)
            own = np.repeat(owner, counts)
            if alive_arr is not None:
                live = alive_arr[cand]
                cand, own = cand[live], own[live]
            keys = _sorted_unique(own * n + cand)
            for prev in rings[-2:]:
                keys = keys[~np.isin(keys, prev, assume_unique=True)]
            if keys.size == 0:
                break
            rings.append(keys)
            owner, node = np.divmod(keys, n)
        keys = np.concatenate(rings[1:] or [np.empty(0, dtype=np.int64)])
        hops = np.repeat(
            np.arange(1, len(rings), dtype=np.int64), [len(r) for r in rings[1:]]
        )
        order = np.argsort(keys, kind="stable")
        owner, node = np.divmod(keys[order], n)
        return owner, node, hops[order]

    def k_hop_neighbors(
        self, start: int, k: int, alive: Optional[Sequence[bool]] = None
    ) -> np.ndarray:
        """All nodes within ``k`` hops of ``start`` (excluding ``start``).

        The one-source case of :meth:`k_hop_pairs`.  Returns a sorted
        int64 array; agrees exactly with the set-based
        :func:`k_hop_neighbors`.
        """
        return self.k_hop_pairs([start], k, alive)[1]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sort and neighbour compare.

    The same result.  NumPy 2.4's hash-based ``np.unique`` took 6-80x
    longer on 1,500 to 10^6 int64 keys (0.78 s against 0.025 s at 10^6).
    """
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def average_degree(csr: CsrAdjacency, alive: Sequence[bool] = None) -> float:
    """Mean neighbour count, optionally restricted to alive nodes.

    An integer sum over an integer count, so the float is exact; no
    Python collection is materialised (the large-n hot path).
    """
    n = csr.n_nodes
    if n == 0:
        return 0.0
    if alive is None:
        return int(len(csr.indices)) / n
    alive_arr = np.asarray(alive, dtype=bool)
    live_deg = np.zeros(len(csr.indices) + 1, dtype=np.int64)
    np.cumsum(alive_arr[csr.indices], out=live_deg[1:])
    degrees = live_deg[csr.indptr[1:]] - live_deg[csr.indptr[:-1]]
    degrees = degrees[alive_arr]
    if degrees.size == 0:
        return 0.0
    return int(degrees.sum()) / int(degrees.size)


def is_connected(csr: CsrAdjacency, alive: Sequence[bool] = None) -> bool:
    """True when all (alive) nodes are mutually reachable (one
    :meth:`CsrAdjacency.flood` from the first alive node)."""
    n = csr.n_nodes
    live = np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    live_idx = np.flatnonzero(live)
    if live_idx.size == 0:
        return True  # vacuously connected
    seen = csr.flood(int(live_idx[0]), live)
    return int(seen.sum()) == int(live_idx.size)


def k_hop_neighbors(
    adj: Sequence[Set[int]], start: int, k: int, alive: Sequence[bool] = None
) -> Set[int]:
    """All nodes within ``k`` hops of ``start`` (excluding ``start``).

    Iso-Map's gradient estimation queries the k-hop neighbourhood
    (Section 3.3: "the query scope can be adjusted within k-hop
    neighbors"); k = 1 is the default.

    This is the set-based reference; the hot path goes through
    :meth:`CsrAdjacency.k_hop_neighbors`, which returns the same nodes.
    """
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
