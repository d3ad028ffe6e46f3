"""Distributed anchor-based localization (DV-hop + range refinement).

The paper assumes node positions come "from attached localization
devices such as a GPS receiver or by one of existing algorithms [6],
[16], [25]".  This substrate implements the classic two-stage scheme
those algorithms share:

1. **DV-hop initialisation** (Niculescu & Nath): anchors flood hop
   counts; the network-wide average hop length is calibrated from the
   known anchor-anchor distances; every non-anchor multilaterates its
   position from (hops x average hop length) estimates to >= 3 anchors.
2. **Range-based refinement** (the iterative least-squares core of
   [16]): nodes repeatedly re-solve their position against noisy 1-hop
   range measurements to their neighbours' current estimates, anchors
   held fixed.  A damped Gauss-Newton step per sweep.

The result is written into ``SensorNetwork.estimated_positions``, which
the Iso-Map stack then uses transparently (``SensorNode.app_position``,
``SensorNetwork.app_positions``).
Nodes that cannot see three anchors stay unlocalised and keep GPS-truth
behaviour (in practice such nodes would not report).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry import Vec, dist
from repro.network.network import SensorNetwork


@dataclass
class LocalizationResult:
    """Outcome of a localization run.

    Attributes:
        estimated: per-node estimated positions (None: anchor, dead, or
            unlocalisable).
        anchor_ids: the anchors used.
        errors: per localized node, distance between estimate and truth.
        unlocalized: ids of alive non-anchor nodes left without a fix.
    """

    estimated: List[Optional[Vec]]
    anchor_ids: List[int]
    errors: List[float] = field(default_factory=list)
    unlocalized: List[int] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        return sum(self.errors) / len(self.errors) if self.errors else 0.0

    @property
    def max_error(self) -> float:
        return max(self.errors) if self.errors else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of targeted nodes that obtained a fix."""
        total = len(self.errors) + len(self.unlocalized)
        return len(self.errors) / total if total else 1.0


def localize(
    network: SensorNetwork,
    anchor_fraction: float = 0.1,
    range_noise: float = 0.05,
    refine_iters: int = 30,
    rng: Optional[random.Random] = None,
    apply: bool = True,
) -> LocalizationResult:
    """Run DV-hop + refinement over the network.

    Args:
        network: the deployed network (alive topology is used).
        anchor_fraction: fraction of alive nodes with known positions
            (GPS-equipped buoys), chosen uniformly at random.
        range_noise: standard deviation of the multiplicative ranging
            error (0.05 = 5% of the true distance, typical of RSSI/TDoA).
        refine_iters: Gauss-Newton sweeps after DV-hop.
        rng: randomness source (anchor choice and ranging noise).
        apply: write estimates into ``network.estimated_positions``.

    Raises:
        ValueError: for a fraction that yields fewer than 3 anchors.
    """
    r = rng if rng is not None else random.Random(0)
    alive = np.flatnonzero(network.alive).tolist()
    truth = [tuple(p) for p in network.positions_array.tolist()]
    n_anchors = round(anchor_fraction * len(alive))
    if n_anchors < 3:
        raise ValueError("localization needs at least 3 anchors")
    anchors = sorted(r.sample(alive, n_anchors))
    anchor_set = set(anchors)

    # ---- stage 1: DV-hop ------------------------------------------------
    hops = _hop_counts(network, anchors)
    avg_hop = _average_hop_length(network, anchors, hops, truth)

    estimates: Dict[int, Vec] = {a: truth[a] for a in anchors}
    unlocalized: List[int] = []
    for i in alive:
        if i in anchor_set:
            continue
        observations = [
            (truth[a], hops[a][i] * avg_hop) for a in anchors if hops[a][i] >= 0
        ]
        if len(observations) < 3:
            unlocalized.append(i)
            continue
        guess = _multilaterate(observations)
        if guess is None:
            unlocalized.append(i)
            continue
        estimates[i] = network.bounds.clamp(guess)

    # ---- stage 2: range refinement --------------------------------------
    ranges = _measure_ranges(network, estimates, range_noise, r)
    targets = [i for i in estimates if i not in anchor_set]
    for sweep in range(refine_iters):
        # Gauss-Seidel: update in place so corrections propagate within a
        # sweep; light damping early (estimates still coarse), none later.
        damping = 0.6 if sweep < 2 else 1.0
        for i in targets:
            obs = [
                (estimates[j], measured)
                for (j, measured) in ranges.get(i, ())
                if j in estimates
            ]
            if len(obs) < 3:
                continue
            step = _gauss_newton_step(estimates[i], obs, damping=damping)
            estimates[i] = network.bounds.clamp(step)

    # ---- package ---------------------------------------------------------
    located = [i for i in estimates if i not in anchor_set]
    out: List[Optional[Vec]] = [None] * network.n_nodes
    errors: List[float] = []
    for i in located:
        out[i] = estimates[i]
        errors.append(dist(estimates[i], truth[i]))
    if apply:
        clear_localization(network)
        if located:
            network.estimated_positions[located] = [estimates[i] for i in located]
    return LocalizationResult(
        estimated=out, anchor_ids=anchors, errors=errors, unlocalized=unlocalized
    )


def clear_localization(network: SensorNetwork) -> None:
    """Remove estimates; nodes fall back to ground-truth positions."""
    network.estimated_positions[:] = np.nan


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _hop_counts(network: SensorNetwork, anchors: List[int]) -> Dict[int, List[int]]:
    """Each (ascending) anchor's hop count to every node over the alive
    graph, -1 where unreachable: one multi-source BFS."""
    owner, node, hops = network.csr.k_hop_pairs(anchors, network.n_nodes, network.alive)
    table = np.full((len(anchors), network.n_nodes), -1, dtype=np.int64)
    table[np.searchsorted(anchors, owner), node] = hops
    table[np.arange(len(anchors)), anchors] = 0
    return dict(zip(anchors, table.tolist()))


def _average_hop_length(
    network: SensorNetwork,
    anchors: Sequence[int],
    hops: Dict[int, List[int]],
    truth: Sequence[Vec],
) -> float:
    """DV-hop calibration: known anchor distances over their hop counts."""
    total_dist = 0.0
    total_hops = 0
    for idx, a in enumerate(anchors):
        for b in anchors[idx + 1 :]:
            h = hops[a][b]
            if h > 0:
                total_dist += dist(truth[a], truth[b])
                total_hops += h
    if total_hops == 0:
        # Degenerate (all anchors mutually unreachable); fall back to the
        # radio range, the only length scale available.
        return network.radio_range
    return total_dist / total_hops


def _multilaterate(observations: Sequence) -> Optional[Vec]:
    """Closed-form linearised multilateration.

    Subtracting the first sphere equation from the others yields a linear
    system ``A p = b`` solved by 2x2 normal equations.
    """
    (x0, y0), d0 = observations[0]
    a11 = a12 = a22 = b1 = b2 = 0.0
    for (x, y), d in observations[1:]:
        ax = 2.0 * (x - x0)
        ay = 2.0 * (y - y0)
        rhs = d0 * d0 - d * d + x * x - x0 * x0 + y * y - y0 * y0
        a11 += ax * ax
        a12 += ax * ay
        a22 += ay * ay
        b1 += ax * rhs
        b2 += ay * rhs
    det = a11 * a22 - a12 * a12
    if abs(det) < 1e-9:
        return None
    return ((a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det)


def _measure_ranges(
    network: SensorNetwork,
    estimates: Dict[int, Vec],
    noise: float,
    rng: random.Random,
) -> Dict[int, List]:
    """Noisy 1-hop range measurements between localisable alive nodes.

    Each node's neighbours are measured in ascending id (its CSR row),
    one noise draw each, so the draws follow node ids rather than any
    container's layout.
    """
    pos = network.positions_array
    out: Dict[int, List] = {}
    for i in estimates:
        measured = []
        here = pos[i].tolist()
        row = network.csr.neighbors(i)
        for j, there in zip(row.tolist(), pos[row].tolist()):
            if j not in estimates:
                continue
            true = dist(here, there)
            measured.append((j, max(1e-6, true * (1.0 + rng.gauss(0.0, noise)))))
        out[i] = measured
    return out


def _gauss_newton_step(
    current: Vec, observations: Sequence, damping: float = 0.5
) -> Vec:
    """One damped Gauss-Newton update of a position estimate.

    Minimises sum over neighbours of (|p - q_j| - d_j)^2 starting from
    ``current``; the damping keeps the sweep stable when neighbour
    estimates are themselves still converging.
    """
    gx = gy = 0.0
    h11 = h12 = h22 = 0.0
    for (q, d) in observations:
        dx = current[0] - q[0]
        dy = current[1] - q[1]
        r = math.hypot(dx, dy)
        if r < 1e-9:
            continue
        residual = r - d
        jx = dx / r
        jy = dy / r
        gx += jx * residual
        gy += jy * residual
        h11 += jx * jx
        h12 += jx * jy
        h22 += jy * jy
    det = h11 * h22 - h12 * h12
    if abs(det) < 1e-12:
        return current
    sx = -(h22 * gx - h12 * gy) / det
    sy = -(h11 * gy - h12 * gx) / det
    return (current[0] + damping * sx, current[1] + damping * sy)
