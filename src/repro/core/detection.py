"""Distributed isoline-node detection (Definition 3.1).

A node ``p`` with value ``v_p`` appoints itself an isoline node of
isolevel ``v_i`` iff

1. ``v_p`` lies in the border region ``[v_i - eps, v_i + eps]``, and
2. some neighbour ``q`` straddles the isolevel: ``v_p < v_i < v_q`` or
   ``v_q < v_i < v_p``.

Both checks are local.  Condition 1 costs a handful of comparisons per
queried isolevel; condition 2 requires the neighbours' values, which the
candidate obtains with the same local probe that later feeds the gradient
regression -- so the probe's traffic is charged here, once, and its
replies are returned for reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.query import ContourQuery
from repro.core.wire import BYTES_PER_PARAM, LOCAL_QUERY_BYTES, LOCAL_REPLY_BYTES
from repro.geometry import Vec
from repro.network import CostAccountant, NodeState, SensorNetwork

#: Ops for testing one value against one isolevel's border region.
OPS_PER_LEVEL_CHECK = 2

#: Ops for testing whether one neighbour straddles the isolevel.
OPS_PER_STRADDLE_CHECK = 2


@dataclass
class DetectionResult:
    """Outcome of the distributed detection phase.

    Attributes:
        isoline_nodes: node id -> matched isolevel.
        neighborhood_data: node id -> the (position, value) tuples the
            candidate collected from its k-hop neighbourhood; reused by the
            gradient-estimation phase so the probe traffic is only paid
            once.
        candidates: nodes that passed the border-region check (condition 1)
            regardless of condition 2 -- exposed for diagnostics and tests.
    """

    isoline_nodes: Dict[int, float] = field(default_factory=dict)
    neighborhood_data: Dict[int, List[Tuple[Vec, float]]] = field(
        default_factory=dict
    )
    candidates: List[int] = field(default_factory=list)


def detect_isoline_nodes(
    network: SensorNetwork,
    query: ContourQuery,
    costs: CostAccountant,
) -> DetectionResult:
    """Distributed isoline-node self-appointment.

    ``query.detection_mode`` selects the policy: ``"border"`` runs the
    paper's Definition 3.1 (below); ``"straddle"`` runs the adaptive
    extension (:func:`detect_isoline_nodes_straddle`).

    Traffic charged here: one local probe broadcast per candidate (a
    single transmission heard by the alive neighbours) and one unicast
    (value, x, y) reply from each sensing-capable k-hop neighbour.
    Computation charged: the border-region comparisons at every node and
    the straddle checks at candidates.

    Every node's checks run as array passes over
    :meth:`~repro.network.SensorNetwork.node_state`, and all
    candidates probe in one batch, so the phase costs the sum of the
    probed neighbourhoods rather than candidates x n.
    """
    if query.detection_mode == "straddle":
        return detect_isoline_nodes_straddle(network, query, costs)
    result = DetectionResult()
    levels = query.isolevels
    state = network.node_state()
    candidates, level_idx = border_candidates(state, query, costs, OPS_PER_LEVEL_CHECK)
    result.candidates = candidates.tolist()
    result.neighborhood_data = _probe(network, state, candidates, query.k_hop, costs)

    # Condition 2: some sensing 1-hop neighbour straddles the isolevel.
    row, nbr = sensing_neighbours(network, state, candidates)
    costs.charge_ops_batch(
        candidates,
        OPS_PER_STRADDLE_CHECK * np.bincount(row, minlength=candidates.size),
    )
    appointed = straddling(state, candidates, level_idx, query, row, nbr)
    for i, k in zip(candidates[appointed].tolist(), level_idx[appointed].tolist()):
        result.isoline_nodes[i] = levels[k]
    return result


def border_candidates(
    state: NodeState, query: ContourQuery, costs: CostAccountant, ops_per_level: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Definition 3.1's condition 1 at every sensing, routed node.

    Each value is tested against each border region in ascending level
    order (the first match wins, as in
    :meth:`ContourQuery.matching_isolevel`), charging ``ops_per_level``
    per level at every node.  Returns the matching nodes and each one's
    index into ``query.isolevels``.
    """
    participants = np.flatnonzero(state.can_sense & state.routed)
    costs.charge_ops_batch(
        participants,
        np.full(participants.size, ops_per_level * len(query.isolevels), dtype=np.int64),
    )
    vp = state.value[participants]
    match = np.full(participants.size, -1, dtype=np.int64)
    for idx, v in enumerate(query.isolevels):
        match[(match < 0) & (np.abs(vp - v) <= query.epsilon)] = idx
    hit = match >= 0
    return participants[hit], match[hit]


def sensing_neighbours(
    network: SensorNetwork, state: NodeState, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every sensing-capable 1-hop neighbour of ``nodes`` as parallel
    ``(row, nbr)`` arrays: ``nbr[k]`` neighbours ``nodes[row[k]]``, rows
    in order and neighbours ascending within a row."""
    csr = network.csr
    nbr = csr.gather(nodes)
    row = np.repeat(np.arange(nodes.size), csr.indptr[nodes + 1] - csr.indptr[nodes])
    sensing = state.can_sense[nbr]
    return row[sensing], nbr[sensing]


def straddling(
    state: NodeState,
    candidates: np.ndarray,
    level_idx: np.ndarray,
    query: ContourQuery,
    row: np.ndarray,
    nbr: np.ndarray,
) -> np.ndarray:
    """Definition 3.1's condition 2: a mask of the ``candidates`` with a
    neighbour (``row``/``nbr`` from :func:`sensing_neighbours`) on the
    other side of their matched isolevel."""
    lv = np.asarray(query.isolevels, dtype=np.float64)[level_idx][row]
    vp, vq = state.value[candidates[row]], state.value[nbr]
    crosses = ((vp < lv) & (lv < vq)) | ((vq < lv) & (lv < vp))
    appointed = np.zeros(candidates.size, dtype=bool)
    appointed[row[crosses]] = True
    return appointed


def detect_isoline_nodes_straddle(
    network: SensorNetwork,
    query: ContourQuery,
    costs: CostAccountant,
) -> DetectionResult:
    """Adaptive straddle-based detection (this reproduction's extension).

    Definition 3.1's condition 1 (a fixed value border of half-width
    ``epsilon``) starves sparse deployments on flat terrain: almost no
    node's reading falls within +-0.05 T of an isolevel when readings are
    spaced far apart in value.  The straddle policy drops the fixed
    border and instead appoints, for every radio edge whose endpoint
    values straddle an isolevel, the endpoint CLOSER in value to that
    level (ties break to the lower node id).  The isoline still passes
    between the two nodes, so the appointed node is within one radio
    range of it -- the same spatial guarantee condition 2 provides --
    while the selection adapts automatically to the local slope.

    Costs: every sensing node broadcasts its 2-byte value once (replacing
    the per-candidate probe of condition 1's survivors); appointed nodes
    then run the ordinary (value, x, y) neighbourhood probe to feed the
    gradient regression.
    """
    result = DetectionResult()
    levels = query.isolevels
    state = network.node_state()
    participants = np.flatnonzero(state.can_sense & state.routed)

    # Phase 1: one value broadcast per sensing, routed node -- afterwards
    # every node knows its neighbours' readings.
    charge_broadcasts(network, state, participants, BYTES_PER_PARAM, costs)

    # Phase 2: local straddle decisions, each over the participant's
    # sensing neighbours in ascending id.
    row, nbr = sensing_neighbours(network, state, participants)
    row_ends = np.cumsum(np.bincount(row, minlength=participants.size)).tolist()
    pairs = list(zip(nbr.tolist(), state.value[nbr].tolist()))
    values = state.value.tolist()
    ops: List[int] = []
    start = 0
    for i, end in zip(participants.tolist(), row_ends):
        vp = values[i]
        nbr_values = pairs[start:end]
        start = end
        best_level = None
        best_gap = None
        ops.append(OPS_PER_STRADDLE_CHECK * max(1, len(nbr_values)) * len(levels))
        for level in levels:
            for j, vq in nbr_values:
                if not ((vp < level < vq) or (vq < level < vp)):
                    continue
                gap_p = abs(vp - level)
                gap_q = abs(vq - level)
                closer = gap_p < gap_q or (gap_p == gap_q and i < j)
                if not closer:
                    continue
                if best_gap is None or gap_p < best_gap:
                    best_gap = gap_p
                    best_level = level
                break  # one straddling neighbour per level suffices
        if best_level is None:
            continue
        result.candidates.append(i)
        result.isoline_nodes[i] = best_level
    costs.charge_ops_batch(participants, np.asarray(ops, dtype=np.int64))

    # Phase 3: appointed nodes probe for (value, x, y) tuples to feed the
    # regression, exactly as in border mode.
    result.neighborhood_data = _probe(
        network,
        state,
        np.asarray(result.candidates, dtype=np.int64),
        query.k_hop,
        costs,
    )
    return result


def charge_broadcasts(
    network: SensorNetwork,
    state: NodeState,
    senders: np.ndarray,
    nbytes: int,
    costs: CostAccountant,
) -> None:
    """One local broadcast per sender: a single tx, one rx per alive
    1-hop neighbour."""
    heard = network.csr.gather(senders)
    heard = heard[state.alive[heard]]
    costs.charge_tx_batch(senders, np.full(senders.size, nbytes, dtype=np.int64))
    costs.charge_rx_batch(heard, np.full(heard.size, nbytes, dtype=np.int64))


def _probe(
    network: SensorNetwork,
    state: NodeState,
    probers: np.ndarray,
    k_hop: int,
    costs: CostAccountant,
) -> Dict[int, List[Tuple[Vec, float]]]:
    """Every prober's local probe, as one batch.

    Each prober broadcasts once, heard by its alive 1-hop neighbours;
    every sensing-capable node within ``k_hop`` hops (through alive
    nodes) replies with (value, x, y).  A reply from a 1-hop neighbour is
    charged one hop; a reply from farther out is conservatively charged
    ``k_hop`` hops.  Returns each prober's replies as
    ``(app_position, value)`` in ascending responder id, keyed in
    ``probers`` order.
    """
    charge_broadcasts(network, state, probers, LOCAL_QUERY_BYTES, costs)
    owner, responder, hops = network.csr.k_hop_pairs(probers, k_hop, state.alive)
    sensing = state.can_sense[responder]
    owner, responder, hops = owner[sensing], responder[sensing], hops[sensing]
    # A reply travelling h hops is transmitted and received h times.  The
    # relaying neighbours' identities are routing details we do not
    # simulate at this granularity, so the extra hops are charged to the
    # endpoints as proxies -- the network-wide byte totals stay exact.
    reply = LOCAL_REPLY_BYTES * np.where(hops == 1, 1, k_hop)
    costs.charge_tx_batch(responder, reply)
    costs.charge_rx_batch(owner, reply)
    replies = list(
        zip(
            map(tuple, network.app_positions(responder).tolist()),
            state.value[responder].tolist(),
        )
    )
    lo = np.searchsorted(owner, probers, side="left").tolist()
    hi = np.searchsorted(owner, probers, side="right").tolist()
    return {p: replies[a:b] for p, a, b in zip(probers.tolist(), lo, hi)}
