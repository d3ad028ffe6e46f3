"""Per-candidate isoline detection: the scalar reference for the batched one.

This is detection as it ran before :mod:`repro.core.detection` became
array passes: every routed sensing node checks its own value against
each border region, and every candidate probes its k-hop neighbourhood
on its own (one CSR expansion and one liveness read per candidate).  It lives here, beside the differential tests, as
the oracle the batched implementation must match charge for charge and
in result order.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.detection import (
    OPS_PER_LEVEL_CHECK,
    OPS_PER_STRADDLE_CHECK,
    DetectionResult,
)
from repro.core.query import ContourQuery
from repro.core.wire import BYTES_PER_PARAM, LOCAL_QUERY_BYTES, LOCAL_REPLY_BYTES
from repro.geometry import Vec
from repro.network import CostAccountant, SensorNetwork
from tests.network.neighbourhoods import (
    alive_neighbours,
    k_hop_sensing_neighbours,
    sensing_neighbours,
)


def detect_isoline_nodes_reference(
    network: SensorNetwork, query: ContourQuery, costs: CostAccountant
) -> DetectionResult:
    """Definition 3.1, one node and one probe at a time."""
    if query.detection_mode == "straddle":
        return _detect_straddle_reference(network, query, costs)
    result = DetectionResult()
    levels = query.isolevels

    for node in network.nodes:
        if not node.can_sense or node.level is None:
            continue
        costs.charge_ops(node.node_id, OPS_PER_LEVEL_CHECK * len(levels))
        isolevel = query.matching_isolevel(node.value)
        if isolevel is None:
            continue
        result.candidates.append(node.node_id)
        result.neighborhood_data[node.node_id] = probe_neighborhood_reference(
            network, node.node_id, query.k_hop, costs
        )

        straddles = False
        one_hop = set(sensing_neighbours(network, node.node_id))
        costs.charge_ops(node.node_id, OPS_PER_STRADDLE_CHECK * len(one_hop))
        for j in one_hop:
            vq = network.nodes[j].value
            vp = node.value
            if (vp < isolevel < vq) or (vq < isolevel < vp):
                straddles = True
                break
        if straddles:
            result.isoline_nodes[node.node_id] = isolevel
    return result


def _detect_straddle_reference(
    network: SensorNetwork, query: ContourQuery, costs: CostAccountant
) -> DetectionResult:
    result = DetectionResult()
    levels = query.isolevels

    participants = [
        node for node in network.nodes if node.can_sense and node.level is not None
    ]
    for node in participants:
        alive_nbrs = alive_neighbours(network, node.node_id)
        costs.charge_local_broadcast(node.node_id, alive_nbrs, BYTES_PER_PARAM)

    for node in participants:
        vp = node.value
        nbr_values = [
            (j, network.nodes[j].value)
            for j in sensing_neighbours(network, node.node_id)
        ]
        best_level = None
        best_gap = None
        costs.charge_ops(
            node.node_id,
            OPS_PER_STRADDLE_CHECK * max(1, len(nbr_values)) * len(levels),
        )
        for level in levels:
            for j, vq in nbr_values:
                if not ((vp < level < vq) or (vq < level < vp)):
                    continue
                gap_p = abs(vp - level)
                gap_q = abs(vq - level)
                closer = gap_p < gap_q or (gap_p == gap_q and node.node_id < j)
                if not closer:
                    continue
                if best_gap is None or gap_p < best_gap:
                    best_gap = gap_p
                    best_level = level
                break
        if best_level is None:
            continue
        result.candidates.append(node.node_id)
        result.isoline_nodes[node.node_id] = best_level

    for node_id in result.isoline_nodes:
        result.neighborhood_data[node_id] = probe_neighborhood_reference(
            network, node_id, query.k_hop, costs
        )
    return result


def probe_neighborhood_reference(
    network: SensorNetwork, node_id: int, k_hop: int, costs: CostAccountant
) -> List[Tuple[Vec, float]]:
    """One candidate's probe: a broadcast heard by its alive neighbours,
    then a (value, x, y) reply from every sensing node within ``k_hop``
    hops -- one hop from ring 1, ``k_hop`` hops from farther out."""
    costs.charge_local_broadcast(
        node_id, alive_neighbours(network, node_id), LOCAL_QUERY_BYTES
    )
    responders = k_hop_sensing_neighbours(network, node_id, k_hop)
    one_hop_ids = (
        frozenset(network.csr.neighbors(node_id).tolist()) if k_hop > 1 else None
    )
    data: List[Tuple[Vec, float]] = []
    for j in responders:
        hops = 1 if one_hop_ids is None or j in one_hop_ids else k_hop
        costs.charge_tx(j, LOCAL_REPLY_BYTES * hops)
        costs.charge_rx(node_id, LOCAL_REPLY_BYTES * hops)
        data.append((network.nodes[j].app_position, network.nodes[j].value))
    return data
