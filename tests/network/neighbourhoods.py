"""Per-node neighbourhoods read off the CSR, for the tests' oracles.

The simulator keeps one adjacency, :class:`~repro.network.topology.CsrAdjacency`,
and traverses it in batches.  The reference implementations the tests
compare against ask for one node's neighbours at a time, or take per-node
Python collections; both are built here from the CSR rows, in ascending
id.
"""

from collections import deque
from typing import List, Sequence, Set

from repro.network import SensorNetwork, build_csr_adjacency
from repro.network.topology import CsrAdjacency


def neighbour_lists(csr: CsrAdjacency) -> List[List[int]]:
    return [csr.neighbors(i).tolist() for i in range(csr.n_nodes)]


def neighbour_sets(csr: CsrAdjacency) -> List[Set[int]]:
    return [set(row) for row in neighbour_lists(csr)]


def disk_sets(positions, radio_range: float) -> List[Set[int]]:
    """Unit-disk neighbour sets, via :func:`build_csr_adjacency`."""
    return neighbour_sets(build_csr_adjacency(positions, radio_range))


def alive_neighbours(network: SensorNetwork, i: int) -> List[int]:
    """Alive disk-radio neighbours of node ``i``."""
    row = network.csr.neighbors(i)
    return row[network.alive[row]].tolist()


def sensing_neighbours(network: SensorNetwork, i: int) -> List[int]:
    """Neighbours of ``i`` that can answer value queries."""
    row = network.csr.neighbors(i)
    return row[network.node_state().can_sense[row]].tolist()


def k_hop_sensing_neighbours(network: SensorNetwork, i: int, k: int) -> List[int]:
    """Sensing-capable nodes within ``k`` hops of ``i`` over alive paths
    (forwarding works past sensing-failed nodes), ascending."""
    reach = network.csr.k_hop_neighbors(i, k, alive=network.alive)
    return reach[network.node_state().can_sense[reach]].tolist()


def average_degree_of_sets(adj: Sequence[Set[int]], alive=None) -> float:
    """Per-node-set oracle for :func:`repro.network.average_degree`."""
    if alive is None:
        degrees = [len(s) for s in adj]
    else:
        degrees = [sum(1 for j in s if alive[j]) for i, s in enumerate(adj) if alive[i]]
    return sum(degrees) / len(degrees) if degrees else 0.0


def is_connected_sets(adj: Sequence[Set[int]], alive=None) -> bool:
    """Per-node-set BFS oracle for :func:`repro.network.is_connected`."""
    n = len(adj)
    live = [True] * n if alive is None else list(alive)
    start = next((i for i in range(n) if live[i]), None)
    if start is None:
        return True  # vacuously connected
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if live[v] and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == sum(live)
