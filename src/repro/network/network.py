"""The :class:`SensorNetwork` facade.

Bundles a deployment over a scalar field, the disk-radio adjacency, the
routing tree and failure injection into the single object that every
protocol (Iso-Map and the baselines) runs against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from repro import profiling
from repro.field.base import ScalarField
from repro.geometry import BoundingBox, Vec, dist
from repro.network.deployment import grid_deployment, uniform_random_deployment
from repro.network.node import SensorNode
from repro.network.routing_tree import RoutingTree, build_routing_tree
from repro.network.topology import (
    CsrAdjacency,
    average_degree,
    build_csr_adjacency,
    is_connected,
)

#: The paper's radio range in normalised units: "to keep a connected
#: communication graph, the radio range should be no less than 1.5, which
#: results in an average node degree of 7" (Section 5).
DEFAULT_RADIO_RANGE = 1.5


@dataclass
class TopologySkeleton:
    """The deployment-determined, field-independent part of a network.

    Positions, CSR adjacency, neighbour lists, sink choice and the
    healthy routing tree depend only on ``(positions, radio_range)`` --
    not on the sensed field, the noise draw, or any failure state -- so
    repeated runs over the same deployment (sweep repetitions, epoch
    sequences, protocol comparisons) can share one skeleton instead of
    re-hashing the disk graph and re-running BFS every time.  Capture
    with :meth:`SensorNetwork.skeleton` and pass back via ``prebuilt``.

    Everything here is treated as immutable by :class:`SensorNetwork`
    (rebuilds after crash-mode failures replace ``tree`` on the network,
    never mutate the skeleton's).
    """

    positions_array: np.ndarray
    csr: "CsrAdjacency"
    neighbor_lists: List[List[int]]
    sink_index: int
    tree: "RoutingTree"


@dataclass(frozen=True)
class NodeState:
    """Per-node state as arrays, read once per batched phase.

    Attributes:
        alive: ``node.alive``.
        can_sense: ``node.can_sense`` (alive and sensing_ok).
        routed: the node has a level in the network's routing tree.
        value: ``node.value`` as float64 (the identical doubles).
    """

    alive: np.ndarray
    can_sense: np.ndarray
    routed: np.ndarray
    value: np.ndarray


class SensorNetwork:
    """A deployed, connected, routed sensor network over a scalar field.

    Args:
        field: the sensed phenomenon.
        positions: node deployment positions inside ``field.bounds``.
        radio_range: unit-disk communication radius.
        sink_index: index of the sink node; by default the node closest to
            the field centre.  (A corner sink has half its radio disk
            outside the field, which makes the root fragile under failure
            injection; the paper's tree-based routing assumes a robustly
            connected root.)
        sensing_noise: standard deviation of zero-mean Gaussian noise added
            to each node's sensed value (0 disables).
        rng: randomness source for sensing noise and failure injection.
        prebuilt: a :class:`TopologySkeleton` captured from an earlier
            network with the identical ``(positions, radio_range)``:
            adjacency, sink choice and routing tree are adopted instead
            of recomputed.  Sensing (field sampling + noise draws) still
            runs normally, so results are byte-identical to a cold build.
    """

    def __init__(
        self,
        field: ScalarField,
        positions: Sequence[Vec],
        radio_range: float = DEFAULT_RADIO_RANGE,
        sink_index: Optional[int] = None,
        sensing_noise: float = 0.0,
        rng: Optional[random.Random] = None,
        prebuilt: Optional[TopologySkeleton] = None,
    ):
        if not positions:
            raise ValueError("a network needs at least one node")
        self.field = field
        self.radio_range = radio_range
        self._rng = rng if rng is not None else random.Random(0)
        self.nodes: List[SensorNode] = []
        for i, p in enumerate(positions):
            if not field.bounds.contains(p, tol=1e-9):
                raise ValueError(f"node {i} deployed outside the field at {p}")
            v = field.value(p[0], p[1])
            if sensing_noise > 0:
                v += self._rng.gauss(0.0, sensing_noise)
            self.nodes.append(SensorNode(node_id=i, position=p, value=v))
        self._adjacency_sets: Optional[List[Set[int]]] = None
        self._tree_version = 0
        if prebuilt is not None:
            if len(prebuilt.positions_array) != len(positions):
                raise ValueError("prebuilt skeleton is for a different size")
            self.positions_array = prebuilt.positions_array
            self.csr = prebuilt.csr
            self.neighbor_lists = prebuilt.neighbor_lists
            self.sink_index = (
                sink_index if sink_index is not None else prebuilt.sink_index
            )
            self.tree = prebuilt.tree
            self._adopt_tree(prebuilt.tree)
            return
        # CSR is the primary adjacency: the edge set never changes
        # (failures only flip per-node flags), so it is built once with the
        # batched kernel; per-node neighbour lists serve the traversal
        # loops, and legacy set views are materialised lazily on demand.
        self.positions_array: np.ndarray = np.asarray(positions, dtype=float)
        with profiling.stage("topology.build"):
            self.csr: CsrAdjacency = build_csr_adjacency(
                self.positions_array, radio_range
            )
        self.neighbor_lists: List[List[int]] = self.csr.to_lists()
        if sink_index is None:
            centre = field.bounds.center
            sink_index = min(
                range(len(positions)), key=lambda i: dist(positions[i], centre)
            )
        self.sink_index = sink_index
        self.tree: RoutingTree = self._build_tree()

    def skeleton(self) -> TopologySkeleton:
        """Capture the reusable topology (see :class:`TopologySkeleton`).

        Only valid on a fully-alive network (the skeleton's tree is the
        healthy one); callers cache it right after construction.
        """
        return TopologySkeleton(
            positions_array=self.positions_array,
            csr=self.csr,
            neighbor_lists=self.neighbor_lists,
            sink_index=self.sink_index,
            tree=self.tree,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def random_deploy(
        cls,
        field: ScalarField,
        n: int,
        radio_range: float = DEFAULT_RADIO_RANGE,
        seed: int = 0,
        sensing_noise: float = 0.0,
        prebuilt: Optional[TopologySkeleton] = None,
    ) -> "SensorNetwork":
        """Uniform-random deployment of ``n`` nodes (Iso-Map's default).

        ``prebuilt`` skips the adjacency/tree build; positions are still
        drawn (the shared ``rng`` sequence feeds the noise draws next, so
        skipping them would desynchronise sensing).
        """
        rng = random.Random(seed)
        positions = uniform_random_deployment(n, field.bounds, rng)
        return cls(
            field,
            positions,
            radio_range,
            sensing_noise=sensing_noise,
            rng=rng,
            prebuilt=prebuilt,
        )

    @classmethod
    def grid_deploy(
        cls,
        field: ScalarField,
        n: int,
        radio_range: float = DEFAULT_RADIO_RANGE,
        seed: int = 0,
        sensing_noise: float = 0.0,
        prebuilt: Optional[TopologySkeleton] = None,
    ) -> "SensorNetwork":
        """Regular-grid deployment (required by TinyDB-style baselines)."""
        positions = grid_deployment(n, field.bounds)
        return cls(
            field,
            positions,
            radio_range,
            sensing_noise=sensing_noise,
            rng=random.Random(seed),
            prebuilt=prebuilt,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def bounds(self) -> BoundingBox:
        return self.field.bounds

    @property
    def density(self) -> float:
        """Nodes per unit area (the paper's "normalized node density")."""
        return self.n_nodes / self.bounds.area

    @property
    def diameter_hops(self) -> int:
        """Routing-tree depth: the paper's "network diameter" in hops."""
        return self.tree.depth

    def alive_mask(self) -> np.ndarray:
        """Per-node ``alive`` flags as a bool array (one pass, per call)."""
        return np.fromiter(
            (node.alive for node in self.nodes), dtype=bool, count=len(self.nodes)
        )

    def node_state(self) -> NodeState:
        """Snapshot the per-node state the batched phases read.

        Three passes over the nodes (``alive``, ``sensing_ok``, ``value``);
        ``routed`` comes from the routing tree's cached levels.  The
        snapshot is taken per call, never cached: ``alive`` and
        ``sensing_ok`` are plain node attributes that callers may write
        directly.
        """
        nodes = self.nodes
        n = len(nodes)
        alive = self.alive_mask()
        sensing_ok = np.fromiter((nd.sensing_ok for nd in nodes), dtype=bool, count=n)
        return NodeState(
            alive=alive,
            can_sense=alive & sensing_ok,
            routed=self.tree.level_array >= 0,
            value=np.fromiter((nd.value for nd in nodes), dtype=np.float64, count=n),
        )

    def alive_count(self) -> int:
        return sum(1 for node in self.nodes if node.alive)

    @property
    def adjacency(self) -> List[Set[int]]:
        """Per-node neighbour sets (legacy view, materialised on demand)."""
        if self._adjacency_sets is None:
            self._adjacency_sets = self.csr.to_sets()
        return self._adjacency_sets

    def alive_neighbors(self, i: int) -> List[int]:
        """Alive disk-radio neighbours of node ``i``."""
        return [j for j in self.neighbor_lists[i] if self.nodes[j].alive]

    def sensing_neighbors(self, i: int) -> List[int]:
        """Neighbours of ``i`` that can answer value queries."""
        return [j for j in self.neighbor_lists[i] if self.nodes[j].can_sense]

    def k_hop_sensing_neighbors(self, i: int, k: int) -> List[int]:
        """Sensing-capable nodes within k (alive-routed) hops of node ``i``.

        The multi-hop paths go through alive nodes (forwarding works even
        past sensing-failed ones); the returned set keeps only nodes that
        can actually answer a value query.
        """
        reachable = self.csr.k_hop_neighbors(i, k, alive=self.alive_mask())
        return [j for j in reachable.tolist() if self.nodes[j].can_sense]

    def average_degree(self) -> float:
        """Mean alive-neighbour count over alive nodes."""
        return average_degree(self.csr, self.alive_mask())

    def is_connected(self) -> bool:
        return is_connected(self.csr, self.alive_mask())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _build_tree(self) -> RoutingTree:
        positions = [node.position for node in self.nodes]
        with profiling.stage("topology.tree"):
            tree = build_routing_tree(
                positions, self.csr, self.sink_index, self.alive_mask()
            )
        self._adopt_tree(tree)
        return tree

    def _adopt_tree(self, tree: RoutingTree) -> None:
        """Copy a tree's routing state onto the nodes."""
        self._tree_version += 1
        for node in self.nodes:
            node.reset_routing()
        for i, node in enumerate(self.nodes):
            node.level = tree.level[i]
            node.parent = tree.parent[i]
            node.children = list(tree.children[i])

    def rebuild_tree(self) -> None:
        """Recompute routing after topology changes (e.g. failures)."""
        self.tree = self._build_tree()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_random(
        self,
        ratio: float,
        rng: Optional[random.Random] = None,
        mode: str = "sensing",
    ) -> List[int]:
        """Fail a uniform random fraction of non-sink nodes.

        Two failure semantics (Figs. 11b / 12b sweep the ratio):

        - ``mode="sensing"`` (default): failed nodes produce no data and
          answer no neighbourhood value queries, but keep forwarding.  This
          matches the paper's observed behaviour -- TinyDB "recovers the map
          from lossy isobars" and Iso-Map "suffers from the loss of isoline
          node reports" -- i.e. the damage is missing *reports*, with the
          collection tree still functioning.
        - ``mode="crash"``: failed nodes are removed entirely and routing
          is rebuilt over the survivors.  At the paper's average degree of
          ~7 this fragments the graph near the percolation threshold, so
          accuracy additionally collapses through disconnection; the
          failure-injection tests cover this harsher model too.

        Edge semantics (pinned by ``tests/network/test_network.py``): the
        sink never fails, and ``ratio`` is taken over the *non-sink*
        candidate pool -- ``k = round_half_up(ratio * (n_nodes - 1))``
        nodes fail.  Rounding is explicit round-half-up (0.5 rounds
        towards more failures) rather than Python's banker's ``round``,
        so sweep points are bit-reproducible across Python versions.

        Returns the failed node ids.
        """
        if not 0 <= ratio <= 1:
            raise ValueError("failure ratio must be in [0, 1]")
        if mode not in ("sensing", "crash"):
            raise ValueError(f"unknown failure mode {mode!r}")
        r = rng if rng is not None else self._rng
        candidates = [i for i in range(self.n_nodes) if i != self.sink_index]
        k = min(int(ratio * len(candidates) + 0.5), len(candidates))
        failed = r.sample(candidates, k)
        for i in failed:
            if mode == "crash":
                self.nodes[i].alive = False
            self.nodes[i].sensing_ok = False
        if mode == "crash":
            self.rebuild_tree()
        return failed

    def resense(
        self,
        field: Optional[ScalarField] = None,
        sensing_noise: float = 0.0,
    ) -> None:
        """Take a fresh sensing epoch, optionally over a changed field.

        Contour mapping is continuous monitoring: the phenomenon evolves
        (e.g. a storm deposits silt) and the same deployment re-samples
        it.  Updates every node's ``value``; positions, topology, routing
        and failure state are untouched.
        """
        if field is not None:
            self.field = field
        for node in self.nodes:
            v = self.field.value(node.position[0], node.position[1])
            if sensing_noise > 0:
                v += self._rng.gauss(0.0, sensing_noise)
            node.value = v

    def revive_all(self) -> None:
        """Undo failure injection (used between experiment repetitions)."""
        for node in self.nodes:
            node.alive = True
            node.sensing_ok = True
        self.rebuild_tree()
