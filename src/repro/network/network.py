"""The :class:`SensorNetwork` facade.

Bundles a deployment over a scalar field, the disk-radio adjacency, the
routing tree and failure injection into the single object that every
protocol (Iso-Map and the baselines) runs against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import profiling
from repro.field.base import ScalarField
from repro.geometry import BoundingBox, Vec, dist
from repro.network.deployment import grid_deployment, uniform_random_deployment
from repro.network.node import NodeViews
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

    Positions, CSR adjacency, sink choice and the healthy routing tree
    depend only on ``(positions, radio_range)`` -- not on the sensed
    field, the noise draw, or any failure state -- so repeated runs over
    the same deployment (sweep repetitions, epoch sequences, protocol
    comparisons) can share one skeleton instead of re-hashing the disk
    graph and re-running BFS every time.  Capture with
    :meth:`SensorNetwork.skeleton` and pass back via ``prebuilt``.

    Everything here is treated as immutable by :class:`SensorNetwork`
    (rebuilds after crash-mode failures replace ``tree`` on the network,
    never mutate the skeleton's).
    """

    positions_array: np.ndarray
    csr: "CsrAdjacency"
    sink_index: int
    tree: "RoutingTree"


@dataclass(frozen=True)
class NodeState:
    """Per-node state as arrays, read once per batched phase.

    Read-only views of the network's own arrays, not copies.

    Attributes:
        alive: ``node.alive``.
        can_sense: ``node.can_sense`` (alive and sensing_ok).
        routed: the node has a level in the network's routing tree.
        value: ``node.value`` as float64.
    """

    alive: np.ndarray
    can_sense: np.ndarray
    routed: np.ndarray
    value: np.ndarray


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class SensorNetwork:
    """A deployed, connected, routed sensor network over a scalar field.

    Per-node state is held once, as arrays: ``positions_array`` (n, 2),
    ``value`` (float64), ``alive`` and ``sensing_ok`` (bool), and
    ``estimated_positions`` (n, 2; NaN where no localisation estimate
    exists).  Levels and parents live in :attr:`tree`, the adjacency in
    :attr:`csr`.  ``nodes[i]`` is a :class:`~repro.network.node.SensorNode`
    view that reads and writes these arrays.

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
        if prebuilt is not None and len(prebuilt.positions_array) != len(positions):
            raise ValueError("prebuilt skeleton is for a different size")
        self.field = field
        self.radio_range = radio_range
        self._rng = rng if rng is not None else random.Random(0)
        n = len(positions)
        self.positions_array: np.ndarray = (
            prebuilt.positions_array
            if prebuilt is not None
            else np.asarray(positions, dtype=float).reshape(n, 2)
        )
        b, tol = field.bounds, 1e-9
        x, y = self.positions_array.T
        inside = (b.xmin - tol <= x) & (x <= b.xmax + tol)
        inside &= (b.ymin - tol <= y) & (y <= b.ymax + tol)
        if not inside.all():
            i = int(np.argmin(inside))  # the first node outside
            raise ValueError(f"node {i} deployed outside the field at {positions[i]}")
        self.value: np.ndarray = np.array(
            self._sample(positions, sensing_noise), dtype=np.float64
        )
        self.alive: np.ndarray = np.ones(n, dtype=bool)
        self.sensing_ok: np.ndarray = np.ones(n, dtype=bool)
        self.estimated_positions: np.ndarray = np.full((n, 2), np.nan)
        self.nodes = NodeViews(self)
        self._tree_version = 0
        if prebuilt is not None:
            self.csr = prebuilt.csr
            self.sink_index = (
                sink_index if sink_index is not None else prebuilt.sink_index
            )
            self.tree = prebuilt.tree
            return
        # CSR is the only adjacency: the edge set never changes (failures
        # only flip per-node flags), so it is built once with the batched
        # kernel and every traversal reads its rows.
        with profiling.stage("topology.build"):
            self.csr: CsrAdjacency = build_csr_adjacency(
                self.positions_array, radio_range
            )
        if sink_index is None:
            centre = field.bounds.center
            sink_index = min(
                range(len(positions)), key=lambda i: dist(positions[i], centre)
            )
        self.sink_index = sink_index
        self.tree: RoutingTree = self._build_tree()

    def _sample(self, positions: Sequence[Vec], sensing_noise: float) -> List[float]:
        """One field reading per position, in node order (plus a noise
        draw each when ``sensing_noise`` > 0)."""
        value = self.field.value
        if sensing_noise <= 0:
            return [value(p[0], p[1]) for p in positions]
        gauss = self._rng.gauss
        return [value(p[0], p[1]) + gauss(0.0, sensing_noise) for p in positions]

    def skeleton(self) -> TopologySkeleton:
        """Capture the reusable topology (see :class:`TopologySkeleton`).

        Only valid on a fully-alive network (the skeleton's tree is the
        healthy one); callers cache it right after construction.
        """
        return TopologySkeleton(
            positions_array=self.positions_array,
            csr=self.csr,
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
        return len(self.value)

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

    def node_state(self) -> NodeState:
        """The per-node state the batched phases read.

        The stored arrays themselves (read-only views), plus ``can_sense``
        (alive and sensing_ok) and ``routed`` (a level in the current
        tree), each one array operation.  A write through
        ``nodes[i]`` is a write to these arrays, so nothing can go stale.
        """
        return NodeState(
            alive=_read_only(self.alive),
            can_sense=self.alive & self.sensing_ok,
            routed=self.tree.level >= 0,
            value=_read_only(self.value),
        )

    def app_positions(self, ids: np.ndarray) -> np.ndarray:
        """Nodes ``ids``' positions as the application knows them, as a
        ``(len(ids), 2)`` array: the localisation estimate where one
        exists, ground truth elsewhere (:attr:`SensorNode.app_position`)."""
        est = self.estimated_positions[ids]
        return np.where(np.isnan(est[:, :1]), self.positions_array[ids], est)

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.alive))

    def average_degree(self) -> float:
        """Mean alive-neighbour count over alive nodes."""
        return average_degree(self.csr, self.alive)

    def is_connected(self) -> bool:
        return is_connected(self.csr, self.alive)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _build_tree(self) -> RoutingTree:
        self._tree_version += 1
        with profiling.stage("topology.tree"):
            return build_routing_tree(
                self.positions_array, self.csr, self.sink_index, self.alive
            )

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
        # Ascending ids: ``rng.sample`` reads the list in this order.
        candidates = [*range(self.sink_index), *range(self.sink_index + 1, self.n_nodes)]
        k = min(int(ratio * len(candidates) + 0.5), len(candidates))
        failed = r.sample(candidates, k)
        self.sensing_ok[failed] = False
        if mode == "crash":
            self.alive[failed] = False
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
        self.value[:] = self._sample(self.positions_array.tolist(), sensing_noise)

    def revive_all(self) -> None:
        """Undo failure injection (used between experiment repetitions)."""
        self.alive[:] = True
        self.sensing_ok[:] = True
        self.rebuild_tree()
