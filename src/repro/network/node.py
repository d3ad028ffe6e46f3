"""One sensor as a view of the network's per-node arrays."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

from repro.geometry import Vec

if TYPE_CHECKING:
    from repro.network.network import SensorNetwork


def _stored(name: str, cast) -> property:
    """Read/write ``network.<name>[node_id]`` as a Python scalar."""

    def get(self):
        return cast(getattr(self.network, name)[self.node_id])

    def put(self, v) -> None:
        getattr(self.network, name)[self.node_id] = v

    return property(get, put)


def _routing(name: str) -> property:
    """Read ``network.tree.<name>[node_id]``, with None for -1."""

    def get(self) -> Optional[int]:
        v = int(getattr(self.network.tree, name)[self.node_id])
        return v if v >= 0 else None

    return property(get)


class SensorNode:
    """One sensor in the field: a view of ``(network, node_id)``.

    The state lives in the network's arrays and its routing tree; a view
    holds none of it, so a write through any view is the state every
    array reader sees.  Reads hand out Python ``float`` / ``bool`` /
    ``int`` / ``tuple`` / ``None``.

    Attributes:
        node_id: index into the network's arrays.
        position: deployment position (known to the node through GPS or a
            localisation service -- Section 3.3 of the paper).
        value: the sensed attribute value (water depth in the harbor
            scenario).  Sampled from the scalar field at deployment; a
            sensing-noise model may perturb it.
        alive: crashed nodes neither sense, report, route, nor answer
            neighbourhood queries.
        sensing_ok: sensing-failed nodes produce no data (and answer no
            neighbourhood value queries) but keep forwarding packets.
            ``can_sense`` requires both flags; ``alive`` alone gates
            routing.
        estimated_position: the localisation estimate (None when none).
        level: hop distance from the sink along the routing tree
            (0 = the sink itself; ``None`` = unreachable).
        parent: routing-tree parent (``None`` for the sink / unreachable).
    """

    __slots__ = ("network", "node_id")

    def __init__(self, network: "SensorNetwork", node_id: int):
        self.network = network
        self.node_id = node_id

    value = _stored("value", float)
    alive = _stored("alive", bool)
    sensing_ok = _stored("sensing_ok", bool)
    level = _routing("level")
    parent = _routing("parent")

    @property
    def position(self) -> Vec:
        return tuple(self.network.positions_array[self.node_id].tolist())

    @property
    def estimated_position(self) -> Optional[Vec]:
        x, y = self.network.estimated_positions[self.node_id].tolist()
        return None if math.isnan(x) else (x, y)

    @estimated_position.setter
    def estimated_position(self, pos: Optional[Vec]) -> None:
        self.network.estimated_positions[self.node_id] = math.nan if pos is None else pos

    @property
    def reachable(self) -> bool:
        """True when the node has a route to the sink."""
        return self.alive and self.level is not None

    @property
    def can_sense(self) -> bool:
        """True when the node produces data and answers value queries."""
        return self.alive and self.sensing_ok

    @property
    def app_position(self) -> Vec:
        """The position the APPLICATION believes the node is at.

        ``position`` is ground truth (where the node physically is, which
        governs sensing and radio); ``app_position`` is what goes into
        reports and regressions -- the localisation service's estimate
        when one ran (Section 3.3: positions come "from attached
        localization devices such as a GPS receiver or by one of existing
        algorithms"), else the truth.
        """
        est = self.estimated_position
        return est if est is not None else self.position


class NodeViews(Sequence):
    """``network.nodes``: :class:`SensorNode` views made on access."""

    __slots__ = ("_network",)

    def __init__(self, network: "SensorNetwork"):
        self._network = network

    def __len__(self) -> int:
        return self._network.n_nodes

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if not -n <= i < n:
            raise IndexError("node index out of range")
        return SensorNode(self._network, int(i) % n)
