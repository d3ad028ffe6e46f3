"""Per-node cost accounting.

Every protocol run charges its work here at the moment the work is
simulated: bytes entering a node's transmitter or receiver and arithmetic
operations executed by its CPU.  The energy model (:mod:`repro.energy`) is
a pure function of the resulting counters, so communicational and
computational overheads (Figs. 14-15) and energy (Fig. 16) all come from a
single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class CostAccountant:
    """Mutable per-node counters for one protocol run.

    Attributes:
        n_nodes: network size (counter array length).
        tx_bytes: bytes transmitted per node.
        rx_bytes: bytes received per node.
        ops: arithmetic operations executed per node (the paper's
            "computational intensity ... normalized with the operational
            overhead of each arithmetic operation", Section 5.2).
        reports_generated: number of application-level reports created at
            source nodes.
        reports_delivered: number of reports that reached the sink (after
            any in-network filtering / aggregation).
    """

    n_nodes: int
    tx_bytes: np.ndarray = field(init=False)
    rx_bytes: np.ndarray = field(init=False)
    ops: np.ndarray = field(init=False)
    reports_generated: int = 0
    reports_delivered: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.tx_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        self.rx_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        self.ops = np.zeros(self.n_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge_tx(self, node: int, nbytes: int) -> None:
        """Charge one transmission of ``nbytes`` at ``node``."""
        self._check(node, nbytes)
        self.tx_bytes[node] += nbytes

    def charge_rx(self, node: int, nbytes: int) -> None:
        """Charge one reception of ``nbytes`` at ``node``."""
        self._check(node, nbytes)
        self.rx_bytes[node] += nbytes

    def charge_ops(self, node: int, count: int) -> None:
        """Charge ``count`` arithmetic operations at ``node``."""
        self._check(node, count)
        self.ops[node] += count

    def charge_hop(self, sender: int, receiver: int, nbytes: int) -> None:
        """One hop-by-hop unicast: tx at the sender, rx at the receiver."""
        self.charge_tx(sender, nbytes)
        self.charge_rx(receiver, nbytes)

    def charge_local_broadcast(
        self, sender: int, receivers: List[int], nbytes: int
    ) -> None:
        """One local broadcast: a single tx, one rx per alive neighbour."""
        self.charge_tx(sender, nbytes)
        for r in receivers:
            self.charge_rx(r, nbytes)

    # ------------------------------------------------------------------
    # Batched charging (the slot-parallel transport)
    # ------------------------------------------------------------------
    #
    # Counters are int64 and addition is associative, so one scatter-add
    # per level lands on exactly the bytes/ops the per-frame calls would
    # -- order-free bit-identity, pinned by the transport differential
    # tests.  Repeated node indices accumulate (``np.add.at`` semantics).

    def charge_tx_batch(self, nodes: np.ndarray, nbytes: np.ndarray) -> None:
        """Scatter-add transmissions: ``tx_bytes[nodes[i]] += nbytes[i]``."""
        self._check_batch(nodes, nbytes)
        np.add.at(self.tx_bytes, nodes, nbytes)

    def charge_rx_batch(self, nodes: np.ndarray, nbytes: np.ndarray) -> None:
        """Scatter-add receptions: ``rx_bytes[nodes[i]] += nbytes[i]``."""
        self._check_batch(nodes, nbytes)
        np.add.at(self.rx_bytes, nodes, nbytes)

    def charge_ops_batch(self, nodes: np.ndarray, counts: np.ndarray) -> None:
        """Scatter-add operations: ``ops[nodes[i]] += counts[i]``."""
        self._check_batch(nodes, counts)
        np.add.at(self.ops, nodes, counts)

    def _check_batch(self, nodes: np.ndarray, amounts: np.ndarray) -> None:
        if len(nodes) and (
            int(nodes.min()) < 0 or int(nodes.max()) >= self.n_nodes
        ):
            raise IndexError("node index out of range")
        if len(amounts) and int(np.min(amounts)) < 0:
            raise ValueError("cannot charge a negative amount")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_traffic_bytes(self) -> int:
        """Network-wide transmitted bytes (the paper's traffic metric)."""
        return int(self.tx_bytes.sum())

    def total_traffic_kb(self) -> float:
        return self.total_traffic_bytes() / 1024.0

    def total_ops(self) -> int:
        return int(self.ops.sum())

    def per_node_ops_mean(self) -> float:
        return float(self.ops.mean())

    def per_node_ops_max(self) -> int:
        return int(self.ops.max())

    def summary(self) -> Dict[str, float]:
        """A flat dict convenient for experiment tables."""
        return {
            "traffic_kb": self.total_traffic_kb(),
            "tx_bytes": float(self.tx_bytes.sum()),
            "rx_bytes": float(self.rx_bytes.sum()),
            "total_ops": float(self.total_ops()),
            "per_node_ops_mean": self.per_node_ops_mean(),
            "reports_generated": float(self.reports_generated),
            "reports_delivered": float(self.reports_delivered),
        }

    def _check(self, node: int, amount: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range")
        if amount < 0:
            raise ValueError("cannot charge a negative amount")
