"""TAG-style slotted collection schedule and epoch latency.

Section 3.1: "Nodes in different levels forward packets during different
time slots."  This module models that schedule to measure a quantity the
paper's evaluation leaves implicit: how long one contour-mapping epoch
takes on air.

Model (one collection wave, deepest level first):

- the epoch is divided into one slot per tree level, scheduled from the
  deepest level up, so a report generated anywhere reaches the sink
  within the same epoch;
- within a level's slot, nodes share the channel spatially: two nodes
  interfere iff they are within ``interference_factor x radio_range`` of
  each other, so the slot must last as long as the worst *interference
  clique* of concurrently transmitting nodes needs (greedy colouring of
  the level's interference graph gives the serialisation factor);
- a node's airtime is its transmitted bytes at the radio's data rate.

The result is a lower-bound epoch latency under ideal TDMA -- the right
scale for comparing protocols, since all of them ride the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.energy.mica2 import Mica2Model
from repro.geometry import Vec, dist
from repro.network.accounting import CostAccountant
from repro.network.network import SensorNetwork


@dataclass(frozen=True)
class EpochSchedule:
    """Latency breakdown of one collection epoch.

    Attributes:
        slot_seconds: per tree level (index = level), the slot duration.
        epoch_seconds: total epoch latency (sum of slots).
        busiest_level: level whose slot is longest.
    """

    slot_seconds: List[float]
    epoch_seconds: float
    busiest_level: int


def epoch_latency(
    network: SensorNetwork,
    costs: CostAccountant,
    radio: Mica2Model = None,
    interference_factor: float = 2.0,
) -> EpochSchedule:
    """Schedule the charged transmissions and compute the epoch latency.

    Args:
        network: the routed network (levels come from its tree).
        costs: a completed protocol run's accountant -- ``tx_bytes`` is
            what each node must put on air during its level's slot.
        radio: data-rate source (default Mica2's CC1000 at 38.4 kbps).
        interference_factor: carrier-sense range as a multiple of the
            radio range (2.0 is the classic protocol-model choice).
    """
    r = radio if radio is not None else Mica2Model()
    seconds_per_byte = 8.0 / r.data_rate_bps
    interference_range = interference_factor * network.radio_range

    tree = network.tree
    slots = [0.0] * (tree.depth + 1)
    for level in range(1, tree.depth + 1):
        # The level's transmitting nodes, in ascending id.
        members = tree.members_at(level)
        members = members[costs.tx_bytes[members] > 0]
        if members.size == 0:
            continue
        airtimes = (costs.tx_bytes[members] * seconds_per_byte).tolist()
        points = network.positions_array[members].tolist()
        slots[level] = _slot_duration(airtimes, points, interference_range)

    total = sum(slots)
    busiest = max(range(len(slots)), key=lambda l: slots[l]) if slots else 0
    return EpochSchedule(
        slot_seconds=slots, epoch_seconds=total, busiest_level=busiest
    )


def _slot_duration(
    airtimes: List[float],
    points: List[Vec],
    interference_range: float,
) -> float:
    """Length of one level's slot under spatial-reuse TDMA.

    Nodes outside each other's interference range transmit concurrently.
    Greedy sequential colouring orders nodes by decreasing airtime (long
    talkers first); the slot lasts as long as the longest colour-class
    chain a node participates in -- computed as, per node, its own
    airtime plus the airtimes of earlier-coloured interferers, taking the
    maximum.  This upper-bounds the optimum within the usual greedy
    factor while staying O(m^2) for the (small) per-level member counts.
    """
    ordered = sorted(range(len(airtimes)), key=lambda i: -airtimes[i])
    finish: Dict[int, float] = {}
    worst = 0.0
    for i in ordered:
        start = 0.0
        for j in finish:
            if dist(points[i], points[j]) <= interference_range:
                start = max(start, finish[j])
        finish[i] = start + airtimes[i]
        worst = max(worst, finish[i])
    return worst
