"""Fault-tolerant collection transport shared by Iso-Map and every baseline.

One :class:`EpochTransport` instance drives one collection epoch: it
takes the routing tree one level at a time, deepest first (the TAG slot
schedule), fires the :class:`~repro.network.faults.FaultPlan`'s
scheduled events at the level boundaries, and carries each level's
frames to their parents as one batch with the defenses a real
deployment would run:

- **ARQ** with capped exponential backoff: a frame lost or CRC-rejected
  on air is retransmitted up to ``max_retries`` times; every attempt
  burns tx energy at the sender and listen energy at the receiver, and
  each backoff window is charged as ops at the sender.
- **CRC**: corrupted frames are detected at the receiver and treated as
  losses (retried under ARQ).  CRC-16/CCITT-FALSE detects every burst of
  up to 3 flipped bits (Hamming distance 4 for frames this short), which
  is exactly the damage :meth:`FaultEngine.corrupt_payload` injects, so
  detection is modelled as certain; ``tests/network/test_transport.py``
  ties the model to the real :func:`repro.core.wire.check_crc`.  With
  the CRC *off*, a damaged frame is accepted: protocols that own a codec
  decode a poisoned report (the silently-wrong-map failure mode), the
  rest discard an unparseable frame.
- **Sequence-number duplicate suppression**: a duplicated frame (the
  classic lost-ACK retransmission) is dropped by the receiver's seq
  filter; with dedup off the copy propagates, costing energy and
  polluting filters/aggregates downstream.
- **Local orphan re-parenting**: a node whose parent crashed probes its
  alive neighbours and re-attaches to one at level <= its own -- an
  O(degree) repair instead of the global ``rebuild_tree()``; probe,
  reply and join traffic is charged.

Framing note: the CRC trailer, sequence numbers and link-layer ACKs ride
inside the per-hop framing the paper's byte budget already implies (see
:mod:`repro.core.wire`), so a fault-free epoch through this transport
charges *exactly* the bytes the direct ``charge_hop`` path charged --
the golden snapshot is byte-identical under a zero-fault plan.  The
transport charges only work that would not happen on a perfect link:
retransmissions, duplicate frames, backoff windows and repair messages.

There is one collection driver, :meth:`EpochTransport.run_collection`.
It applies one liveness rule: a node forwards only while it is alive --
the network's ``alive`` flags, minus the fault engine's mid-epoch
crashes when a plan runs.  With no fault engine every frame lands on
its first attempt and no draws are made; under a plan each level's
draws are resolved as arrays.  (:func:`forward_reports_to_sink` prices
a zero-fault epoch over an all-alive routing tree in closed form
instead.)  The per-frame oracle of both (a walk that sends one frame and
one attempt at a time) lives test-side, in
``tests/network/transport_reference.py``.

Accounting is per frame *instance*: ``generated`` report instances plus
``duplicates_created`` copies each end in exactly one terminal bucket
(``delivered``, ``dropped_by_filter``, ``lost``, ``corrupted_discarded``
or ``duplicate_discarded``), which is the conservation law
:meth:`DegradationReport.is_conserved` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import profiling
from repro.geometry import dist
from repro.network.accounting import CostAccountant
from repro.network.faults import FaultEngine, FaultPlan
from repro.network.network import SensorNetwork
from repro.network.tiling import (
    AttemptResolution,
    TilePartition,
    reduce_attempt_draws,
    resolve_tile_job,
)

#: Terminal buckets (DegradationReport counter names) an instance can hit.
_LOST = "lost"
_CORRUPTED = "corrupted_discarded"

#: Why a node's buffered instances were stranded (:meth:`EpochTransport.strand`).
STRAND_CRASHED = "crashed"
STRAND_ORPHANED = "orphaned"

#: A receiver-side payload mangler: called when a corrupted frame is
#: accepted (CRC off); returns the poisoned payload the receiver decodes,
#: or None when the damage makes the frame unparseable.
Mangler = Callable[[Any, FaultEngine], Optional[Any]]


@dataclass(frozen=True)
class TransportConfig:
    """Defense knobs of the fault-tolerant transport.

    Attributes:
        arq: retransmit frames lost or CRC-rejected on air.
        max_retries: retransmissions after the first attempt (so at most
            ``max_retries + 1`` attempts per frame).
        backoff_base / backoff_cap: retry ``k`` (k >= 1) charges
            ``min(backoff_base << (k - 1), backoff_cap)`` ops at the
            sender -- the capped exponential backoff listen window.
        crc: receivers CRC-check frames and reject damaged ones.
        dedup: receivers drop duplicate frames by sequence number.
        reparent: nodes whose parent crashed locally re-attach to an
            alive neighbour at level <= their own (repair traffic is
            charged) instead of stranding their buffered reports.
    """

    arq: bool = True
    max_retries: int = 3
    backoff_base: int = 1
    backoff_cap: int = 8
    crc: bool = True
    dedup: bool = True
    reparent: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")

    @staticmethod
    def hardened() -> "TransportConfig":
        """Every defense on (the default)."""
        return TransportConfig()

    @staticmethod
    def vanilla() -> "TransportConfig":
        """The paper's implicit transport: no defenses at all."""
        return TransportConfig(
            arq=False, max_retries=0, crc=False, dedup=False, reparent=False
        )


@dataclass
class DegradationReport:
    """What one epoch's collection lost, repaired and discarded.

    Instance conservation: ``delivered + dropped_by_filter + lost +
    corrupted_discarded + duplicate_discarded == generated +
    duplicates_created`` (each generated report instance and each
    injected copy ends in exactly one bucket).

    Attributes:
        generated: report instances registered by the protocol.
        delivered: distinct reports that reached the sink.
        dropped_by_filter: instances rejected by in-network filtering.
        lost: instances lost on air (retries exhausted) or stranded in a
            crashed/orphaned node's buffer.
        corrupted_discarded: instances discarded because their frame
            arrived damaged beyond use (retries exhausted under CRC, or
            unparseable without one).
        duplicate_discarded: injected copies suppressed by seq-number
            dedup, plus extra sink arrivals of an already-delivered
            report.
        duplicates_created: copies injected by the fault plan.
        corrupted_detected: damaged frames caught by the CRC (each was
            retried or finally discarded).
        corrupted_accepted: damaged frames accepted without a CRC and
            decoded into poisoned reports that kept flowing.
        retransmissions: ARQ retry attempts that went on air.
        repaired_orphans: nodes locally re-attached after their parent
            crashed.
        stranded_crashed / stranded_orphaned: instances stranded in a
            crashed node's buffer / in an orphan that found no new parent
            (both also counted in ``lost``).
        crashed_nodes / recovered_nodes: mid-epoch node events fired.
        disconnected_regions: connected components of the end-of-epoch
            alive communication graph that cannot reach the sink.
    """

    generated: int = 0
    delivered: int = 0
    dropped_by_filter: int = 0
    lost: int = 0
    corrupted_discarded: int = 0
    duplicate_discarded: int = 0
    duplicates_created: int = 0
    corrupted_detected: int = 0
    corrupted_accepted: int = 0
    retransmissions: int = 0
    repaired_orphans: int = 0
    stranded_crashed: int = 0
    stranded_orphaned: int = 0
    crashed_nodes: int = 0
    recovered_nodes: int = 0
    disconnected_regions: int = 0

    @property
    def is_conserved(self) -> bool:
        """Does every instance land in exactly one terminal bucket?"""
        return (
            self.delivered
            + self.dropped_by_filter
            + self.lost
            + self.corrupted_discarded
            + self.duplicate_discarded
            == self.generated + self.duplicates_created
        )

    def delivery_rate(self) -> float:
        """Fraction of generated reports that reached the sink."""
        return self.delivered / self.generated if self.generated else 1.0

    @property
    def is_degraded(self) -> bool:
        """Anything at all to worry about in this epoch's map?"""
        return (
            self.lost > 0
            or self.corrupted_discarded > 0
            or self.corrupted_accepted > 0
            or self.crashed_nodes > 0
            or self.disconnected_regions > 0
        )

    def summary(self) -> Dict[str, float]:
        """A flat dict convenient for experiment tables."""
        return {
            "generated": float(self.generated),
            "delivered": float(self.delivered),
            "delivery_rate": self.delivery_rate(),
            "dropped_by_filter": float(self.dropped_by_filter),
            "lost": float(self.lost),
            "corrupted_discarded": float(self.corrupted_discarded),
            "corrupted_accepted": float(self.corrupted_accepted),
            "duplicate_discarded": float(self.duplicate_discarded),
            "retransmissions": float(self.retransmissions),
            "repaired_orphans": float(self.repaired_orphans),
            "crashed_nodes": float(self.crashed_nodes),
            "disconnected_regions": float(self.disconnected_regions),
        }


@dataclass
class OutFrame:
    """One frame a protocol hands to :meth:`EpochTransport.run_collection`.

    Attributes:
        nbytes: wire size of the frame.
        rids: tracked report instances riding it (one for a plain
            report, many for an aggregate).
        payload: what the receiver decodes on arrival.
    """

    nbytes: int
    rids: Tuple[int, ...]
    payload: Any = None


#: ``frames_for(node)``: pop and return the node's outbox at its slot.
#: Called exactly once per routed non-sink node, deepest level first and
#: in ascending id within a level (so children before parents); for a
#: stranded node the returned frames are bucketed as lost by the driver.
FramesFor = Callable[[int], Sequence[OutFrame]]

#: ``on_arrival(sender, receiver, frame, payload, is_duplicate)``: one
#: accepted frame instance at the receiver (which may be the sink --
#: aggregating protocols absorb there too, so the driver never
#: special-cases it).  Payload is the frame's, possibly mangled; a
#: duplicate's payload is the *same object*, so callers that mutate
#: payloads (region aggregation) must clone it.
OnArrival = Callable[[int, int, OutFrame, Any, bool], None]


class EpochTransport:
    """Carries one protocol's collection epoch over a faulty network.

    Args:
        network: the deployment (never mutated; crash state lives in the
            fault engine).
        costs: the run's accountant; all transport work is charged here.
        config: defense knobs; defaults to :meth:`TransportConfig.hardened`.
        plan: the fault plan, the one source of link loss, crashes,
            corruption and duplication.  None or a null plan builds no
            fault engine: every frame lands on its first attempt, which
            charges exactly the bytes of a perfect link layer.
        mangler: optional receiver-side decoder for corrupted frames
            accepted without a CRC (protocols with a real codec pass
            one; without it such frames are discarded as unparseable).
        tiling: optional :class:`~repro.network.tiling.TilePartition`;
            with a fault engine, each level batch's draws resolve per
            sender-tile (memory bounded by the largest tile's frames)
            and merge at a deterministic barrier -- bit-identical to the
            untiled batch at any tile layout.
        tile_jobs: worker processes for per-tile resolution (1 =
            resolve tiles inline; >1 ships tile jobs to a process pool
            and applies results in sorted-tile order, same bytes).
    """

    def __init__(
        self,
        network: SensorNetwork,
        costs: CostAccountant,
        config: Optional[TransportConfig] = None,
        plan: Optional[FaultPlan] = None,
        mangler: Optional[Mangler] = None,
        tiling: Optional[TilePartition] = None,
        tile_jobs: int = 1,
    ):
        self.network = network
        self.costs = costs
        self.config = config if config is not None else TransportConfig.hardened()
        self.mangler = mangler
        self.tiling = tiling
        self.tile_jobs = max(1, int(tile_jobs))
        self._tile_pool = None
        max_attempts = self._max_attempts()
        if plan is not None and not plan.is_null:
            self.engine: Optional[FaultEngine] = FaultEngine(plan, network)
            # Fix every frame's draw budget up front: counter-based
            # streams address (frame, attempt) slots, so the budget must
            # be known before the first draw and stay constant.
            self.engine.attempts_per_frame = max_attempts
        else:
            self.engine = None
        # ``_backoff_ops[k]``: backoff ops charged over attempts 2..k.
        self._backoff_ops = np.zeros(max_attempts + 1, dtype=np.int64)
        for a in range(2, max_attempts + 1):
            self._backoff_ops[a] = self._backoff_ops[a - 1] + min(
                self.config.backoff_base << (a - 2), self.config.backoff_cap
            )
        self._report = DegradationReport()
        self._open = 0  # instances registered/injected but not yet bucketed
        self._next_rid = 0
        self._delivered_rids: set = set()

    # ------------------------------------------------------------------
    # Report registration and terminal buckets
    # ------------------------------------------------------------------

    def register(self) -> int:
        """Register one generated report; returns its tracking id."""
        rid = self._next_rid
        self._next_rid += 1
        self._report.generated += 1
        self._open += 1
        return rid

    def mark_filtered(self, rid: int) -> None:
        """One instance of ``rid`` was rejected by in-network filtering."""
        self._report.dropped_by_filter += 1
        self._open -= 1

    def strand(self, rids: Sequence[int], reason: str) -> None:
        """Instances buffered in a node that cannot transmit are lost."""
        n = len(rids)
        self._report.lost += n
        self._open -= n
        if reason == STRAND_CRASHED:
            self._report.stranded_crashed += n
        else:
            self._report.stranded_orphaned += n

    def deliver_at_sink(self, rid: int) -> bool:
        """One instance of ``rid`` arrived at the sink.

        Returns True on the first arrival (count the report delivered);
        later arrivals are duplicate-discarded by the sink's seq filter.
        """
        self._open -= 1
        if rid in self._delivered_rids:
            self._report.duplicate_discarded += 1
            return False
        self._delivered_rids.add(rid)
        self._report.delivered += 1
        return True

    def _terminal(self, rids: Sequence[int], bucket: str) -> None:
        n = len(rids)
        if bucket == _LOST:
            self._report.lost += n
        else:
            self._report.corrupted_discarded += n
        self._open -= n

    # ------------------------------------------------------------------
    # The collection driver
    # ------------------------------------------------------------------

    def _max_attempts(self) -> int:
        return (self.config.max_retries + 1) if self.config.arq else 1

    def _alive(self) -> np.ndarray:
        """Liveness now: the network's ``alive`` flags, minus the fault
        engine's mid-epoch crashes when a plan runs."""
        if self.engine is None:
            return self.network.alive
        return self.engine.alive_array()

    def run_collection(
        self,
        frames_for: FramesFor,
        on_arrival: OnArrival,
        ops_per_frame: int = 0,
    ) -> None:
        """Drive one whole collection epoch through protocol callbacks.

        Every protocol's collection loop is the same shape -- pop the
        node's outbox at its slot, send each frame to the parent, hand
        accepted frames to the receiver -- so the loop lives here once
        and the protocol supplies ``frames_for`` / ``on_arrival``.

        Per level (deepest first): fire the slot's fault events, decide
        each member's fate from :meth:`_alive` (dead members strand,
        orphans locally re-parent), then send every live member's frames
        as one batch (:meth:`_send_level_batch`).  The rule is the same
        with no fault engine: a node whose ``alive`` flag was cleared
        without a tree rebuild strands its buffer, and its children
        re-parent around it.  Every frame then lands on its first
        attempt.

        A member that adopts a *same-level* neighbour forces a batch cut
        at the adopted parent, so the adopted frames are dispatched into
        its outbox before its own ``frames_for`` runs: a same-level
        neighbour is adoptable iff its id is greater, i.e. iff its slot
        has not passed in the ascending-id order.

        ``ops_per_frame`` is charged at the sender for every frame
        handed over with a live parent (the store-and-forward bookkeeping
        some protocols charge per transmitted frame).
        """
        engine = self.engine
        tree = self.network.tree
        cfg = self.config
        for lvl in range(tree.depth, 0, -1):
            members = tree.members_at(lvl)
            if members.size == 0:
                continue
            parents = tree.parent[members]
            routed = parents >= 0
            new_parent: Dict[int, int] = {}
            cuts: set = set()
            if engine is not None:
                engine.advance_to_slot(lvl)
            with profiling.stage("transport.batch.decide"):
                alive = self._alive()
                m_alive = alive[members]
                p_alive = m_alive & routed & alive[np.where(routed, parents, 0)]
                if cfg.reparent:
                    orphaned = m_alive & routed & ~p_alive
                    for u in members[orphaned].tolist():
                        w = self._reparent_with(u, alive, lambda x, _u=u: x > _u)
                        if w is not None:
                            new_parent[u] = w
                            if tree.level[w] == lvl:
                                cuts.add(w)
            batch: List[Tuple[int, int, Sequence[OutFrame]]] = []
            members_list = members.tolist()
            m_alive_list = m_alive.tolist()
            p_alive_list = p_alive.tolist()
            parents_list = parents.tolist()
            for i, u in enumerate(members_list):
                if u in cuts and batch:
                    self._send_level_batch(batch, on_arrival, ops_per_frame)
                    batch = []
                if parents_list[i] < 0:
                    continue  # unrouted safety guard
                if not m_alive_list[i]:
                    for fr in frames_for(u):
                        self.strand(fr.rids, STRAND_CRASHED)
                    continue
                if p_alive_list[i]:
                    p = parents_list[i]
                else:
                    p = new_parent.get(u)
                    if p is None:
                        for fr in frames_for(u):
                            self.strand(fr.rids, STRAND_ORPHANED)
                        continue
                frames = frames_for(u)
                if frames:
                    batch.append((u, p, frames))
            if batch:
                self._send_level_batch(batch, on_arrival, ops_per_frame)
        if engine is not None:
            engine.finish_epoch()

    def _reparent_with(
        self, u: int, alive: np.ndarray, slot_pending: Callable[[int], bool]
    ) -> Optional[int]:
        """Locally re-attach ``u`` after its parent crashed.

        ``u`` broadcasts a probe; every routed neighbour alive in
        ``alive`` (the caller's :meth:`_alive` view) answers
        with its tree level; ``u`` adopts the best neighbour at a level
        below its own, or at its own level if that neighbour's slot has
        not passed yet (so the adopted reports still get forwarded this
        epoch) -- ``slot_pending`` answers that for the caller's slot
        order.  Tie-break: (level, distance to sink, id).  All repair
        traffic is charged.  Returns the new parent or None.
        """
        # Imported here: repro.core.wire would otherwise close an import
        # cycle through repro.core.__init__ -> protocol -> repro.network.
        from repro.core.wire import (
            REPAIR_JOIN_BYTES,
            REPAIR_PROBE_BYTES,
            REPAIR_REPLY_BYTES,
        )

        network = self.network
        level = network.tree.level
        my_level = int(level[u])
        nbrs = network.csr.neighbors(u)
        responders = [
            (w, lw)
            for w, lw, up in zip(
                nbrs.tolist(), level[nbrs].tolist(), alive[nbrs].tolist()
            )
            if lw >= 0 and up
        ]
        self.costs.charge_local_broadcast(
            u, [w for w, _ in responders], REPAIR_PROBE_BYTES
        )
        for w, _ in responders:
            self.costs.charge_hop(w, u, REPAIR_REPLY_BYTES)
        candidates = [
            (w, lw)
            for w, lw in responders
            if lw < my_level or (lw == my_level and slot_pending(w))
        ]
        if not candidates:
            return None
        pos = network.positions_array
        sink_pos = pos[network.tree.sink].tolist()
        best, _ = min(
            candidates, key=lambda c: (c[1], dist(pos[c[0]].tolist(), sink_pos), c[0])
        )
        self.costs.charge_hop(u, best, REPAIR_JOIN_BYTES)
        self._report.repaired_orphans += 1
        return best

    def _send_level_batch(
        self,
        batch: List[Tuple[int, int, Sequence[OutFrame]]],
        on_arrival: OnArrival,
        ops_per_frame: int,
    ) -> None:
        """Resolve one batch of frames (contiguous per sender) as arrays.

        Each frame's ARQ loop becomes a first-hit search over its
        precomputed attempt outcomes, the per-attempt charges become
        closed-form sums, and only the rare receiver-side branches
        (mangled acceptance, terminal bucketing of mangler discards)
        drop back to per-frame Python -- in ascending frame order, which
        keeps the Mersenne damage stream in the order a frame-by-frame
        sender would consume it.  With no fault engine there is nothing
        to draw: every frame lands on its first attempt.
        """
        engine = self.engine
        cfg = self.config
        report = self._report
        max_attempts = self._max_attempts()

        with profiling.stage("transport.batch.send"):
            edges = [(u, p) for (u, p, _) in batch]
            counts = np.fromiter(
                (len(frames) for (_, _, frames) in batch),
                np.int64,
                count=len(batch),
            )
            flat_frames: List[OutFrame] = [
                fr for (_, _, frames) in batch for fr in frames
            ]
            total = len(flat_frames)
            senders = np.repeat(
                np.fromiter((u for (u, _, _) in batch), np.int64, count=len(batch)),
                counts,
            )
            receivers = np.repeat(
                np.fromiter((p for (_, p, _) in batch), np.int64, count=len(batch)),
                counts,
            )
            nbytes = np.fromiter(
                (fr.nbytes for fr in flat_frames), np.int64, count=total
            )
            nrids = np.fromiter(
                (len(fr.rids) for fr in flat_frames), np.int64, count=total
            )

            if engine is None:
                res = AttemptResolution(
                    delivered=np.ones(total, dtype=bool),
                    attempts_used=np.ones(total, dtype=np.int64),
                    corr_res=np.zeros(total, dtype=bool),
                    corr_fail=np.zeros(total, dtype=bool),
                    corrupted_detected=0,
                )
                dup = np.zeros(total, dtype=bool)
            elif self.tiling is None:
                air_ok, corr, dup = engine.frame_draws_batch(edges, counts)
                res = reduce_attempt_draws(air_ok, corr, cfg.crc, max_attempts)
            else:
                res, dup = self._resolve_batch_tiled(batch, edges, counts, total)
            delivered = res.delivered
            attempts_used = res.attempts_used

            if cfg.crc:
                report.corrupted_detected += res.corrupted_detected
            report.retransmissions += int((attempts_used - 1).sum())

            # Receiver-side resolution of frames that arrived damaged
            # without a CRC (rare; per-frame, ascending order).
            accepted = delivered.copy()
            mangled: Dict[int, Any] = {}
            if not cfg.crc:
                for j in np.flatnonzero(delivered & res.corr_res).tolist():
                    fr = flat_frames[j]
                    acc = self.mangler(fr.payload, engine) if self.mangler else None
                    if acc is None:
                        accepted[j] = False
                        self._terminal(fr.rids, _CORRUPTED)
                    else:
                        report.corrupted_accepted += 1
                        mangled[j] = acc

            # Duplication applies to accepted frames carrying rids; the
            # copy occupies both radios either way, dedup decides whether
            # it propagates.
            dup_apply = accepted & dup & (nrids > 0)
            n_dup_rids = int(nrids[dup_apply].sum())
            if n_dup_rids:
                report.duplicates_created += n_dup_rids
                self._open += n_dup_rids
                if cfg.dedup:
                    report.duplicate_discarded += n_dup_rids
                    self._open -= n_dup_rids

            # Terminal buckets for frames that never got through.  A
            # CRC-rejected final attempt is a corruption discard; plain
            # exhaustion is a loss.  (Without a CRC only link loss can
            # exhaust the loop; mangler discards were bucketed above.)
            failed = ~delivered
            if failed.any():
                corr_fail = res.corr_fail
                n_corr = int(nrids[corr_fail].sum())
                n_lost = int(nrids[failed & ~corr_fail].sum())
                report.corrupted_discarded += n_corr
                report.lost += n_lost
                self._open -= n_corr + n_lost

            # One scatter-add per counter for the whole batch.
            total_bytes = attempts_used * nbytes + np.where(dup_apply, nbytes, 0)
            self.costs.charge_tx_batch(senders, total_bytes)
            self.costs.charge_rx_batch(receivers, total_bytes)
            ops_amounts = self._backoff_ops[attempts_used]
            if ops_per_frame:
                ops_amounts = ops_amounts + ops_per_frame
            self.costs.charge_ops_batch(senders, ops_amounts)

        with profiling.stage("transport.batch.dispatch"):
            propagate_dup = not cfg.dedup
            dup_flags = dup_apply.tolist()
            senders_list = senders.tolist()
            receivers_list = receivers.tolist()
            for j in np.flatnonzero(accepted).tolist():
                fr = flat_frames[j]
                payload = mangled.get(j, fr.payload)
                on_arrival(senders_list[j], receivers_list[j], fr, payload, False)
                if propagate_dup and dup_flags[j]:
                    on_arrival(senders_list[j], receivers_list[j], fr, payload, True)

    def _resolve_batch_tiled(
        self,
        batch: List[Tuple[int, int, Sequence[OutFrame]]],
        edges: List[Tuple[int, int]],
        counts: np.ndarray,
        total: int,
    ) -> Tuple[AttemptResolution, np.ndarray]:
        """Per-tile draw resolution feeding the deterministic merge barrier.

        Frames group by the *sender's* tile: each directed edge is owned
        exclusively by its sender, so per-edge frame cursors and
        burst-chain checkpoints partition cleanly across tiles, and every
        draw keeps its ``(edge, frame, attempt)`` address -- the scattered
        outcome vectors are bit-identical to the single global batch at
        any tile layout.  Only per-frame outcome arrays come back here;
        everything order-sensitive (the Mersenne damage stream, receiver
        dispatch, charges) happens afterwards at the merge barrier in
        global flat order, which is why tiles may resolve inline, out of
        order, or in worker processes without changing a byte.
        """
        engine = self.engine
        assert engine is not None
        cfg = self.config
        max_attempts = self._max_attempts()
        tile_of = self.tiling.tile_id
        offsets = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        groups: Dict[int, List[int]] = {}
        for i, (u, _p, _frames) in enumerate(batch):
            groups.setdefault(int(tile_of[u]), []).append(i)
        order = sorted(groups)

        delivered = np.zeros(total, dtype=bool)
        attempts_used = np.zeros(total, dtype=np.int64)
        corr_res = np.zeros(total, dtype=bool)
        corr_fail = np.zeros(total, dtype=bool)
        dup = np.zeros(total, dtype=bool)
        detected = 0

        def slots_for(idxs: List[int]) -> np.ndarray:
            return np.concatenate(
                [np.arange(offsets[i], offsets[i + 1]) for i in idxs]
            )

        with profiling.stage("transport.tile.resolve"):
            if self.tile_jobs > 1 and len(order) > 1:
                pool = self._ensure_tile_pool()
                jobs = []
                for t in order:
                    idxs = groups[t]
                    t_edges = [edges[i] for i in idxs]
                    # _edge() only lazily creates cursors; reading them
                    # here is side-effect-free on outcomes.
                    streams = [engine._edge(u, v) for (u, v) in t_edges]
                    payload = (
                        engine.plan,
                        engine.attempts_per_frame,
                        cfg.crc,
                        tuple(t_edges),
                        tuple(int(counts[i]) for i in idxs),
                        tuple(es.frame for es in streams),
                        tuple(es.ge_t for es in streams),
                        tuple(es.ge_state for es in streams),
                        profiling.is_enabled(),
                    )
                    jobs.append(
                        (idxs, streams, pool.submit(resolve_tile_job, payload))
                    )
                # Apply in sorted-tile order: cursor write-back and the
                # profiling merge are the only shared state, and both are
                # per-edge / commutative, so this order is purely for
                # reproducible bookkeeping.
                for idxs, streams, fut in jobs:
                    (d, au, cr, cf, det, dp, cursors, snap) = fut.result()
                    for es, (f, gt, gs) in zip(streams, cursors):
                        es.frame = int(f)
                        es.ge_t = int(gt)
                        es.ge_state = bool(gs)
                    sl = slots_for(idxs)
                    delivered[sl] = d
                    attempts_used[sl] = au
                    corr_res[sl] = cr
                    corr_fail[sl] = cf
                    dup[sl] = dp
                    detected += det
                    if snap:
                        profiling.merge_snapshot(snap)
            else:
                for t in order:
                    idxs = groups[t]
                    t_edges = [edges[i] for i in idxs]
                    with profiling.stage("transport.tile.draws"):
                        air_ok, corr, dp = engine.frame_draws_batch(
                            t_edges, counts[idxs]
                        )
                        r = reduce_attempt_draws(
                            air_ok, corr, cfg.crc, max_attempts
                        )
                    sl = slots_for(idxs)
                    delivered[sl] = r.delivered
                    attempts_used[sl] = r.attempts_used
                    corr_res[sl] = r.corr_res
                    corr_fail[sl] = r.corr_fail
                    dup[sl] = dp
                    detected += r.corrupted_detected
        res = AttemptResolution(
            delivered=delivered,
            attempts_used=attempts_used,
            corr_res=corr_res,
            corr_fail=corr_fail,
            corrupted_detected=detected,
        )
        return res, dup

    def _ensure_tile_pool(self):
        if self._tile_pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._tile_pool = ProcessPoolExecutor(max_workers=self.tile_jobs)
        return self._tile_pool

    # ------------------------------------------------------------------
    # Epoch close-out
    # ------------------------------------------------------------------

    def finalize(self) -> DegradationReport:
        """Fire remaining events, sweep leftovers, return the report."""
        if self._tile_pool is not None:
            self._tile_pool.shutdown()
            self._tile_pool = None
        if self.engine is not None:
            self.engine.finish_epoch()
            self._report.crashed_nodes = len(self.engine.crashed_nodes)
            self._report.recovered_nodes = len(self.engine.recovered_nodes)
        if self._open > 0:
            # Instances still buffered when the epoch ended (e.g. a report
            # generated at an undeliverable holder) never reached any
            # terminal bucket: they are lost to the sink.
            self._report.lost += self._open
            self._open = 0
        self._report.disconnected_regions = self._count_disconnected()
        return self._report

    def _count_disconnected(self) -> int:
        """Components of the end-of-epoch alive graph cut off the sink.

        Floods the sink's component, then each component left over, into
        one mask over the CSR adjacency
        (:meth:`~repro.network.topology.CsrAdjacency.flood`, one gather
        per hop ring), so the whole count costs one pass over the alive
        graph.  Differential-tested against a per-node sweep
        (``tests/network/transport_reference.py``).
        """
        net = self.network
        alive = self._alive()
        seen = np.zeros(net.n_nodes, dtype=bool)
        if alive[net.sink_index]:
            net.csr.flood(net.sink_index, alive, seen)
        regions = 0
        for start in np.flatnonzero(alive & ~seen).tolist():
            if not seen[start]:
                regions += 1
                net.csr.flood(start, alive, seen)
        return regions


# ----------------------------------------------------------------------
# The shared query flood and store-and-forward epoch
# ----------------------------------------------------------------------


def disseminate_query(
    network: SensorNetwork, query_bytes: int, costs: CostAccountant
) -> None:
    """Flood a query down the routing tree (one broadcast per internal node).

    Every routed child of an alive, routed parent receives the query, and
    each such parent transmits it once.  (A node with a tree parent is
    routed, and so is its parent.)
    """
    parent = network.tree.parent
    kids = np.flatnonzero(parent >= 0)
    parents = parent[kids]
    heard = network.alive[parents]
    kids = kids[heard]
    sends = np.zeros(parent.size, dtype=bool)
    sends[parents[heard]] = True
    senders = np.flatnonzero(sends)
    costs.charge_tx_batch(senders, np.full(senders.size, query_bytes, dtype=np.int64))
    costs.charge_rx_batch(kids, np.full(kids.size, query_bytes, dtype=np.int64))


def forward_reports_to_sink(
    network: SensorNetwork,
    frames: Sequence[Tuple[int, int]],
    costs: CostAccountant,
    ops_per_forward: int = 1,
    transport: Optional[EpochTransport] = None,
) -> List[int]:
    """Store-and-forward of one frame per ``(source, nbytes)`` pair.

    Charges tx/rx on every hop and ``ops_per_forward`` at every relay (the
    minimal store-and-forward bookkeeping that makes TinyDB the paper's
    per-node computation lower bound).  Frames move on the TAG bottom-up
    schedule, which charges exactly what the per-source path walk charged
    under a perfect link layer; under a fault plan the transport's
    ARQ/CRC/dedup/re-parenting defenses apply, and with or without one a
    dead routed node strands its buffer (the liveness rule of
    :meth:`EpochTransport.run_collection`).  Returns the indices into ``frames`` of the frames that
    reached the sink, ascending.
    """
    tree = network.tree
    if transport is None:
        transport = EpochTransport(network, costs)
    delivered: set = set()
    pending: List[Tuple[int, int]] = []  # (frame index, rid), routed non-sink
    for i, (s, _nbytes) in enumerate(frames):
        if tree.level[s] < 0:
            continue
        rid = transport.register()
        if s == tree.sink:
            # The sink's own reading needs no transmission.
            if transport.deliver_at_sink(rid):
                delivered.add(i)
            continue
        pending.append((i, rid))

    if transport.engine is None and network.alive[tree.level >= 0].all():
        # Perfect links, no faults and every routed node alive: every
        # frame travels its full path, so the per-hop charges collapse
        # to subtree sums.  No per-frame Python runs at all, which makes
        # n=40k feasible and beats the level kernel at any size.
        if pending:
            _zero_fault_closed_form(
                network, [frames[i] for i, _ in pending], costs, ops_per_forward
            )
        for i, rid in pending:
            if transport.deliver_at_sink(rid):
                delivered.add(i)
        return sorted(delivered)

    outbox: Dict[int, List[Tuple[int, int]]] = {}
    for i, rid in pending:
        outbox.setdefault(frames[i][0], []).append((i, rid))

    def frames_for(u: int) -> List[OutFrame]:
        return [
            OutFrame(nbytes=frames[i][1], rids=(rid,), payload=i)
            for i, rid in outbox.pop(u, ())
        ]

    def on_arrival(_sender, receiver, frame, arrived, _is_dup):
        rid = frame.rids[0]
        if receiver == tree.sink:
            if transport.deliver_at_sink(rid):
                delivered.add(frame.payload)
        else:
            outbox.setdefault(receiver, []).append((arrived, rid))

    transport.run_collection(
        frames_for, on_arrival, ops_per_frame=ops_per_forward
    )
    return sorted(delivered)


def _zero_fault_closed_form(
    network: SensorNetwork,
    frames: Sequence[Tuple[int, int]],
    costs: CostAccountant,
    ops_per_forward: int,
) -> None:
    """Charge the fault-free forwarding epoch in closed form.

    On perfect links every frame crosses each edge of its path to the
    sink exactly once, so node ``u`` sends the frames of its subtree: their
    count and byte total are computed bottom-up with one scatter-add per
    level.  Charges are the identical integer sums a frame-by-frame walk
    accumulates (pinned by a differential test against the per-frame
    oracle).
    """
    tree = network.tree
    n = network.n_nodes
    counts = np.zeros(n, dtype=np.int64)
    nbytes = np.zeros(n, dtype=np.int64)
    for s, size in frames:
        counts[s] += 1
        nbytes[s] += size
    for lvl in range(tree.depth, 0, -1):
        members = tree.members_at(lvl)
        senders = members[counts[members] > 0]
        if senders.size == 0:
            continue
        c = counts[senders]
        b = nbytes[senders]
        parents = tree.parent[senders]
        costs.charge_tx_batch(senders, b)
        costs.charge_rx_batch(parents, b)
        if ops_per_forward:
            costs.charge_ops_batch(senders, c * ops_per_forward)
        np.add.at(counts, parents, c)
        np.add.at(nbytes, parents, b)
