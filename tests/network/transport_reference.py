"""Per-frame collection: the scalar reference for the level driver.

This is collection as it ran before
:meth:`repro.network.transport.EpochTransport.run_collection` became one
level-at-a-time driver: a walk over the routing tree, children first,
that sends each frame on its own through the ARQ loop, drawing its link,
corruption and duplication outcomes one attempt at a time from the fault
engine's counter-based streams.  It lives here, beside the differential
tests, as the oracle the level driver (and the zero-fault closed form of
:func:`~repro.network.transport.forward_reports_to_sink`) must match
charge for charge, bucket for bucket and in arrival order.

- :func:`run_collection_reference` takes the place of
  ``EpochTransport.run_collection``;
- :func:`forward_reports_reference` is ``forward_reports_to_sink`` with
  every frame carried hop by hop (no closed form);
- :func:`reference_transport` swaps both in for every protocol run
  inside a ``with`` block;
- :func:`count_disconnected_reference` is the full-graph sweep the
  CSR flood of ``EpochTransport._count_disconnected`` must match.

The bench ``benchmarks/bench_transport.py`` times this walk as its
``reference``.
"""

from __future__ import annotations

import contextlib
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.network import transport as transport_mod
from repro.network.accounting import CostAccountant
from repro.network.faults import FaultEngine, GilbertElliottLink
from repro.network.network import SensorNetwork
from repro.network.rngstream import uniform_at
from repro.network.transport import (
    _CORRUPTED,
    _LOST,
    STRAND_CRASHED,
    STRAND_ORPHANED,
    EpochTransport,
    FramesFor,
    OnArrival,
    OutFrame,
)


# ----------------------------------------------------------------------
# Scalar fault draws: one (frame, attempt) at a time
# ----------------------------------------------------------------------


def next_frame(engine: FaultEngine, sender: int, receiver: int) -> int:
    """Allocate the next frame index on the directed edge."""
    es = engine._edge(sender, receiver)
    f = es.frame
    es.frame = f + 1
    return f


def _ge_state_at(es, t: int, model: GilbertElliottLink) -> bool:
    """Chain state (True = bad) after ``t`` steps, advancing the edge's
    checkpoint.  Step 0 is the stationary draw; step ``i`` reads
    state-stream counter ``i``.  Callers only move forward in time
    (frames and attempts are monotone per edge)."""
    if es.ge_t < 0:
        es.ge_state = uniform_at(es.k_state, 0) < model.steady_state_bad()
        es.ge_t = 0
    state = es.ge_state
    tt = es.ge_t
    while tt < t:
        tt += 1
        u = uniform_at(es.k_state, tt)
        if state:
            state = not (u < model.p_exit_bad)
        else:
            state = u < model.p_enter_bad
    es.ge_state = state
    es.ge_t = tt
    return state


def link_ok(
    engine: FaultEngine, sender: int, receiver: int, frame: int, attempt: int
) -> bool:
    """Did attempt ``attempt`` (1-based) of ``frame`` survive the air?"""
    model = engine.plan.link
    if model is None:
        return True
    es = engine._edge(sender, receiver)
    a = engine.attempts_per_frame
    t_del = frame * a + (attempt - 1)
    if isinstance(model, GilbertElliottLink):
        bad = _ge_state_at(es, frame * a + attempt, model)
        p = model.deliver_bad if bad else model.deliver_good
    else:
        p = model.delivery_probability
    return uniform_at(es.k_deliver, t_del) < p


def corrupt_at(
    engine: FaultEngine, sender: int, receiver: int, frame: int, attempt: int
) -> bool:
    """Does this (frame, attempt) arrive bit-damaged?"""
    if engine.plan.corruption <= 0.0:
        return False
    es = engine._edge(sender, receiver)
    t = frame * engine.attempts_per_frame + (attempt - 1)
    return uniform_at(es.k_corrupt, t) < engine.plan.corruption


def dup_at(engine: FaultEngine, sender: int, receiver: int, frame: int) -> bool:
    """Does this delivered frame arrive twice?"""
    if engine.plan.duplication <= 0.0:
        return False
    es = engine._edge(sender, receiver)
    return uniform_at(es.k_dup, frame) < engine.plan.duplication


# ----------------------------------------------------------------------
# The slotted bottom-up walk and the per-frame ARQ loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Hop:
    """One transmission opportunity yielded by :func:`walk`.

    ``parent`` is None when the node cannot transmit this epoch; then
    ``reason`` says why (:data:`STRAND_CRASHED` or
    :data:`STRAND_ORPHANED`) and the caller must strand the node's
    buffered instances.
    """

    node: int
    parent: Optional[int]
    reason: Optional[str] = None


@dataclass
class SendOutcome:
    """Result of one :func:`send`.

    Attributes:
        delivered: did (at least one copy of) the frame reach the
            receiver?
        arrivals: ``(payload, is_duplicate)`` per frame instance the
            receiver accepted -- empty on failure, one entry normally,
            two when a duplicate slipped past dedup.  A duplicate's
            payload is the *same object*; callers that mutate payloads
            (region aggregation) must clone it.
    """

    delivered: bool
    arrivals: List[Tuple[Any, bool]]


def walk(transport: EpochTransport) -> Iterator[Hop]:
    """Yield one :class:`Hop` per routed non-sink node, children first.

    A node forwards only while it is alive: the network's ``alive``
    flags, minus the fault engine's mid-epoch crashes under a plan (node
    events fire at each level boundary).  A dead holder yields a strand,
    and a dead parent is locally repaired when the config allows (a
    same-level neighbour is adoptable while its own slot has not
    passed) -- with no engine exactly as under one.
    """
    tree = transport.network.tree
    # Deepest level first, ascending id within a level.
    order = np.concatenate(
        [tree.members_at(l) for l in range(tree.depth, -1, -1)]
    ).tolist()
    parents = tree.parent[order].tolist()
    engine = transport.engine
    flags = transport.network.alive

    def alive(x: int) -> bool:
        return engine.alive(x) if engine is not None else bool(flags[x])

    processed: set = set()  # nodes whose slot already passed
    current_level: Optional[int] = None
    for u, level, parent in zip(order, tree.level[order].tolist(), parents):
        if engine is not None and (current_level is None or level < current_level):
            engine.advance_to_slot(level)
            current_level = level
        if u == tree.sink or parent < 0:
            continue
        if not alive(u):
            processed.add(u)
            yield Hop(u, None, STRAND_CRASHED)
            continue
        if not alive(parent):
            parent = (
                transport._reparent_with(
                    u, transport._alive(), lambda w: w not in processed
                )
                if transport.config.reparent
                else None
            )
        if parent is None:
            processed.add(u)
            yield Hop(u, None, STRAND_ORPHANED)
            continue
        yield Hop(u, parent)
        processed.add(u)
    if engine is not None:
        engine.finish_epoch()


def send(
    transport: EpochTransport,
    sender: int,
    receiver: int,
    nbytes: int,
    rids: Sequence[int] = (),
    payload: Any = None,
) -> SendOutcome:
    """Carry one frame of ``nbytes`` over one hop.

    ``rids`` are the tracked report instances riding the frame; on
    terminal failure they are bucketed here, so the caller only handles
    arrivals.
    """
    costs = transport.costs
    engine = transport.engine
    if engine is None:
        costs.charge_hop(sender, receiver, nbytes)
        return SendOutcome(True, [(payload, False)])

    cfg = transport.config
    report = transport._report
    max_attempts = transport._max_attempts()
    frame = next_frame(engine, sender, receiver)
    last_was_corruption = False
    for attempt in range(1, max_attempts + 1):
        if attempt >= 2:
            report.retransmissions += 1
            costs.charge_ops(
                sender, min(cfg.backoff_base << (attempt - 2), cfg.backoff_cap)
            )
        costs.charge_hop(sender, receiver, nbytes)
        if not link_ok(engine, sender, receiver, frame, attempt):
            last_was_corruption = False
            continue
        if corrupt_at(engine, sender, receiver, frame, attempt):
            if cfg.crc:
                # Receiver CRC-rejects; under ARQ the sender retries.
                report.corrupted_detected += 1
                last_was_corruption = True
                continue
            accepted = (
                transport.mangler(payload, engine) if transport.mangler else None
            )
            if accepted is None:
                # No codec can make sense of the damage: discarded.
                transport._terminal(rids, _CORRUPTED)
                return SendOutcome(False, [])
            report.corrupted_accepted += 1
        else:
            accepted = payload
        arrivals: List[Tuple[Any, bool]] = [(accepted, False)]
        if rids and dup_at(engine, sender, receiver, frame):
            # The duplicate frame still occupies both radios.
            costs.charge_hop(sender, receiver, nbytes)
            n = len(rids)
            report.duplicates_created += n
            transport._open += n
            if cfg.dedup:
                report.duplicate_discarded += n
                transport._open -= n
            else:
                arrivals.append((accepted, True))
        return SendOutcome(True, arrivals)
    transport._terminal(rids, _CORRUPTED if last_was_corruption else _LOST)
    return SendOutcome(False, [])


def run_collection_reference(
    transport: EpochTransport,
    frames_for: FramesFor,
    on_arrival: OnArrival,
    ops_per_frame: int = 0,
) -> None:
    """``EpochTransport.run_collection``, one hop and one frame at a time."""
    for hop in walk(transport):
        if hop.parent is None:
            for fr in frames_for(hop.node):
                transport.strand(fr.rids, hop.reason)
            continue
        for fr in frames_for(hop.node):
            if ops_per_frame:
                transport.costs.charge_ops(hop.node, ops_per_frame)
            outcome = send(
                transport, hop.node, hop.parent, fr.nbytes, rids=fr.rids,
                payload=fr.payload,
            )
            for payload, is_dup in outcome.arrivals:
                on_arrival(hop.node, hop.parent, fr, payload, is_dup)


Collect = Callable[[EpochTransport, FramesFor, OnArrival, int], None]


def forward_reports_reference(
    network: SensorNetwork,
    frames: Sequence[Tuple[int, int]],
    costs: CostAccountant,
    ops_per_forward: int = 1,
    transport: Optional[EpochTransport] = None,
    collect: Collect = run_collection_reference,
) -> List[int]:
    """``forward_reports_to_sink`` with every frame carried hop by hop.

    ``collect`` drives the epoch: the per-frame walk by default, or
    ``EpochTransport.run_collection`` to run the level driver on the
    frames the zero-fault closed form would otherwise take.
    """
    tree = network.tree
    if transport is None:
        transport = EpochTransport(network, costs)
    delivered: set = set()
    outbox: Dict[int, List[Tuple[int, int]]] = {}
    for i, (s, _nbytes) in enumerate(frames):
        if tree.level[s] < 0:
            continue
        rid = transport.register()
        if s == tree.sink:
            if transport.deliver_at_sink(rid):
                delivered.add(i)
            continue
        outbox.setdefault(s, []).append((i, rid))

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

    collect(transport, frames_for, on_arrival, ops_per_forward)
    return sorted(delivered)


@contextlib.contextmanager
def reference_transport() -> Iterator[None]:
    """Run every collection inside the block on the per-frame oracle.

    Swaps :func:`run_collection_reference` in for
    ``EpochTransport.run_collection`` and :func:`forward_reports_reference`
    in for ``forward_reports_to_sink`` in every ``repro`` module that
    imported it, so protocols that forward through the closed form walk
    their frames too.
    """
    original = transport_mod.forward_reports_to_sink
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(
                EpochTransport, "run_collection", run_collection_reference
            )
        )
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "forward_reports_to_sink", None) is original
            ):
                stack.enter_context(
                    mock.patch.object(
                        module, "forward_reports_to_sink", forward_reports_reference
                    )
                )
        yield


# ----------------------------------------------------------------------
# Disconnected regions
# ----------------------------------------------------------------------


def count_disconnected_reference(transport: EpochTransport) -> int:
    """Components of the end-of-epoch alive graph cut off the sink, by a
    per-node FIFO sweep over the whole graph."""
    network = transport.network
    engine = transport.engine
    n = network.n_nodes
    csr = network.csr
    alive = [
        bool(network.alive[i]) and (engine is None or engine.alive(i))
        for i in range(n)
    ]
    seen = [False] * n
    regions = 0
    for start in range(n):
        if not alive[start] or seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        contains_sink = start == network.sink_index
        while queue:
            x = queue.popleft()
            for y in csr.neighbors(x).tolist():
                if alive[y] and not seen[y]:
                    seen[y] = True
                    contains_sink = contains_sink or y == network.sink_index
                    queue.append(y)
        if not contains_sink:
            regions += 1
    return regions
