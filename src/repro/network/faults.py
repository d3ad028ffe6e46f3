"""Deterministic, seeded fault injection for the collection phase.

The paper assumes a perfect link layer and evaluates node failures only
as a static pre-epoch ratio (Figs. 11b/12b).  This module models the
regimes real deployments actually see -- and applies them *during* the
collection epoch, riding the TAG slot structure of
:mod:`repro.network.schedule` (one slot per tree level, deepest level
first):

- **mid-epoch node crashes and recoveries**, scheduled at a tree-level
  slot: a node that crashes at slot ``s`` stops relaying before the
  nodes of level ``s`` transmit, stranding any reports buffered in it;
- **link loss** per transmission attempt: i.i.d. Bernoulli, or bursts
  from a two-state Gilbert-Elliott chain per directed link;
- **payload corruption**: a delivered frame's bits are flipped, which a
  CRC-checking receiver detects (and the sender retries) and a naive
  receiver accepts as a poisoned report;
- **packet duplication**: a delivered frame arrives twice (the classic
  lost-ACK retransmission), which sequence numbers can suppress.

Everything is driven by named random streams derived from the plan's
single seed, with independent streams per concern (schedule, per-link
loss/corruption/duplication, payload damage), so a plan replays
byte-identically regardless of which protocol runs under it -- the
property that makes Iso-Map-vs-baseline comparisons under faults
apples-to-apples.  The per-link streams are *counter-based*
(:mod:`repro.network.rngstream`): draw ``i`` of a stream is a pure
function of the stream key and ``i``, so the transport can evaluate a
whole tree level's draws as arrays and land on exactly the variates a
frame-by-frame sender would read one by one (the per-frame oracle in
``tests/network/transport_reference.py`` does).  The engine never mutates
the :class:`SensorNetwork`; crash state is kept internally so one
deployment can be reused across protocol runs and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.network import SensorNetwork
from repro.network.rngstream import derive_key, uniform_at, uniforms_at_many


@dataclass(frozen=True)
class BernoulliLink:
    """Memoryless per-attempt loss: each attempt delivers with fixed odds.

    The retry budget belongs to the transport
    (:class:`~repro.network.transport.TransportConfig`), so the link
    model only answers "did this attempt get through".
    """

    delivery_probability: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.delivery_probability <= 1.0:
            raise ValueError("delivery probability must be in [0, 1]")

    def average_delivery(self) -> float:
        """Long-run per-attempt delivery probability (closed form)."""
        return self.delivery_probability


@dataclass(frozen=True)
class GilbertElliottLink:
    """Two-state burst-loss chain: a link is *good* or *bad* per attempt.

    Attributes:
        p_enter_bad: good -> bad transition probability per attempt.
        p_exit_bad: bad -> good transition probability per attempt
            (mean burst length = 1 / p_exit_bad attempts).
        deliver_good: delivery probability while good.
        deliver_bad: delivery probability while bad.
    """

    p_enter_bad: float = 0.15
    p_exit_bad: float = 0.4
    deliver_good: float = 1.0
    deliver_bad: float = 0.7

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "deliver_good", "deliver_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.p_enter_bad + self.p_exit_bad <= 0.0:
            raise ValueError("the chain must be able to move between states")

    def steady_state_bad(self) -> float:
        """Stationary probability of the bad state."""
        return self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)

    def average_delivery(self) -> float:
        """Long-run per-attempt delivery probability (closed form)."""
        sb = self.steady_state_bad()
        return (1.0 - sb) * self.deliver_good + sb * self.deliver_bad


LinkFault = Union[BernoulliLink, GilbertElliottLink]

#: Slot-scheduled node event kinds.
CRASH = "crash"
RECOVER = "recover"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled node event.

    Attributes:
        slot: the tree-level slot at which the event fires.  Collection
            proceeds deepest level first, so slot ``s`` fires *before*
            the nodes of level ``s`` transmit; larger slots are earlier
            in the epoch.
        node: the affected node id (never the sink).
        kind: :data:`CRASH` or :data:`RECOVER`.
    """

    slot: int
    node: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, RECOVER):
            raise ValueError(f"unknown fault event kind {self.kind!r}")
        if self.slot < 0:
            raise ValueError("event slot must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded description of one epoch's faults.

    The plan stores *specifications* (ratios, link model, probabilities);
    the :class:`FaultEngine` instantiates concrete events deterministically
    from ``(seed, network)`` at run start, so the same plan object can be
    applied to every protocol on the same deployment and each sees the
    identical fault sequence.

    Attributes:
        seed: master seed; every stochastic stream derives from it.
        crash_ratio: fraction of routed non-sink nodes that crash
            mid-epoch, at a uniform-random tree-level slot.
        recover_ratio: fraction of the mid-epoch crashers that recover at
            a later (shallower) slot of the same epoch.
        link: per-attempt link-loss model (None = lossless).
        corruption: probability a delivered frame arrives bit-damaged.
        duplication: probability a delivered frame arrives twice.
        events: explicit extra events (tests and hand-written scenarios).
    """

    seed: int = 0
    crash_ratio: float = 0.0
    recover_ratio: float = 0.0
    link: Optional[LinkFault] = None
    corruption: float = 0.0
    duplication: float = 0.0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("crash_ratio", "recover_ratio", "corruption", "duplication"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.crash_ratio == 0.0
            and self.link is None
            and self.corruption == 0.0
            and self.duplication == 0.0
            and not self.events
        )

    @staticmethod
    def none() -> "FaultPlan":
        """The zero-fault plan (perfect link layer, no events)."""
        return FaultPlan()

    @staticmethod
    def at_intensity(intensity: float, seed: int = 0) -> "FaultPlan":
        """The fig_faults sweep's one-knob family of plans.

        ``intensity`` in [0, 1] scales every fault source together; 1.0
        is the "moderate" operating point: 10% mid-epoch crashes (30% of
        which recover), Gilbert-Elliott burst loss dropping 30% of
        attempts in the bad state, 1% frame corruption and 1%
        duplication.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        if intensity == 0.0:
            return FaultPlan(seed=seed)
        return FaultPlan(
            seed=seed,
            crash_ratio=0.10 * intensity,
            recover_ratio=0.3,
            link=GilbertElliottLink(
                p_enter_bad=0.15,
                p_exit_bad=0.4,
                deliver_good=1.0,
                deliver_bad=1.0 - 0.3 * intensity,
            ),
            corruption=0.01 * intensity,
            duplication=0.01 * intensity,
        )

    @staticmethod
    def moderate(seed: int = 0) -> "FaultPlan":
        """The all-sources-on moderate plan (intensity 1.0)."""
        return FaultPlan.at_intensity(1.0, seed=seed)


#: Stream tags of the four counter-based streams each directed edge owns.
_TAG_STATE = 1  # Gilbert-Elliott chain steps
_TAG_DELIVER = 2  # per-attempt delivery draws
_TAG_CORRUPT = 3  # per-attempt corruption draws
_TAG_DUP = 4  # per-frame duplication draws


class _EdgeStreams:
    """Per-directed-edge stream keys and cursors.

    ``frame`` is the next frame index on the edge; the Gilbert-Elliott
    checkpoint ``(ge_state, ge_t)`` is the chain state after ``ge_t``
    steps (``ge_t < 0`` = not yet initialised).  Because the chain state
    at step ``t`` is a pure function of the state stream's uniforms
    ``0..t``, the checkpoint can be advanced scalar-ly or in one batched
    scan and both paths land on identical states.
    """

    __slots__ = ("frame", "ge_state", "ge_t", "k_state", "k_deliver", "k_corrupt", "k_dup")

    def __init__(self, seed: int, u: int, v: int):
        self.frame = 0
        self.ge_state = False
        self.ge_t = -1
        self.k_state = derive_key(seed, _TAG_STATE, u, v)
        self.k_deliver = derive_key(seed, _TAG_DELIVER, u, v)
        self.k_corrupt = derive_key(seed, _TAG_CORRUPT, u, v)
        self.k_dup = derive_key(seed, _TAG_DUP, u, v)


class FaultEngine:
    """Applies a :class:`FaultPlan` to one collection epoch.

    Instantiated per protocol run.  Crash/recovery state is internal --
    the engine never writes the network's arrays -- and all randomness
    flows from named streams derived from the plan seed:

    - ``schedule``: which nodes crash/recover and at which slots;
    - four counter-based streams per directed link (chain state,
      delivery, corruption, duplication), addressed by frame and attempt
      index so outcomes are independent of evaluation order;
    - ``corrupt``: the Mersenne damage stream feeding
      :meth:`corrupt_payload` (consumed in frame order).

    Each frame on an edge owns a fixed draw budget of
    :attr:`attempts_per_frame` slots (the transport's ARQ attempt
    ceiling): frame ``f``'s attempt ``k`` reads delivery/corruption
    counter ``f * A + (k - 1)`` and chain step ``f * A + k``, and the
    burst chain advances all ``A`` steps per frame whether or not the
    later attempts happen (the channel evolves in time, not per packet),
    which is what makes every draw's address data-independent.
    """

    def __init__(self, plan: FaultPlan, network: SensorNetwork):
        self.plan = plan
        self.network = network
        self._crashed: List[int] = []
        self._recovered: List[int] = []
        self._corrupt_rng = random.Random(f"{plan.seed}|corrupt")
        #: Attempt slots reserved per frame; the transport sets this to
        #: its ARQ ceiling before any frame draw happens.
        self.attempts_per_frame = 1
        self._edges: Dict[Tuple[int, int], _EdgeStreams] = {}
        # Mid-epoch crashes, beside the network's own ``alive`` array.
        self._down_mask = np.zeros(network.n_nodes, dtype=bool)
        self._pending = self._build_schedule()
        self._cursor = 0

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------

    def _build_schedule(self) -> List[FaultEvent]:
        """Instantiate the plan's concrete events for this network.

        The latest schedule is kept on the network object, keyed by the
        plan fields the schedule depends on plus the network's
        routing-tree version and liveness (a direct ``alive`` write
        rebuilds no tree), so protocols run back to back under one plan
        on one deployment build it once.  Only that one entry is kept: a run that draws a
        fresh plan every epoch would otherwise grow the network by one
        schedule per epoch.
        """
        plan = self.plan
        key = (
            plan.seed,
            plan.crash_ratio,
            plan.recover_ratio,
            plan.events,
            self.network._tree_version,
            np.packbits(self.network.alive).tobytes(),
        )
        last = getattr(self.network, "_last_fault_schedule", None)
        if last is not None and last[0] == key:
            return list(last[1])
        events = self._build_schedule_uncached()
        self.network._last_fault_schedule = (key, tuple(events))
        return events

    def _build_schedule_uncached(self) -> List[FaultEvent]:
        rng = random.Random(f"{self.plan.seed}|schedule")
        tree = self.network.tree
        depth = max(1, tree.depth)
        # Ascending ids: ``rng.sample`` reads the list in this order.
        routed = np.flatnonzero(self.network.alive & (tree.level >= 0))
        candidates = routed[routed != self.network.sink_index].tolist()
        k = min(
            int(self.plan.crash_ratio * len(candidates) + 0.5), len(candidates)
        )
        crashers = rng.sample(candidates, k) if k else []
        events: List[FaultEvent] = []
        crash_slot: Dict[int, int] = {}
        for i in crashers:
            slot = rng.randint(1, depth)
            crash_slot[i] = slot
            events.append(FaultEvent(slot, i, CRASH))
        n_recover = int(self.plan.recover_ratio * len(crashers) + 0.5)
        for i in crashers[:n_recover]:
            if crash_slot[i] > 1:
                events.append(FaultEvent(rng.randint(1, crash_slot[i] - 1), i, RECOVER))
        for e in self.plan.events:
            if e.node == self.network.sink_index:
                raise ValueError("the sink cannot be a fault-event target")
            events.append(e)
        # Time order: larger slots fire first; stable within a slot.
        return sorted(events, key=lambda e: -e.slot)

    def advance_to_slot(self, level: int) -> None:
        """Fire every not-yet-fired event with ``slot >= level``.

        Called by the transport when collection starts processing the
        nodes of ``level``; events scheduled at that slot (or missed
        deeper slots with no transmitting nodes) take effect first.
        """
        while self._cursor < len(self._pending):
            e = self._pending[self._cursor]
            if e.slot < level:
                break
            down = bool(self._down_mask[e.node])
            if e.kind == CRASH:
                if not down:
                    self._down_mask[e.node] = True
                    self._crashed.append(e.node)
            else:
                if down:
                    self._down_mask[e.node] = False
                    self._recovered.append(e.node)
            self._cursor += 1

    def finish_epoch(self) -> None:
        """Fire any remaining events (slots below the last level walked)."""
        self.advance_to_slot(0)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    def alive(self, node: int) -> bool:
        """Engine-view liveness: network liveness minus mid-epoch crashes."""
        return bool(self.network.alive[node]) and not self._down_mask[node]

    def alive_array(self) -> np.ndarray:
        """:meth:`alive` for every node at once (the level driver's view)."""
        return self.network.alive & ~self._down_mask

    @property
    def crashed_nodes(self) -> Tuple[int, ...]:
        return tuple(self._crashed)

    @property
    def recovered_nodes(self) -> Tuple[int, ...]:
        return tuple(self._recovered)

    # ------------------------------------------------------------------
    # Per-frame draws
    # ------------------------------------------------------------------

    def _edge(self, sender: int, receiver: int) -> _EdgeStreams:
        key = (sender, receiver)
        es = self._edges.get(key)
        if es is None:
            es = _EdgeStreams(self.plan.seed, sender, receiver)
            self._edges[key] = es
        return es

    def frame_draws_batch(
        self, edges: Sequence[Tuple[int, int]], counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All link/corruption/duplication draws for a batch of frames.

        Args:
            edges: directed ``(sender, receiver)`` pairs, one per edge.
            counts: frames per edge (``counts[i] >= 1``).

        Returns ``(air_ok, corrupt, dup)`` where ``air_ok`` and
        ``corrupt`` are ``(F, A)`` booleans (``F = counts.sum()``,
        ``A = attempts_per_frame``) and ``dup`` is ``(F,)``; frames are
        laid out edge-major in the given edge order, ascending frame
        index within an edge.  Advances every edge's frame cursor and
        burst-chain checkpoint exactly as ``counts[i]`` frames drawn one
        at a time would -- the returned booleans are bit-identical to
        drawing each (frame, attempt) on its own.
        """
        streams = [self._edge(u, v) for (u, v) in edges]
        return _frame_draws(self.plan, self.attempts_per_frame, streams, counts)

    def corrupt_payload(self, payload: bytes) -> bytes:
        """Flip 1-3 distinct random bits of ``payload`` (the injected
        damage; distinct so the frame is always genuinely altered)."""
        if not payload:
            return payload
        damaged = bytearray(payload)
        flips = 1 + self._corrupt_rng.randrange(3)
        for bit in self._corrupt_rng.sample(range(len(damaged) * 8), flips):
            damaged[bit // 8] ^= 1 << (bit % 8)
        return bytes(damaged)


def _frame_draws(
    plan: FaultPlan,
    attempts_per_frame: int,
    streams: List[_EdgeStreams],
    counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :meth:`FaultEngine.frame_draws_batch` kernel, engine-free.

    Operates on explicit edge streams so detached per-tile resolution
    (:func:`frame_draws_detached`) shares the exact code path -- and
    therefore the exact IEEE-754 arithmetic -- of the engine's batch.
    Advances each stream's frame cursor and burst-chain checkpoint.
    """
    a = attempts_per_frame
    model = plan.link
    counts = np.asarray(counts, dtype=np.int64)
    n_edges = len(streams)
    total = int(counts.sum())
    f0 = np.fromiter((es.frame for es in streams), np.int64, count=n_edges)

    edge_of = np.repeat(np.arange(n_edges), counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    frames = f0[edge_of] + within
    t_del = frames[:, None] * a + np.arange(a)[None, :]

    k_del = np.fromiter(
        (es.k_deliver for es in streams), np.uint64, count=n_edges
    )
    u_del = uniforms_at_many(k_del[edge_of][:, None], t_del)
    if model is None:
        air_ok = np.ones((total, a), dtype=bool)
    elif isinstance(model, GilbertElliottLink):
        bad = _ge_states_scan(a, streams, counts, f0, frames, edge_of, model)
        air_ok = u_del < np.where(bad, model.deliver_bad, model.deliver_good)
    else:
        air_ok = u_del < model.delivery_probability

    if plan.corruption > 0.0:
        k_cor = np.fromiter(
            (es.k_corrupt for es in streams), np.uint64, count=n_edges
        )
        corrupt = (
            uniforms_at_many(k_cor[edge_of][:, None], t_del) < plan.corruption
        )
    else:
        corrupt = np.zeros((total, a), dtype=bool)

    if plan.duplication > 0.0:
        k_dup = np.fromiter(
            (es.k_dup for es in streams), np.uint64, count=n_edges
        )
        dup = uniforms_at_many(k_dup[edge_of], frames) < plan.duplication
    else:
        dup = np.zeros(total, dtype=bool)

    for i, es in enumerate(streams):
        es.frame = int(f0[i] + counts[i])
    return air_ok, corrupt, dup


def _ge_states_scan(
    attempts_per_frame: int,
    streams: List[_EdgeStreams],
    counts: np.ndarray,
    f0: np.ndarray,
    frames: np.ndarray,
    edge_of: np.ndarray,
    model: GilbertElliottLink,
) -> np.ndarray:
    """Burst-chain states for every (frame, attempt) of a batch.

    The two-state chain under an i.i.d. uniform stream is an
    associative scan: classify each step as *swap* (flip whatever
    the state was), *const* (force good/bad regardless) or
    *identity*, then the state at any step is the last const value
    before it, flipped by the parity of the swaps since.  One
    ``maximum.accumulate`` + ``cumsum`` resolves all edges at once;
    a virtual const slot carrying each edge's checkpoint state heads
    its segment so segments can never bleed into each other.
    """
    n_edges = len(streams)
    a = attempts_per_frame
    # Initialise checkpoints (stationary draw at counter 0).
    sb = model.steady_state_bad()
    for es in streams:
        if es.ge_t < 0:
            es.ge_state = uniform_at(es.k_state, 0) < sb
            es.ge_t = 0
    t_cp = np.fromiter((es.ge_t for es in streams), np.int64, count=n_edges)
    s_cp = np.fromiter((es.ge_state for es in streams), bool, count=n_edges)
    t_end = (f0 + counts) * a
    n_steps = t_end - t_cp  # >= 1: counts >= 1 and t_cp <= f0 * a
    seg_len = n_steps + 1  # one virtual checkpoint slot per edge
    seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
    n_slots = int(seg_len.sum())

    slot_edge = np.repeat(np.arange(n_edges), seg_len)
    slot_pos = np.arange(n_slots) - seg_start[slot_edge]
    slot_t = t_cp[slot_edge] + slot_pos  # virtual slot sits at t_cp
    is_virtual = slot_pos == 0

    k_state = np.fromiter(
        (es.k_state for es in streams), np.uint64, count=n_edges
    )
    u = uniforms_at_many(k_state[slot_edge], slot_t)
    enter = u < model.p_enter_bad
    leave = u < model.p_exit_bad
    is_swap = enter & leave & ~is_virtual
    is_const = (enter ^ leave) | is_virtual
    # Const value: forced-bad steps have enter & ~leave (True); the
    # virtual slots carry the checkpoint state.
    const_val = np.where(is_virtual, s_cp[slot_edge], enter & ~leave)

    idx = np.arange(n_slots)
    m = np.maximum.accumulate(np.where(is_const, idx, -1))
    c = np.cumsum(is_swap)
    state = const_val[m] ^ (((c - c[m]) & 1) == 1)

    # Checkpoint: the state at each segment's final slot (t_end).
    seg_last = seg_start + seg_len - 1
    last_states = state[seg_last]
    for i, es in enumerate(streams):
        es.ge_state = bool(last_states[i])
        es.ge_t = int(t_end[i])

    # Gather the (frame, attempt) states: attempt k of frame f reads
    # step f*a + k, at slot offset (t - t_cp) within the segment.
    t_att = frames[:, None] * a + np.arange(1, a + 1)[None, :]
    pos = seg_start[edge_of][:, None] + (t_att - t_cp[edge_of][:, None])
    return state[pos]


def frame_draws_detached(
    plan: FaultPlan,
    attempts_per_frame: int,
    edges: Sequence[Tuple[int, int]],
    counts: Sequence[int],
    frame0: Sequence[int],
    ge_t: Sequence[int],
    ge_state: Sequence[bool],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int, bool]]]:
    """:meth:`FaultEngine.frame_draws_batch` without an engine.

    Rebuilds each edge's streams from shipped cursors (frame index plus
    burst-chain checkpoint) and resolves the draws with the shared
    kernel -- this is how a tile worker replays its slice of the epoch
    in another process and lands on the exact variates the in-process
    engine would.  Stream keys are pure functions of ``(plan.seed,
    sender, receiver)``, so only the cursors need to travel.

    Returns ``(air_ok, corrupt, dup, cursors)`` where ``cursors`` is the
    advanced ``(frame, ge_t, ge_state)`` per edge for the caller to
    write back into the authoritative engine.
    """
    streams: List[_EdgeStreams] = []
    for k, (u, v) in enumerate(edges):
        es = _EdgeStreams(plan.seed, int(u), int(v))
        es.frame = int(frame0[k])
        es.ge_t = int(ge_t[k])
        es.ge_state = bool(ge_state[k])
        streams.append(es)
    air_ok, corrupt, dup = _frame_draws(plan, attempts_per_frame, streams, counts)
    cursors = [(es.frame, es.ge_t, es.ge_state) for es in streams]
    return air_ok, corrupt, dup, cursors
