"""Model-predictive report suppression for continuous monitoring.

The static angle threshold in :meth:`ContinuousIsoMap._unchanged` only
suppresses reports that did not change.  Under steady drift almost every
isoline report *does* change -- but predictably: the isoline sweeps
across the stationary deployment at a roughly constant velocity, so the
position and gradient direction of tomorrow's reports are a linear
extrapolation of yesterday's.  Following the stochastic-gradient
approach of arXiv:1908.07674 (PAPERS.md), this module learns that
extrapolation online and suppresses every report the sink could have
predicted.

Because sensor nodes never move, a *per-source* position predictor is
vacuous (a source's position is constant; drift manifests as membership
churn, not motion).  The predictor therefore tracks *isoline samples*,
not sources:

- a **track** is one cached isoline sample: position, gradient angle,
  isolevel, and LMS-learned per-epoch velocities for both.  Its key is
  the source id of the last node whose delivered report refreshed it;
- every epoch all tracks **dead-reckon** one step (``p += v``,
  ``theta += omega``); a node whose fresh observation lands within the
  configured tolerances of a track's prediction sends nothing, and both
  mirrors keep serving the extrapolated state;
- a delivered report **corrects** the matching track by a stochastic
  gradient step (``v += mu * innovation``) and re-keys it to the
  reporting source, so tracks glide across the deployment following
  the isoline itself;
- a **heartbeat cap** bounds staleness: after ``heartbeat`` consecutive
  extrapolated epochs the owning node must re-report, and a track that
  nobody refreshes (the isoline left the area) is evicted, so sink
  staleness never exceeds ``heartbeat`` epochs even under loss.

**Mirrored state.** Node and sink evolve *identical* predictor state
from the delivered report stream alone: every mutation of the bank is a
deterministic function of (prior state, delivered reports, delivered
retractions), all of which both ends see.  A node's suppression decision
additionally uses only its own fresh observation.  The simulation keeps
one shared :class:`PredictorBank` per monitor, which is exactly the
state either mirror would reconstruct; distributing it costs each node
only its own track plus its radio neighbourhood's (the repo's usual
idealisation, same as the detection layer's neighbourhood value
queries).

**Kernel pair.** The per-epoch hot loops -- dead-reckoning, the
own-track innovation gate, and the join-vs-track match gate -- follow
the repo's kernel-pair convention: each ``*_batch`` kernel has a scalar
``*_reference`` twin in ``tests/core/prediction_reference.py`` built
from the same elementwise expressions, so the two are bit-identical
(pinned by ``tests/core/test_prediction.py``).
The sequential re-key/claim bookkeeping on delivered reports stays
plain Python.

``prediction=None`` on :class:`~repro.core.continuous.ContinuousIsoMap`
bypasses this module entirely -- the dead-reckoning contract pins that
path byte-identical to the pre-prediction goldens
(``tests/core/test_prediction_off_golden.py``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionConfig:
    """Tuning of the model-predictive suppressor (frozen, JSON-able).

    Attributes:
        position_tolerance: a fresh observation within this distance of
            its track's prediction (and within ``angle_tolerance_deg``)
            is suppressed.  This is the knob the traffic/accuracy trade
            hangs on: the served map may deviate from the field by about
            this much before a report is forced.
        angle_tolerance_deg: gradient-direction innovation (degrees)
            above which a report is sent even if the position predicted
            well.
        learning_rate: LMS step for the position velocity
            (``v += mu * (observed - predicted)``).
        angle_learning_rate: LMS step for the angular velocity.
        heartbeat: maximum *consecutive* extrapolated epochs per track.
            A node suppresses only while its track's age is within the
            cap; past it the report is forced (a heartbeat), and a track
            nobody refreshes is evicted -- so sink staleness is bounded
            by ``heartbeat`` epochs even when deltas are lost.
        match_radius: how far from a track's prediction a delivered
            report can re-key (adopt) it.  Must cover one epoch of
            unlearned drift plus the node spacing, or every churn event
            spawns a fresh zero-velocity track and nothing is learned.
        lease: coverage lease, in epochs.  A track that covered *no*
            observation (own or join, suppressed or sent) for this many
            consecutive epochs is a ghost gliding through empty space;
            its last lease holder retracts it instead of letting it
            deposit bogus samples until the heartbeat eviction.
        velocity_clamp: cap on the learned speed, as a multiple of
            ``position_tolerance`` per epoch.  The LMS step on an
            adoption offset can overshoot the true drift by up to
            ``mu * match_radius``; the clamp keeps one bad offset from
            launching the track across the field.

    The bank always runs the ``*_batch`` kernels; their scalar
    ``*_reference`` twins are the tests' kernel-pair oracles
    (``tests/core/prediction_reference.py``).
    """

    position_tolerance: float = 1.0
    angle_tolerance_deg: float = 35.0
    learning_rate: float = 0.3
    angle_learning_rate: float = 0.3
    heartbeat: int = 8
    match_radius: Optional[float] = None
    lease: int = 1
    velocity_clamp: float = 1.0

    def __post_init__(self) -> None:
        if self.position_tolerance <= 0:
            raise ValueError("position_tolerance must be positive")
        if self.angle_tolerance_deg <= 0:
            raise ValueError("angle_tolerance_deg must be positive")
        if not 0 <= self.learning_rate <= 1:
            raise ValueError("learning_rate must be in [0, 1]")
        if not 0 <= self.angle_learning_rate <= 1:
            raise ValueError("angle_learning_rate must be in [0, 1]")
        if self.heartbeat < 0:
            raise ValueError("heartbeat must be >= 0")
        if self.match_radius is not None and self.match_radius <= 0:
            raise ValueError("match_radius must be positive")
        if self.lease < 1:
            raise ValueError("lease must be >= 1")
        if self.velocity_clamp <= 0:
            raise ValueError("velocity_clamp must be positive")

    @property
    def effective_match_radius(self) -> float:
        """``match_radius`` or its default, twice the tolerance."""
        if self.match_radius is not None:
            return self.match_radius
        return 2.0 * self.position_tolerance

    @property
    def angle_tolerance_rad(self) -> float:
        return math.radians(self.angle_tolerance_deg)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PredictionConfig":
        return PredictionConfig(**d)


@dataclass
class Track:
    """One mirrored isoline sample (see module docstring).

    ``x``/``y``/``theta`` hold the *current-epoch* state: after
    :meth:`PredictorBank.advance` they are the prediction this epoch's
    decisions gate against, and a delivered correction overwrites them
    with the observation.
    """

    key: int
    isolevel: float
    x: float
    y: float
    theta: float
    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0
    #: Epochs since the last delivered refresh (0 = refreshed this epoch).
    age: int = 0


# ----------------------------------------------------------------------
# Kernel pair: dead-reckoning, innovation gate, join-match gate
# ----------------------------------------------------------------------
#
# Every batch kernel is the same elementwise IEEE expression as its
# scalar reference (tests/core/prediction_reference.py), evaluated on
# float64 -- which is what makes the pair bit-identical rather than
# merely close.


def wrap_angle(a: float) -> float:
    """Map an angle to (-pi, pi] -- same formula as the batch twin."""
    return (a + math.pi) % TWO_PI - math.pi


def wrap_angle_batch(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % TWO_PI - math.pi


def advance_tracks_batch(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    theta: np.ndarray,
    omega: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dead-reckon every track one epoch: ``p + v``, wrapped ``theta + omega``."""
    return x + vx, y + vy, wrap_angle_batch(theta + omega)


def track_accept_batch(
    ox: np.ndarray,
    oy: np.ndarray,
    otheta: np.ndarray,
    olevel: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    ptheta: np.ndarray,
    plevel: np.ndarray,
    age: np.ndarray,
    tol_sq: float,
    angle_tol: float,
    heartbeat: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Own-track innovation gate for observation/prediction pairs.

    Returns ``(accept, would_accept)``: ``accept`` is the suppression
    decision; ``would_accept`` ignores the heartbeat cap, so
    ``would_accept and not accept`` counts the forced heartbeats.
    """
    dx = ox - px
    dy = oy - py
    d2 = dx * dx + dy * dy
    dth = np.abs(wrap_angle_batch(otheta - ptheta))
    would = (d2 <= tol_sq) & (dth <= angle_tol) & (olevel == plevel)
    return would & (age <= heartbeat), would


def join_accept_batch(
    jx: np.ndarray,
    jy: np.ndarray,
    jtheta: np.ndarray,
    jlevel: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    ttheta: np.ndarray,
    tlevel: np.ndarray,
    tage: np.ndarray,
    tol_sq: float,
    angle_tol: float,
    heartbeat: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Join gate: a joining observation is suppressed when ANY track's
    prediction covers it (same level, within both tolerances, age within
    the heartbeat cap).

    Returns ``(accept, covered)``: per-join suppression decisions and a
    per-*track* mask of which tracks covered at least one join -- the
    coverage-lease signal (a track covering nothing is going ghost).
    """
    if len(jx) == 0 or len(tx) == 0:
        return np.zeros(len(jx), dtype=bool), np.zeros(len(tx), dtype=bool)
    dx = jx[:, None] - tx[None, :]
    dy = jy[:, None] - ty[None, :]
    d2 = dx * dx + dy * dy
    dth = np.abs(wrap_angle_batch(jtheta[:, None] - ttheta[None, :]))
    ok = (
        (jlevel[:, None] == tlevel[None, :])
        & (tage[None, :] <= heartbeat)
        & (d2 <= tol_sq)
        & (dth <= angle_tol)
    )
    return ok.any(axis=1), ok.any(axis=0)


# ----------------------------------------------------------------------
# The mirrored bank
# ----------------------------------------------------------------------


def report_angle(report: IsolineReport) -> float:
    """The gradient-direction angle of a report (radians, (-pi, pi])."""
    return math.atan2(report.direction[1], report.direction[0])


class PredictorBank:
    """The mirrored track state plus the per-epoch decision pipeline.

    Epoch protocol (driven by :class:`ContinuousIsoMap`):

    1. :meth:`advance` -- dead-reckon every track one epoch;
    2. :meth:`decide` -- node-side suppression over the fresh reports;
       :meth:`decide_retractions` -- node-side retraction suppression
       over the leaving sources;
    3. :meth:`apply` -- fold the *delivered* reports and retractions
       back into the bank (LMS corrections, re-keys, creations,
       evictions): the only mutation both mirrors replay.
    4. :meth:`extrapolated` -- the sink cache: one report per track.
    """

    def __init__(self, config: PredictionConfig):
        self.config = config
        self.tracks: Dict[int, Track] = {}
        # Node-side coverage-lease counters (NOT mirrored state: they
        # only influence which retractions get *sent*; the sink folds
        # whatever is delivered).  key -> consecutive uncovered epochs.
        self._uncovered: Dict[int, int] = {}

    # -- state views ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.tracks)

    @property
    def max_age(self) -> int:
        """Staleness: the oldest extrapolated track, in epochs."""
        if not self.tracks:
            return 0
        return max(t.age for t in self.tracks.values())

    def _sorted_tracks(self) -> List[Track]:
        return [self.tracks[k] for k in sorted(self.tracks)]

    # -- 1. dead-reckoning ---------------------------------------------

    def advance(self) -> None:
        """Advance every track one epoch (prediction = new current state)."""
        tracks = self._sorted_tracks()
        if not tracks:
            return
        x = np.array([t.x for t in tracks])
        y = np.array([t.y for t in tracks])
        vx = np.array([t.vx for t in tracks])
        vy = np.array([t.vy for t in tracks])
        th = np.array([t.theta for t in tracks])
        om = np.array([t.omega for t in tracks])
        nx, ny, nt = advance_tracks_batch(x, y, vx, vy, th, om)
        nx, ny, nt = nx.tolist(), ny.tolist(), nt.tolist()
        for i, t in enumerate(tracks):
            t.x = nx[i]
            t.y = ny[i]
            t.theta = nt[i]
            t.age += 1

    # -- 2. node-side decisions ----------------------------------------

    def decide(
        self, current: Dict[int, IsolineReport]
    ) -> Tuple[List[IsolineReport], int, int]:
        """Suppression decisions over this epoch's fresh observations.

        Returns ``(to_send, predicted, heartbeats)``: the reports to
        transmit, how many were suppressed by prediction, and how many
        transmissions were forced purely by the heartbeat cap.
        """
        cfg = self.config
        tol_sq = cfg.position_tolerance * cfg.position_tolerance
        angle_tol = cfg.angle_tolerance_rad
        sources = sorted(current)
        owned = [s for s in sources if s in self.tracks]
        joins = [s for s in sources if s not in self.tracks]

        to_send: List[IsolineReport] = []
        predicted = 0
        heartbeats = 0
        # Tracks that covered an observation this epoch: an own report
        # (suppressed or not -- a sent one claims the track on delivery)
        # or a suppressed join.  Everything else is going ghost.
        covered_keys = set(owned)

        if owned:
            obs = [current[s] for s in owned]
            trk = [self.tracks[s] for s in owned]
            args = (
                [r.position[0] for r in obs],
                [r.position[1] for r in obs],
                [report_angle(r) for r in obs],
                [r.isolevel for r in obs],
                [t.x for t in trk],
                [t.y for t in trk],
                [t.theta for t in trk],
                [t.isolevel for t in trk],
                [t.age for t in trk],
            )
            accept, would = track_accept_batch(
                *(np.asarray(a, dtype=float) for a in args[:8]),
                np.asarray(args[8], dtype=np.int64),
                tol_sq,
                angle_tol,
                cfg.heartbeat,
            )
            accept, would = accept.tolist(), would.tolist()
            for i, s in enumerate(owned):
                if accept[i]:
                    predicted += 1
                else:
                    if would[i]:
                        heartbeats += 1
                    to_send.append(current[s])

        if joins:
            tracks = self._sorted_tracks()
            jobs = [current[s] for s in joins]
            jargs = (
                [r.position[0] for r in jobs],
                [r.position[1] for r in jobs],
                [report_angle(r) for r in jobs],
                [r.isolevel for r in jobs],
                [t.x for t in tracks],
                [t.y for t in tracks],
                [t.theta for t in tracks],
                [t.isolevel for t in tracks],
                [t.age for t in tracks],
            )
            jaccept, jcovered = join_accept_batch(
                *(np.asarray(a, dtype=float) for a in jargs[:8]),
                np.asarray(jargs[8], dtype=np.int64),
                tol_sq,
                angle_tol,
                cfg.heartbeat,
            )
            jaccept, jcovered = jaccept.tolist(), jcovered.tolist()
            for i, s in enumerate(joins):
                if jaccept[i]:
                    predicted += 1
                else:
                    to_send.append(current[s])
            for i, t in enumerate(tracks):
                if jcovered[i]:
                    covered_keys.add(t.key)

        # Coverage-lease bookkeeping (node-side only).
        for k in self.tracks:
            if k in covered_keys:
                self._uncovered[k] = 0
            else:
                self._uncovered[k] = self._uncovered.get(k, 0) + 1

        # Deterministic transmit order: by source id (both branches
        # appended in sorted-subset order; merge keeps it reproducible).
        to_send.sort(key=lambda r: r.source)
        return to_send, predicted, heartbeats

    def decide_retractions(
        self,
        leaving: Sequence[Tuple[int, Tuple[float, float]]],
        current: Dict[int, IsolineReport],
    ) -> List[int]:
        """Which leaving sources must transmit a retraction.

        A retraction is sent only when the source owns a track that
        *died in place*: its prediction still sits within the position
        tolerance of the (stationary) node AND no current same-level
        member is covered by it.  The second clause is what lets a
        drifting isoline hand a track from a leaving node to its newly
        joined neighbour without a retract/re-report round trip: the
        neighbour's (suppressed) observation proves the sample is still
        live, so the track glides on until refreshed or aged out.  Only
        when the isoline genuinely left the area -- nobody nearby is on
        it any more -- does the cached sample get retracted.

        A second retraction source is the coverage lease: a track that
        covered no observation for ``lease`` consecutive epochs is a
        ghost gliding through empty space, and its last lease holder
        (the node it last covered) retracts it before it deposits more
        bogus samples in the sink map.
        """
        cfg = self.config
        tol_sq = cfg.position_tolerance * cfg.position_tolerance
        out: List[int] = []
        for source, pos in sorted(leaving):
            t = self.tracks.get(source)
            if t is None:
                continue  # nothing cached under this source
            dx = t.x - pos[0]
            dy = t.y - pos[1]
            if dx * dx + dy * dy > tol_sq:
                continue  # glided away: carrying live data elsewhere
            covered = False
            for s in sorted(current):
                r = current[s]
                if r.isolevel != t.isolevel:
                    continue
                cx = t.x - r.position[0]
                cy = t.y - r.position[1]
                if cx * cx + cy * cy <= tol_sq:
                    covered = True
                    break
            if not covered:
                out.append(source)
        seen = set(out)
        for key in sorted(self.tracks):
            if key in seen:
                continue
            if self._uncovered.get(key, 0) >= cfg.lease:
                out.append(key)
        out.sort()
        return out

    # -- 3. the mirrored fold ------------------------------------------

    def apply(
        self,
        delivered: Sequence[IsolineReport],
        delivered_retractions: Sequence[int],
    ) -> None:
        """Fold the delivered stream into the bank (both mirrors run this).

        Sequential claim bookkeeping: each delivered report corrects its
        own track, else adopts (re-keys) the nearest unclaimed same-level
        track within ``match_radius``, else creates a fresh zero-velocity
        track.  Then delivered retractions evict, and tracks older than
        the heartbeat cap are garbage-collected.
        """
        cfg = self.config
        radius_sq = cfg.effective_match_radius ** 2
        mu = cfg.learning_rate
        mu_w = cfg.angle_learning_rate
        claimed: set = set()

        for report in delivered:
            ox, oy = report.position
            otheta = report_angle(report)
            t = self.tracks.get(report.source)
            if t is None:
                t = self._adopt(report, radius_sq, claimed)
            if t is None:
                t = Track(
                    key=report.source,
                    isolevel=report.isolevel,
                    x=ox,
                    y=oy,
                    theta=otheta,
                )
                self.tracks[report.source] = t
            else:
                # LMS correction against the dead-reckoned prediction.
                t.vx = t.vx + mu * (ox - t.x)
                t.vy = t.vy + mu * (oy - t.y)
                speed = math.hypot(t.vx, t.vy)
                vmax = cfg.velocity_clamp * cfg.position_tolerance
                if speed > vmax:
                    t.vx *= vmax / speed
                    t.vy *= vmax / speed
                t.omega = t.omega + mu_w * wrap_angle(otheta - t.theta)
                t.x = ox
                t.y = oy
                t.theta = otheta
                t.isolevel = report.isolevel
            t.age = 0
            self._uncovered[t.key] = 0
            claimed.add(t.key)

        for source in delivered_retractions:
            self.tracks.pop(source, None)
            self._uncovered.pop(source, None)

        # Ghost eviction: nobody refreshed the track within the cap, so
        # both mirrors forget it (staleness stays bounded).
        for key in [
            k for k, t in self.tracks.items() if t.age > cfg.heartbeat
        ]:
            del self.tracks[key]
            self._uncovered.pop(key, None)

    def _adopt(
        self, report: IsolineReport, radius_sq: float, claimed: set
    ) -> Optional[Track]:
        """Re-key the nearest matching unclaimed track to ``report.source``.

        Deterministic: scanned in sorted key order, strict ``<`` keeps
        the first of equidistant candidates.
        """
        ox, oy = report.position
        best: Optional[Track] = None
        best_d2 = radius_sq
        for key in sorted(self.tracks):
            t = self.tracks[key]
            if key in claimed or t.isolevel != report.isolevel:
                continue
            dx = ox - t.x
            dy = oy - t.y
            d2 = dx * dx + dy * dy
            if d2 < best_d2 or (best is None and d2 == best_d2):
                best = t
                best_d2 = d2
        if best is None:
            return None
        del self.tracks[best.key]
        if best.key in self._uncovered:
            self._uncovered[report.source] = self._uncovered.pop(best.key)
        best.key = report.source
        self.tracks[report.source] = best
        return best

    # -- 4. the sink cache ---------------------------------------------

    def extrapolated(self, bounds: BoundingBox) -> Dict[int, IsolineReport]:
        """The mirrored sink cache: one report per track, key-sorted.

        Dead-reckoned positions are clamped into ``bounds`` (a gliding
        track may momentarily overshoot the field edge) and directions
        rebuilt from the track angle, so every entry is a valid
        :class:`IsolineReport` for the reconstructor and the wire codec.
        """
        out: Dict[int, IsolineReport] = {}
        for key in sorted(self.tracks):
            t = self.tracks[key]
            x = min(max(t.x, bounds.xmin), bounds.xmax)
            y = min(max(t.y, bounds.ymin), bounds.ymax)
            out[key] = IsolineReport(
                isolevel=t.isolevel,
                position=(x, y),
                direction=(math.cos(t.theta), math.sin(t.theta)),
                source=key,
            )
        return out
