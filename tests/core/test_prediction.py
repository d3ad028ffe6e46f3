"""Unit tests for the model-predictive suppressor.

Three layers:

1. **Kernel pairs** -- the scalar ``*_reference`` twins
   (``prediction_reference.py``) and the bank's NumPy kernels must agree *bit-identically* (same IEEE
   elementwise expressions), pinned on random inputs via hypothesis.
2. **Bank behaviour** -- LMS convergence on constant drift, the
   heartbeat staleness bound, coverage-lease ghost retraction, ghost
   eviction, adoption re-keying, and the velocity clamp.
3. **Bank equivalence** -- a bank on the ``*_batch`` kernels and a bank
   with the ``*_reference`` twins patched in, fed the same epoch stream,
   make identical decisions and hold identical state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import prediction
from repro.core.prediction import (
    PredictionConfig,
    PredictorBank,
    Track,
    advance_tracks_batch,
    join_accept_batch,
    report_angle,
    track_accept_batch,
    wrap_angle,
    wrap_angle_batch,
)
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox
from tests.core.prediction_reference import (
    advance_tracks_reference,
    join_accept_reference,
    track_accept_reference,
)

BOUNDS = BoundingBox(0.0, 0.0, 20.0, 20.0)

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
angles = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
levels = st.sampled_from([12.0, 14.0, 16.0])
ages = st.integers(min_value=0, max_value=12)


def report(source, x, y, theta=0.0, level=14.0):
    return IsolineReport(
        isolevel=level,
        position=(x, y),
        direction=(math.cos(theta), math.sin(theta)),
        source=source,
    )


# ----------------------------------------------------------------------
# 1. kernel pairs, bit-identical
# ----------------------------------------------------------------------


@given(st.lists(angles, min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_wrap_angle_pair_bit_identical(vals):
    ref = [wrap_angle(a) for a in vals]
    batch = wrap_angle_batch(np.asarray(vals, dtype=float))
    assert ref == batch.tolist()


@given(
    st.lists(
        st.tuples(finite, finite, finite, finite, angles, angles),
        min_size=1,
        max_size=32,
    )
)
@settings(max_examples=200, deadline=None)
def test_advance_pair_bit_identical(rows):
    x, y, vx, vy, th, om = (list(c) for c in zip(*rows))
    ref = advance_tracks_reference(x, y, vx, vy, th, om)
    batch = advance_tracks_batch(
        *(np.asarray(a, dtype=float) for a in (x, y, vx, vy, th, om))
    )
    for r, b in zip(ref, batch):
        assert r == b.tolist()


@given(
    st.lists(
        st.tuples(finite, finite, angles, levels, finite, finite, angles, levels, ages),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=200, deadline=None)
def test_track_accept_pair_bit_identical(rows):
    ox, oy, oth, olv, px, py, pth, plv, age = (list(c) for c in zip(*rows))
    ref_a, ref_w = track_accept_reference(
        ox, oy, oth, olv, px, py, pth, plv, age, 1.44, 0.6, 8
    )
    bat_a, bat_w = track_accept_batch(
        *(np.asarray(a, dtype=float) for a in (ox, oy, oth, olv, px, py, pth, plv)),
        np.asarray(age, dtype=np.int64),
        1.44,
        0.6,
        8,
    )
    assert ref_a == bat_a.tolist()
    assert ref_w == bat_w.tolist()


@given(
    st.lists(st.tuples(finite, finite, angles, levels), min_size=0, max_size=16),
    st.lists(
        st.tuples(finite, finite, angles, levels, ages), min_size=0, max_size=16
    ),
)
@settings(max_examples=200, deadline=None)
def test_join_accept_pair_bit_identical(joins, tracks):
    jx = [j[0] for j in joins]
    jy = [j[1] for j in joins]
    jth = [j[2] for j in joins]
    jlv = [j[3] for j in joins]
    tx = [t[0] for t in tracks]
    ty = [t[1] for t in tracks]
    tth = [t[2] for t in tracks]
    tlv = [t[3] for t in tracks]
    tag = [t[4] for t in tracks]
    ref_a, ref_c = join_accept_reference(
        jx, jy, jth, jlv, tx, ty, tth, tlv, tag, 2.25, 0.7, 8
    )
    bat_a, bat_c = join_accept_batch(
        *(np.asarray(a, dtype=float) for a in (jx, jy, jth, jlv, tx, ty, tth, tlv)),
        np.asarray(tag, dtype=np.int64),
        2.25,
        0.7,
        8,
    )
    assert ref_a == bat_a.tolist()
    assert ref_c == bat_c.tolist()


# ----------------------------------------------------------------------
# 2. bank behaviour
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        PredictionConfig(position_tolerance=0.0)
    with pytest.raises(ValueError):
        PredictionConfig(angle_tolerance_deg=-1.0)
    with pytest.raises(ValueError):
        PredictionConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        PredictionConfig(heartbeat=-1)
    with pytest.raises(ValueError):
        PredictionConfig(lease=0)
    with pytest.raises(ValueError):
        PredictionConfig(velocity_clamp=0.0)
    cfg = PredictionConfig(position_tolerance=2.0)
    assert cfg.effective_match_radius == 4.0
    assert PredictionConfig(match_radius=1.5).effective_match_radius == 1.5


def test_config_round_trips_through_dict():
    cfg = PredictionConfig(position_tolerance=1.3, heartbeat=5, lease=2)
    assert PredictionConfig.from_dict(cfg.to_dict()) == cfg


def test_lms_converges_on_constant_drift():
    """A track fed a constant-velocity observation stream learns the
    drift: within a few epochs the prediction error falls under the
    tolerance and stays there."""
    cfg = PredictionConfig(position_tolerance=0.5, learning_rate=0.5)
    bank = PredictorBank(cfg)
    drift = 0.3
    bank.apply([report(1, 0.0, 10.0)], [])
    errors = []
    for k in range(1, 12):
        bank.advance()
        t = bank.tracks[1]
        obs_x = drift * k
        errors.append(abs(t.x - obs_x))
        # Deliver the moving observation (simulating adoption handoff
        # key-stability: same source for a clean unit test).
        bank.apply([report(1, obs_x, 10.0)], [])
    assert errors[-1] < 0.05
    assert max(errors[6:]) < cfg.position_tolerance


def test_heartbeat_bounds_staleness_and_evicts_ghosts():
    cfg = PredictionConfig(heartbeat=3)
    bank = PredictorBank(cfg)
    bank.apply([report(7, 5.0, 5.0)], [])
    for _ in range(3):
        bank.advance()
        bank.apply([], [])
        assert 7 in bank.tracks
    assert bank.max_age == 3
    bank.advance()  # age 4 > heartbeat
    bank.apply([], [])
    assert 7 not in bank.tracks
    assert bank.max_age == 0


def test_heartbeat_forces_report_past_cap():
    cfg = PredictionConfig(position_tolerance=5.0, heartbeat=2)
    bank = PredictorBank(cfg)
    bank.apply([report(3, 5.0, 5.0)], [])
    heartbeats = 0
    for _ in range(3):
        bank.advance()
        to_send, predicted, hb = bank.decide({3: report(3, 5.0, 5.0)})
        heartbeats += hb
        bank.apply(to_send, [])
    # Ages 1 and 2 suppress; age 3 > cap forces the heartbeat delivery.
    assert heartbeats == 1


def test_decide_suppresses_within_tolerance_and_sends_outside():
    cfg = PredictionConfig(position_tolerance=1.0, angle_tolerance_deg=180.0)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0), report(2, 10.0, 10.0)], [])
    bank.advance()
    near = report(1, 5.4, 5.0)
    far = report(2, 12.5, 10.0)
    to_send, predicted, _ = bank.decide({1: near, 2: far})
    assert predicted == 1
    assert [r.source for r in to_send] == [2]


def test_join_suppressed_by_covering_track():
    cfg = PredictionConfig(position_tolerance=1.0, angle_tolerance_deg=180.0)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0)], [])
    bank.advance()
    # Source 99 has no track, but source 1's track covers its position.
    to_send, predicted, _ = bank.decide({99: report(99, 5.5, 5.0)})
    assert predicted == 1
    assert to_send == []
    # A join at a different isolevel is NOT covered.
    to_send, predicted, _ = bank.decide({98: report(98, 5.5, 5.0, level=16.0)})
    assert [r.source for r in to_send] == [98]


def test_adoption_rekeys_nearest_track_and_learns_drift():
    cfg = PredictionConfig(position_tolerance=0.5, learning_rate=0.5)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0)], [])
    bank.advance()
    # Source 1 left; source 2 joined 0.8 away (inside match radius 1.0).
    bank.apply([report(2, 5.8, 5.0)], [])
    assert 1 not in bank.tracks and 2 in bank.tracks
    t = bank.tracks[2]
    assert t.x == 5.8
    assert t.vx == pytest.approx(0.4)  # mu * offset


def test_velocity_clamp_caps_learned_speed():
    cfg = PredictionConfig(
        position_tolerance=0.5,
        learning_rate=1.0,
        match_radius=10.0,
        velocity_clamp=1.0,
    )
    bank = PredictorBank(cfg)
    bank.apply([report(1, 0.0, 0.0)], [])
    bank.advance()
    bank.apply([report(2, 8.0, 0.0)], [])  # raw LMS step would be v=8
    t = bank.tracks[2]
    assert math.hypot(t.vx, t.vy) <= cfg.velocity_clamp * cfg.position_tolerance + 1e-12


def test_died_in_place_retraction_vs_covered_track():
    cfg = PredictionConfig(position_tolerance=1.0)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0)], [])
    bank.advance()
    # Nobody nearby any more: the track died in place -> retract.
    out = bank.decide_retractions([(1, (5.0, 5.0))], {})
    assert out == [1]
    # A current member still covered by the track suppresses it.
    out = bank.decide_retractions(
        [(1, (5.0, 5.0))], {9: report(9, 5.3, 5.0)}
    )
    assert out == []


def test_coverage_lease_retracts_ghost_tracks():
    cfg = PredictionConfig(position_tolerance=1.0, lease=2, heartbeat=10)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0)], [])
    # Two consecutive epochs in which the track covers nothing.
    for expected in ([], []):
        bank.advance()
        to_send, _, _ = bank.decide({})
        assert to_send == expected
    out = bank.decide_retractions([], {})
    assert out == [1]
    bank.apply([], out)
    assert 1 not in bank.tracks


def test_coverage_lease_reset_by_suppressed_join():
    cfg = PredictionConfig(position_tolerance=1.0, lease=1, heartbeat=10)
    bank = PredictorBank(cfg)
    bank.apply([report(1, 5.0, 5.0)], [])
    for _ in range(4):
        bank.advance()
        # A suppressed join keeps refreshing the lease...
        to_send, predicted, _ = bank.decide({50: report(50, 5.2, 5.0)})
        assert predicted == 1
        assert bank.decide_retractions([], {50: report(50, 5.2, 5.0)}) == []
        bank.apply([], [])
    assert 1 in bank.tracks


def test_extrapolated_clamps_into_bounds_and_is_key_sorted():
    cfg = PredictionConfig()
    bank = PredictorBank(cfg)
    bank.tracks[5] = Track(key=5, isolevel=14.0, x=-3.0, y=25.0, theta=0.25)
    bank.tracks[2] = Track(key=2, isolevel=14.0, x=4.0, y=4.0, theta=-1.0)
    cache = bank.extrapolated(BOUNDS)
    assert list(cache) == [2, 5]
    r5 = cache[5]
    assert r5.position == (0.0, 20.0)
    assert r5.direction == (math.cos(0.25), math.sin(0.25))
    assert abs(math.hypot(*r5.direction) - 1.0) < 1e-9


def test_report_angle_matches_direction():
    r = report(1, 0.0, 0.0, theta=1.1)
    assert report_angle(r) == pytest.approx(1.1)


# ----------------------------------------------------------------------
# 3. batched == reference, end to end
# ----------------------------------------------------------------------


def _epoch_stream(rng, epochs=10, n_sources=30):
    """A churning observation stream: sources drift in/out, positions
    creep right at a constant rate plus jitter."""
    stream = []
    for e in range(epochs):
        current = {}
        for s in range(n_sources):
            if (s + e) % 5 == 0:
                continue  # churn: this source is off the line this epoch
            x = (s % 6) * 3.0 + 0.4 * e + 0.01 * ((s * 7 + e * 13) % 10)
            y = (s // 6) * 3.0
            theta = 0.1 * ((s + e) % 7)
            current[s] = report(s, x, y, theta=theta)
        stream.append(current)
    return stream


def _replay(stream):
    """Feed ``stream`` to a fresh bank; per epoch, its decisions and the
    full state of every track."""
    bank = PredictorBank(PredictionConfig(position_tolerance=1.0))
    members = {}
    history = []
    for current in stream:
        bank.advance()
        to_send, predicted, hb = bank.decide(current)
        leaving = [(s, pos) for s, pos in members.items() if s not in current]
        retractions = bank.decide_retractions(leaving, current)
        members = {s: r.position for s, r in current.items()}
        bank.apply(to_send, retractions)
        tracks = {
            k: (t.x, t.y, t.theta, t.vx, t.vy, t.omega, t.age)
            for k, t in sorted(bank.tracks.items())
        }
        history.append(
            ([r.source for r in to_send], predicted, hb, sorted(retractions), tracks)
        )
    return history


def test_batched_and_reference_banks_agree(monkeypatch):
    stream = _epoch_stream(None)
    batched = _replay(stream)
    calls = []

    def as_batch(reference):
        """A ``*_batch``-shaped kernel running ``reference`` on lists."""

        def kernel(*args):
            calls.append(reference.__name__)
            plain = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
            return tuple(np.asarray(out) for out in reference(*plain))

        return kernel

    for name, reference in (
        ("advance_tracks_batch", advance_tracks_reference),
        ("track_accept_batch", track_accept_reference),
        ("join_accept_batch", join_accept_reference),
    ):
        monkeypatch.setattr(prediction, name, as_batch(reference))
    assert _replay(stream) == batched
    assert set(calls) == {
        "advance_tracks_reference",
        "track_accept_reference",
        "join_accept_reference",
    }
