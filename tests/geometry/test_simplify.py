"""Property and differential tests for the isoline simplifier.

The contract under test (module docstring of
:mod:`repro.geometry.simplify`):

- **pairing**: the vectorized kernels are bit-identical to their scalar
  references on any input;
- **guarantee**: every original vertex lies within the tolerance of the
  simplified curve (point-to-segment, which bounds the symmetric
  Hausdorff distance);
- **identity**: tolerance 0 returns the input unchanged (the serving
  byte-identity differentials lean on this);
- **idempotence**: simplifying a simplified curve is a no-op;
- **orientation**: ring simplification preserves the ring's orientation.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.simplify import (
    chain_points,
    polyline_deviation,
    simplify_polyline,
    simplify_polyline_reference,
    simplify_ring,
    simplify_ring_reference,
)

coords = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
points = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)
tolerances = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def wiggly_line(n, seed=0, noise=0.8):
    rng = random.Random(seed)
    return [
        (x, 5.0 * math.sin(0.4 * x) + rng.uniform(-noise, noise))
        for x in [20.0 * k / max(n - 1, 1) for k in range(n)]
    ]


def noisy_ring(n, seed=0, noise=0.4, ccw=True):
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        th = 2.0 * math.pi * k / n
        r = 10.0 + 2.0 * math.sin(3.0 * th) + rng.uniform(-noise, noise)
        pts.append((r * math.cos(th), r * math.sin(th)))
    return pts if ccw else [pts[0]] + pts[1:][::-1]


# ----------------------------------------------------------------------
# Kernel pairing: bit-identity
# ----------------------------------------------------------------------


@given(pts=points, tol=tolerances)
@settings(max_examples=300, deadline=None)
def test_polyline_pair_bit_identical(pts, tol):
    assert simplify_polyline(pts, tol) == simplify_polyline_reference(pts, tol)


@given(pts=st.lists(st.tuples(coords, coords), min_size=3, max_size=40),
       tol=tolerances)
@settings(max_examples=300, deadline=None)
def test_ring_pair_bit_identical(pts, tol):
    assert simplify_ring(pts, tol) == simplify_ring_reference(pts, tol)


def test_pair_bit_identical_on_realistic_curves():
    for seed in range(20):
        line = wiggly_line(200, seed=seed)
        ring = noisy_ring(150, seed=seed)
        for tol in (0.05, 0.3, 1.0, 4.0):
            assert simplify_polyline(line, tol) == simplify_polyline_reference(
                line, tol
            )
            assert simplify_ring(ring, tol) == simplify_ring_reference(ring, tol)


# ----------------------------------------------------------------------
# The tolerance guarantee
# ----------------------------------------------------------------------


@given(pts=st.lists(st.tuples(coords, coords), min_size=2, max_size=60),
       tol=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_polyline_deviation_bounded_by_tolerance(pts, tol):
    simplified = simplify_polyline(pts, tol)
    assert polyline_deviation(pts, simplified) <= tol + 1e-12


@given(pts=st.lists(st.tuples(coords, coords), min_size=3, max_size=40),
       tol=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_ring_deviation_bounded_by_tolerance(pts, tol):
    simplified = simplify_ring(pts, tol)
    closed = simplified + [simplified[0]]
    assert polyline_deviation(pts, closed) <= tol + 1e-12


def test_endpoints_always_kept():
    line = wiggly_line(100, seed=3)
    for tol in (0.1, 1.0, 100.0):
        s = simplify_polyline(line, tol)
        assert s[0] == line[0] and s[-1] == line[-1]
        assert len(s) >= 2


# ----------------------------------------------------------------------
# Tolerance-0 identity and idempotence
# ----------------------------------------------------------------------


@given(pts=points)
@settings(max_examples=200, deadline=None)
def test_tolerance_zero_is_identity(pts):
    assert simplify_polyline(pts, 0.0) == [(p[0], p[1]) for p in pts]


@given(pts=st.lists(st.tuples(coords, coords), min_size=2, max_size=60),
       tol=tolerances)
@settings(max_examples=200, deadline=None)
def test_polyline_idempotent(pts, tol):
    once = simplify_polyline(pts, tol)
    assert simplify_polyline(once, tol) == once


@given(pts=st.lists(st.tuples(coords, coords), min_size=3, max_size=40),
       tol=tolerances)
@settings(max_examples=200, deadline=None)
def test_ring_idempotent(pts, tol):
    once = simplify_ring(pts, tol)
    assert simplify_ring(once, tol) == once


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        simplify_polyline([(0, 0), (1, 1)], -0.1)
    with pytest.raises(ValueError):
        simplify_polyline_reference([(0, 0), (1, 1)], -0.1)


# ----------------------------------------------------------------------
# Ring orientation
# ----------------------------------------------------------------------


def signed_area(ring):
    return 0.5 * sum(
        ring[i][0] * ring[(i + 1) % len(ring)][1]
        - ring[(i + 1) % len(ring)][0] * ring[i][1]
        for i in range(len(ring))
    )


@pytest.mark.parametrize("ccw", [True, False])
def test_ring_orientation_preserved(ccw):
    ring = noisy_ring(120, seed=5, ccw=ccw)
    for tol in (0.2, 0.8):
        s = simplify_ring(ring, tol)
        assert len(s) >= 3
        assert (signed_area(s) > 0) == (signed_area(ring) > 0)


# ----------------------------------------------------------------------
# chain_points: deterministic reassembly
# ----------------------------------------------------------------------


def test_chain_points_reassembles_shuffled_ring():
    ring = noisy_ring(60, seed=4, noise=0.05)
    order = list(range(len(ring)))
    random.Random(11).shuffle(order)
    shuffled = [ring[i] for i in order]
    chains = chain_points(shuffled)
    assert len(chains) == 1
    indices, is_ring = chains[0]
    assert is_ring
    assert sorted(indices) == list(range(len(ring)))


def test_chain_points_deterministic():
    rng = random.Random(13)
    pts = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(80)]
    assert chain_points(pts) == chain_points(list(pts))
    assert chain_points(pts, gap_factor=12.0) == chain_points(
        list(pts), gap_factor=12.0
    )


def test_chain_points_splits_distant_branches():
    a = [(float(k), 0.0) for k in range(10)]
    b = [(float(k), 30.0) for k in range(10)]
    chains = chain_points(a + b)
    assert len(chains) == 2
    got = sorted(sorted(c) for c, _ in chains)
    assert got == [list(range(10)), list(range(10, 20))]
