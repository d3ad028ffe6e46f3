"""Differential tests: vectorized marching squares vs the scalar loop.

``extract_isolines`` classifies all grid squares in one array pass;
``extract_isolines_reference`` (``contours_reference.py``) walks them one
by one.  The vectorized interpolation reuses the exact
rounded corner differences the scalar path computes, so the outputs must
be *identical* -- same segments, same chaining, same floats -- including
on saddle squares and exact level-touch corners.  Random grids around
the threshold exercise all 16 marching-squares cases densely.
"""

import random

import numpy as np
import pytest

from repro.field import make_harbor_field
from repro.field.contours import extract_isolines
from repro.field.grid_field import SampledGridField
from repro.field.synthetic import PlaneField, RadialField
from repro.geometry import BoundingBox
from tests.field.contours_reference import extract_isolines_reference

BOX = BoundingBox(0, 0, 50, 50)


def fresh(field_fn):
    """Two independent field instances (the fast path memoises on the
    instance; comparing against a fresh one keeps the test honest)."""
    return field_fn(), field_fn()


def assert_same_isolines(field_fn, level, nx, ny):
    f_fast, f_ref = fresh(field_fn)
    fast = extract_isolines(f_fast, level, nx, ny)
    ref = extract_isolines_reference(f_ref, level, nx, ny)
    assert fast == ref


@pytest.mark.parametrize("level", [5.0, 8.0, 10.0, 12.0])
def test_harbor_field_levels_identical(level):
    assert_same_isolines(make_harbor_field, level, 120, 120)


def test_non_square_grid_identical():
    assert_same_isolines(make_harbor_field, 8.0, 90, 140)


@pytest.mark.parametrize("seed", range(4))
def test_random_grid_fields_identical(seed):
    # Values tightly straddling the level produce a dense mix of all 16
    # square cases, saddles included.
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-1.0, 1.0, size=(40, 40))
    field_fn = lambda: SampledGridField(BOX, grid)
    assert_same_isolines(field_fn, 0.0, 64, 64)


def test_exact_level_touches_identical():
    # Corners exactly at the level (ties in the >= threshold test).
    vals = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    grid = np.tile(vals, (6, 6))
    field_fn = lambda: SampledGridField(BOX, grid)
    for level in (0.0, 0.5, 1.0):
        assert_same_isolines(field_fn, level, 36, 36)


def test_closed_ring_identical():
    field_fn = lambda: RadialField(BOX, center=(25.0, 25.0))
    assert_same_isolines(field_fn, 4.0, 100, 100)


def test_open_chain_identical():
    field_fn = lambda: PlaneField(BOX, c0=0.0, cx=1.0, cy=0.25)
    assert_same_isolines(field_fn, 20.0, 75, 75)


def test_no_crossing_identical():
    field_fn = lambda: PlaneField(BOX, c0=0.0, cx=1.0, cy=0.0)
    f_fast, f_ref = fresh(field_fn)
    assert extract_isolines(f_fast, 1e6, 50, 50) == []
    assert extract_isolines_reference(f_ref, 1e6, 50, 50) == []


def test_memoisation_returns_identical_object_and_values():
    field = make_harbor_field()
    first = extract_isolines(field, 8.0, 80, 80)
    again = extract_isolines(field, 8.0, 80, 80)
    assert again is first  # cache hit
    # A different level or resolution is a distinct cache entry.
    other = extract_isolines(field, 10.0, 80, 80)
    assert other is not first
    assert extract_isolines(field, 8.0, 64, 64) is not first


def test_random_sampled_grids_many_seeds():
    # Cheap fuzz over small grids: equality must hold for any data.
    for seed in range(10):
        rng = random.Random(seed)
        data = [[rng.uniform(-1, 1) for _ in range(12)] for _ in range(12)]
        grid = np.asarray(data)
        field_fn = lambda: SampledGridField(BOX, grid)
        assert_same_isolines(field_fn, 0.0, 24, 24)
