"""Differential tests for the vectorized Hausdorff/resample pipeline.

``directed_hausdorff`` and ``hausdorff_distance`` are blocked-broadcast
NumPy kernels claimed *bit-identical* to the scalar oracle in
``hausdorff_reference.py`` (squares by multiplication; min/max
reductions are order-exact; sqrt is monotone and correctly rounded) --
pinned here with ``==``, not ``approx``.  ``resample_polyline_fast``
is only tolerance-compatible (cumulative sums reassociate the arclength
addition), so it gets the spacing-scaled tolerance discipline instead.

Also holds the regression tests for the empty-handling contract:
the point-set kernels raise, and ``isoline_hausdorff`` is the single
place empties become ``None``.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.field.synthetic import RadialField
from repro.geometry import BoundingBox, polyline_length
from repro.geometry.polyline import resample_polyline_fast
from repro.metrics.hausdorff import (
    directed_hausdorff,
    hausdorff_distance,
    isoline_hausdorff,
    mean_isoline_hausdorff,
)
from tests.geometry.polyline_reference import resample_polyline_reference
from tests.metrics.hausdorff_reference import directed_hausdorff_reference


def cloud(n, seed, lo=0.0, hi=50.0):
    rng = random.Random(seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestDirectedHausdorffDifferential:
    @pytest.mark.parametrize("na,nb", [(40, 40), (120, 50), (300, 300), (1, 500)])
    def test_bit_identical_to_reference(self, na, nb):
        a, b = cloud(na, seed=na), cloud(nb, seed=nb + 1)
        assert directed_hausdorff(a, b) == directed_hausdorff_reference(a, b)

    def test_blocking_is_invisible(self, monkeypatch):
        # Force tiny blocks so one call spans many chunks; still exact.
        import repro.metrics.hausdorff as H

        a, b = cloud(400, seed=5), cloud(350, seed=6)
        want = directed_hausdorff_reference(a, b)
        monkeypatch.setattr(H, "_BLOCK_FLOATS", 512)
        assert directed_hausdorff(a, b) == want

    def test_symmetric_matches_both_directions(self):
        a, b = cloud(250, seed=7), cloud(180, seed=8)
        assert hausdorff_distance(a, b) == max(
            directed_hausdorff_reference(a, b), directed_hausdorff_reference(b, a)
        )

    def test_empty_sets_raise(self):
        with pytest.raises(ValueError):
            directed_hausdorff([], [(0, 0)])
        with pytest.raises(ValueError):
            directed_hausdorff([(0, 0)], [])
        with pytest.raises(ValueError):
            hausdorff_distance([], [])


@st.composite
def scaled_set_pairs(draw):
    """Two point sets of 1-60 points, coordinates in ``[0, scale]``."""
    scale = draw(st.sampled_from([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4]))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    sets = st.lists(st.tuples(unit, unit), min_size=1, max_size=60)
    a, b = draw(sets), draw(sets)
    return (
        [(x * scale, y * scale) for x, y in a],
        [(x * scale, y * scale) for x, y in b],
    )


# Both examples are single pairs whose squared distance rounds
# differently when squared with ``**`` (C ``pow``) than with ``*``.
@example(
    (
        [(0.034461915690932265, 0.08637423154480339)],
        [(0.18376387725930768, 0.08915165624057335)],
    )
)
@example(
    (
        [(124.00780940893668, 134.85376402526126)],
        [(14.447304106468069, 94.99380189166467)],
    )
)
@given(sets=scaled_set_pairs())
@settings(max_examples=200, deadline=None)
def test_small_sets_bit_identical_to_reference(sets):
    a, b = sets
    assert directed_hausdorff(a, b) == directed_hausdorff_reference(a, b)
    assert hausdorff_distance(a, b) == max(
        directed_hausdorff_reference(a, b), directed_hausdorff_reference(b, a)
    )


class TestResampleDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_scalar_within_spacing_tolerance(self, seed):
        rng = random.Random(seed)
        pts = []
        for k in range(80):
            x = k * 0.7
            pts.append((x, 5 * math.sin(0.4 * x) + rng.uniform(-0.3, 0.3)))
        spacing = 0.25
        ref = resample_polyline_reference(pts, spacing)
        fast = resample_polyline_fast(pts, spacing)
        # The cumulative-length formulation may gain/lose one sample at
        # the very end; every shared sample agrees to well under the
        # spacing (the metric's resolution).
        assert abs(len(ref) - len(fast)) <= 1
        m = min(len(ref), len(fast))
        assert np.allclose(np.asarray(ref[:m]), np.asarray(fast[:m]), atol=1e-6)
        assert fast[0] == ref[0]
        # Endpoints are preserved by both paths.
        assert math.dist(fast[-1], pts[-1]) <= spacing + 1e-9

    def test_degenerate_inputs_match(self):
        ref = resample_polyline_reference
        assert resample_polyline_fast([], 1.0) == ref([], 1.0)
        assert resample_polyline_fast([(2, 3)], 1.0) == ref([(2, 3)], 1.0)
        two = [(0.0, 0.0), (1.0, 0.0)]
        assert resample_polyline_fast(two, 10.0) == ref(two, 10.0)

    def test_fast_sample_spacing_property(self):
        pts = [(0.0, 0.0), (3.0, 4.0), (6.0, 0.0), (10.0, 0.0)]
        fast = resample_polyline_fast(pts, 0.5)
        for i in range(len(fast) - 1):
            assert polyline_length(fast[i : i + 2]) <= 0.5 + 1e-6


class TestEmptyHandlingContract:
    """``isoline_hausdorff`` absorbs empties into ``None`` -- the protocol
    may legitimately deliver no isoline for a level, and that must never
    surface as the point-set kernels' ``ValueError``."""

    # f = 10 - |p - (25, 25)|: the isoline at level 5 is the radius-5
    # circle, and no isoline exists far above the peak.
    FIELD = RadialField(BoundingBox(0, 0, 50, 50), center=(25.0, 25.0))

    def test_empty_estimate_returns_none(self):
        assert isoline_hausdorff(self.FIELD, 5.0, []) is None

    def test_degenerate_estimate_polylines_return_none(self):
        # Present but empty/degenerate polylines resample to no points.
        assert isoline_hausdorff(self.FIELD, 5.0, [[]]) is None

    def test_missing_truth_returns_none(self):
        # No isoline of the radial field at a level beyond the box.
        est = [[(25.0, 35.0), (35.0, 25.0)]]
        assert isoline_hausdorff(self.FIELD, 1e6, est) is None

    def test_mean_skips_empty_levels(self):
        class OneLevelMap:
            def isolines(self, level):
                if level == 5.0:
                    return [[(25 + 5 * math.cos(t), 25 + 5 * math.sin(t))
                             for t in np.linspace(0, 2 * math.pi, 60)]]
                return []

        got = mean_isoline_hausdorff(self.FIELD, OneLevelMap(), [5.0, 7.0])
        assert got is not None and got < 0.5

    def test_mean_with_no_comparable_level_is_none(self):
        class EmptyMap:
            def isolines(self, level):
                return []

        assert mean_isoline_hausdorff(self.FIELD, EmptyMap(), [5.0, 7.0]) is None
