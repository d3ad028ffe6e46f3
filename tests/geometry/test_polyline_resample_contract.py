"""The resampler pair's deviation contract, bounded as a property.

``resample_polyline_fast`` and its scalar reference
(``polyline_reference.py``) are the repo's one kernel pair that is *not*
bit-identical (per-segment remainder walk vs one cumulative-sum pass).
The exact deviation is documented on
:func:`repro.geometry.polyline.resample_polyline_fast` as a three-point
contract; this suite pins each point on random polylines so a change
that widens the deviation (instead of just reordering ULPs) fails here
rather than silently degrading the Hausdorff metric downstream:

1. both outputs keep the input's first and last points;
2. their lengths differ by at most one sample, and the odd boundary
   sample lies within one spacing of the final point;
3. over the common prefix, corresponding samples agree to 1e-6
   absolute.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.polyline import resample_polyline_fast
from tests.geometry.polyline_reference import resample_polyline_reference

coords = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
polylines = st.lists(st.tuples(coords, coords), min_size=2, max_size=50)
spacings = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def assert_contract(line, spacing):
    ref = resample_polyline_reference(line, spacing)
    fast = resample_polyline_fast(line, spacing)

    # 1. endpoints kept by both.
    for out in (ref, fast):
        assert out[0] == (line[0][0], line[0][1])
        assert out[-1] == (line[-1][0], line[-1][1])

    # 2. lengths differ by at most one boundary sample, within one
    #    spacing of the final point.
    assert abs(len(ref) - len(fast)) <= 1, (len(ref), len(fast))
    if len(ref) != len(fast):
        longer = ref if len(ref) > len(fast) else fast
        extra = longer[-2]  # the sample the other implementation omitted
        end = longer[-1]
        assert math.hypot(extra[0] - end[0], extra[1] - end[1]) <= spacing + 1e-9

    # 3. common-prefix agreement to 1e-6 absolute.
    for (rx, ry), (fx, fy) in zip(ref, fast):
        assert abs(rx - fx) <= 1e-6 and abs(ry - fy) <= 1e-6, (
            (rx, ry),
            (fx, fy),
        )


@given(line=polylines, spacing=spacings)
@settings(max_examples=300, deadline=None)
def test_resample_contract_random(line, spacing):
    assert_contract(line, spacing)


def test_resample_contract_boundary_landing():
    # Total length an exact multiple of the spacing: the adversarial
    # case for point 2 (a sample lands within FP noise of the end).
    line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    for spacing in (0.5, 1.0, 1.5, 3.0):
        assert_contract(line, spacing)
