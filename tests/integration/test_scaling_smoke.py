"""Slow end-to-end smoke at n = 100000 (the tiled million-node path).

Excluded from the default run by the ``slow`` marker (``pytest -m slow``
runs it; the CI ``scaling`` job has a dedicated step).  One faulted,
tile-sharded Iso-Map epoch on the side-316 harbor field: the point is
that the tiling layer carries a 10^5-node faulted epoch end to end --
the degradation ledger conserved and the report count still sublinear
in n.
"""

import math

import pytest

from repro.experiments.common import harbor_network, run_isomap
from repro.experiments.fig14_traffic import auto_tile_size
from repro.field import make_harbor_field
from repro.network.faults import FaultPlan

N = 100000
SIDE = round(math.sqrt(N))


@pytest.mark.slow
class TestScalingSmoke:
    def test_tiled_faulted_epoch_at_1e5(self):
        field = make_harbor_field(side=SIDE)
        net = harbor_network(N, "random", seed=1, field=field)
        tile_size = auto_tile_size(SIDE)
        res = run_isomap(
            net,
            fault_plan=FaultPlan.at_intensity(0.5, seed=1),
            tile_size=tile_size,
        )
        deg = res.degradation
        assert deg is not None and deg.is_conserved
        assert deg.generated > 0
        assert len(res.delivered_reports) > 0
        # O(sqrt(n)) sources: the fitted exponent lives in the bench;
        # here a hard sublinearity cap guards the invariant.
        assert 0 < res.costs.reports_generated < N**0.7
