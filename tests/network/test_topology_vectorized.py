"""Differential tests: vectorized adjacency/k-hop vs brute force.

The vectorized kernels (:func:`build_csr_adjacency`,
:meth:`CsrAdjacency.k_hop_pairs` and its one-source case
:meth:`CsrAdjacency.k_hop_neighbors`) must agree *exactly* -- same sets,
not approximately the same -- with both a quadratic brute-force oracle
and the original per-node spatial-hash implementation
(:func:`build_adjacency_reference`).  The hard cases are pairs exactly at
``radio_range`` (boundary inclusion) and nodes sitting on spatial-hash
bucket borders (coordinates that are exact multiples of the cell size,
including negative ones), where an off-by-one in the cell offsets drops
edges silently.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import build_adjacency_reference, build_csr_adjacency
from repro.network.topology import k_hop_neighbors
from tests.network.neighbourhoods import disk_sets, neighbour_sets


def brute_force_adjacency(positions, radio_range):
    """O(n^2) oracle using the same IEEE-754 distance expression."""
    n = len(positions)
    r2 = radio_range * radio_range
    adj = [set() for _ in range(n)]
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            dx = positions[j][0] - xi
            dy = positions[j][1] - yi
            if dx * dx + dy * dy <= r2:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def assert_all_agree(positions, radio_range):
    oracle = brute_force_adjacency(positions, radio_range)
    assert build_adjacency_reference(positions, radio_range) == oracle
    csr = build_csr_adjacency(positions, radio_range)
    assert neighbour_sets(csr) == oracle
    # Array input must take the same code path as list-of-tuples input.
    assert neighbour_sets(build_csr_adjacency(np.asarray(positions), radio_range)) == oracle


def test_random_clouds_match_brute_force():
    rng = random.Random(11)
    for n, r in [(1, 1.0), (2, 1.0), (50, 1.5), (200, 1.5), (200, 0.3), (300, 8.0)]:
        pts = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)]
        assert_all_agree(pts, r)


def test_pair_exactly_at_radio_range_is_connected():
    # d^2 == r^2 exactly: the <= boundary must be inclusive in every impl.
    pts = [(0.0, 0.0), (1.5, 0.0), (0.0, -1.5), (10.0, 10.0)]
    assert_all_agree(pts, 1.5)
    adj = disk_sets(pts, 1.5)
    assert adj[0] == {1, 2}
    # 3-4-5 triangle scaled so the hypotenuse is exactly the range.
    pts = [(0.0, 0.0), (0.9, 1.2)]
    assert disk_sets(pts, 1.5)[0] == {1}


def test_pair_just_beyond_radio_range_is_not_connected():
    r = 1.5
    pts = [(0.0, 0.0), (math.nextafter(r, math.inf), 0.0)]
    assert_all_agree(pts, r)
    assert disk_sets(pts, r)[0] == set()


def test_nodes_on_bucket_borders():
    # Coordinates that are exact multiples of the cell size (= radio_range)
    # land on spatial-hash bucket borders; neighbours then live in
    # different cells in every one of the five offset directions.
    r = 1.5
    pts = [
        (0.0, 0.0), (1.5, 0.0), (0.0, 1.5), (1.5, 1.5),
        (3.0, 0.0), (0.0, 3.0), (3.0, 3.0), (1.5, -1.5), (-1.5, 1.5),
    ]
    assert_all_agree(pts, r)


def test_negative_and_mixed_sign_coordinates():
    rng = random.Random(5)
    pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(150)]
    pts += [(-1.5, -1.5), (-3.0, 0.0), (0.0, 0.0), (-1.5, 1.5)]
    assert_all_agree(pts, 1.5)


def test_duplicate_positions():
    pts = [(2.0, 2.0)] * 4 + [(2.0, 3.0), (9.0, 9.0)]
    assert_all_agree(pts, 1.5)
    adj = disk_sets(pts, 1.5)
    assert adj[0] == {1, 2, 3, 4}  # co-located nodes see each other, not self


def test_single_row_and_single_column_layouts():
    # Degenerate extents: the y (or x) cell span collapses to one stripe.
    line_x = [(0.7 * k, 5.0) for k in range(30)]
    line_y = [(5.0, 0.7 * k) for k in range(30)]
    assert_all_agree(line_x, 1.5)
    assert_all_agree(line_y, 1.5)


def test_empty_and_invalid_inputs():
    assert build_adjacency_reference([], 1.5) == []
    assert build_csr_adjacency([], 1.5).n_nodes == 0
    with pytest.raises(ValueError):
        build_csr_adjacency([(0.0, 0.0)], 0.0)
    with pytest.raises(ValueError):
        build_csr_adjacency([(0.0, 0.0)], -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-25, 25, allow_nan=False).map(lambda v: round(v, 3)),
            st.floats(-25, 25, allow_nan=False).map(lambda v: round(v, 3)),
        ),
        min_size=0,
        max_size=60,
    ),
    st.sampled_from([0.5, 1.5, 4.0]),
)
def test_property_adjacency_matches_oracle(pts, r):
    assert_all_agree(pts, r)


def test_k_hop_csr_matches_set_based():
    rng = random.Random(3)
    pts = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(200)]
    csr = build_csr_adjacency(pts, 1.5)
    sets = neighbour_sets(csr)
    for start in (0, 17, 199):
        for k in (0, 1, 2, 3, 10):
            want = sorted(k_hop_neighbors(sets, start, k))
            got = csr.k_hop_neighbors(start, k)
            assert got.tolist() == want


def test_k_hop_respects_alive_mask():
    rng = random.Random(9)
    pts = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(150)]
    csr = build_csr_adjacency(pts, 1.5)
    sets = neighbour_sets(csr)
    alive = [rng.random() > 0.3 for _ in pts]
    for start in (0, 60, 149):
        for k in (1, 2, 4):
            want = sorted(k_hop_neighbors(sets, start, k, alive=alive))
            assert csr.k_hop_neighbors(start, k, alive=alive).tolist() == want


def test_k_hop_rejects_negative_k():
    csr = build_csr_adjacency([(0.0, 0.0), (1.0, 0.0)], 1.5)
    with pytest.raises(ValueError):
        csr.k_hop_neighbors(0, -1)
    with pytest.raises(ValueError):
        k_hop_neighbors(neighbour_sets(csr), 0, -1)


def test_gather_concatenates_rows_in_order():
    rng = random.Random(5)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(120)]
    csr = build_csr_adjacency(pts, 1.5)
    rows = np.array([7, 3, 7, 0, 119], dtype=np.int64)
    want = [j for r in rows.tolist() for j in csr.neighbors(r).tolist()]
    assert csr.gather(rows).tolist() == want
    assert csr.gather(np.empty(0, dtype=np.int64)).size == 0


def test_flood_reaches_the_live_component():
    rng = random.Random(6)
    pts = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(150)]
    csr = build_csr_adjacency(pts, 1.5)
    sets = neighbour_sets(csr)
    live = np.array([rng.random() > 0.3 for _ in pts])
    for start in np.flatnonzero(live)[:5].tolist():
        reached = k_hop_neighbors(sets, start, len(pts), alive=live.tolist())
        want = sorted(reached | {start})
        assert np.flatnonzero(csr.flood(start, live)).tolist() == want


def _pairs_reference(sets, sources, k, alive=None):
    """Per-source set BFS: sorted (owner, node, hops) triples."""
    out = []
    for s in sorted(set(sources)):
        prev = set()
        for h in range(1, k + 1):
            ring = k_hop_neighbors(sets, s, h, alive=alive) - prev
            out.extend((s, v, h) for v in ring)
            prev |= ring
    return sorted(out)


def _pairs(csr, sources, k, alive=None):
    owner, node, hops = csr.k_hop_pairs(np.asarray(sources, dtype=np.int64), k, alive)
    for arr in (owner, node, hops):
        assert arr.dtype == np.int64
    return list(zip(owner.tolist(), node.tolist(), hops.tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_k_hop_pairs_match_set_based(seed):
    rng = random.Random(seed)
    n = rng.choice([40, 150, 300])
    pts = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(n)]
    csr = build_csr_adjacency(pts, rng.choice([1.0, 1.5, 2.5]))
    sets = neighbour_sets(csr)
    alive = [rng.random() > 0.3 for _ in pts]
    sources = rng.sample(range(n), rng.randint(1, n))
    for k in (0, 1, 2, 3):
        for mask in (None, alive):
            want = _pairs_reference(sets, sources, k, alive=mask)
            assert _pairs(csr, sources, k, mask) == want
            mask_arr = None if mask is None else np.asarray(mask)
            assert _pairs(csr, sources, k, mask_arr) == want


def test_k_hop_pairs_edge_cases():
    # A path 0-1-2-3 plus an isolated node 4.
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (9.0, 9.0)]
    csr = build_csr_adjacency(pts, 1.2)
    sets = neighbour_sets(csr)
    # k far beyond the diameter: every reachable node, once, at its distance.
    assert _pairs(csr, [0], 50) == [(0, 1, 1), (0, 2, 2), (0, 3, 3)]
    assert _pairs(csr, [4], 3) == []  # isolated source
    # A dead source still expands (the set-based semantics), and a dead
    # relay cuts the path beyond it.
    alive = [False, True, False, True, True]
    assert _pairs(csr, [0], 3, alive) == [(0, 1, 1)]
    assert _pairs(csr, [0, 3, 4], 3, alive) == _pairs_reference(
        sets, [0, 3, 4], 3, alive
    )
    assert _pairs(csr, [], 2) == []
    assert _pairs(csr, [2, 1], 1) == [(1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1)]
    with pytest.raises(ValueError):
        csr.k_hop_pairs(np.array([0]), -1)
