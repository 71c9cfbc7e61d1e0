"""The integer lower-hull test against the Fraction kernel it replaced, and the
triangle-placing enumeration against the edge-list and bitset kernels before
it.  The edge-list kernel takes 14 s on the 3x3 grid, so the grid, and
random configurations of up to 9 points, are checked against the bitset
kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz_oracle import (
    all_triangulations_by_bitsets,
    all_triangulations_by_edge_lists,
    regular_subdivision_by_fractions,
)
from secfan.delpezzo import TORIC_NAMES, toric_boundary
from secfan.lattice import vec_dot
from secfan.secondary import _orient, all_triangulations, gkz_secondary_fan, regular_subdivision

NESTED = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]
GRID = [(x, y) for x in range(3) for y in range(3)]
FIXED = [[tuple(r) for r in toric_boundary(name)[2]] + [(0, 0)] for name in TORIC_NAMES] + [NESTED, GRID]


def _spans(pts):
    return any(_orient(pts[0], pts[1], p) != 0 for p in pts[2:])


def _configurations(max_size):
    return st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=max_size, unique=True
    ).filter(_spans)


configurations = _configurations(8)


@st.composite
def lifted_configurations(draw):
    """A configuration with integer heights and, or not, integer tie-breaks."""
    pts = draw(configurations)
    layer = st.lists(st.integers(-5, 5), min_size=len(pts), max_size=len(pts))
    return pts, draw(layer), draw(st.none() | layer)


@settings(max_examples=300, deadline=None)
@given(lifted_configurations())
def test_regular_subdivision_matches_fraction_kernel(case):
    pts, heights, tie_break = case
    assert regular_subdivision(pts, heights, tie_break) == regular_subdivision_by_fractions(
        pts, heights, tie_break)


@settings(max_examples=30, deadline=None)
@given(configurations)
def test_all_triangulations_matches_edge_list_kernel(pts):
    assert all_triangulations(pts) == all_triangulations_by_edge_lists(pts)


@settings(max_examples=20, deadline=None)
@given(_configurations(9))
def test_all_triangulations_matches_bitset_kernel(pts):
    assert all_triangulations(pts) == all_triangulations_by_bitsets(pts)


@pytest.mark.parametrize("pts", FIXED, ids=list(TORIC_NAMES) + ["nested", "grid"])
def test_fixed_configurations_match_the_oracles(pts):
    tris = all_triangulations(pts)
    assert tris == all_triangulations_by_bitsets(pts)
    if pts == GRID:
        # the edge-list kernel takes 14 s here, and the Fraction walls below a minute
        assert len(tris) == 387
        return
    assert tris == all_triangulations_by_edge_lists(pts)
    # the wall crossings of the flip-graph walk, and each ray as a height function
    gkz = gkz_secondary_fan(pts)
    for rc in gkz.raw_cones:
        for g in rc.facets:
            wall = [sum(col) for col in zip(*(r for r in rc.rays if vec_dot(g, r) == 0))]
            wall = wall or [0] * len(pts)
            tie = [-x for x in g]
            assert regular_subdivision(pts, wall, tie) == regular_subdivision_by_fractions(
                pts, wall, tie)
        for r in rc.rays:
            assert regular_subdivision(pts, r) == regular_subdivision_by_fractions(pts, r)
