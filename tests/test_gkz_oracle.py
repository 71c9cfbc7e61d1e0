"""The triangle-placing enumeration against the edge-list and bitset kernels
before it, and the secondary cones against the lifting construction: the
Fraction lower-hull kernel at an interior point of each cone, and the
flip-graph walk across its walls.  The edge-list kernel takes 14 s on the 3x3
grid, so the grid, and random configurations of up to 9 points, are checked
against the bitset kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz_oracle import (
    all_triangulations_by_bitsets,
    all_triangulations_by_edge_lists,
    flip_graph_triangulations,
    regular_subdivision_by_fractions,
)
from secfan.delpezzo import TORIC_NAMES, toric_boundary
from secfan.secondary import _orient, all_triangulations, gkz_secondary_fan

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


@settings(max_examples=30, deadline=None)
@given(configurations)
def test_all_triangulations_matches_edge_list_kernel(pts):
    assert all_triangulations(pts) == all_triangulations_by_edge_lists(pts)


@settings(max_examples=20, deadline=None)
@given(_configurations(9))
def test_all_triangulations_matches_bitset_kernel(pts):
    assert all_triangulations(pts) == all_triangulations_by_bitsets(pts)


def assert_lifting_construction(pts, gkz):
    """Each regular triangulation is the lower hull at an interior point of its
    cone, and the walk across the walls reaches exactly the regular ones."""
    for t, rc in zip(gkz.triangulations, gkz.raw_cones):
        assert regular_subdivision_by_fractions(pts, rc.interior_point()) == sorted(t)
    assert flip_graph_triangulations(pts, gkz.triangulations, gkz.raw_cones) == set(
        gkz.triangulations)


@pytest.mark.parametrize("pts", FIXED, ids=list(TORIC_NAMES) + ["nested", "grid"])
def test_fixed_configurations_match_the_oracles(pts):
    tris = all_triangulations(pts)
    assert tris == all_triangulations_by_bitsets(pts)
    if pts == GRID:
        # the edge-list kernel takes 14 s here, and the Fraction walls below a minute
        assert len(tris) == 387
        return
    assert tris == all_triangulations_by_edge_lists(pts)
    assert_lifting_construction(pts, gkz_secondary_fan(pts))


@settings(max_examples=40, deadline=None)
@given(_configurations(7))
def test_secondary_cones_match_the_lifting_construction(pts):
    assert_lifting_construction(pts, gkz_secondary_fan(pts))
