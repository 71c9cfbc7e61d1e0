"""The triangle-placing enumeration against the edge-list and bitset kernels
before it, the secondary cones in the quotient by the affine functions
against the lineal cones in R^s before them, and those against the lifting
construction: the Fraction lower-hull kernel at an interior point of each
cone, and the flip-graph walk across its walls.  The edge-list kernel takes 14 s on the 3x3
grid, so the grid, and random configurations of up to 9 points, are checked
against the bitset kernel."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz_oracle import (
    all_triangulations_by_bitsets,
    all_triangulations_by_edge_lists,
    flip_graph_triangulations,
    lineal_secondary_cone,
    regular_subdivision_by_fractions,
)
from secfan.cones import image
from secfan.delpezzo import TORIC_NAMES, toric_boundary
from secfan.lattice import IntMat, quotient_lattice_map
from secfan.secondary import (
    _affine_functions,
    _orient,
    all_triangulations,
    gkz_secondary_fan,
    secondary_cone,
)

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
    lineal = [lineal_secondary_cone(pts, t) for t in gkz.triangulations]
    for t, rc in zip(gkz.triangulations, lineal):
        assert regular_subdivision_by_fractions(pts, rc.interior_point()) == sorted(t)
    assert flip_graph_triangulations(pts, gkz.triangulations, lineal) == set(gkz.triangulations)


def assert_quotient_cones_match_the_oracle(pts):
    """Each triangulation's cone in Z^(s-3) is the lineal oracle cone pushed
    through proj, field for field, and both split regular from irregular alike.
    Returns the GKZ fan."""
    s = len(pts)
    gkz = gkz_secondary_fan(pts)
    proj = quotient_lattice_map(_affine_functions(pts), s)
    assert proj.mul(gkz.section.transpose()) == IntMat.identity(s - 3)
    regular, irregular = [], []
    for t in all_triangulations(pts):
        oracle = lineal_secondary_cone(pts, t)
        cone = secondary_cone(pts, t, gkz.section)
        assert astuple(cone) == astuple(image(proj, oracle))
        assert (cone.dim == s - 3) == (oracle.dim == s)
        (regular if oracle.dim == s else irregular).append((t, cone))
    assert [t for t, _ in regular] == gkz.triangulations
    assert [t for t, _ in irregular] == gkz.irregular
    assert [astuple(c) for c in gkz.fan.cones] == [astuple(c) for _, c in regular]
    return gkz


@pytest.mark.parametrize("pts", FIXED, ids=list(TORIC_NAMES) + ["nested", "grid"])
def test_fixed_configurations_match_the_oracles(pts):
    tris = all_triangulations(pts)
    assert tris == all_triangulations_by_bitsets(pts)
    gkz = assert_quotient_cones_match_the_oracle(pts)
    if pts == GRID:
        # the edge-list kernel takes 14 s here, and the Fraction walls below a minute
        assert len(tris) == 387
        return
    assert tris == all_triangulations_by_edge_lists(pts)
    assert_lifting_construction(pts, gkz)


@settings(max_examples=40, deadline=None)
@given(_configurations(7))
def test_secondary_cones_match_the_lifting_construction(pts):
    assert_lifting_construction(pts, assert_quotient_cones_match_the_oracle(pts))
