"""The adjacency-tested double-description kernel against the rank-filter kernel it
replaced, the resumed intersect against the from-scratch one, and
RationalCone.dim against the rank of the generators."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dd_oracle import cone_from_rays_two_sweeps, dual_description_by_rank_filter, intersect_from_facets
from secfan import cones
from secfan.cones import cone_from_inequalities, cone_from_rays, dual_description, faces, intersect, zero_cone
from secfan.lattice import rank_of


def _rows(n, max_size):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
                    max_size=max_size)


def _with_repeats(draw, rows):
    """The rows plus a few of them again, some scaled by 2 or 3."""
    if not rows:
        return rows
    extra = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(1, 3)), max_size=3))
    return rows + [tuple(c * x for x in r) for r, c in extra]


@st.composite
def h_descriptions(draw):
    """Inequalities of rank 1-6 with 0-2 equations, some rows repeated or scaled."""
    n = draw(st.integers(1, 6))
    ineqs = _with_repeats(draw, draw(_rows(n, 8)))
    eqs = draw(_rows(n, 2))
    return ineqs, eqs, n


@st.composite
def v_descriptions(draw, n=None):
    """Nonzero generators of rank 1-6 (or n) with 0-2 lineality vectors, some repeated or scaled."""
    n = draw(st.integers(1, 6)) if n is None else n
    rays = _with_repeats(draw, [r for r in draw(_rows(n, 8)) if any(r)] or [(1,) * n])
    lin = draw(_rows(n, 2))
    return rays, lin, n


@settings(max_examples=400, deadline=None)
@given(h_descriptions())
def test_dual_description_matches_the_rank_filter(h):
    assert dual_description(*h) == dual_description_by_rank_filter(*h)


def _four_tuples(c):
    return c.rays, c.facets, c.equations, c.lineality


@settings(max_examples=200, deadline=None)
@given(v_descriptions())
def test_cone_from_rays_matches_under_the_rank_filter(v):
    rays, lin, n = v
    new = cone_from_rays(rays, n, lineality=lin)
    with mock.patch.object(cones, "dual_description", dual_description_by_rank_filter):
        old = cone_from_rays(rays, n, lineality=lin)
    assert _four_tuples(new) == _four_tuples(old)


@settings(max_examples=300, deadline=None)
@given(v_descriptions())
def test_one_sweep_cone_from_rays_matches_two_sweeps(v):
    rays, lin, n = v
    new = cone_from_rays(rays, n, lineality=lin)
    assert _four_tuples(new) == _four_tuples(cone_from_rays_two_sweeps(rays, n, lineality=lin))


@st.composite
def intersect_operands(draw, n):
    """A cone of rank n from v_descriptions, flattened into x_n = 0 or the zero cone at times."""
    kind = draw(st.sampled_from(["as drawn", "flat", "zero"]))
    if kind == "zero":
        return zero_cone(n)
    rays, lin, _ = draw(v_descriptions(n))
    if kind == "flat":
        rays = [r[:-1] + (0,) for r in rays if any(r[:-1])]
        lin = [l[:-1] + (0,) for l in lin]
    if not rays and not any(any(l) for l in lin):
        return zero_cone(n)
    return cone_from_rays(rays, n, lineality=lin)


@st.composite
def intersect_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(intersect_operands(n)), draw(intersect_operands(n))


@settings(max_examples=300, deadline=None)
@given(intersect_pairs())
def test_resumed_intersect_matches_the_sweep_from_facets(pair):
    a, b = pair
    assert _four_tuples(intersect(a, b)) == _four_tuples(intersect_from_facets(a, b))


@settings(max_examples=100, deadline=None)
@given(v_descriptions(), st.data())
def test_dim_matches_the_rank_of_the_generators(v, data):
    rays, lin, n = v
    c = cone_from_rays(rays, n, lineality=lin)
    h = cone_from_inequalities(data.draw(_rows(n, 8)), data.draw(_rows(n, 2)), n)
    for cone in (c, h, intersect(c, h), *faces(c, 1), zero_cone(n)):
        # the formula dim replaced: the rank of the generators
        assert cone.dim == rank_of(list(cone.rays) + list(cone.lineality))


@pytest.mark.parametrize("rays, lin", [
    ([(1, 0, 0), (1, 0, 0), (2, 0, 0), (0, 3, 0), (0, 1, 0), (1, 1, 0)], []),  # duplicates, scaled
    ([(2, 2, 0), (1, 1, 0), (1, 0, 1), (3, 0, 3), (1, 1, 1)], []),  # scaled, one inside
    ([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], []),  # lower-dimensional
    ([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (0, 0, 1)], []),  # square pyramid, one inside
    ([(1, 2, 3), (-1, -2, -3)], []),  # a line from {r, -r}
    ([(1, 2, 3), (-2, -4, -6), (0, 0, 1)], []),  # a half-plane from {r, -r} and one more
    ([(2, -4, 6)], []),  # a single ray
    ([(0, 0, 5)], []),
    ([(1, 0)], [(0, 1)]),  # lineality given
    ([(1, 0)], [(0, 0)]),  # a zero lineality vector
    ([], [(1, 1, 0)]),
])
def test_one_sweep_cone_from_rays_on_edge_cases(rays, lin):
    n = len((rays + lin)[0])
    new = cone_from_rays(rays, n, lineality=lin)
    assert _four_tuples(new) == _four_tuples(cone_from_rays_two_sweeps(rays, n, lineality=lin))
