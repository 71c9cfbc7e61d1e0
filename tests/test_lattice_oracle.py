"""Saturation by the twice-applied quotient map against the V^-1 kernel it
replaced, and the effective-cone membership test against the subset search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import nonneg_solve_by_subsets, saturate_by_inverse
from secfan.delpezzo import PicLattice, ne_generators, minus_one_classes, quadric, roots
from secfan.errors import ValidationError
from secfan.lattice import IntMat, saturate, solve_integral
from secfan.thetaalg import validate_effective


def _in_lattice(basis, v) -> bool:
    return solve_integral(IntMat.from_rows(basis).transpose(), v) is not None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple), min_size=1, max_size=4)))
def test_saturations_span_the_same_lattice(rows):
    new, old = saturate(rows), saturate_by_inverse(rows)
    assert len(new) == len(old)
    assert all(_in_lattice(old, v) for v in new)
    assert all(_in_lattice(new, v) for v in old)


def _is_effective(lat, gamma) -> bool:
    try:
        validate_effective(lat, gamma)
    except ValidationError:
        return False
    return True


LATTICES = [PicLattice(k) for k in range(4)] + [quadric()]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LATTICES).flatmap(lambda lat: st.tuples(
    st.just(lat), st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank).map(tuple))))
def test_effective_tests_agree_for_small_k(case):
    lat, gamma = case
    expected = nonneg_solve_by_subsets(ne_generators(lat), gamma) is not None
    assert _is_effective(lat, gamma) == expected


@pytest.mark.parametrize("k", range(5))
def test_effective_tests_agree_on_named_classes(k):
    lat = PicLattice(k)
    named = minus_one_classes(lat) + roots(lat) + [lat.canonical, tuple(-x for x in lat.canonical)]
    for gamma in named:
        expected = nonneg_solve_by_subsets(ne_generators(lat), gamma) is not None
        assert _is_effective(lat, gamma) == expected, gamma
