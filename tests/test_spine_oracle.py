"""The integer chart walk against the Fraction walkers it replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spine_oracle
from secfan.errors import ValidationError
from secfan.spines import AffineStructure, trace_leg, two_leg_outputs

TORIC = {
    "p2": (1, 1, 1),
    "quadric": (0, 0, 0, 0),
    "f1": (0, -1, 0, 1),
    "dp7": (-1, -1, 0, 0, -1),
    "dp6": (-1, -1, -1, -1, -1, -1),  # the hexagon
}


def _outcome(trace, aff, chart, pos, direction):
    try:
        return trace(aff, chart, pos, direction)
    except ValidationError:
        return "raised"


@pytest.mark.parametrize("n", [1, 3])
def test_trace_leg_winding_cap_on_both_sides(n):
    # on (-2)^n the developed rays close in on a line, and the leg from (2, 1)
    # along (-m, m + 1) or (m + 1, -m) escapes after exactly m crossings,
    # counterclockwise or clockwise: the cap admits m = 6n + 5, not 6n + 6
    aff = AffineStructure(n, (-2,) * n)
    cap = 6 * n + 5
    for m, escapes in [(cap, True), (cap + 1, False)]:
        for direction in [(-m, m + 1), (m + 1, -m)]:
            case = (aff, 1, (2, 1), direction)
            got = _outcome(trace_leg, *case)
            assert got == _outcome(spine_oracle.trace_leg, *case)
            assert (got != "raised") == escapes
            assert got == "raised" or len(got[0]) == m
    # parallel to the asymptote: never escapes
    assert _outcome(trace_leg, aff, 1, (2, 1), (-1, -1)) == "raised"


def structures(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.integers(-4, 3), min_size=n, max_size=n).map(
            lambda si: AffineStructure(len(si), tuple(si))))


@st.composite
def two_leg_cases(draw):
    aff = draw(structures(3, 8))
    pair = st.integers(1, aff.n)
    return aff, draw(pair), draw(pair)


@settings(max_examples=200, deadline=None)
@given(two_leg_cases())
def test_two_leg_outputs_match_the_fraction_walk(case):
    aff, i1, i2 = case
    assert two_leg_outputs(aff, i1, i2) == spine_oracle.two_leg_outputs(aff, i1, i2)


positive = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4)


@st.composite
def leg_starts(draw):
    """A chart, a point in its open cone and an integer direction, which in
    about a third of the draws is aimed straight at the puncture."""
    aff = draw(structures(1, 8))
    chart = draw(st.integers(1, aff.n))
    if draw(st.integers(0, 2)) == 0:
        p, q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        scale = draw(st.integers(1, 4))
        return aff, chart, (Fraction(p, scale), Fraction(q, scale)), (-p, -q)
    pos = (draw(positive), draw(positive))
    return aff, chart, pos, (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))


@settings(max_examples=800, deadline=None)
@given(leg_starts())
def test_trace_leg_matches_the_fraction_walk(case):
    assert _outcome(trace_leg, *case) == _outcome(spine_oracle.trace_leg, *case)


@pytest.mark.parametrize("name", sorted(TORIC))
def test_toric_structures_match_the_fraction_walk(name):
    si = TORIC[name]
    aff = AffineStructure(len(si), si)
    for i1 in range(1, aff.n + 1):
        for i2 in range(1, aff.n + 1):
            assert two_leg_outputs(aff, i1, i2) == spine_oracle.two_leg_outputs(aff, i1, i2)
    for chart in range(1, aff.n + 1):
        for pos in [(2, 1), (1, 3), (Fraction(1, 2), Fraction(5, 3))]:
            for dx in range(-3, 4):
                for dy in range(-3, 4):
                    case = (aff, chart, pos, (dx, dy))
                    assert _outcome(trace_leg, *case) == _outcome(spine_oracle.trace_leg, *case)
