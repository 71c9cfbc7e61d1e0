import itertools
from fractions import Fraction

import pytest

from secfan.errors import ValidationError
from secfan.spines import (
    _walk,
    AffineStructure,
    Leg,
    count,
    crossing_class,
    develop_rays,
    is_balanced,
    is_toric_monodromy,
    monodromy,
    spine,
    trace_leg,
    transition,
    two_leg_outputs,
)

TORIC = {
    "p2": (1, 1, 1),
    "quadric": (0, 0, 0, 0),
    "f1": (0, -1, 0, 1),
    "dp7": (-1, -1, 0, 0, -1),
    "dp6": (-1, -1, -1, -1, -1, -1),
}


def test_transition_matrices():
    aff = AffineStructure(6, TORIC["dp6"])
    assert transition(aff, 1) == ((1, 1), (-1, 0))
    p2 = AffineStructure(3, TORIC["p2"])
    assert transition(p2, 1) == ((-1, 1), (-1, 0))
    # v_{i-1} -> v_i - v_{i+1} for a (-1)-component
    m = transition(aff, 2)
    img = (m[0][0] * 1 + m[0][1] * 0, m[1][0] * 1 + m[1][1] * 0)
    assert img == (1, -1)


def test_transition_det_one():
    for si in [(1, 1, 1), (-2, 0, 3), (-1, 4, -5, 2)]:
        aff = AffineStructure(len(si), si)
        for i in range(1, len(si) + 1):
            m = transition(aff, i)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


@pytest.mark.parametrize("name", sorted(TORIC))
def test_monodromy_identity_toric(name):
    aff = AffineStructure(len(TORIC[name]), TORIC[name])
    assert is_toric_monodromy(aff)


def test_monodromy_nonidentity():
    aff = AffineStructure(3, (-1, -1, -1))
    assert not is_toric_monodromy(aff)
    assert monodromy(aff) == ((-1, 0), (0, -1))


def test_monodromy_nontoric_random():
    # small perturbation of a toric sequence loses the identity
    aff = AffineStructure(6, (-1, -1, -1, -1, -1, -2))
    assert not is_toric_monodromy(aff)


def hex_aff():
    return AffineStructure(6, TORIC["dp6"])


def test_straight_segment_balanced():
    s = spine(1, (2, 1), [((1, 1), 1), ((-1, -1), 1)])
    assert is_balanced(hex_aff(), s)


def test_angle_without_third_leg_unbalanced():
    s = spine(1, (2, 1), [((1, 0), 1), ((0, 1), 1)])
    assert not is_balanced(hex_aff(), s)


def test_flop_vertex_balanced():
    # legs toward v_{i-1}, v_{i+1} and output -v_i, developed across the ray
    s = spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)])
    assert is_balanced(hex_aff(), s)


def test_crossing_class_single():
    aff = hex_aff()
    s = spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 1)])
    assert crossing_class(aff, s) == (0, 1, 0, 0, 0, 0)


def test_crossing_class_weight_linear():
    aff = hex_aff()
    s2 = spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 2)])
    assert crossing_class(aff, s2) == (0, 2, 0, 0, 0, 0)


def test_crossing_class_in_cone_zero():
    aff = hex_aff()
    s = spine(1, (2, 1), [((1, 0), 1), ((1, 2), 1)])
    assert crossing_class(aff, s) == (0, 0, 0, 0, 0, 0)


def test_crossing_class_with_classes():
    aff = hex_aff()
    classes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 2)]
    s = spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 1)])
    assert crossing_class(aff, s, classes) == (0, 1)


def test_count_rules():
    aff = hex_aff()
    s = spine(1, (2, 1), [((1, 1), 1), ((-1, -1), 1)])
    assert is_balanced(aff, s)
    z = crossing_class(aff, s)
    assert count(aff, s, z) == 1
    bumped = list(z)
    bumped[0] += 1
    assert count(aff, s, tuple(bumped)) == 0
    unbalanced = spine(1, (2, 1), [((1, 0), 1), ((0, 1), 1)])
    assert count(aff, unbalanced, (0, 0, 0, 0, 0, 0)) == 0


def test_trace_leg_rejects_ray_run():
    aff = hex_aff()
    with pytest.raises(ValidationError):
        # direction straight at the puncture
        trace_leg(aff, 1, (1, 1), (-1, -1))


@pytest.mark.parametrize("chart, pos", [(0, (2, 1)), (7, (2, 1)), (1, (0, 1)), (1, (2, -1))])
def test_trace_leg_rejects_a_start_outside_the_open_chart_cones(chart, pos):
    with pytest.raises(ValidationError):
        trace_leg(hex_aff(), chart, pos, (1, 0))


def test_vertex_on_ray_rejected():
    with pytest.raises(ValidationError):
        spine(1, (0, 1), [((1, 0), 1)])


def test_develop_rays_hexagon_periodic():
    aff = hex_aff()
    dev = develop_rays(aff, -6, 12)
    assert dev[1] == (1, 0) and dev[2] == (0, 1)
    assert dev[7] == dev[1] and dev[8] == dev[2]
    assert dev[4] == (-1, 0)


def test_two_leg_adjacent():
    outs = two_leg_outputs(hex_aff(), 1, 2)
    assert outs == [((0, {1: 1, 2: 1}), {})]


def test_two_leg_flop_pair():
    outs = two_leg_outputs(hex_aff(), 6, 2)
    assert outs == [((1, {1: 1}), {1: 1})]


def test_two_leg_skip_one():
    outs = two_leg_outputs(hex_aff(), 1, 3)
    assert outs == [((1, {2: 1}), {2: 1})]


def test_two_leg_opposite():
    outs = two_leg_outputs(hex_aff(), 1, 4)
    assert len(outs) == 2
    for (center, b), cls in outs:
        assert center == 2 and b == {}
        assert sorted(cls) in ([2, 3], [5, 6])


def test_two_leg_outputs_all_counted():
    # the one (6, 2) output is realized by a hand spine: a flop vertex in
    # chart 6 reaching legs 6 and 2, output toward -v_1; it is counted once
    aff = hex_aff()
    assert two_leg_outputs(aff, 6, 2) == [((1, {1: 1}), {1: 1})]
    s = spine(6, (2, 1), [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)])
    assert is_balanced(aff, s)
    z = crossing_class(aff, s)
    assert count(aff, s, z) == 1
    bumped = list(z)
    bumped[0] += 1
    assert count(aff, s, tuple(bumped)) == 0


def test_a_leg_points_out_of_the_closed_cone_after_every_crossing():
    # two_leg_outputs reads the output only in the vertex chart: after any
    # crossing the walked direction has a positive coordinate, whatever the
    # structure, so a later chart of the output leg never holds -d3
    for n in (1, 2, 3):
        for selfint in itertools.product(range(-3, 2), repeat=n):
            aff = AffineStructure(n, selfint)
            for d in itertools.product(range(-4, 5), repeat=2):
                for k in (-1, 1):
                    path, _, _ = _walk(aff, 1, d, k, -4 * n, 4 * n)
                    assert all(dx > 0 or dy > 0 for _, (dx, dy) in path[1:])


def test_two_leg_outputs_with_one_center_and_two_boundary_points():
    # outputs (0, {1: 1, 2: 1}) and (0, {2: 2}) share the center coordinate,
    # so their order is decided by the boundary coordinates
    aff = AffineStructure(5, (-1,) * 5)
    assert two_leg_outputs(aff, 1, 2) == [
        ((0, {1: 1, 2: 1}), {}),
        ((0, {2: 2}), {}),
        ((1, {1: 1}), {1: 1}),
        ((1, {2: 1}), {2: 1}),
        ((2, {}), {1: 1, 2: 1}),
    ]
    assert [out for out, _ in two_leg_outputs(aff, 1, 1)] == [
        (0, {1: 1, 2: 1}), (0, {1: 2}), (0, {2: 2}), (1, {1: 1})]
    assert len(two_leg_outputs(aff, 1, 5)) == 5


def test_nontoric_structure_trace_still_exact():
    aff = AffineStructure(3, (-1, -1, -1))
    s = spine(1, (3, 2), [((1, 0), 1), ((-1, 1), 1)])
    cls = crossing_class(aff, s)
    assert sum(cls) >= 1


def test_crossing_class_constant_along_line():
    # moving the vertex along a straight spine does not change its class
    # (the concatenation-compatibility of crossings)
    aff = hex_aff()
    base = spine(1, (2, 1), [((1, 1), 1), ((-1, -1), 1)])
    cls = crossing_class(aff, base)
    for t in (1, 2, 3):
        shifted = spine(1, (2 + t, 1 + t), [((1, 1), 1), ((-1, -1), 1)])
        assert crossing_class(aff, shifted) == cls


def test_monodromy_trace_rotation_invariant():
    # rotating the self-intersection sequence conjugates the monodromy
    import random

    rng = random.Random(7)
    for _ in range(10):
        si = tuple(rng.randint(-3, 2) for _ in range(5))
        m0 = monodromy(AffineStructure(5, si))
        tr0 = m0[0][0] + m0[1][1]
        for r in range(1, 5):
            rot = si[r:] + si[:r]
            m = monodromy(AffineStructure(5, rot))
            assert m[0][0] + m[1][1] == tr0
