import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from face_oracles import fan_check_by_facet_sums, pairs_left_by_dot_tables
from secfan import cones
from secfan.cli import fan_line
from secfan.cones import (
    Fan,
    FanReport,
    RationalCone,
    _tiling_defect,
    adjacency_pairs,
    cone_from_inequalities,
    cone_from_rays,
    cones_tile,
    faces,
    fan_check,
    fan_from_json,
    fan_to_json,
    image,
    intersect,
    is_coarsening,
    is_complete,
    is_face_of,
    zero_cone,
)
from secfan.errors import ValidationError
from secfan.lattice import IntMat, primitive


def rays_of(c):
    return set(c.rays)


def test_quadrant_from_rays():
    c = cone_from_rays([(1, 0), (0, 1)])
    assert rays_of(c) == {(1, 0), (0, 1)}
    assert set(c.facets) == {(1, 0), (0, 1)}
    assert c.dim == 2
    assert c.is_pointed()


def test_redundant_ray_dropped():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1)])
    assert rays_of(c) == {(1, 0), (0, 1)}


def test_wide_sector_has_lineality():
    # three generators spanning more than a half-plane fill R^2
    c = cone_from_rays([(1, 0), (-2, -2), (0, 1)])
    assert not c.is_pointed()
    assert c.dim == 2
    assert c.rays == ()
    assert _sweep_is_full_plane([(1, 0), (-2, -2), (0, 1)])


def _sweep_is_full_plane(gens):
    """2D angular sweep oracle: generators positively span the plane iff no open
    half-plane contains them all."""
    for g in gens:
        normal_candidates = [(-g[1], g[0]), (g[1], -g[0])]
        for nrm in normal_candidates:
            if all(nrm[0] * h[0] + nrm[1] * h[1] >= 0 for h in gens):
                return False
    return True


def test_zero_vector_rejected():
    with pytest.raises(ValidationError):
        cone_from_rays([(0, 0), (1, 0)])


@pytest.mark.parametrize("n", [0, 2, 4])
def test_empty_hull_is_the_zero_cone(n):
    empty, zero = cone_from_rays([], n), zero_cone(n)
    # field by field: __eq__ compares rays and lineality only
    assert (empty.ambient_rank, empty.rays, empty.facets, empty.equations, empty.lineality) == (
        zero.ambient_rank, zero.rays, zero.facets, zero.equations, zero.lineality)
    with pytest.raises(ValidationError):
        cone_from_rays([])


def test_image_keeps_lineality_and_drops_zero_images():
    # a half-space of R^3 whose lineality maps to a line and onto 0
    half_space = cone_from_rays([(1, 0, 0)], 3, lineality=[(0, 1, 0), (0, 0, 1)])
    drop_z = IntMat.from_rows([(1, 0, 0), (0, 1, 0)])
    assert image(drop_z, half_space) == cone_from_rays([(1, 0)], 2, lineality=[(0, 1)])
    # a ray mapped to 0 leaves the zero cone
    onto_y = IntMat.from_rows([(0, 1, 0)])
    assert image(onto_y, cone_from_rays([(1, 0, 0)])) == zero_cone(1)


def dual_cone(c: RationalCone) -> RationalCone:
    """Polar dual: rays of the output are the facets of the input and vice versa."""
    return cone_from_rays(c.facets, c.ambient_rank, lineality=c.equations)


def test_dual_quadrant_self_dual():
    c = cone_from_rays([(1, 0), (0, 1)])
    d = dual_cone(c)
    assert rays_of(d) == {(1, 0), (0, 1)}


def test_dual_half_plane_is_ray():
    c = cone_from_rays([(1, 0)], lineality=[(0, 1)])
    d = dual_cone(c)
    assert rays_of(d) == {(1, 0)}
    assert d.dim == 1


def rand_cone_2d(seed_rays):
    return cone_from_rays(seed_rays)


small_vecs_2d = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: v != (0, 0)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(small_vecs_2d)
def test_dual_dual_roundtrip_2d(gens):
    c = cone_from_rays(gens)
    dd = dual_cone(dual_cone(c))
    assert dd == c


small_vecs_3d = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda v: v != (0, 0, 0)
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(small_vecs_3d)
def test_dual_dual_roundtrip_3d(gens):
    c = cone_from_rays(gens)
    assert dual_cone(dual_cone(c)) == c


def _member_by_fm(rays, x):
    """Membership oracle: exact LP feasibility of x = sum lambda_i rays_i, lambda >= 0,
    by Fourier-Motzkin elimination of the lambdas."""
    m = len(rays)
    n = len(x)
    # system: for each coordinate j: sum_i l_i rays[i][j] = x[j]; l_i >= 0
    # carry inequalities over (l_1..l_m): start with l_i >= 0 and both directions of equalities
    ineqs = []  # (coeffs, const) meaning sum c_i l_i + const >= 0
    for i in range(m):
        e = [Fraction(0)] * m
        e[i] = Fraction(1)
        ineqs.append((e, Fraction(0)))
    for j in range(n):
        row = [Fraction(rays[i][j]) for i in range(m)]
        ineqs.append((row[:], Fraction(-x[j])))
        ineqs.append(([-c for c in row], Fraction(x[j])))
    for v in range(m):
        pos = [(c, k) for (c, k) in ineqs if c[v] > 0]
        neg = [(c, k) for (c, k) in ineqs if c[v] < 0]
        rest = [(c, k) for (c, k) in ineqs if c[v] == 0]
        new = list(rest)
        for cp, kp in pos:
            for cn, kn in neg:
                coef = [cp[t] * (-cn[v]) + cn[t] * cp[v] for t in range(m)]
                const = kp * (-cn[v]) + kn * cp[v]
                new.append((coef, const))
        ineqs = new
    return all(k >= 0 for _, k in ineqs)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).filter(
            lambda v: v != (0, 0, 0)
        ),
        min_size=1,
        max_size=4,
    ),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
)
def test_membership_matches_lp_oracle(gens, x):
    c = cone_from_rays(gens)
    if not c.is_pointed():
        return
    assert c.contains_point(x) == _member_by_fm(list(c.rays), x)


def test_intersect_quadrant_halfplane():
    quad = cone_from_rays([(1, 0), (0, 1)])
    below = cone_from_inequalities([(1, -1)], ambient_rank=2)  # y <= x
    c = intersect(quad, below)
    assert rays_of(c) == {(1, 0), (1, 1)}


def test_intersect_idempotent():
    c = cone_from_rays([(2, 1), (1, 3)])
    assert intersect(c, c) == c


def test_faces_quadrant():
    c = cone_from_rays([(1, 0), (0, 1)])
    fs = faces(c, 1)
    assert sorted(rays_of(f) for f in fs) == [{(0, 1)}, {(1, 0)}]
    assert [f.dim for f in faces(c, 2)] == [0]


def test_faces_simplicial_3d():
    c = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(faces(c, 1)) == 3
    assert len(faces(c, 2)) == 3
    assert len(faces(c, 3)) == 1


@settings(max_examples=20, deadline=None)
@given(st.permutations([(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]).map(lambda p: p[:3]))
def test_face_counts_binomial_for_simplicial(rays):
    c = cone_from_rays(list(rays))
    if c.dim != 3:
        return
    # brute-force oracle: faces of a simplicial cone = subsets of rays
    for codim in range(4):
        expected = len(list(itertools.combinations(range(3), 3 - codim)))
        assert len(faces(c, codim)) == expected


def fan_p2():
    cones = [
        cone_from_rays([(1, 0), (0, 1)]),
        cone_from_rays([(0, 1), (-1, -1)]),
        cone_from_rays([(-1, -1), (1, 0)]),
    ]
    return Fan(2, tuple(cones), ("s0", "s1", "s2"))


def test_fan_check_p2():
    rep = fan_check(fan_p2())
    assert rep.is_fan
    assert rep.violations == []
    assert is_complete(fan_p2())
    assert _sweep_complete_rank2(fan_p2())


def test_fan_check_overlap_violation():
    f = Fan(
        2,
        (
            cone_from_rays([(1, 0), (0, 1)]),
            cone_from_rays([(1, 1), (-1, 1)]),
        ),
    )
    rep = fan_check(f)
    assert not rep.is_fan
    assert rep.violations


@pytest.fixture
def intersect_calls(monkeypatch):
    """The operand pairs of every intersect call made through secfan.cones."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(cones, "intersect", counted)
    return calls


def test_fan_check_sends_a_cone_nested_on_a_facet_to_the_exact_check(intersect_calls):
    # B lies in A and shares the ray (1,0): the rays of A in B are {(1,0)}, the
    # rays of B in A are both of B's, so no separator is tried and B is no face of A
    a, b = cone_from_rays([(1, 0), (0, 1)]), cone_from_rays([(1, 0), (1, 1)])
    rep = fan_check(Fan(2, (a, b), ("A", "B")))
    assert rep.violations == [("A", "B", "intersection is not a common face")]
    assert intersect_calls == [(a, b)]


def test_fan_check_refuses_a_separator_whose_zero_sets_differ(intersect_calls):
    # two triangles crossing like a star of David in {x4 = 0}, with apexes on
    # opposite sides: neither holds a ray of the other, and x4 >= 0 on A and
    # <= 0 on B, but its zero sets are the two triangles, whose cones overlap
    a = cone_from_rays([(0, 2, 1, 0), (-2, -1, 1, 0), (2, -1, 1, 0), (0, 0, 0, 1)])
    b = cone_from_rays([(0, -2, 1, 0), (2, 1, 1, 0), (-2, 1, 1, 0), (0, 0, 0, -1)])
    assert (0, 0, 0, 1) in a.facets
    rep = fan_check(Fan(4, (a, b), ("A", "B")))
    assert rep.violations == [("A", "B", "intersection is not a common face")]
    assert intersect_calls == [(a, b)]


def test_fan_check_certifies_equal_cones(intersect_calls):
    # A cap A = A: the zero functional separates, with all rays as zero sets
    a = cone_from_rays([(1, 0, 0), (1, 1, 0), (0, 1, 1)])
    assert fan_check(Fan(3, (a, a))) == FanReport(True)
    assert intersect_calls == []


def test_fan_check_sends_lineal_cones_to_the_exact_check(intersect_calls):
    assert fan_check(Fan(2, (_half_plane(1), _half_plane(-1)))) == FanReport(True)
    assert len(intersect_calls) == 1


def _left_by_dot_tables(fan):
    """The operand pairs the dot-table oracle leaves to intersect."""
    return [(fan.cones[i], fan.cones[j]) for i, j in pairs_left_by_dot_tables(fan)]


def test_fan_check_with_the_zero_cone(intersect_calls):
    # no rays and no facets: the zero cone is a face of every cone, proved
    # against a quadrant by minus the sum of the quadrant's facets
    right, left = cone_from_rays([(1, 0), (0, 1)]), cone_from_rays([(0, 1), (-1, 0)])
    fan = Fan(2, (zero_cone(2), right, left, zero_cone(2)))
    assert fan_check(fan) == FanReport(True)
    assert intersect_calls == _left_by_dot_tables(fan) == []
    tilted = cone_from_rays([(1, 1), (-1, 1)])
    fan = Fan(2, (zero_cone(2), right, tilted), ("0", "R", "T"))
    assert fan_check(fan).violations == [("R", "T", "intersection is not a common face")]
    assert intersect_calls == _left_by_dot_tables(fan) == [(right, tilted)]
    assert fan_check(Fan(3, (zero_cone(3),) * 2)) == FanReport(True)


def test_fan_check_in_rank_1(intersect_calls):
    up, down = cone_from_rays([(1,)]), cone_from_rays([(-1,)])
    fan = Fan(1, (up, down, up, zero_cone(1)))
    assert fan_check(fan) == FanReport(True)
    assert intersect_calls == _left_by_dot_tables(fan) == []
    line = cone_from_rays([], 1, lineality=[(1,)])
    fan = Fan(1, (up, line), ("up", "line"))
    assert fan_check(fan).violations == [("up", "line", "intersection is not a common face")]
    assert intersect_calls == _left_by_dot_tables(fan) == [(up, line)]


def test_fan_check_reads_the_equations_of_lower_dimensional_cones(intersect_calls):
    # e3 is on both facets of cone(e1, e2) but off its plane z = 0; counted as
    # inside it, the rays of each cone in the other would differ, and the
    # octant and the floor would go to intersect
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    octant = cone_from_rays([e1, e2, e3])
    floor, wall = cone_from_rays([e1, e2]), cone_from_rays([e1, e3])
    assert floor.equations and wall.equations
    fan = Fan(3, (octant, floor, wall))
    assert fan_check(fan) == FanReport(True)
    assert intersect_calls == _left_by_dot_tables(fan) == []
    # a cone in the floor that is no face of the octant
    inner = cone_from_rays([e1, (1, 1, 0)])
    fan = Fan(3, (octant, inner), ("O", "I"))
    assert fan_check(fan).violations == [("O", "I", "intersection is not a common face")]
    assert intersect_calls == _left_by_dot_tables(fan) == [(octant, inner)]


def test_fan_check_refuses_a_facet_sum_that_vanishes_off_the_common_rays(intersect_calls):
    # the diagonal slice meets the square cone in two opposite rays; no facet of
    # the square vanishes on both, so sum T = 0 for both cones, which is zero
    # on the square's other two rays: the slice is no face of the square
    square = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    diagonal = cone_from_rays([(1, 0, 1), (-1, 0, 1)])
    for pair in ((square, diagonal), (diagonal, square)):
        intersect_calls.clear()
        assert not fan_check(Fan(3, pair)).is_fan
        assert intersect_calls == [pair]


def test_fan_check_keeps_a_facet_and_its_negative_apart(intersect_calls):
    # the quadrants have the facets x >= 0 and x <= 0, y >= 0 and y <= 0: read
    # off one table row, each quadrant would hold the other's rays
    quadrants = [cone_from_rays([(sx, 0), (0, sy)]) for sx in (1, -1) for sy in (1, -1)]
    assert (1, 0) in quadrants[0].facets and (-1, 0) in quadrants[2].facets
    fan = Fan(2, tuple(quadrants))
    assert fan_check(fan) == FanReport(True)
    assert intersect_calls == _left_by_dot_tables(fan) == []


def test_fan_check_names_a_bad_pair_of_a_rotation_invariant_fan_by_its_orbit_root():
    # the quadrants and the cone((1,0),(1,1)) inside the first, each rotated by
    # quarter turns: the rotation permutes the cones, in two orbits
    quarter = IntMat.from_rows([[0, -1], [1, 0]])
    quadrants, slivers = [[(1, 0), (0, 1)]], [[(1, 0), (1, 1)]]
    for orbit in (quadrants, slivers):
        while len(orbit) < 4:
            orbit.append([quarter.apply(r) for r in orbit[-1]])
    fan = Fan(2, tuple(cone_from_rays(rays) for rays in quadrants + slivers), (),
              (0, 0, 0, 0, 4, 4, 4, 4))
    assert fan.orbit_roots == fan.orbits
    rep = fan_check(fan)
    assert rep.violations == [("cone0", "cone4", "intersection is not a common face")]
    # with no orbits every pair is checked: each quadrant holds its sliver
    assert fan_check(fan.with_orbits(())).violations == [
        (f"cone{i}", f"cone{i + 4}", "intersection is not a common face") for i in range(4)]


def test_single_quadrant_incomplete():
    f = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),))
    assert not is_complete(f)


def _unit_vec(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def _orthant_ray_sets(n):
    return [
        frozenset(_unit_vec(n, i, s) for i, s in enumerate(signs))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def _thin_gap_fan(drop_sliver):
    # the positive orthant of R^6 split at w into "orthant with e_i replaced by w"
    n = 6
    w = (10**6, 1, 1, 1, 1, 1)
    positive = frozenset(_unit_vec(n, i) for i in range(n))
    ray_sets = [rs for rs in _orthant_ray_sets(n) if rs != positive]
    for i in range(n):
        if drop_sliver and i == 1:
            continue  # cone(e1, w, e3, ..., e6) is the sliver
        ray_sets.append((positive - {_unit_vec(n, i)}) | {w})
    return Fan(n, tuple(cone_from_rays(sorted(rs), n) for rs in ray_sets))


def _pentagram_fan():
    # five 144-degree cones: every wall has two cones on opposite sides, degree 2
    v = [(2, 0), (1, 2), (-2, 1), (-2, -1), (1, -2)]
    return Fan(2, tuple(cone_from_rays([v[i], v[(i + 2) % 5]]) for i in range(5)))


def _octant_fan_split_on_a_facet():
    # the positive octant cut along (1,1,0), a ray inside its facet with (+,+,-)
    r = (1, 1, 0)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ray_sets = [rs for rs in _orthant_ray_sets(3) if rs != {e1, e2, e3}]
    ray_sets += [{e1, r, e3}, {r, e2, e3}]
    return Fan(3, tuple(cone_from_rays(sorted(rs), 3) for rs in ray_sets))


def _half_plane(sign):
    return cone_from_rays([(sign, 0)], 2, lineality=[(0, 1)])


def test_thin_gap_at_rank_6_is_found():
    assert is_complete(_thin_gap_fan(drop_sliver=False))
    gap = _thin_gap_fan(drop_sliver=True)
    assert not is_complete(gap)
    # the defect names the wall the sliver used to cover: the positive
    # orthant's facet without e1, now met by its (+,-,+,+,+,+) neighbour alone
    wall = sorted(_unit_vec(6, i) for i in range(6) if i != 1)
    neighbour = next(i for i, c in enumerate(gap.cones)
                     if set(c.rays) == {*wall, _unit_vec(6, 1, -1)})
    assert _tiling_defect(list(gap.cones)) == (
        f"wall {wall} of cone {neighbour} is met by no other cone")


def test_pentagram_defect_is_the_double_cover():
    # every wall is matched, so the defect is the probe: covered twice
    defect = _tiling_defect(list(_pentagram_fan().cones))
    assert defect.startswith("interior point ")
    assert defect.endswith(" of cone 0 lies in 2 cones [0, 1]")


@pytest.mark.parametrize("fan", [
    pytest.param(_pentagram_fan(), id="pentagram"),
    pytest.param(_octant_fan_split_on_a_facet(), id="octant_split_on_a_facet"),
    pytest.param(
        Fan(2, (_half_plane(1), cone_from_rays([(-1, 0), (0, 1)]),
                cone_from_rays([(-1, 0), (0, -1)]))),
        id="half_plane_and_two_quadrants",
    ),
    pytest.param(
        Fan(2, (_half_plane(1), cone_from_inequalities([(-1, 1)], ambient_rank=2))),
        id="two_half_planes_on_different_lines",
    ),
])
def test_covers_that_are_not_complete_fans(fan):
    assert not is_complete(fan)


def test_octant_split_on_a_facet_fails_the_fan_predicate():
    assert not fan_check(_octant_fan_split_on_a_facet()).is_fan


def test_two_half_planes_are_complete():
    assert is_complete(Fan(2, (_half_plane(1), _half_plane(-1))))


@st.composite
def star_subdivided_orthant_fans(draw):
    """Rank 2-4 orthant fan after random stellar subdivisions: a complete
    simplicial fan by construction, as (rank, ray sets of the maximal cones)."""
    n = draw(st.integers(2, 4))
    cones = _orthant_ray_sets(n)
    for _ in range(draw(st.integers(0, 2))):
        sigma = sorted(cones[draw(st.integers(0, len(cones) - 1))])
        face = draw(st.lists(st.sampled_from(sigma), min_size=2, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(face), max_size=len(face)))
        v = primitive(tuple(sum(w * r[t] for w, r in zip(weights, face)) for t in range(n)))
        # every cone tau * rho containing the face becomes v * (face - u) * rho
        new = []
        for c in cones:
            if set(face) <= c:
                new.extend((c - {u}) | {v} for u in face)
            else:
                new.append(c)
        cones = new
    return n, [sorted(c) for c in cones]


@settings(max_examples=25, deadline=None)
@given(star_subdivided_orthant_fans(), st.data())
def test_is_complete_agrees_with_the_pairwise_oracle(case, data):
    n, ray_sets = case
    cones = tuple(cone_from_rays(rs, n) for rs in ray_sets)
    fan = Fan(n, cones)
    assert is_complete(fan)
    assert fan_check(fan).is_fan
    i = data.draw(st.integers(0, len(cones) - 1))
    dropped, doubled = Fan(n, cones[:i] + cones[i + 1:]), Fan(n, cones + (cones[i],))
    assert not is_complete(dropped)
    assert not is_complete(doubled)
    for f in (fan, dropped, doubled):
        assert fan_check(f) == fan_check_by_facet_sums(f)


def quadric_mori_fan():
    # Eff(P1xP1), <f1,K>, <f2,K> with K = (-2,-2)
    eff = cone_from_rays([(1, 0), (0, 1)])
    b1 = cone_from_rays([(1, 0), (-2, -2)])
    b2 = cone_from_rays([(0, 1), (-2, -2)])
    return Fan(2, (eff, b1, b2), ("eff", "b1", "b2"))


def _sweep_complete_rank2(fan):
    """Angular sweep oracle for 2D fans: maximal cones, sorted by angle, must chain
    around the full circle."""
    import math

    arcs = []
    for c in fan.cones:
        assert len(c.rays) == 2
        a = math.atan2(c.rays[0][1], c.rays[0][0])
        b = math.atan2(c.rays[1][1], c.rays[1][0])
        arcs.append(tuple(sorted((a, b))))
    total = 0.0
    for a, b in arcs:
        width = b - a
        if width > math.pi:
            width = 2 * math.pi - width
        total += width
    return abs(total - 2 * math.pi) < 1e-9


def test_quadric_fan_complete():
    f = quadric_mori_fan()
    assert fan_check(f).is_fan
    assert is_complete(f)
    assert _sweep_complete_rank2(f)


def test_is_coarsening():
    fine = Fan(
        2,
        (
            cone_from_rays([(1, 0), (1, 1)]),
            cone_from_rays([(1, 1), (0, 1)]),
        ),
    )
    coarse = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),))
    assert is_coarsening(coarse, fine)
    assert is_coarsening(fine, fine)


def test_is_coarsening_support_mismatch():
    fine = Fan(2, (cone_from_rays([(1, 0), (1, 1)]),))
    coarse = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),))
    with pytest.raises(ValidationError):
        is_coarsening(coarse, fine)


def test_cones_tile():
    target = cone_from_rays([(1, 0), (0, 1)])
    members = [
        cone_from_rays([(1, 0), (1, 1)]),
        cone_from_rays([(1, 1), (0, 1)]),
    ]
    assert cones_tile(members, target)
    assert not cones_tile(members[:1], target)


def test_is_face_of():
    c = cone_from_rays([(1, 0), (0, 1)])
    assert is_face_of(cone_from_rays([(1, 0)]), c)
    assert is_face_of(zero_cone(2), c)
    assert not is_face_of(cone_from_rays([(1, 1)]), c)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).filter(
            lambda v: v != (0, 0, 0)
        ),
        min_size=2,
        max_size=5,
    ),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
)
def test_h_rep_and_v_rep_membership_agree(normals, x):
    c = cone_from_inequalities(normals, ambient_rank=3)
    direct = all(sum(a * b for a, b in zip(n, x)) >= 0 for n in normals)
    assert c.contains_point(x) == direct


@settings(max_examples=30, deadline=None)
@given(small_vecs_3d)
def test_double_description_roundtrip_3d(gens):
    c = cone_from_rays(gens)
    again = cone_from_rays(list(c.rays) or gens, lineality=c.lineality)
    assert again == c


def test_faces_cap_raises():
    from secfan.errors import ValidationError as VE

    c = cone_from_rays([tuple(1 if j == i else 0 for j in range(7)) for i in range(7)])
    with pytest.raises(VE):
        faces(c, 2)


def test_fan_json_roundtrip():
    f = quadric_mori_fan()
    data = fan_to_json(f, metadata={"note": "quadric"})
    back = fan_from_json(data)
    assert back.ambient_rank == f.ambient_rank
    assert [c.rays for c in back.cones] == [c.rays for c in f.cones]
    assert back.labels == f.labels


@st.composite
def labelled_fans(draw):
    """Labelled fans in rank 2 to 4: a lower-dimensional cone, a lineal one and
    the zero cone among cones of random integer rays, in a drawn order."""
    n = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    rays = st.lists(vec, min_size=1, max_size=5)
    cs = [cone_from_rays([draw(vec)], n), cone_from_rays(draw(rays), n, lineality=[draw(vec)]),
          zero_cone(n)]
    cs += [cone_from_rays(r, n, lineality=l) for r, l in
           draw(st.lists(st.tuples(rays, st.lists(vec, max_size=1)), max_size=4))]
    cs = draw(st.permutations(cs))
    labels = draw(st.lists(st.text(max_size=4), min_size=len(cs), max_size=len(cs)))
    return Fan(n, tuple(cs), tuple(labels))


@settings(max_examples=60, deadline=None)
@given(labelled_fans(), st.sampled_from(["mori", "movsec", "secondary"]))
def test_fan_line_round_trips_random_fans(fan, kind):
    assert any(c.equations and not c.lineality for c in fan.cones)
    assert any(c.lineality for c in fan.cones)
    line = fan_line(fan, "0" * 64, kind)
    back = fan_from_json(json.loads(line))
    assert back == fan and back.labels == fan.labels
    assert [(c.facets, c.equations) for c in back.cones] == [
        (c.facets, c.equations) for c in fan.cones]
    assert fan_line(back, "0" * 64, kind) == line


def test_adjacency_pairs_quadric():
    f = quadric_mori_fan()
    assert list(adjacency_pairs(f)) == [(0, 1), (0, 2), (1, 2)]


def test_adjacency_pairs_match_walls_by_rays_and_lineality():
    # x >= 0 and x <= 0 share the line x = 0; x >= 0 and y >= 0 have walls
    # with no rays too, but different lineality, and are no fan
    assert adjacency_pairs(Fan(2, (_half_plane(1), _half_plane(-1)))) == {(0, 1): ()}
    crossed = Fan(2, (_half_plane(1), cone_from_rays([(0, 1)], 2, lineality=[(1, 0)])))
    assert adjacency_pairs(crossed) == {}
    assert not is_complete(crossed) and not fan_check(crossed).is_fan


@pytest.fixture
def sweeps(monkeypatch):
    """Number of dual_description sweeps a call makes, wherever the library calls it from."""
    from secfan import delpezzo

    real = cones.dual_description
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "dual_description", counted)
    monkeypatch.setattr(delpezzo, "dual_description", counted)

    def count(fn, *args, **kwargs):
        del calls[:]
        fn(*args, **kwargs)
        return len(calls)

    return count


def test_pointed_cone_from_rays_runs_one_sweep(sweeps):
    assert sweeps(cone_from_rays, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 1
    assert sweeps(cone_from_rays, [(1, 0, 0, 0), (0, 1, 0, 0)]) == 1
    # not pointed: the lineality and the rays modulo it take the second sweep
    assert sweeps(cone_from_rays, [(1, 0), (-1, 0), (0, 1)]) == 2
    assert sweeps(cone_from_rays, [(0, 1)], 2, [(1, 0)]) == 2


def test_intersect_of_full_dimensional_cones_runs_one_sweep(sweeps):
    # a pointed full-dimensional result reads its facets off both operands' facets
    a = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    b = cone_from_rays([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert sweeps(intersect, a, b) == 1
    # a lineal first operand: its rays and lineality start the sweep
    half_space = cone_from_rays([(1, 0, 0)], 3, lineality=[(0, 1, 0), (0, 0, 1)])
    assert intersect(half_space, b).is_pointed()
    assert sweeps(intersect, a=half_space, b=b) == 1


def test_intersect_of_lineal_or_lower_dimensional_cones_runs_two_sweeps(sweeps):
    # a lineal result: its rays modulo the lineality take the second sweep
    half_space = cone_from_rays([(1, 0, 0)], 3, lineality=[(0, 1, 0), (0, 0, 1)])
    other_half = cone_from_rays([(0, 1, 0)], 3, lineality=[(1, 0, 0), (0, 0, 1)])
    quadrant = intersect(half_space, other_half)
    assert (quadrant.rays, quadrant.lineality) == (((0, 1, 0), (1, 0, 0)), ((0, 0, 1),))
    assert sweeps(intersect, half_space, other_half) == 2
    # two planes meeting in a ray
    plane = cone_from_rays([(1, 0, 0), (0, 1, 0)])
    other = cone_from_rays([(1, 0, 0), (0, 0, 1)])
    assert intersect(plane, other).rays == ((1, 0, 0),)
    assert sweeps(intersect, plane, other) == 2


def test_mori_chamber_runs_two_sweeps(sweeps):
    from secfan.delpezzo import PicLattice, contractions, mori_chamber

    lat = PicLattice(4)
    assert [sweeps(mori_chamber, lat, c) for c in contractions(lat)[:6]] == [2] * 6


def test_full_dimensional_cone_from_inequalities_reads_its_facets_off_them(sweeps):
    from secfan.secondary import all_triangulations, gkz_secondary_fan, secondary_cone

    # pointed: the H-to-V sweep alone; lineal: the second sweep of cone_from_rays
    assert sweeps(cone_from_inequalities, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 1
    assert sweeps(cone_from_inequalities, [(1, 0)], ambient_rank=2) == 2
    # equations, given or implied, go through cone_from_rays as before
    assert sweeps(cone_from_inequalities, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]) == 2
    assert sweeps(cone_from_inequalities, [(1, 0), (-1, 0)], ambient_rank=2) == 3
    # a GKZ secondary cone, built modulo the affine functions, is pointed
    square = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]
    section = gkz_secondary_fan(square).section
    assert [sweeps(secondary_cone, square, t, section)
            for t in all_triangulations(square)] == [1] * 4


def test_toric_gkz_comparisons_run_one_sweep_per_triangulation(sweeps):
    from secfan.delpezzo import TORIC_NAMES, toric_boundary
    from secfan.secondary import gkz_secondary_fan, secondary_fan, toric_compare

    def compare(name):
        lat, cycle, rays = toric_boundary(name)
        sec = secondary_fan(lat, cycle)
        return lambda: toric_compare(
            lat, cycle, rays, gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)]), sec)

    # 2 + 3 + 4 + 10 + 32 regular triangulations: one sweep each, none in the push
    assert sum(sweeps(compare(name)) for name in TORIC_NAMES) == 51
