import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secfan import cones
from secfan.cones import (
    Fan,
    _tiling_defect,
    adjacency_pairs,
    cone_from_inequalities,
    cone_from_rays,
    cones_tile,
    dual_cone,
    faces,
    fan_check,
    fan_from_json,
    fan_to_json,
    intersect,
    is_coarsening,
    is_complete,
    is_face_of,
    zero_cone,
)
from secfan.errors import ValidationError
from secfan.lattice import primitive


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
    assert not is_complete(Fan(n, cones[:i] + cones[i + 1:]))
    assert not is_complete(Fan(n, cones + (cones[i],)))


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


def test_intersect_of_pointed_cones_runs_two_sweeps(sweeps):
    a = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    b = cone_from_rays([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert sweeps(intersect, a, b) == 2


def test_intersect_of_lineal_or_lower_dimensional_cones_runs_two_sweeps(sweeps):
    # a lineal first operand: its rays and lineality start the sweep
    half_space = cone_from_rays([(1, 0, 0)], 3, lineality=[(0, 1, 0), (0, 0, 1)])
    tilted = cone_from_rays([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert intersect(half_space, tilted).is_pointed()
    assert sweeps(intersect, a=half_space, b=tilted) == 2
    # two planes meeting in a ray
    plane = cone_from_rays([(1, 0, 0), (0, 1, 0)])
    other = cone_from_rays([(1, 0, 0), (0, 0, 1)])
    assert intersect(plane, other).rays == ((1, 0, 0),)
    assert sweeps(intersect, plane, other) == 2


def test_mori_chamber_runs_two_sweeps(sweeps):
    from secfan.delpezzo import PicLattice, contractions, mori_chamber

    lat = PicLattice(4)
    assert [sweeps(mori_chamber, lat, c) for c in contractions(lat)[:6]] == [2] * 6
