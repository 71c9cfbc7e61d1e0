import ast
import dataclasses
import json
import re

import pytest

import gkz_oracle
from cocycle_oracle import chamber_adjacency
from wall_map_oracles import grouping_by_chamber_triangulations
from secfan import secondary
from secfan.cones import (
    Fan,
    FanReport,
    _tiling_defect,
    _wall_map,
    adjacency_pairs,
    boundary_walls,
    cone_from_inequalities,
    cone_from_rays,
    cones_tile,
    fan_check,
    fan_from_json,
    fan_to_json,
    intersect,
    is_coarsening,
    is_complete,
    zero_cone,
)
from secfan.delpezzo import (
    BoundaryCycle,
    TORIC_NAMES,
    PicLattice,
    WeylElement,
    contractions,
    effective_cone,
    hexagon_boundary,
    minus_one_cycles,
    mori_chamber,
    orbit_tree,
    quadric,
    toric_boundary,
    weyl_generators,
)
from secfan.disk import fan_point, fan_triangulation, gamma_complex, triangulation_with_flips
from secfan.errors import InternalInvariantError, ValidationError
from secfan.secondary import (
    all_triangulations,
    build_chambers,
    cocycle_battery,
    gkz_secondary_fan,
    grouping_by_triangulation,
    mori_fan_K,
    movsec,
    one_stratum_report,
    secondary_fan,
    theta_cocycle,
    theta_line_bundles,
    toric_compare,
)


def test_mori_fan_p2():
    lat, cycle, _ = toric_boundary("p2")
    fan = mori_fan_K(lat)
    assert len(fan.cones) == 2
    assert is_complete(fan)


def test_mori_fan_quadric():
    lat, cycle, _ = toric_boundary("quadric")
    fan = mori_fan_K(lat)
    assert len(fan.cones) == 3
    assert is_complete(fan)


def test_mori_fan_degree6():
    lat, cycle = hexagon_boundary()
    fan, chambers = mori_fan_K(lat), build_chambers(lat, cycle)
    assert len(chambers) == 18
    assert len(fan.cones) == 32  # 18 moving + 14 bogus
    assert is_complete(fan)


def test_movsec_hexagon_all_singletons():
    lat, cycle = hexagon_boundary()
    groups = movsec(build_chambers(lat, cycle), ())[0]
    assert len(groups) == 18
    assert all(len(g.member_ids) == 1 for g in groups)


def test_movsec_no_minus_one_boundary_single_group():
    # degree 9: triangle of lines, no (-1)-components anywhere
    lat, cycle, _ = toric_boundary("p2")
    groups = movsec(build_chambers(lat, cycle), ())[0]
    assert len(groups) == 1
    assert groups[0].cone == effective_cone(lat)


def test_movsec_degree5_intermediate():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    chambers = build_chambers(lat, cycle)
    groups = movsec(chambers, ())[0]
    # 1 empty + 5 singletons + 5 non-adjacent pairs
    assert len(groups) == 11
    assert 1 < len(groups) < len(chambers)
    keys = sorted(tuple(sorted(g.key)) for g in groups)
    assert keys[0] == ()
    assert sum(1 for k in keys if len(k) == 1) == 5
    assert sum(1 for k in keys if len(k) == 2) == 5


def test_secondary_fan_degree6():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    assert sec.maximal_count == 32
    assert fan_check(sec.full_fan).is_fan
    assert is_complete(sec.full_fan)
    assert is_coarsening(sec.full_fan, sec.mori_fan)


def test_a_missing_chamber_leaves_a_wall_off_eff(monkeypatch, cold_mori_fan):
    lat, cycle = hexagon_boundary()
    real = build_chambers(lat, cycle)
    cold_mori_fan()
    degree = {}
    for pair in chamber_adjacency(real):
        for i in pair:
            degree[i] = degree.get(i, 0) + 1
    # a chamber every wall of which it shares with another chamber
    drop = next(i for i, c in enumerate(real) if degree.get(i) == len(c.cone.facets))
    cons = [c.contraction for c in real]
    monkeypatch.setattr(secondary, "contractions", lambda _: cons[:drop] + cons[drop + 1:])
    with pytest.raises(InternalInvariantError,
                       match=r"wall \[.*is met by one cone and lies on no facet"):
        secondary_fan(lat, cycle)


def test_a_missing_bogus_cone_leaves_the_mori_fan_incomplete(monkeypatch, cold_mori_fan):
    lat, cycle = hexagon_boundary()
    real = secondary.boundary_walls
    # with no generators every face is its own orbit, so the gap reaches is_complete
    # (test_a_face_moved_outside_the_faces_is_named covers the orbit walk)
    monkeypatch.setattr(secondary, "weyl_generators", lambda _: [])
    monkeypatch.setattr(secondary, "boundary_walls", lambda fan: real(fan)[:-1])
    with pytest.raises(InternalInvariantError,
                       match=r"^Mori fan is not a complete fan: wall \[.*is met by no other cone"):
        secondary_fan(lat, cycle)


def test_a_mori_fan_gap_names_the_cone_by_its_label(monkeypatch, cold_mori_fan):
    lat, cycle = hexagon_boundary()
    real = secondary.boundary_walls
    monkeypatch.setattr(secondary, "weyl_generators", lambda _: [])
    monkeypatch.setattr(secondary, "boundary_walls", lambda fan: real(fan)[1:])
    # the chamber whose wall lost its bogus cone is named by its label, not its index
    with pytest.raises(InternalInvariantError,
                       match=r"wall \[.*\] of cone (c|bogus)\[[^]]*\] is met by no other cone$"):
        secondary_fan(lat, cycle)


def test_a_mori_bogus_cone_outside_every_secondary_cone_is_named(monkeypatch, cold_mori_fan):
    lat, cycle = hexagon_boundary()
    # drop the last group face, and pass the two checks that would see the gap
    real = secondary.boundary_walls
    calls = []

    def walls(fan):
        calls.append(len(fan.cones))
        faces = real(fan)
        return faces[:-1] if len(calls) == 2 else faces

    monkeypatch.setattr(secondary, "boundary_walls", walls)
    # with no generators every cone is its own orbit, so the gap reaches the
    # coarsening scan (test_cli's doctored fans cover the Stab(B) walk)
    monkeypatch.setattr(secondary, "boundary_stabilizer", lambda lat, boundary: ((), 1))
    monkeypatch.setattr(secondary, "fan_check", lambda fan: FanReport(True))
    monkeypatch.setattr(secondary, "is_complete", lambda fan: True)
    chambers = Fan(lat.rank, tuple(c.cone for c in build_chambers(lat, cycle)))
    face = real(chambers)[-1]
    label = "bogus[" + ",".join(str(r) for r in face) + "]"
    with pytest.raises(InternalInvariantError,
                       match=rf"Mori cone {re.escape(label)} lies in no secondary bogus cone"):
        secondary_fan(lat, cycle)


# W(E_k)-orbits of contractions: mori_fan_K builds one chamber per orbit
MORI_ORBITS = {2: 4, 3: 5, 4: 6, 5: 7, 6: 8}


def _fields(cone):
    return cone.rays, cone.facets, cone.equations, cone.lineality


@pytest.mark.parametrize("lat", [PicLattice(k) for k in range(7)] + [quadric()], ids=str)
def test_moved_mori_cones_equal_their_direct_builds(lat, monkeypatch, cold_mori_fan):
    built = []
    monkeypatch.setattr(secondary, "mori_chamber", lambda *a: built.append(a) or mori_chamber(*a))
    fan, cons = mori_fan_K(lat), contractions(lat)
    # no simple roots on the quadric and below k = 2: every chamber is built
    assert len(built) == (MORI_ORBITS[lat.k] if weyl_generators(lat) else len(cons))
    assert [_fields(c) for c in fan.cones[:len(cons)]] == \
        [_fields(mori_chamber(lat, c)) for c in cons]
    faces = boundary_walls(Fan(lat.rank, fan.cones[:len(cons)]))
    assert [_fields(c) for c in fan.cones[len(cons):]] == \
        [_fields(cone_from_rays(list(face) + [lat.canonical], lat.rank)) for face in faces]


@pytest.mark.parametrize("lat", [PicLattice(k) for k in range(7)] + [quadric()], ids=str)
def test_moved_wall_map_and_per_orbit_certificate_match_the_dot_product_oracle(lat):
    """mori_fan_K moves each cone's facet incidences with it and tests opposite
    sides only at the walls of orbit roots.  The oracle is the earlier full
    certificate: a wall map built by dot products, in the same key and
    incidence order, and the opposite-sides test on every wall."""
    fan = mori_fan_K(lat)
    assert list(fan.walls.items()) == list(_wall_map(fan.cones).items())
    assert _tiling_defect(fan.cones) is None


@pytest.mark.parametrize("beside_root", [True, False], ids=["beside-a-root", "among-moved"])
def test_a_mori_fan_missing_a_moved_chamber_is_named(monkeypatch, cold_mori_fan, beside_root):
    """Drop one moved chamber from the members of the Mori fan: the last one,
    next to the W-fixed nef cone, or one whose neighbours are all moved
    cones, so that no orbit root's wall borders the gap.  The build raises
    InternalInvariantError naming a wall of the dropped chamber."""
    lat = PicLattice(4)
    fan, n = mori_fan_K(lat), len(contractions(lat))
    cold_mori_fan()
    roots, near = fan.orbits, {i: set() for i in range(len(fan.cones))}
    for a, b in adjacency_pairs(fan):
        near[a].add(b)
        near[b].add(a)
    drop = n - 1 if beside_root else max(
        i for i in range(n) if roots[i] != i and all(roots[j] != j for j in near[i]))
    assert roots[drop] != drop and any(roots[j] == j for j in near[drop]) == beside_root
    real = secondary._complete_with_bogus

    def dropped(members, *args):
        keep = [j for j in range(len(members.cones)) if j != drop]
        orbits = [members.orbits[j] - (members.orbits[j] > drop) for j in keep]
        return real(Fan(members.ambient_rank, tuple(members.cones[j] for j in keep),
                        tuple(members.labels[j] for j in keep), tuple(orbits)), *args)

    monkeypatch.setattr(secondary, "_complete_with_bogus", dropped)
    with pytest.raises(InternalInvariantError, match=r"(wall|face) \[\(") as err:
        mori_fan_K(lat)
    named = ast.literal_eval(re.search(r"\[\(.*?\)\]", str(err.value))[0])
    assert drop in {mi for mi, _ in fan.walls[tuple(named), ()]}


def test_facets_moved_by_s_not_s_transpose_fail_the_full_oracle(monkeypatch, cold_mori_fan):
    """The per-orbit certificate rests on the moves being exact: it tests
    only the walls of orbit roots, and W carries that proof to the other
    walls only if each moved cone is the true image.  Move facet normals by
    s instead of s^T (they differ for the reflection in H - E_1 - E_2 - E_3):
    the moved wall map then fails the dot-product oracle, and so does the
    full certificate.  Here the per-orbit one fails too, at a root's wall."""
    lat = PicLattice(4)
    monkeypatch.setattr(WeylElement, "transpose", property(lambda w: w))
    with pytest.raises(InternalInvariantError, match=r"Mori fan is not a complete fan: wall .*"
                                                      r" are not on opposite sides"):
        mori_fan_K(lat)
    monkeypatch.setattr(secondary, "is_complete", lambda fan: True)
    fan = mori_fan_K(lat)
    assert list(fan.walls.items()) != list(_wall_map(fan.cones).items())
    assert _tiling_defect(fan.cones) is not None


def _chamber_orbits(lat):
    """The replaced kernel as the oracle: the closure of each contracted-class
    set under the simple reflections, walked on frozensets."""
    moves = [lambda s, a=g.act: frozenset(map(a, s)) for g in weyl_generators(lat)]
    left, orbits = {frozenset(c.classes) for c in contractions(lat)}, set()
    while left:
        orbit = frozenset(orbit_tree(next(iter(left)), moves))
        assert orbit <= left
        left -= orbit
        orbits.add(orbit)
    return orbits


@pytest.mark.parametrize("lat", [PicLattice(k) for k in range(2, 7)] + [quadric()], ids=str)
def test_mori_fan_orbits_are_the_chamber_orbits(lat):
    fan, cons = mori_fan_K(lat), contractions(lat)
    # every cone has a root, and the bogus cones' roots follow the chambers'
    roots = fan.orbits[:len(cons)]
    assert len(fan.orbits) == len(fan.cones)
    assert all(len(cons) <= r <= i for i, r in enumerate(fan.orbits) if i >= len(cons))
    # each chamber names the first chamber of its orbit
    assert all(roots[r] == r <= i for i, r in enumerate(roots))
    got: dict = {}
    for c, r in zip(cons, roots):
        got.setdefault(r, set()).add(frozenset(c.classes))
    assert set(map(frozenset, got.values())) == _chamber_orbits(lat)


def _moved_out(lat, message, what):
    """The key a message names and its image under the generator it names."""
    m = re.fullmatch(rf"{what} (\[.*\]) moves by simple reflection (\d+) to (\[.*\]), "
                     rf"which is no {what}", message)
    assert m, message
    key, i, image = ast.literal_eval(m[1]), int(m[2]), ast.literal_eval(m[3])
    g = weyl_generators(lat)[i]
    assert sorted(map(g.act, key)) == image
    return image


def test_a_contraction_moved_outside_the_contractions_is_named(monkeypatch, cold_mori_fan):
    lat = PicLattice(4)
    cons = contractions(lat)
    drop = cons[1]  # one (-1)-class: W moves it to each of the 10
    monkeypatch.setattr(secondary, "contractions", lambda _: tuple(c for c in cons if c != drop))
    with pytest.raises(InternalInvariantError) as err:
        mori_fan_K(lat)
    assert _moved_out(lat, str(err.value), "contraction") == list(drop.classes)


def test_a_face_moved_outside_the_faces_is_named(monkeypatch, cold_mori_fan):
    lat = PicLattice(4)
    real = secondary.boundary_walls
    dropped = []

    def walls(fan):
        faces = real(fan)
        dropped.append(faces[-1])
        return faces[:-1]

    monkeypatch.setattr(secondary, "boundary_walls", walls)
    with pytest.raises(InternalInvariantError) as err:
        mori_fan_K(lat)
    assert _moved_out(lat, str(err.value), "Mori fan face") == list(dropped[0])


def test_an_orbit_is_moved_only_from_a_pointed_full_dimensional_cone():
    lat = PicLattice(3)
    h = (1, 0, 0, 0)  # the simple reflections at k = 3 move the ray of H
    with pytest.raises(InternalInvariantError,
                       match=r"the cone of ray \[\(1, 0, 0, 0\)\] is lineal or lower-dim"):
        secondary._orbit_cones([(h,)], lambda key: cone_from_rays(key, lat.rank),
                               [(s.act, s.transpose.act) for s in weyl_generators(lat)], "ray")


def test_a_second_boundary_reuses_the_proved_mori_fan(monkeypatch, cold_mori_fan):
    lat = PicLattice(4)
    first, second = minus_one_cycles(lat, 5)[:2]
    built, proved = [], []
    real_chamber, real_complete = secondary.mori_chamber, secondary.is_complete
    monkeypatch.setattr(secondary, "mori_chamber", lambda *a: built.append(a) or real_chamber(*a))
    monkeypatch.setattr(secondary, "is_complete",
                        lambda fan: proved.append(fan) or real_complete(fan))
    secondary_fan(lat, first)
    assert len(built) == MORI_ORBITS[4] and len(proved) == 2
    built.clear()
    proved.clear()
    sec = secondary_fan(lat, second)
    assert built == []
    # the full fan, with the Stab(B)-orbits its build walked
    assert len(proved) == 1 and proved[0] is sec.full_fan
    assert sec.mori_fan is mori_fan_K(lat)


def test_secondary_fan_degree5_strictly_coarser():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    sec = secondary_fan(lat, cycle)
    assert sec.maximal_count < len(sec.mori_fan.cones)
    assert is_coarsening(sec.full_fan, sec.mori_fan)


def test_grouping_by_triangulation_matches():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    keys = grouping_by_triangulation(sec)
    parts = {key: g.member_ids for key, g in zip(keys, sec.groups)}
    assert len(keys) == len(parts) == 18
    assert parts == grouping_by_chamber_triangulations(sec.chambers, cycle.n)


def test_chambers_same_triangulation_iff_same_exc():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    chambers = build_chambers(lat, cycle)
    keys = [triangulation_with_flips(cycle.n, ch.boundary_exc).canonical_key() for ch in chambers]
    for a, ka in zip(chambers, keys):
        for b, kb in zip(chambers, keys):
            assert (ka == kb) == (a.boundary_exc == b.boundary_exc)


def test_grouping_names_both_groups_with_one_triangulation():
    lat = PicLattice(4)
    sec = secondary_fan(lat, minus_one_cycles(lat, 5)[0])
    g = sec.groups[3]
    doctored = dataclasses.replace(sec, groups=[*sec.groups, g])
    last = len(sec.groups)
    named = rf"moving groups {re.escape(g.label())} \(group 3\) and {re.escape(g.label())} \(group {last}\)"
    with pytest.raises(InternalInvariantError, match=named + " have the same disk triangulation"):
        grouping_by_triangulation(doctored)


# ---------------------------------------------------------------------------
# cocycles


def _hex_setup():
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    return lat, cycle, chambers


def test_theta_cocycle_interior_point():
    lat, cycle, chambers = _hex_setup()
    by_exc = {c.boundary_exc: c for c in chambers}
    alpha = by_exc[frozenset()]
    beta = by_exc[frozenset({1})]
    p = fan_point(6, 1, {1: 1})  # center + v1: m = 1
    c = theta_cocycle(p, alpha, beta, cycle)
    assert c == cycle.classes[0]
    assert theta_cocycle(p, beta, alpha, cycle) == tuple(-x for x in c)


def test_theta_cocycle_boundary_and_center_vanish():
    lat, cycle, chambers = _hex_setup()
    by_exc = {c.boundary_exc: c for c in chambers}
    alpha, beta = by_exc[frozenset()], by_exc[frozenset({1})]
    zero = (0, 0, 0, 0)
    assert theta_cocycle(fan_point(6, 0, {1: 1}), alpha, beta, cycle) == zero
    assert theta_cocycle(fan_point(6, 3, {}), alpha, beta, cycle) == zero
    assert theta_cocycle(fan_point(6, 1, {3: 1}), alpha, beta, cycle) == zero


def test_theta_cocycle_rejects_non_adjacent():
    lat, cycle, chambers = _hex_setup()
    by_exc = {c.boundary_exc: c for c in chambers}
    with pytest.raises(ValidationError):
        theta_cocycle(
            fan_point(6, 1, {1: 1}),
            by_exc[frozenset({1})],
            by_exc[frozenset({3})],
            cycle,
        )


def test_cocycle_battery_degree6():
    lat, cycle = hexagon_boundary()
    rep = cocycle_battery(secondary_fan(lat, cycle))
    assert rep["ok"], rep["failures"][:3]
    assert rep["loops"] > 0


def test_theta_line_bundles():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    # boundary point: trivial bundle
    data = theta_line_bundles(sec, fan_point(6, 0, {1: 1}))
    assert data.trivial
    data_c = theta_line_bundles(sec, fan_point(6, 2, {}))
    assert data_c.trivial
    # interior level-2 point: nontrivial with nonzero wall degree somewhere
    data_i = theta_line_bundles(sec, fan_point(6, 1, {1: 1}))
    assert not data_i.trivial
    assert any(d != 0 for d in data_i.wall_degrees.values())


def test_theta_line_bundle_wall_degree_rank2():
    # rank-2 oracle: on the F1 fan the single moving wall carries the class of
    # the exceptional curve; its degree pairs that class with the far-side
    # generator, giving minus the cocycle coefficient for a (-1)-curve
    from secfan.secondary import cocycle_coefficient

    lat, cycle, _ = toric_boundary("f1")
    sec = secondary_fan(lat, cycle)
    p = fan_point(4, 1, {2: 1})  # center + exceptional vertex
    data = theta_line_bundles(sec, p)
    assert list(data.entries.values()) == [(0, 1)]
    assert cocycle_coefficient(p, 2) == 1
    assert list(data.wall_degrees.values()) == [lat.dot((0, 1), (0, 1))]


def test_one_stratum_report_degree6():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    strata = one_stratum_report(sec, grouping_by_triangulation(sec))
    assert strata
    assert all(s["changes"] for s in strata)


# ---------------------------------------------------------------------------
# GKZ


def is_regular(points, triangulation) -> bool:
    return gkz_oracle.lineal_secondary_cone(points, triangulation).dim == len(points)


def test_gkz_triangle_center():
    pts = [(1, 0), (0, 1), (-1, -1), (0, 0)]
    tris = all_triangulations(pts)
    assert len(tris) == 2
    assert all(is_regular(pts, t) for t in tris)
    gkz = gkz_secondary_fan(pts)
    assert len(gkz.triangulations) == 2
    assert gkz.irregular == []
    assert is_complete(gkz.fan)


def test_secondary_cone_of_one_triangle_is_every_height_function():
    # one cell, no interior edge and no unused point: no constraint at all
    pts = [(0, 0), (1, 0), (0, 1)]
    cone = gkz_oracle.lineal_secondary_cone(pts, frozenset({(0, 1, 2)}))
    assert cone == cone_from_inequalities([], ambient_rank=3)
    assert cone.lineality and not cone.rays
    assert is_regular(pts, frozenset({(0, 1, 2)}))
    # modulo the affine functions, the whole space is the zero cone of Z^0
    gkz = gkz_secondary_fan(pts)
    assert gkz.fan.cones == (zero_cone(0),) and gkz.irregular == []


def test_gkz_square_center():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    gkz = gkz_secondary_fan(pts)
    assert len(gkz.triangulations) == 3


def test_gkz_hexagon_center_counts():
    _, _, rays = toric_boundary("dp6")
    pts = [tuple(r) for r in rays] + [(0, 0)]
    gkz = gkz_secondary_fan(pts)
    with_center = [t for t in gkz.triangulations if any(6 in tri for tri in t)]
    without = [t for t in gkz.triangulations if not any(6 in tri for tri in t)]
    assert len(with_center) == 18
    assert len(without) == 14
    assert len(gkz.triangulations) == 32


def test_gkz_detects_irregular_triangulations():
    # nested-triangle configuration: two pinwheel triangulations are not regular
    pts = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]
    tris = all_triangulations(pts)
    irregular = [t for t in tris if not is_regular(pts, t)]
    assert len(tris) == 18
    assert len(irregular) == 2
    gkz = gkz_secondary_fan(pts)
    assert len(gkz.fan.cones) == 16
    assert len(gkz.irregular) == 2
    assert is_complete(gkz.fan)
    assert fan_check(gkz.fan).is_fan  # oracle for the degree certificate


@pytest.mark.parametrize("pts,count", [
    ([tuple(r) for r in toric_boundary("dp6")[2]] + [(0, 0)], 32),
    ([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)], 18),
], ids=["dp6", "nested"])
def test_gkz_builds_each_secondary_cone_once(monkeypatch, pts, count):
    built = []
    original = secondary.secondary_cone

    def counted(points, triangulation, section):
        built.append(triangulation)
        return original(points, triangulation, section)

    monkeypatch.setattr(secondary, "secondary_cone", counted)
    gkz = gkz_secondary_fan(pts)
    assert len(built) == len(set(built)) == count
    assert set(built) == set(gkz.triangulations) | set(gkz.irregular)


GKZ_INPUTS = [[tuple(r) for r in toric_boundary(name)[2]] + [(0, 0)] for name in TORIC_NAMES]
GKZ_INPUTS.append([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)])


@pytest.mark.parametrize("pts", GKZ_INPUTS, ids=list(TORIC_NAMES) + ["nested"])
def test_flip_walk_crosses_each_wall_once(monkeypatch, pts):
    gkz = gkz_secondary_fan(pts)
    calls = []
    original = gkz_oracle.regular_subdivision_by_fractions

    def counted(points, heights, tie_break=None):
        calls.append(tuple(tie_break))
        return original(points, heights, tie_break)

    monkeypatch.setattr(gkz_oracle, "regular_subdivision_by_fractions", counted)
    lineal = [gkz_oracle.lineal_secondary_cone(pts, t) for t in gkz.triangulations]
    reached = gkz_oracle.flip_graph_triangulations(pts, gkz.triangulations, lineal)
    assert reached == set(gkz.triangulations)
    # a complete fan: every facet is one side of an interior wall
    assert 2 * len(calls) == sum(len(c.facets) for c in lineal)


def test_flip_walk_asserts_where_a_crossing_lands():
    pts = GKZ_INPUTS[-1]
    gkz = gkz_secondary_fan(pts)
    lineal = [gkz_oracle.lineal_secondary_cone(pts, t) for t in gkz.triangulations]
    # drop one regular triangulation: the walls around it lead nowhere
    with pytest.raises(InternalInvariantError, match="lands on no regular triangulation"):
        gkz_oracle.flip_graph_triangulations(pts, gkz.triangulations[:-1], lineal)


@pytest.mark.parametrize("drop", range(16))
def test_degree_certificate_alone_refuses_a_missing_triangulation(monkeypatch, drop):
    # the nested configuration has 16 regular triangulations; drop each in turn
    pts = GKZ_INPUTS[-1]
    regular = gkz_secondary_fan(pts).triangulations
    original = secondary.all_triangulations
    monkeypatch.setattr(secondary, "all_triangulations",
                        lambda points: [t for t in original(points) if t != regular[drop]])
    with pytest.raises(InternalInvariantError, match="GKZ secondary fan is not a complete fan:"
                       r" wall .* of cone T\d+ is met by no other cone"):
        gkz_secondary_fan(pts)


def test_gkz_square_in_any_point_order():
    # the hull corners listed out of cyclic order: (0,0), (1,1) is a diagonal
    pts = [(0, 0), (1, 1), (1, 0), (0, 1)]
    assert all_triangulations(pts) == [frozenset({(0, 1, 2), (0, 1, 3)}),
                                       frozenset({(0, 2, 3), (1, 2, 3)})]
    assert len(gkz_secondary_fan(pts).triangulations) == 2


def test_regular_subdivision_tie_break_refines_a_tie():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    subdivision = gkz_oracle.regular_subdivision_by_fractions
    assert subdivision(pts, [0, 0, 0, 0]) == [(0, 1, 2, 3)]
    assert subdivision(pts, [0, 0, 0, 0], tie_break=[0, 1, 1, 0]) == [(0, 1, 3), (0, 2, 3)]
    assert subdivision(pts, [0, 0, 0, 0], tie_break=[1, 0, 0, 1]) == [(0, 1, 2), (1, 2, 3)]


@pytest.mark.parametrize("name", TORIC_NAMES)
def test_gkz_raw_cones_survive_the_json_round_trip(name):
    # each lineal oracle cone contains the affine functions as its lineality
    _, _, rays = toric_boundary(name)
    pts = [tuple(r) for r in rays] + [(0, 0)]
    raw = [gkz_oracle.lineal_secondary_cone(pts, t) for t in gkz_secondary_fan(pts).triangulations]
    fan = Fan(len(rays) + 1, tuple(raw), tuple(f"T{i}" for i in range(len(raw))))
    assert all(len(c.lineality) == 3 for c in fan.cones)
    back = fan_from_json(json.loads(json.dumps(fan_to_json(fan))))
    assert back == fan
    assert [(c.facets, c.equations) for c in back.cones] == [
        (c.facets, c.equations) for c in fan.cones]


@pytest.mark.parametrize("name,count", [("p2", 2), ("quadric", 3), ("f1", 4), ("dp7", 10), ("dp6", 32)])
def test_toric_compare_certifies(name, count):
    lat, cycle, rays = toric_boundary(name)
    sec = secondary_fan(lat, cycle)
    assert sec.maximal_count == count
    gkz = gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)])
    assert len(gkz.triangulations) == count
    assert fan_check(gkz.fan).is_fan  # oracle for the degree certificate
    cert = toric_compare(lat, cycle, rays, gkz, sec)
    assert cert.ok, cert.details


def test_rank_identity_toric():
    for name in ("p2", "quadric", "f1", "dp7", "dp6"):
        lat, cycle, rays = toric_boundary(name)
        assert len(rays) + 1 - 3 == lat.rank


def test_intersect_nef_with_chamber_is_perp_face():
    from secfan.cones import cone_from_inequalities, intersect
    from secfan.delpezzo import Contraction, minus_one_classes, mori_chamber, nef_cone

    lat = PicLattice(3)
    e1 = (0, 1, 0, 0)
    lhs = intersect(nef_cone(lat), mori_chamber(lat, Contraction((e1,))))
    gram = lat.form.gram
    rhs = cone_from_inequalities(
        [gram.apply(c) for c in minus_one_classes(lat)],
        [gram.apply(e1)],
        ambient_rank=4,
    )
    assert lhs == rhs


def test_adjacency_walls_match_exact_intersection():
    sec = secondary_fan(*hexagon_boundary())
    chambers = sec.chambers
    adj = secondary._chamber_adjacency(sec)
    assert len(adj) == 30
    for (a, b), wall in adj.items():
        assert wall == intersect(chambers[a].cone, chambers[b].cone).rays


def test_chamber_adjacency_is_single_flop():
    sec = secondary_fan(*hexagon_boundary())
    chambers = sec.chambers
    for a, b in secondary._chamber_adjacency(sec):
        sa = set(chambers[a].contraction.classes)
        sb = set(chambers[b].contraction.classes)
        assert len(sa.symmetric_difference(sb)) == 1
