import pytest

from secfan.cones import Fan, cones_tile, fan_check, intersect, is_coarsening, is_complete
from secfan.delpezzo import (
    BoundaryCycle,
    PicLattice,
    effective_cone,
    hexagon_boundary,
    minus_one_cycles,
    quadric,
    toric_boundary,
)
from secfan.disk import fan_point, fan_triangulation, gamma_complex
from secfan.errors import ValidationError
from secfan.secondary import (
    FanCertificates,
    all_triangulations,
    build_chambers,
    chamber_adjacency,
    cocycle_battery,
    gkz_secondary_fan,
    grouping_by_triangulation,
    is_regular,
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
    fan, chambers = mori_fan_K(lat, cycle)
    assert len(fan.cones) == 2
    assert is_complete(fan)


def test_mori_fan_quadric():
    lat, cycle, _ = toric_boundary("quadric")
    fan, chambers = mori_fan_K(lat, cycle)
    assert len(fan.cones) == 3
    assert is_complete(fan)


def test_mori_fan_degree6():
    lat, cycle = hexagon_boundary()
    fan, chambers = mori_fan_K(lat, cycle)
    assert len(chambers) == 18
    assert len(fan.cones) == 32  # 18 moving + 14 bogus
    assert is_complete(fan)


def test_movsec_hexagon_all_singletons():
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    groups = movsec(chambers)
    assert len(groups) == 18
    assert all(len(g.member_ids) == 1 for g in groups)


def test_movsec_no_minus_one_boundary_single_group():
    # degree 9: triangle of lines, no (-1)-components anywhere
    lat, cycle, _ = toric_boundary("p2")
    chambers = build_chambers(lat, cycle)
    groups = movsec(chambers)
    assert len(groups) == 1
    assert groups[0].cone == effective_cone(lat)


def test_movsec_degree5_intermediate():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    chambers = build_chambers(lat, cycle)
    groups = movsec(chambers)
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


def test_secondary_fan_records_its_certificates():
    lat, cycle = hexagon_boundary()
    assert secondary_fan(lat, cycle).certificates == FanCertificates(
        mori_is_fan=True,
        mori_check_mode="pairwise",
        secondary_is_fan=True,
        secondary_complete=True,
        coarsens_mori=True,
    )


def test_unchecked_secondary_fan_carries_no_certificate():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle, check=False)
    assert sec.certificates == FanCertificates()
    assert all(v is None for v in vars(sec.certificates).values())


def test_secondary_fan_degree5_strictly_coarser():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    sec = secondary_fan(lat, cycle)
    assert sec.maximal_count < len(sec.mori_fan.cones)
    assert is_coarsening(sec.full_fan, sec.mori_fan)


def test_grouping_by_triangulation_matches():
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    parts = grouping_by_triangulation(chambers)
    assert len(parts) == 18


def test_chambers_same_triangulation_iff_same_exc():
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    chambers = build_chambers(lat, cycle)
    for a in chambers:
        for b in chambers:
            same_tri = a.triangulation.canonical_key() == b.triangulation.canonical_key()
            assert same_tri == (a.boundary_exc == b.boundary_exc)


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
    lat, cycle, chambers = _hex_setup()
    rep = cocycle_battery(lat, cycle, chambers, max_level=2)
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
    strata = one_stratum_report(sec)
    assert strata
    assert all(s["changes"] for s in strata)


# ---------------------------------------------------------------------------
# GKZ


def test_gkz_triangle_center():
    pts = [(1, 0), (0, 1), (-1, -1), (0, 0)]
    tris = all_triangulations(pts)
    assert len(tris) == 2
    assert all(is_regular(pts, t) for t in tris)
    gkz = gkz_secondary_fan(pts)
    assert len(gkz.triangulations) == 2
    assert gkz.irregular == []
    assert is_complete(gkz.fan)


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


@pytest.mark.parametrize("name,count", [("p2", 2), ("quadric", 3), ("f1", 4), ("dp7", 10), ("dp6", 32)])
def test_toric_compare_certifies(name, count):
    lat, cycle, rays = toric_boundary(name)
    sec = secondary_fan(lat, cycle)
    assert sec.maximal_count == count
    gkz = gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)])
    assert len(gkz.triangulations) == count
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
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    adj = chamber_adjacency(chambers)
    assert len(adj) == 30
    for (a, b), wall in adj.items():
        assert wall == intersect(chambers[a].cone, chambers[b].cone).rays


def test_chamber_adjacency_is_single_flop():
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    for a, b in chamber_adjacency(chambers):
        sa = set(chambers[a].contraction.classes)
        sb = set(chambers[b].contraction.classes)
        assert len(sa.symmetric_difference(sb)) == 1
