"""The coarsening lookup, the chamber adjacency and the one-stratum report read
the proven Mori and secondary wall maps; here they meet the oracles that built
their own."""

import dataclasses

import pytest

from cocycle_oracle import chamber_adjacency
from test_acceptance import _boundary_suite_k_le_5
from wall_map_oracles import (
    bogus_hosts_by_scan,
    incident_groups_by_containment,
    movsec_by_tiling,
    one_stratum_report_by_containment,
)
from secfan import secondary
from secfan.cones import RationalCone
from secfan.delpezzo import (
    TORIC_NAMES,
    BoundaryCycle,
    PicLattice,
    minus_one_cycles,
    toric_boundary,
)
from secfan.errors import InternalInvariantError
from secfan.lattice import primitive
from secfan.secondary import (
    build_chambers,
    grouping_by_triangulation,
    one_stratum_report,
    secondary_fan,
)


def _group_rows(groups):
    return [(g.key, g.cone, g.member_ids) for g in groups]


def test_wall_map_readers_match_the_map_building_oracles():
    suite = _boundary_suite_k_le_5() + [toric_boundary(name)[:2] for name in TORIC_NAMES]
    for lat, cycle in suite:
        sec = secondary_fan(lat, cycle)
        assert _group_rows(sec.groups) == _group_rows(movsec_by_tiling(sec.chambers))
        adj = secondary._chamber_adjacency(sec)
        assert list(adj.items()) == list(chamber_adjacency(sec.chambers).items())
        strata = one_stratum_report(sec, grouping_by_triangulation(sec))
        assert strata == one_stratum_report_by_containment(sec)
        # each bogus face has one incident group, the one the wall map names
        bogus = [s["right"] for s in strata if s["right"][0] == "bogus"]
        for _, face, incident, _ in bogus:
            assert incident == incident_groups_by_containment(sec, face)
            assert len(incident) == 1
    assert len(suite) == 20


def _two_cycle(k):
    """{E_k, -K - E_k}: a boundary of two components on PicLattice(k)."""
    return PicLattice(k), BoundaryCycle(((0,) * k + (1,), (3,) + (-1,) * (k - 1) + (-2,)))


def test_each_mori_bogus_cone_is_looked_up_in_the_one_host_the_scan_finds(monkeypatch):
    """After the fan predicate, secondary_fan tests no point or cone against a
    secondary bogus cone; the bogus cone built over the (group, inward facet)
    wall of each Mori bogus cone's base face is the one host that the
    all-hosts scan finds."""
    probed, armed = [], []
    real_point, real_cone = RationalCone.contains_point, RationalCone.contains_cone
    real_check = secondary.fan_check

    def contains_point(cone, x):
        if armed:
            probed.append(cone)
        return real_point(cone, x)

    def contains_cone(cone, other):
        if armed:
            probed.append(cone)
        return real_cone(cone, other)

    def fan_check(fan):
        rep = real_check(fan)
        armed.append(fan)
        return rep

    monkeypatch.setattr(RationalCone, "contains_point", contains_point)
    monkeypatch.setattr(RationalCone, "contains_cone", contains_cone)
    monkeypatch.setattr(secondary, "fan_check", fan_check)
    suite = (_boundary_suite_k_le_5() + [toric_boundary(name)[:2] for name in TORIC_NAMES]
             + [_two_cycle(k) for k in (3, 4, 5)])
    for lat, cycle in suite:
        sec = secondary_fan(lat, cycle)
        armed.clear()
        assert not {id(c) for c in probed} & {id(b) for b in sec.full_fan.cones[sec.moving_count:]}
        probed.clear()
        over = {sec.movsec_fan.walls[(face, ())][0]: j for j, face in enumerate(sec.bogus_faces)}
        group_of = {i: gi for gi, g in enumerate(sec.groups) for i in g.member_ids}
        mori, n, k_ray = sec.mori_fan, len(sec.chambers), primitive(lat.canonical)
        read = []
        for c in mori.cones[n:]:
            face = tuple(r for r in c.rays if r != k_ray)
            [(mi, g)] = [(mi, g) for mi, g in mori.walls[(face, ())] if mi < n]
            read.append([over[(group_of[mi], g)]])
        assert read == bogus_hosts_by_scan(sec)
        if (lat, cycle) == (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0]):
            # the pentagon: its 45 Mori bogus cones fall in its 25 bogus cones
            assert (len(read), sec.bogus_count, len({j for j, in read})) == (45, 25, 25)
    assert len(suite) == 23


def test_a_group_with_a_stray_chamber_is_not_convex(monkeypatch):
    """Move chamber 0 of the pentagon into a group with no member adjacent to
    it: secondary_fan's coarsening proof refuses the grouping at a wall of
    a moving group, naming the wall and the group.  The Stab(B) walk of the
    build would name the doctored group first (test_cli's doctored builds),
    so the stabilizer is given no generators here."""
    lat, cycle = PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0]
    chambers = build_chambers(lat, cycle)
    near = {i for e in chamber_adjacency(chambers) if 0 in e for i in e}
    keys = sorted({c.boundary_exc for c in chambers} - {chambers[0].boundary_exc}, key=sorted)
    far = next(k for k in keys if all(chambers[i].boundary_exc != k for i in near))
    doctored = [dataclasses.replace(chambers[0], boundary_exc=far), *chambers[1:]]
    monkeypatch.setattr(secondary, "build_chambers", lambda lat, boundary: doctored)
    monkeypatch.setattr(secondary, "boundary_stabilizer", lambda lat, boundary: ((), 1))
    named = r"wall \[\(.*\)\] of cone mov\[[0-9,]*\] is met by one cone and lies on no facet"
    with pytest.raises(InternalInvariantError, match=named):
        secondary_fan(lat, cycle)
    with pytest.raises(InternalInvariantError, match=r"is not convex"):
        movsec_by_tiling(doctored)
