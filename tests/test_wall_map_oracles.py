"""movsec, the chamber adjacency and the one-stratum report read the proven
Mori and secondary wall maps; here they meet the oracles that built their own."""

import dataclasses
import re

import pytest

from cocycle_oracle import chamber_adjacency
from test_acceptance import _boundary_suite_k_le_5
from wall_map_oracles import (
    incident_groups_by_containment,
    movsec_by_tiling,
    one_stratum_report_by_containment,
)
from secfan import secondary
from secfan.delpezzo import TORIC_NAMES, PicLattice, minus_one_cycles, toric_boundary
from secfan.errors import InternalInvariantError
from secfan.secondary import (
    build_chambers,
    grouping_by_triangulation,
    mori_fan_K,
    movsec,
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


def test_a_group_with_a_stray_chamber_is_not_convex():
    """Move chamber 0 of the pentagon into a group with no member adjacent to it."""
    lat = PicLattice(4)
    mori, chambers = mori_fan_K(lat), build_chambers(lat, minus_one_cycles(lat, 5)[0])
    near = {i for e in chamber_adjacency(chambers) if 0 in e for i in e}
    keys = sorted({c.boundary_exc for c in chambers} - {chambers[0].boundary_exc}, key=sorted)
    far = next(k for k in keys if all(chambers[i].boundary_exc != k for i in near))
    doctored = [dataclasses.replace(chambers[0], boundary_exc=far), *chambers[1:]]
    named = rf"moving group {re.escape(str(sorted(far)))} is not convex: wall \[\(.*\)\]"
    with pytest.raises(InternalInvariantError, match=named + r" of cones \[.*\] lies on no facet"):
        movsec(mori, doctored)
    with pytest.raises(InternalInvariantError, match=r"is not convex"):
        movsec_by_tiling(doctored)
