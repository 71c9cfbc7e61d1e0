"""The grouping, coarsening and one-stratum code that built its own maps, kept
as test oracles.

secfan.secondary.secondary_fan looks up, with no containment test, the
(group, inward facet) of each Mori bogus cone's base wall, read off the Mori
fan's wall map, among the hull walls its secondary bogus cones were built
over; its coarsening lemmas make that bogus cone the Mori bogus cone's host
and each group hull the union of the group's chambers.
one_stratum_report reads a bogus cone's incident group off the full fan's
wall map.  movsec_by_tiling is an earlier movsec: one cones_tile per group,
which builds a fresh wall map of the group's chambers and runs its own
dimension, containment, opposite-side and probe checks.  bogus_hosts_by_scan
is the earlier coarsening pass: it tests each Mori bogus cone for exact
containment in every secondary bogus cone.
one_stratum_report_by_containment is the earlier report: it scans every group
for one containing the bogus cone's base face.  grouping_by_chamber_triangulations
is the earlier grouping_by_triangulation, which read the moving groups: it
builds one disk triangulation per chamber.  The chamber adjacency oracle is
cocycle_oracle.chamber_adjacency.
"""

from secfan.cones import _tiling_defect, adjacency_pairs, cone_from_rays, cones_tile
from secfan.disk import triangulation_with_flips
from secfan.errors import InternalInvariantError
from secfan.secondary import Chamber, MovSecGroup, SecondaryFan


def movsec_by_tiling(chambers: list[Chamber]) -> list[MovSecGroup]:
    """Group chambers by boundary-exceptional set; each group's chambers must
    tile their hull by the degree certificate of cones_tile."""
    by_key: dict[frozenset[int], list[int]] = {}
    for i, ch in enumerate(chambers):
        by_key.setdefault(ch.boundary_exc, []).append(i)
    groups = []
    for key in sorted(by_key, key=sorted):
        ids = by_key[key]
        members = [chambers[i].cone for i in ids]
        rank = members[0].ambient_rank
        rays = sorted({r for m in members for r in m.rays})
        hull = cone_from_rays(rays, rank)
        if not cones_tile(members, hull):
            raise InternalInvariantError(
                f"moving group {sorted(key)} is not convex: chambers {ids}, numbered"
                f" from 0, do not tile their hull: {_tiling_defect(members, hull)}"
            )
        groups.append(MovSecGroup(key, hull, tuple(ids)))
    return groups


def bogus_hosts_by_scan(sec: SecondaryFan) -> list[list[int]]:
    """For each Mori bogus cone, in Mori fan order, the indices in
    sec.bogus_cones of the secondary bogus cones that contain it."""
    mori_bogus = sec.mori_fan.cones[len(sec.chambers):]
    return [[j for j, host in enumerate(sec.bogus_cones) if host.contains_cone(c)]
            for c in mori_bogus]


def grouping_by_chamber_triangulations(chambers: list[Chamber], n: int) -> dict:
    """Partition of chamber ids by the triangulation flipped at each chamber's
    boundary-exceptional set, as canonical key -> ids; it must equal the
    partition by boundary-exceptional set."""
    by_tri: dict = {}
    by_exc: dict = {}
    for i, ch in enumerate(chambers):
        by_tri.setdefault(triangulation_with_flips(n, ch.boundary_exc).canonical_key(), []).append(i)
        by_exc.setdefault(ch.boundary_exc, []).append(i)
    if sorted(by_tri.values()) != sorted(by_exc.values()):
        raise InternalInvariantError(
            "triangulation grouping disagrees with the boundary-exceptional grouping"
        )
    return {key: tuple(ids) for key, ids in by_tri.items()}


def incident_groups_by_containment(sec: SecondaryFan, face) -> tuple:
    """Sorted keys of the groups whose cone holds every ray of the face."""
    return tuple(sorted(
        tuple(sorted(g.key)) for g in sec.groups if all(g.cone.contains_point(r) for r in face)
    ))


def one_stratum_report_by_containment(sec: SecondaryFan) -> list[dict]:
    """one_stratum_report with each bogus cone's incident groups found by a
    containment scan over every group, and each shadow built per wall side."""
    fan = sec.full_fan
    n_mov = len(sec.groups)

    def shadow(idx: int):
        if idx < n_mov:
            g = sec.groups[idx]
            exc = sec.chambers[g.member_ids[0]].boundary_exc
            tri = triangulation_with_flips(sec.boundary.n, exc).canonical_key()
            return ("moving", tuple(sorted(g.key)), tri)
        face = sec.bogus_faces[idx - n_mov]
        return ("bogus", face, incident_groups_by_containment(sec, face), "theta-drop-center")

    out = []
    for a, b in adjacency_pairs(fan):
        da, db = shadow(a), shadow(b)
        out.append({"wall": (fan.label_of(a), fan.label_of(b)), "changes": da != db,
                    "left": da, "right": db})
    return out
