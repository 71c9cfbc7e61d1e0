"""The per-cone secondary fan build and its Stab(B) walk, kept as test oracles.

secfan.secondary.secondary_fan builds one group hull and one bogus cone per
orbit of the boundary stabilizer Stab(B) and moves the rest, its build walk
proving the orbits.  per_cone_secondary_fan is the earlier build: one
cone_from_rays per group hull and per bogus cone, a facet test of every
face on Eff, a wall map built by dot products, and then stabilizer_orbits,
the earlier walk over the finished fan's cone keys, which proves that Stab(B)
maps the cones onto themselves and the movsec subfan onto itself, and sets
the orbits.
"""

import dataclasses

from secfan.cones import Fan, boundary_walls, cone_from_rays, on_facet
from secfan.delpezzo import boundary_stabilizer, effective_cone, orbit_tree
from secfan.errors import InternalInvariantError
from secfan.secondary import MovSecGroup, SecondaryFan, build_chambers, mori_fan_K


def per_cone_secondary_fan(lat, boundary) -> SecondaryFan:
    """The secondary fan with every cone built on its own, walked by
    stabilizer_orbits; no fan predicate, completeness or coarsening proof."""
    chambers = build_chambers(lat, boundary)
    by_key: dict = {}
    for i, ch in enumerate(chambers):
        by_key.setdefault(ch.boundary_exc, []).append(i)
    groups = []
    for key in sorted(by_key, key=sorted):
        rays = sorted({r for i in by_key[key] for r in chambers[i].cone.rays})
        groups.append(MovSecGroup(key, cone_from_rays(rays, lat.rank), tuple(by_key[key])))
    mov = Fan(lat.rank, tuple(g.cone for g in groups), tuple(g.label() for g in groups))
    eff = effective_cone(lat)
    faces = boundary_walls(mov)
    off = [face for face in faces if not on_facet(face, eff)]
    if off:
        raise InternalInvariantError(f"wall {list(off[0])} is met by one hull and lies off Eff")
    bogus = [cone_from_rays(list(face) + [lat.canonical], lat.rank) for face in faces]
    full = Fan(lat.rank, mov.cones + tuple(bogus), mov.labels + tuple(
        "bogus[" + ",".join(map(str, face)) + "]" for face in faces))
    sec = SecondaryFan(lat, boundary, chambers, groups, faces, full, mori_fan_K(lat), mov,
                       boundary_stabilizer(lat, boundary)[1])
    sec.full_fan = stabilizer_orbits(sec)
    return sec


def stabilizer_orbits(sec: SecondaryFan) -> Fan:
    """sec.full_fan with its orbits under the boundary stabilizer Stab(B): each
    cone's orbit root, the first cone of its orbit in fan order.

    One walk with orbit_tree over the cone keys, under the generators of
    boundary_stabilizer, proves two facts: every image of a cone is a cone of
    the fan, and every cone of an orbit is in the movsec subfan exactly when
    the orbit's root is.  Otherwise InternalInvariantError names the cone,
    the generator and the image.  With no generators every cone is its own
    root.
    """
    fan = sec.full_fan
    index = {c.key(): i for i, c in enumerate(fan.cones)}
    moving = {c.key() for c in sec.movsec_fan.cones}
    moves = [lambda key, a=w.act: tuple(tuple(sorted(map(a, part))) for part in key)
             for w in boundary_stabilizer(sec.lat, sec.boundary)[0]]
    roots: list = [None] * len(fan.cones)
    for i, cone in enumerate(fan.cones):
        if roots[i] is not None:
            continue
        for q, edge in orbit_tree(cone.key(), moves).items():
            j = index.get(q)
            if edge is not None and (j is None or (q in moving) != (cone.key() in moving)):
                where = "no cone of the secondary fan" if j is None else (
                    f"cone {fan.label_of(j)}, on the other side of the movsec subfan")
                raise InternalInvariantError(
                    f"secondary fan cone {fan.label_of(index[edge[0]])} moves by boundary"
                    f" stabilizer generator {edge[1]} to {list(q[0])}, which is {where}")
            roots[j] = i
    return dataclasses.replace(fan, orbits=tuple(roots), perms=())
