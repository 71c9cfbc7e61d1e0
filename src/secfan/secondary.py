"""Mori fan of the canonical bundle, its coarsening by boundary-exceptional
curves, bogus-cone completion, theta cocycles, and the GKZ oracle.

The fan lives on the Picard lattice of the surface.  Maximal moving cones are
the Mori chambers (one per orthogonal set of (-1)-classes); grouping chambers
whose contracted set meets the boundary in the same components and adding the
cones gamma + R>=0.K over the faces gamma on the boundary of the effective
cone completes the picture.  Each fan's walls are built once, as data of the
Fan: the faces gamma are the walls met by one cone, the bogus cones add only
their own walls, and the degree certificate, the adjacency and the DOT export
read that one map.  secondary_fan always proves what it returns: the Mori fan
and the full fan pass the linear degree certificate of a complete fan, group
hulls equal the union of their members, the full fan passes the pairwise fan
predicate and holds every Mori cone, so coarsens the Mori fan.  In the toric
cases the whole object must agree with an independently computed GKZ
secondary fan of the reflexive polygon.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .cones import (
    Fan,
    RationalCone,
    _tiling_defect,
    adjacency_pairs,
    boundary_walls,
    cone_from_inequalities,
    cone_from_rays,
    cones_tile,
    fan_check,
    intersect,
    is_complete,
)
from .delpezzo import (
    BoundaryCycle,
    Contraction,
    PicLattice,
    contractions,
    effective_cone,
    mori_chamber,
    validate_boundary,
)
from .disk import (
    DiskTriangulation,
    GammaPoint,
    fan_chart_data,
    fan_triangulation,
    gamma_complex,
    triangulation_with_flips,
)
from .errors import InternalInvariantError, ValidationError
from .lattice import (
    IntMat,
    IntVec,
    quotient_lattice_map,
    rank_of,
    solve_integral,
    vec_dot,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class Chamber:
    contraction: Contraction
    cone: RationalCone
    boundary_exc: frozenset[int]  # 1-based boundary indices
    triangulation: DiskTriangulation

    def label(self) -> str:
        if not self.contraction.classes:
            return "nef"
        return "c[" + ",".join(str(c) for c in self.contraction.classes) + "]"


def build_chambers(lat: PicLattice, boundary: BoundaryCycle) -> list[Chamber]:
    rep = validate_boundary(lat, boundary)
    if not rep.valid:
        raise ValidationError("; ".join(rep.diagnostics))
    out = []
    for con in contractions(lat):
        exc = frozenset(
            i + 1 for i, cls in enumerate(boundary.classes) if cls in con.classes
        )
        n = boundary.n
        for i in exc:
            j = i % n + 1
            if j in exc and j != i:
                raise InternalInvariantError(
                    "adjacent boundary components in one contraction"
                )
        out.append(
            Chamber(
                contraction=con,
                cone=mori_chamber(lat, con),
                boundary_exc=exc,
                triangulation=triangulation_with_flips(n, exc),
            )
        )
    return out


def _complete_with_bogus(members: Fan, lat: PicLattice, eff: RationalCone,
                         what: str) -> tuple[Fan, list[tuple]]:
    """The members, then the bogus cone face + R>=0.K over each face on the
    boundary of eff, proved a complete fan; also returns those faces.

    The faces are the member walls met by one member (boundary_walls raises on
    one off eff).  The bogus cones add their own walls to the members' map,
    and is_complete reads the whole map: True proves a complete fan at every
    rank (see its lemma).  A failure raises InternalInvariantError naming what.
    """
    faces = boundary_walls(members, eff)
    bogus = [cone_from_rays(list(face) + [lat.canonical], lat.rank) for face in faces]
    fan = members.extended(bogus, ["bogus[" + ",".join(map(str, face)) + "]" for face in faces])
    if not is_complete(fan):
        raise InternalInvariantError(
            f"{what} is not a complete fan: {_tiling_defect(fan.cones, walls=fan.walls)}"
        )
    return fan, faces


def mori_fan_K(lat: PicLattice, boundary: BoundaryCycle) -> tuple[Fan, list[Chamber]]:
    """Complete fan on Pic: all Mori chambers plus bogus cones over boundary faces.

    Proved a complete fan by the degree certificate, hence a fan.
    """
    chambers = build_chambers(lat, boundary)
    members = Fan(lat.rank, tuple(c.cone for c in chambers), tuple(c.label() for c in chambers))
    return _complete_with_bogus(members, lat, effective_cone(lat), "Mori fan")[0], chambers


@dataclass(frozen=True)
class MovSecGroup:
    key: frozenset[int]
    cone: RationalCone
    member_ids: tuple[int, ...]

    def label(self) -> str:
        return "mov[" + ",".join(str(i) for i in sorted(self.key)) + "]"


def movsec(chambers: list[Chamber]) -> list[MovSecGroup]:
    """Group chambers by boundary-exceptional set; certified convex hulls.

    The hull-equals-union certificate is the degree argument of cones_tile;
    grouped chambers always merge into convex cones, so a failure is a bug and
    raises the internal-invariant error (CLI exit 3).
    """
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


@dataclass
class SecondaryFan:
    lat: PicLattice
    boundary: BoundaryCycle
    chambers: list[Chamber]
    groups: list[MovSecGroup]
    bogus_cones: list[RationalCone]
    bogus_faces: list[tuple]
    full_fan: Fan
    mori_fan: Fan
    movsec_fan: Fan  # the moving part: one cone per group, the first cones of full_fan

    @property
    def moving_count(self) -> int:
        return len(self.groups)

    @property
    def bogus_count(self) -> int:
        return len(self.bogus_cones)

    @property
    def maximal_count(self) -> int:
        return len(self.full_fan.cones)


def secondary_fan(lat: PicLattice, boundary: BoundaryCycle) -> SecondaryFan:
    """Build the secondary fan and prove it a complete fan coarsening the Mori fan.

    Every proof raises InternalInvariantError when it fails, so a returned
    fan is proved.  Each fan's walls are built once: mori_fan_K and the
    moving groups each get their bogus cones from the walls met by one cone,
    and is_complete reads the same map to prove the Mori fan and the
    secondary fan complete fans at every rank.  The much smaller secondary
    fan also passes the pairwise fan predicate.  Coarsening is containment:
    movsec proved each chamber lies in its group's hull, and each Mori bogus
    cone must lie in a secondary bogus cone.  That proves it, as the two fans
    are complete: a point x inside a cone C of the secondary fan lies in some
    Mori cone f, and f in some secondary C'; C cap C' is a face of both with
    x inside, so full-dimensional, so C = C'.  The Mori cones in C cover it.
    """
    mori, chambers = mori_fan_K(lat, boundary)
    groups = movsec(chambers)
    mov = Fan(lat.rank, tuple(g.cone for g in groups), tuple(g.label() for g in groups))
    eff = effective_cone(lat)
    fan, faces_on_eff = _complete_with_bogus(mov, lat, eff, "secondary fan")
    rep = fan_check(fan)
    if not rep.is_fan:
        raise InternalInvariantError(
            f"secondary fan fails the fan predicate: {rep.violations[:3]}"
        )
    bogus = list(fan.cones[len(groups):])
    for i in range(len(chambers), len(mori.cones)):
        # a host of the Mori cone holds its interior point: test that first
        c = mori.cones[i]
        x = c.interior_point()
        if not any(host.contains_cone(c) for host in bogus if host.contains_point(x)):
            raise InternalInvariantError(
                f"Mori cone {mori.label_of(i)} lies in no secondary bogus cone"
            )
    # bogus cones contain K and touch Eff only along their base face
    anti = vec_scale(-1, lat.canonical)
    for b in bogus:
        if not b.contains_point(lat.canonical):
            raise InternalInvariantError("bogus cone misses the canonical ray")
        if eff.contains_point(lat.canonical) or b.contains_point(anti):
            raise InternalInvariantError("canonical class misplaced relative to Eff")
    return SecondaryFan(lat, boundary, chambers, groups, bogus, faces_on_eff, fan, mori, mov)


def movsec_is_single_group(lat: PicLattice, boundary: BoundaryCycle) -> bool:
    """Lazy grouping predicate: no cone enumeration.

    When no boundary component is a (-1)-class, every contraction meets the
    boundary trivially, so the exceptional grouping has one class and the
    moving part of the secondary fan is the whole effective cone.
    """
    rep = validate_boundary(lat, boundary)
    if not rep.valid:
        raise ValidationError("; ".join(rep.diagnostics))
    return not any(rep.minus_one_flags)


def grouping_by_triangulation(chambers: list[Chamber]) -> dict:
    """Partition of chamber ids by triangulation; must match the exceptional grouping."""
    by_tri: dict = {}
    for i, ch in enumerate(chambers):
        by_tri.setdefault(ch.triangulation.canonical_key(), []).append(i)
    by_exc: dict = {}
    for i, ch in enumerate(chambers):
        by_exc.setdefault(ch.boundary_exc, []).append(i)
    tri_parts = sorted(tuple(v) for v in by_tri.values())
    exc_parts = sorted(tuple(v) for v in by_exc.values())
    if tri_parts != exc_parts:
        raise InternalInvariantError(
            "triangulation grouping disagrees with the boundary-exceptional grouping"
        )
    return by_tri


# ---------------------------------------------------------------------------
# theta cocycles


def _single_flop_index(alpha: Chamber, beta: Chamber) -> int | None:
    """Boundary index when the two contractions differ by one boundary class."""
    a, b = set(alpha.contraction.classes), set(beta.contraction.classes)
    diff = a.symmetric_difference(b)
    if len(diff) != 1:
        return None
    exc_diff = alpha.boundary_exc.symmetric_difference(beta.boundary_exc)
    if not exc_diff:
        return 0  # internal flop
    return next(iter(exc_diff))


def cocycle_coefficient(p: GammaPoint, i: int) -> int:
    """min(a, b_i) in the fan chart when p lies in the closed star of spoke i, else 0."""
    a, b = fan_chart_data(p)
    support = set(j for j, v in b.items() if v > 0)
    n = p.n
    prev_i, next_i = (i - 2) % n + 1, i % n + 1
    if not (support <= {prev_i, i} or support <= {i, next_i}):
        return 0
    return min(a, b.get(i, 0))


def theta_cocycle(p: GammaPoint, alpha: Chamber, beta: Chamber,
                  boundary: BoundaryCycle) -> IntVec:
    """Curve-class valued transition for crossing the wall between two chambers.

    Convention: crossing from the chamber not contracting D_i to the one
    contracting it yields +min(a, b).[D_i].  Internal flops give zero.
    """
    idx = _single_flop_index(alpha, beta)
    if idx is None:
        raise ValidationError("chambers are not adjacent across a single flop")
    return _crossing_values([p], idx, beta, boundary)[0]


def _crossing_values(points, idx: int, beta: Chamber, boundary: BoundaryCycle) -> list[IntVec]:
    """theta_cocycle at each point for a crossing into beta across flop idx."""
    if idx == 0:
        return [tuple(0 for _ in boundary.classes[0])] * len(points)
    d_class = boundary.classes[idx - 1]
    sign = 1 if idx in beta.boundary_exc else -1
    return [vec_scale(sign * cocycle_coefficient(p, idx), d_class) for p in points]


def _crossing_cochain(points, edges, chambers, boundary: BoundaryCycle):
    """c_p(a, b) and c_p(b, a) at every point per adjacent pair (a, b), one table
    per flop index and direction (whether the chamber entered contracts the curve)."""
    tables = {}

    def values(idx, beta):
        key = (idx, idx in beta.boundary_exc)
        if key not in tables:
            tables[key] = _crossing_values(points, idx, beta, boundary)
        return tables[key]

    fwd = {e: values(idx, chambers[e[1]]) for e, idx in edges.items()}
    back = {e: values(idx, chambers[e[0]]) for e, idx in edges.items()}
    return fwd, back


def chamber_adjacency(chambers: list[Chamber]) -> dict[tuple[int, int], tuple[IntVec, ...]]:
    """Adjacent chamber pairs mapped to the rays of their shared wall."""
    fan = Fan(chambers[0].cone.ambient_rank, tuple(c.cone for c in chambers))
    return adjacency_pairs(fan)


def _bfs_tree(adj) -> list[tuple[int, int]]:
    """Tree edges (parent, child) of a breadth-first search from chamber 0,
    in visit order, taking each chamber's neighbours in sorted order."""
    neighbors: dict[int, list[int]] = {}
    for a, b in adj:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    seen, queue, tree = {0}, [0], []
    for u in queue:
        for w in sorted(neighbors.get(u, [])):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                tree.append((u, w))
    return tree


def cocycle_battery(lat: PicLattice, boundary: BoundaryCycle, chambers: list[Chamber]) -> dict:
    """Antisymmetry, loop additivity, boundary vanishing and nef nonnegativity.

    The points are those of levels 0 to 2.  Each value is computed once per
    flop index, direction and point (see _crossing_cochain), and every pass
    reads those tables.  Loop additivity is a
    coboundary test: a 1-cochain on a connected graph sums to zero on every
    closed loop exactly when it is the coboundary of a potential.  Integrating
    along one breadth-first tree, phi_p(0) = 0 and
    phi_p(w) = phi_p(u) - c_p(u, w), gives the only candidate, so c_p is
    additive on loops if and only if every chord (a, b) off the tree has
    c_p(a, b) = phi_p(a) - phi_p(b).
    """
    comp = gamma_complex(fan_triangulation(boundary.n))
    points = [p for m in range(3) for p in comp.points_at_level(m)]
    adj = chamber_adjacency(chambers)
    edges = {}
    for a, b in adj:
        idx = _single_flop_index(chambers[a], chambers[b])
        if idx is None:
            raise InternalInvariantError("adjacent chambers differ by more than one flop")
        edges[(a, b)] = idx

    fwd, back = _crossing_cochain(points, edges, chambers, boundary)
    failures = []
    for (a, b) in adj:
        for p, cab, cba in zip(points, fwd[(a, b)], back[(a, b)]):
            if cab != vec_scale(-1, cba):
                failures.append(("antisymmetry", a, b, p))
    # integrate along the tree, then test every chord as a coboundary
    tree = _bfs_tree(adj)
    phi = {0: [tuple(0 for _ in range(lat.rank))] * len(points)}
    for u, w in tree:
        step = fwd[(u, w)] if u < w else back[(w, u)]
        phi[w] = [vec_sub(x, c) for x, c in zip(phi[u], step)]
    if len(phi) != len(chambers):
        raise InternalInvariantError("chamber adjacency graph is not connected")
    tree_pairs = {(min(u, w), max(u, w)) for u, w in tree}
    chords = [e for e in adj if e not in tree_pairs]
    for a, b in chords:
        for p, cab, pa, pb in zip(points, fwd[(a, b)], phi[a], phi[b]):
            if cab != vec_sub(pa, pb):
                failures.append(("loop", a, b, p))
                break
    # boundary and center vanishing
    for i, p in enumerate(points):
        if comp.is_boundary(p) or comp.on_center_ray(p):
            for a, b in adj:
                if any(fwd[(a, b)][i]):
                    failures.append(("vanishing", a, b, p))
    # pairing with the non-contracting chamber's rays is nonnegative,
    # and the value kills every class on the shared face
    gram = lat.form.gram
    for (a, b), wall in adj.items():
        i = edges[(a, b)]
        if i == 0:
            continue
        lo, hi, vals = (a, b, fwd[(a, b)]) if i in chambers[b].boundary_exc \
            else (b, a, back[(a, b)])
        lo_duals = [gram.apply(r) for r in chambers[lo].cone.rays]
        wall_duals = [gram.apply(r) for r in wall]
        for p, c in zip(points, vals):
            if any(vec_dot(c, r) < 0 for r in lo_duals):
                failures.append(("nef-pairing", lo, hi, p))
                break
            if any(vec_dot(c, r) != 0 for r in wall_duals):
                failures.append(("shared-face", lo, hi, p))
                break
    return {"pairs": len(adj), "points": len(points), "loops": len(chords),
            "failures": failures, "ok": not failures}


@dataclass
class ThetaBundleData:
    point: GammaPoint
    entries: dict  # (group index pair) -> curve class vector
    trivial: bool
    wall_degrees: dict  # pair -> int


def theta_line_bundles(sec: SecondaryFan, p: GammaPoint) -> ThetaBundleData:
    """Cech transition data for the theta line bundle over the moving cover.

    phi integrates the chamber crossings from chamber 0 along the
    breadth-first tree of the chamber adjacency; cocycle_battery proves the
    crossings a coboundary, so phi does not depend on the tree.  The
    transition between adjacent groups is the difference of phi at one member
    of each; triviality over a complete cover of full-dimensional cones means
    every transition vanishes.
    """
    chambers = sec.chambers
    groups = sec.groups
    phi = {0: tuple(0 for _ in range(sec.lat.rank))}
    for u, w in _bfs_tree(chamber_adjacency(chambers)):
        step = theta_cocycle(p, chambers[u], chambers[w], sec.boundary)
        phi[w] = vec_sub(phi[u], step)
    entries = {}
    degrees = {}
    for gi, gj in adjacency_pairs(sec.movsec_fan):
        ui = groups[gi].member_ids[0]
        uj = groups[gj].member_ids[0]
        c = vec_sub(phi[ui], phi[uj])
        entries[(gi, gj)] = c
        wall = intersect(groups[gi].cone, groups[gj].cone)
        degrees[(gi, gj)] = _wall_degree(sec.lat, c, wall, groups[gj].cone)
    trivial = all(not any(v) for v in entries.values())
    return ThetaBundleData(point=p, entries=entries, trivial=trivial, wall_degrees=degrees)


def _wall_degree(lat: PicLattice, c: IntVec, wall: RationalCone, far: RationalCone) -> int:
    """Degree of the transition character on the wall stratum.

    Pairs c with a lattice point generating the rank-one quotient by the wall
    span, oriented toward the far cone.
    """
    if not any(c):
        return 0
    quotient = quotient_lattice_map(wall.rays, lat.rank)
    if quotient.rows != 1:
        return 0
    nu = quotient.row(0)  # primitive normal of the wall span
    far_pt = far.interior_point()
    if vec_dot(nu, far_pt) < 0:
        nu = vec_scale(-1, nu)
    u = solve_integral(IntMat.from_rows([nu]), (1,))
    if u is None:
        return 0
    return lat.dot(c, u)


# ---------------------------------------------------------------------------
# one-stratum change report


def one_stratum_report(sec: SecondaryFan) -> list[dict]:
    """For each wall of the full fan, whether the combinatorial family data changes.

    Moving cones carry (exceptional set, triangulation), bogus cones carry
    (base face, incident groups, dropped-center theta pattern).  Walls whose
    two sides carry identical data are flagged: they would correspond to a
    contracted stratum.
    """
    fan = sec.full_fan
    n_mov = len(sec.groups)

    def shadow(idx: int):
        if idx < n_mov:
            g = sec.groups[idx]
            tri = sec.chambers[g.member_ids[0]].triangulation.canonical_key()
            return ("moving", tuple(sorted(g.key)), tri)
        face = sec.bogus_faces[idx - n_mov]
        incident = tuple(
            sorted(
                tuple(sorted(g.key))
                for g in sec.groups
                if all(g.cone.contains_point(r) for r in face)
            )
        )
        return ("bogus", face, incident, "theta-drop-center")

    out = []
    for a, b in adjacency_pairs(fan):
        da, db = shadow(a), shadow(b)
        out.append(
            {
                "wall": (fan.label_of(a), fan.label_of(b)),
                "changes": da != db,
                "left": da,
                "right": db,
            }
        )
    return out


# ---------------------------------------------------------------------------
# GKZ secondary fan of a planar point configuration


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _segments_cross(a, b, c, d) -> bool:
    """Segments ab and cd intersect at a point that is not a common endpoint."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    if len(shared) == 1:
        s = next(iter(shared))
        p = a if b == s else b
        q = c if d == s else d
        if _orient(s, p, q) == 0:
            # colinear from the shared endpoint: overlap iff same direction
            return (p[0] - s[0]) * (q[0] - s[0]) + (p[1] - s[1]) * (q[1] - s[1]) > 0
        return False
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 == 0 and o2 == 0:
        # colinear segments: cross iff they overlap in more than a point
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        return max(lo1, lo2) < min(hi1, hi2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if p not in (u, v) and _on_segment(p, u, v):
            return True
    return False


def _hull_vertices(points) -> list[int]:
    """Indices of the convex hull corners (strict vertices), counterclockwise."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    if len(idx) <= 2:
        return idx

    def half(order):
        out = []
        for i in order:
            while len(out) >= 2 and _orient(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return half(idx)[:-1] + half(idx[::-1])[:-1]


def _triangle_area2(a, b, c) -> int:
    return abs(_orient(a, b, c))


def _point_in_triangle(p, a, b, c) -> bool:
    s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if _orient(a, b, c) < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def _triangulations_of_subset(points, used: tuple[int, ...], hull_area: int) -> list[frozenset]:
    """All triangulations with vertex set exactly `used`, as sets of triangles.

    A triangulation of a planar point set is a maximal set of pairwise
    non-crossing edges (De Loera-Rambau-Santos, *Triangulations*, ch. 2), so
    this lists the maximal independent sets of the crossing graph on the
    candidate edges: the segments between used points that pass through no
    other used point.  Edge t carries the bitmask cross[t] of the edges it
    crosses.  A partial set is a pair of bitmasks (chosen, blocked), blocked
    being the union of cross over chosen: edge t extends it when bit t of
    blocked is clear, and it is maximal when chosen | blocked covers every
    edge.  The triangles of a maximal set (edge triples with no used point
    inside) must tile the hull, of doubled area `hull_area`; a set that does
    not is a broken invariant, not a skipped candidate.
    """
    pts = points
    edges = [
        (a, b)
        for a, b in itertools.combinations(used, 2)
        if not any(c != a and c != b and _on_segment(pts[c], pts[a], pts[b]) for c in used)
    ]
    m = len(edges)
    cross = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        (a, b), (c, d) = edges[i], edges[j]
        if _segments_cross(pts[a], pts[b], pts[c], pts[d]):
            cross[i] |= 1 << j
            cross[j] |= 1 << i
    full = (1 << m) - 1
    results = []

    def grow(chosen, blocked, start):
        free = (~blocked >> start << start) & full
        if not free:
            # maximal among edges with index >= start; confirm global maximality
            if chosen | blocked == full:
                results.append(chosen)
            return
        while free:
            bit = free & -free
            t = bit.bit_length() - 1
            grow(chosen | bit, blocked | cross[t], t + 1)
            free ^= bit

    grow(0, 0, 0)
    out = []
    for chosen in results:
        edge_set = {edges[t] for t in range(m) if chosen >> t & 1}
        tris = _faces_of_edge_set(pts, used, edge_set)
        # a maximal non-crossing edge set is a triangulation: its triangles tile the hull
        if sum(_triangle_area2(pts[a], pts[b], pts[c]) for a, b, c in tris) != hull_area:
            raise InternalInvariantError(
                f"maximal non-crossing edge set {sorted(edge_set)} does not tile the hull"
            )
        out.append(frozenset(tris))
    return out


def _faces_of_edge_set(points, used, edges) -> list[tuple[int, int, int]]:
    """Triangles of a non-crossing edge set with no used point inside them."""
    # no three collinear used points are pairwise joined: the outer segment holds the middle one
    tris = []
    for tri in itertools.combinations(sorted(used), 3):
        a, b, c = tri
        if not ((a, b) in edges and (b, c) in edges and (a, c) in edges):
            continue
        if any(d not in tri and _strictly_inside(points[d], points[a], points[b], points[c])
               for d in used):
            continue
        tris.append(tri)
    return tris


def _strictly_inside(p, a, b, c) -> bool:
    s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if _orient(a, b, c) < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 > 0 and s2 > 0 and s3 > 0


def all_triangulations(points) -> list[frozenset]:
    """Every triangulation of the configuration (unused points allowed)."""
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise ValidationError("configuration points must be distinct")
    if len(points) < 3 or all(_orient(points[0], points[1], p) == 0 for p in points[2:]):
        raise ValidationError("configuration does not affinely span the plane")
    if len(points) > 12:
        raise ValidationError("configuration capped at 12 points")
    corners = _hull_vertices(points)
    hull_area = sum(
        _orient(points[corners[0]], points[corners[i]], points[corners[i + 1]])
        for i in range(1, len(corners) - 1)
    )
    optional = [i for i in range(len(points)) if i not in corners]
    seen = set()
    out = []
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            used = tuple(sorted(set(corners) | set(extra)))
            for tri in _triangulations_of_subset(points, used, hull_area):
                if tri not in seen:
                    seen.add(tri)
                    out.append(tri)
    return sorted(out, key=sorted)


def secondary_cone(points, triangulation) -> RationalCone:
    """Closed cone of height functions inducing the triangulation (with lineality)."""
    points = [tuple(p) for p in points]
    s = len(points)
    tris = sorted(triangulation)
    used = sorted({v for t in tris for v in t})
    ineqs = []

    def lift_functional(tri, target):
        """Row expressing w(target) - ell_tri(target) >= 0, cleared to integers."""
        a, b, c = tri
        pa, pb, pc = points[a], points[b], points[c]
        det = _orient(pa, pb, pc)
        # barycentric coordinates of target w.r.t. tri, times det
        pt = points[target]
        la = _orient(pt, pb, pc)
        lb = _orient(pa, pt, pc)
        lc = _orient(pa, pb, pt)
        row = [0] * s
        sign = 1 if det > 0 else -1
        row[target] = abs(det)
        row[a] -= sign * la
        row[b] -= sign * lb
        row[c] -= sign * lc
        return tuple(row)

    # folding across interior edges
    edge_owner: dict[tuple, list] = {}
    for t in tris:
        for e in itertools.combinations(t, 2):
            edge_owner.setdefault(tuple(sorted(e)), []).append(t)
    for e, owners in edge_owner.items():
        if len(owners) == 2:
            t1, t2 = owners
            opp = next(v for v in t2 if v not in t1)
            ineqs.append(lift_functional(t1, opp))
    # unused points sit above the lift of their containing cell
    for d in range(s):
        if d in used:
            continue
        host = next(
            t for t in tris
            if _point_in_triangle(points[d], points[t[0]], points[t[1]], points[t[2]])
        )
        ineqs.append(lift_functional(host, d))
    if not ineqs:
        # a single-cell triangulation with no constraints: everything
        return cone_from_rays(
            [tuple(1 if j == i else 0 for j in range(s)) for i in range(s)]
            + [tuple(-1 if j == i else 0 for j in range(s)) for i in range(s)],
            s,
        )
    return cone_from_inequalities(ineqs, ambient_rank=s)


def is_regular(points, triangulation) -> bool:
    return secondary_cone(points, triangulation).dim == len(points)


def regular_subdivision(points, heights, tie_break=None):
    """Cells of the lower-hull subdivision (lexicographic tie-break heights optional).

    Heights and tie-breaks are integers.  A triangle abc spans a lower cell when
    every point d has key (h_d - l0(d), t_d - l1(d)) >= (0, 0) lexicographically,
    where l0 and l1 are the affine interpolations of the two height layers on
    abc; the cell is the set of points whose key is (0, 0).  Both l0(d) and l1(d)
    have denominator det = orient(a, b, c), so the key is multiplied through by
    |det| > 0: multiplying each component by the same positive number keeps
    its sign, hence the lexicographic sign of the key, and leaves two integer
    expressions.  The tie-break layer is evaluated only where the first one is 0.
    """
    s = len(points)
    try:
        hs = [operator.index(heights[i]) for i in range(s)]
        ts = [operator.index(tie_break[i]) for i in range(s)] if tie_break else [0] * s
    except TypeError as exc:
        raise ValidationError(f"heights and tie-breaks must be integers: {exc}") from None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    cells = []
    for a, b, c in itertools.combinations(range(s), 3):
        xa, ya = xs[a], ys[a]
        ux, uy, vx, vy = xs[b] - xa, ys[b] - ya, xs[c] - xa, ys[c] - ya
        det = ux * vy - uy * vx
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        # |det| (h_d - l(d)) = sign (n . (p_d - p_a, h_d - h_a)) for the normal
        # n = (p_b - p_a, h_b - h_a) x (p_c - p_a, h_c - h_a) of the lifted plane
        ha, ta = hs[a], ts[a]
        uh, vh, ut, vt = hs[b] - ha, hs[c] - ha, ts[b] - ta, ts[c] - ta
        n0x, n0y = uy * vh - uh * vy, uh * vx - ux * vh
        n1x, n1y = uy * vt - ut * vy, ut * vx - ux * vt
        lower = True
        tight = []
        for d in range(s):
            dx, dy = xs[d] - xa, ys[d] - ya
            k = sign * (n0x * dx + n0y * dy + det * (hs[d] - ha))
            if k == 0:
                k = sign * (n1x * dx + n1y * dy + det * (ts[d] - ta))
                if k == 0:
                    tight.append(d)
            if k < 0:
                lower = False
                break
        if lower:
            cells.append(tuple(tight))
    out = sorted(set(cells))
    return [c for c in out if not any(set(c) < set(o) for o in out)]


@dataclass
class GkzFan:
    points: list
    triangulations: list[frozenset]
    fan: Fan  # in the quotient by affine functions
    projection: IntMat
    raw_cones: list[RationalCone]
    irregular: list[frozenset]


def _affine_functions(points) -> list[IntVec]:
    """The constant and the two coordinate functions on the configuration."""
    return [tuple(1 for _ in points), tuple(p[0] for p in points), tuple(p[1] for p in points)]


def gkz_secondary_fan(points) -> GkzFan:
    """Secondary fan modulo lineality, from all regular triangulations.

    Two independent routes must agree: brute-force enumeration of every
    triangulation with the regularity test, and a flip-graph walk crossing the
    walls of the secondary cones with perturbed heights.
    """
    points = [tuple(p) for p in points]
    tris = all_triangulations(points)
    regular, irregular, raw = [], [], []
    for t in tris:
        cone = secondary_cone(points, t)  # built once: it decides regularity and is kept
        if cone.dim == len(points):
            regular.append(t)
            raw.append(cone)
        else:
            irregular.append(t)
    # integer projection Z^s -> Z^(s-3) killing exactly the affine functions
    proj = quotient_lattice_map(_affine_functions(points), len(points))
    cones = []
    for rc in raw:
        gens = [proj.apply(r) for r in rc.rays] + [proj.apply(l) for l in rc.lineality]
        gens = [g for g in gens if any(g)]
        cones.append(cone_from_rays(gens, proj.rows))
    fan = Fan(proj.rows, tuple(cones), tuple(f"T{i}" for i in range(len(cones))))
    # the degree certificate proves "complete fan" on its own (see is_complete)
    if not is_complete(fan):
        raise InternalInvariantError(
            f"GKZ secondary fan is not a complete fan: {_tiling_defect(list(fan.cones))}"
        )
    flip_reached = _flip_graph_triangulations(points, regular, raw)
    if flip_reached != {t for t in regular}:
        raise InternalInvariantError(
            "flip-graph exploration disagrees with brute-force enumeration"
        )
    return GkzFan(points, regular, fan, proj, raw, irregular)


def _flip_graph_triangulations(points, regular, raw_cones) -> set:
    """Reachable set by crossing secondary-cone walls with perturbed lifts.

    The fan is complete, so every facet g of a cone is a wall shared with the
    cone on its far side, which has the facet -g; each wall is crossed once,
    from the side reached first.
    """
    if not regular:
        return set()
    index = {t: i for i, t in enumerate(regular)}
    start = regular[0]
    seen = {start}
    frontier = [start]
    crossed: set[tuple] = set()  # (triangulation, facet) walls already crossed
    while frontier:
        t = frontier.pop()
        rc = raw_cones[index[t]]
        for g in rc.facets:
            if (t, g) in crossed:
                continue
            wall_pt = [0] * len(points)
            for r in rc.rays:
                if vec_dot(g, r) == 0:
                    wall_pt = [x + y for x, y in zip(wall_pt, r)]
            # lineality directions (affine heights) do not affect the subdivision,
            # so a zero wall point is legitimate: the tie-break does the crossing
            # step across the wall: heights on the wall, tie-break by -g
            back = tuple(-x for x in g)
            cells = regular_subdivision(points, wall_pt, tie_break=back)
            tri = _cells_to_triangulation(points, cells)
            if tri not in index or back not in raw_cones[index[tri]].facets:
                raise InternalInvariantError(
                    f"crossing facet {list(g)} of triangulation {sorted(t)} lands on "
                    f"no regular triangulation whose cone has the facet {list(back)}"
                )
            crossed.add((tri, back))
            if tri not in seen:
                seen.add(tri)
                frontier.append(tri)
    return seen


def _cells_to_triangulation(points, cells):
    tris = []
    for c in cells:
        if len(c) != 3:
            return None
        if _triangle_area2(points[c[0]], points[c[1]], points[c[2]]) == 0:
            return None
        tris.append(tuple(sorted(c)))
    return frozenset(tris)


# ---------------------------------------------------------------------------
# toric comparison


@dataclass
class CompareCertificate:
    ok: bool
    matched: list[tuple[int, int]]
    details: list[str]


def toric_compare(lat: PicLattice, boundary: BoundaryCycle, fan_rays,
                  gkz: GkzFan, sec: SecondaryFan | None = None) -> CompareCertificate:
    """Certify the pushed GKZ fan equals the secondary fan for a toric pair.

    The linear map sends the basis vector of a boundary ray to the class of its
    divisor and the center to the canonical class; its kernel must be exactly
    the affine functions, and every pushed maximal cone must match a secondary
    cone ray-for-ray.
    """
    details: list[str] = []
    points = [tuple(r) for r in fan_rays] + [(0, 0)]
    if [tuple(p) for p in gkz.points] != points:
        return CompareCertificate(False, [], ["GKZ configuration mismatch"])
    classes = list(boundary.classes) + [lat.canonical]
    rank = lat.rank
    s = len(points)
    phi_rows = [tuple(classes[j][i] for j in range(s)) for i in range(rank)]
    phi = IntMat.from_rows(phi_rows)
    # kernel check: affine functions die, image is full rank
    for a in _affine_functions(points):
        if any(phi.apply(a)):
            return CompareCertificate(False, [], [f"affine function {a} not in kernel"])
    if rank_of(phi_rows) != rank or s - 3 != rank:
        return CompareCertificate(False, [], ["rank mismatch: kernel exceeds affine functions"])
    if sec is None:
        sec = secondary_fan(lat, boundary)
    pushed = []
    for rc in gkz.raw_cones:
        gens = [phi.apply(r) for r in rc.rays]
        gens = [g for g in gens if any(g)]
        pushed.append(cone_from_rays(gens, rank))
    sec_cones = {c.key(): i for i, c in enumerate(sec.full_fan.cones)}
    matched = []
    for t_idx, pc in enumerate(pushed):
        j = sec_cones.get(pc.key())
        if j is None:
            details.append(
                f"triangulation {sorted(gkz.triangulations[t_idx])} pushes to no secondary cone"
            )
            continue
        matched.append((t_idx, j))
    ok = (
        len(matched) == len(pushed)
        and len(pushed) == len(sec.full_fan.cones)
        and len({j for _, j in matched}) == len(matched)
    )
    if not ok and not details:
        details.append(
            f"cone counts differ: {len(pushed)} pushed vs {len(sec.full_fan.cones)} secondary"
        )
    return CompareCertificate(ok, matched, details)
