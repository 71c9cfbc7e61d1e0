"""Mori fan of the canonical bundle, its coarsening by boundary-exceptional
curves, bogus-cone completion, theta cocycles, and the GKZ oracle.

The fan lives on the Picard lattice of the surface.  Maximal moving cones are
the Mori chambers (one per orthogonal set of (-1)-classes); grouping chambers
whose contracted set meets the boundary in the same components and adding the
cones gamma + R>=0.K over boundary faces gamma of the effective cone completes
the picture.  Everything is cross-checked: group hulls must equal the union of
their members, the full fan must pass the fan predicate, be complete and
coarsen the chamber fan, and in the toric cases the whole object must agree
with an independently computed GKZ secondary fan of the reflexive polygon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .cones import (
    Fan,
    RationalCone,
    adjacency_pairs,
    cone_from_rays,
    cones_tile,
    fan_check,
    intersect,
    is_coarsening,
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


def triangulation_of(chamber_exc: frozenset[int], n: int) -> DiskTriangulation:
    """Fan triangulation with one flip per boundary-exceptional index."""
    return triangulation_with_flips(n, chamber_exc)


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
                triangulation=triangulation_of(exc, n),
            )
        )
    return out


def _boundary_faces(cones_list: list[RationalCone], eff: RationalCone, rank: int):
    """Codimension-1 faces of the given cones lying on the boundary of eff."""
    seen = {}
    for c in cones_list:
        for g in c.facets:
            face_rays = tuple(sorted(r for r in c.rays if vec_dot(g, r) == 0))
            if rank_of(list(face_rays)) != rank - 1 and rank > 1:
                continue
            if rank == 1 and face_rays:
                continue
            on_eff = (
                any(all(vec_dot(h, r) == 0 for r in face_rays) for h in eff.facets)
                if face_rays
                else True
            )
            if on_eff:
                seen.setdefault(face_rays, face_rays)
    return sorted(seen)


def _bogus_cones(face_ray_sets, canonical: IntVec, rank: int) -> list[RationalCone]:
    return [
        cone_from_rays(list(face) + [canonical], rank) for face in face_ray_sets
    ]


def mori_fan_K(lat: PicLattice, boundary: BoundaryCycle,
               verify: bool = True) -> tuple[Fan, list[Chamber]]:
    """Complete fan on Pic: all Mori chambers plus bogus cones over boundary faces.

    verify=False skips the quadratic pairwise fan predicate (the rank-5 runs
    rely on the linear tiling certificates instead); the structural build is
    identical either way.
    """
    chambers = build_chambers(lat, boundary)
    eff = effective_cone(lat)
    rank = lat.rank
    faces_on_eff = _boundary_faces([c.cone for c in chambers], eff, rank)
    bogus = _bogus_cones(faces_on_eff, lat.canonical, rank)
    cones = [c.cone for c in chambers] + bogus
    labels = [c.label() for c in chambers] + [
        "bogus[" + ",".join(str(r) for r in face) + "]" for face in faces_on_eff
    ]
    fan = Fan(rank, tuple(cones), tuple(labels))
    if verify:
        report = fan_check(fan)
        if not report.is_fan:
            raise InternalInvariantError(
                f"Mori fan fails the fan predicate: {report.violations[:3]}"
            )
    return fan, chambers


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
                f"moving group {sorted(key)} is not convex: hull differs from union"
            )
        groups.append(MovSecGroup(key, hull, tuple(ids)))
    return groups


@dataclass(frozen=True)
class FanCertificates:
    """What secondary_fan proved; a field stays None when its check did not run.

    mori_check_mode says how the Mori fan was certified: "pairwise" by the
    fan predicate, or "tiling-certificates" by the degree argument of the
    group hulls and of the coarsening.
    """

    mori_is_fan: bool | None = None
    mori_check_mode: str | None = None
    secondary_is_fan: bool | None = None
    secondary_complete: bool | None = None
    coarsens_mori: bool | None = None


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
    certificates: FanCertificates = field(default_factory=FanCertificates)

    @property
    def moving_count(self) -> int:
        return len(self.groups)

    @property
    def bogus_count(self) -> int:
        return len(self.bogus_cones)

    @property
    def maximal_count(self) -> int:
        return len(self.full_fan.cones)


def secondary_fan(lat: PicLattice, boundary: BoundaryCycle,
                  check: bool = True, verify_mori: bool | None = None) -> SecondaryFan:
    """Build the secondary fan; with check, prove it and record the proofs.

    Every check raises InternalInvariantError when it fails, so the
    certificates record holds only passed checks.  The quadratic pairwise
    predicate on the Mori fan runs up to rank 5 by default; above that the
    tiling certificates of movsec and is_coarsening carry it.
    """
    if verify_mori is None:
        verify_mori = lat.rank <= 5
    mori, chambers = mori_fan_K(lat, boundary, verify=verify_mori)
    groups = movsec(chambers)
    eff = effective_cone(lat)
    faces_on_eff = _boundary_faces([g.cone for g in groups], eff, lat.rank)
    bogus = _bogus_cones(faces_on_eff, lat.canonical, lat.rank)
    cones = [g.cone for g in groups] + bogus
    labels = [g.label() for g in groups] + [
        "bogus[" + ",".join(str(r) for r in face) + "]" for face in faces_on_eff
    ]
    fan = Fan(lat.rank, tuple(cones), tuple(labels))
    sec = SecondaryFan(lat, boundary, chambers, groups, bogus, faces_on_eff, fan, mori)
    if check:
        rep = fan_check(fan)
        if not rep.is_fan:
            raise InternalInvariantError(
                f"secondary fan fails the fan predicate: {rep.violations[:3]}"
            )
        if not is_complete(fan):
            raise InternalInvariantError("secondary fan is not complete")
        if not is_coarsening(fan, mori):
            raise InternalInvariantError("secondary fan does not coarsen the Mori fan")
        # bogus cones contain K and touch Eff only along their base face
        anti = vec_scale(-1, lat.canonical)
        for b in bogus:
            if not b.contains_point(lat.canonical):
                raise InternalInvariantError("bogus cone misses the canonical ray")
            if eff.contains_point(lat.canonical) or b.contains_point(anti):
                raise InternalInvariantError("canonical class misplaced relative to Eff")
        sec.certificates = FanCertificates(
            mori_is_fan=True,
            mori_check_mode="pairwise" if verify_mori else "tiling-certificates",
            secondary_is_fan=True,
            secondary_complete=True,
            coarsens_mori=True,
        )
    return sec


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
    rank = len(boundary.classes[0])
    if idx == 0:
        return tuple(0 for _ in range(rank))
    m = cocycle_coefficient(p, idx)
    d_class = boundary.classes[idx - 1]
    sign = 1 if idx in beta.boundary_exc else -1
    return vec_scale(sign * m, d_class)


def chamber_adjacency(chambers: list[Chamber]) -> dict[tuple[int, int], tuple[IntVec, ...]]:
    """Adjacent chamber pairs mapped to the rays of their shared wall."""
    fan = Fan(chambers[0].cone.ambient_rank, tuple(c.cone for c in chambers))
    return adjacency_pairs(fan)


def cocycle_battery(lat: PicLattice, boundary: BoundaryCycle, chambers: list[Chamber],
                    max_level: int = 2) -> dict:
    """Antisymmetry, loop additivity, boundary vanishing and nef nonnegativity.

    Loop additivity is checked on a fundamental cycle basis of the chamber
    adjacency graph, which is equivalent to additivity on every closed loop.
    """
    comp = gamma_complex(fan_triangulation(boundary.n))
    points = [p for m in range(max_level + 1) for p in comp.points_at_level(m)]
    adj = chamber_adjacency(chambers)
    edges = {}
    for a, b in adj:
        idx = _single_flop_index(chambers[a], chambers[b])
        if idx is None:
            raise InternalInvariantError("adjacent chambers differ by more than one flop")
        edges[(a, b)] = idx
    report = {"pairs": len(adj), "points": len(points), "loops": 0, "failures": []}

    def cval(p, a, b):
        return theta_cocycle(p, chambers[a], chambers[b], boundary)

    zero = tuple(0 for _ in range(lat.rank))
    for (a, b) in adj:
        for p in points:
            cab, cba = cval(p, a, b), cval(p, b, a)
            if tuple(cab) != vec_scale(-1, cba):
                report["failures"].append(("antisymmetry", a, b, p))
    # spanning forest + chords -> fundamental cycles
    parent = {0: None}
    order = [0]
    tree = set()
    frontier = [0]
    neighbors: dict[int, list[int]] = {}
    for a, b in adj:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(neighbors.get(u, [])):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
                    tree.add((min(u, w), max(u, w)))
                    nxt.append(w)
        frontier = nxt

    def path_to_root(u):
        out = []
        while parent[u] is not None:
            out.append((parent[u], u))
            u = parent[u]
        return out

    for a, b in adj:
        if (a, b) in tree:
            continue
        report["loops"] += 1
        # directed cycle: chord a->b, then b up to the root, then root down to a
        loop = (
            [(a, b)]
            + [(v, u) for (u, v) in path_to_root(b)]
            + list(reversed(path_to_root(a)))
        )
        for p in points:
            total = zero
            for (u, w) in loop:
                total = tuple(x + y for x, y in zip(total, cval(p, u, w)))
            if any(total):
                report["failures"].append(("loop", a, b, p))
                break
    # boundary and center vanishing
    for p in points:
        if comp.is_boundary(p) or comp.on_center_ray(p):
            for a, b in adj:
                if any(cval(p, a, b)):
                    report["failures"].append(("vanishing", a, b, p))
    # pairing with the non-contracting chamber's rays is nonnegative,
    # and the value kills every class on the shared face
    for (a, b), wall in adj.items():
        i = edges[(a, b)]
        if i == 0:
            continue
        lo, hi = (a, b) if i in chambers[b].boundary_exc else (b, a)
        for p in points:
            c = cval(p, lo, hi)
            if any(lat.dot(c, r) < 0 for r in chambers[lo].cone.rays):
                report["failures"].append(("nef-pairing", lo, hi, p))
                break
            if any(lat.dot(c, r) != 0 for r in wall):
                report["failures"].append(("shared-face", lo, hi, p))
                break
    report["ok"] = not report["failures"]
    return report


@dataclass
class ThetaBundleData:
    point: GammaPoint
    entries: dict  # (group index pair) -> curve class vector
    trivial: bool
    wall_degrees: dict  # pair -> int


def theta_line_bundles(sec: SecondaryFan, p: GammaPoint) -> ThetaBundleData:
    """Cech transition data for the theta line bundle over the moving cover.

    Transitions between adjacent groups come from summing chamber crossings
    along a path; triviality over a complete cover of full-dimensional cones
    means every transition vanishes.
    """
    chambers = sec.chambers
    groups = sec.groups
    adj = chamber_adjacency(chambers)
    neighbors: dict[int, list[int]] = {}
    for a, b in adj:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    # transition from the base chamber 0 to every chamber, by BFS (path independent)
    zero = tuple(0 for _ in range(sec.lat.rank))
    phi = {0: zero}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(neighbors.get(u, [])):
                if w not in phi:
                    step = theta_cocycle(p, chambers[u], chambers[w], sec.boundary)
                    phi[w] = tuple(x - y for x, y in zip(phi[u], step))
                    nxt.append(w)
        frontier = nxt
    group_fan = Fan(sec.lat.rank, tuple(g.cone for g in groups))
    entries = {}
    degrees = {}
    for gi, gj in adjacency_pairs(group_fan):
        ci = chambers[groups[gi].member_ids[0]]
        cj = chambers[groups[gj].member_ids[0]]
        ui = groups[gi].member_ids[0]
        uj = groups[gj].member_ids[0]
        c = tuple(x - y for x, y in zip(phi[ui], phi[uj]))
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
    """Indices of the convex hull corners (strict vertices)."""
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

    lower = half(idx)
    upper = half(idx[::-1])
    return sorted(set(lower[:-1] + upper[:-1]))


def _triangle_area2(a, b, c) -> int:
    return abs(_orient(a, b, c))


def _point_in_triangle(p, a, b, c) -> bool:
    s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if _orient(a, b, c) < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def _triangulations_of_subset(points, used: tuple[int, ...]) -> list[frozenset]:
    """All triangulations with vertex set exactly `used`, as sets of triangles."""
    pts = points
    candidate_edges = []
    for a, b in itertools.combinations(used, 2):
        if any(
            c != a and c != b and _on_segment(pts[c], pts[a], pts[b]) and pts[c] not in (pts[a], pts[b])
            for c in used
        ):
            continue  # an edge through a used point is not allowed
        candidate_edges.append((a, b))
    crossing = {
        (e, f)
        for e, f in itertools.combinations(candidate_edges, 2)
        if _segments_cross(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]])
    }

    def crosses(e, f):
        return (e, f) in crossing or (f, e) in crossing

    results = []
    m = len(candidate_edges)

    def grow(chosen, start):
        extendable = False
        for t in range(start, m):
            e = candidate_edges[t]
            if all(not crosses(e, c) for c in chosen):
                extendable = True
                grow(chosen + [e], t + 1)
        if not extendable:
            # maximal among edges with index >= start; confirm global maximality
            if all(
                any(crosses(e, c) for c in chosen)
                for e in candidate_edges
                if e not in chosen
            ):
                results.append(frozenset(chosen))

    grow([], 0)
    out = []
    for edge_set in results:
        tris = _faces_of_edge_set(pts, used, edge_set)
        if tris is not None:
            out.append(frozenset(tris))
    return out


def _faces_of_edge_set(points, used, edge_set) -> list[tuple[int, int, int]] | None:
    """Triangles of a maximal non-crossing edge set; None when degenerate."""
    edges = set(edge_set)
    tris = []
    for tri in itertools.combinations(sorted(used), 3):
        a, b, c = tri
        if _triangle_area2(points[a], points[b], points[c]) == 0:
            continue
        if not all(tuple(sorted(e)) in edges for e in ((a, b), (b, c), (a, c))):
            continue
        if any(
            d not in tri and _point_in_triangle(points[d], points[a], points[b], points[c])
            and _triangle_area2(points[a], points[b], points[c]) > 0
            and _strictly_inside(points[d], points[a], points[b], points[c])
            for d in used
        ):
            continue
        tris.append(tri)
    # the triangles must tile the hull: compare doubled areas
    hull = _hull_vertices(points)
    hull_pts = [points[i] for i in hull]
    hull_area = 0
    for i in range(1, len(hull_pts) - 1):
        hull_area += _orient(hull_pts[0], hull_pts[i], hull_pts[i + 1])
    hull_area = abs(hull_area)
    total = sum(_triangle_area2(points[a], points[b], points[c]) for a, b, c in tris)
    if total != hull_area:
        return None
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
    if len(points) > 12:
        raise ValidationError("configuration capped at 12 points")
    corners = _hull_vertices(points)
    optional = [i for i in range(len(points)) if i not in corners]
    seen = set()
    out = []
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            used = tuple(sorted(set(corners) | set(extra)))
            for tri in _triangulations_of_subset(points, used):
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
    from .cones import cone_from_inequalities

    return cone_from_inequalities(ineqs, ambient_rank=s)


def is_regular(points, triangulation) -> bool:
    return secondary_cone(points, triangulation).dim == len(points)


def regular_subdivision(points, heights, tie_break=None):
    """Cells of the lower-hull subdivision (lexicographic tie-break heights optional)."""
    points = [tuple(p) for p in points]
    s = len(points)
    hts = [
        (Fraction(heights[i]), Fraction(tie_break[i]) if tie_break else Fraction(0))
        for i in range(s)
    ]
    cells = []
    for tri in itertools.combinations(range(s), 3):
        a, b, c = tri
        det = _orient(points[a], points[b], points[c])
        if det == 0:
            continue
        # affine pair (ell0, ell1) interpolating the two height layers on tri
        def ell(pt, layer):
            la = _orient(pt, points[b], points[c])
            lb = _orient(points[a], pt, points[c])
            lc = _orient(points[a], points[b], pt)
            total = la * hts[a][layer] + lb * hts[b][layer] + lc * hts[c][layer]
            return Fraction(total, det)

        lower = True
        tight = []
        for d in range(s):
            v0, v1 = ell(points[d], 0), ell(points[d], 1)
            key = (hts[d][0] - v0, hts[d][1] - v1)
            if key < (0, 0):
                lower = False
                break
            if key == (0, 0):
                tight.append(d)
        if lower:
            cells.append(tuple(sorted(tight)))
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
    regular, irregular = [], []
    for t in tris:
        (regular if is_regular(points, t) else irregular).append(t)
    # integer projection Z^s -> Z^(s-3) killing exactly the affine functions
    proj = quotient_lattice_map(_affine_functions(points), len(points))
    if proj.rows != len(points) - 3:
        raise ValidationError("configuration does not affinely span the plane")
    raw = [secondary_cone(points, t) for t in regular]
    cones = []
    for rc in raw:
        gens = [proj.apply(r) for r in rc.rays] + [proj.apply(l) for l in rc.lineality]
        gens = [g for g in gens if any(g)]
        cones.append(cone_from_rays(gens, proj.rows))
    fan = Fan(proj.rows, tuple(cones), tuple(f"T{i}" for i in range(len(cones))))
    rep = fan_check(fan)
    if not rep.is_fan:
        raise InternalInvariantError(f"GKZ fan predicate failed: {rep.violations[:3]}")
    if not is_complete(fan):
        raise InternalInvariantError("GKZ secondary fan is not complete")
    flip_reached = _flip_graph_triangulations(points, regular, raw)
    if flip_reached != {t for t in regular}:
        raise InternalInvariantError(
            "flip-graph exploration disagrees with brute-force enumeration"
        )
    return GkzFan(points, regular, fan, proj, raw, irregular)


def _flip_graph_triangulations(points, regular, raw_cones) -> set:
    """Reachable set by crossing secondary-cone walls with perturbed lifts."""
    if not regular:
        return set()
    index = {t: i for i, t in enumerate(regular)}
    start = regular[0]
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        rc = raw_cones[index[t]]
        for g in rc.facets:
            interior = [r for r in rc.rays if vec_dot(g, r) > 0]
            wall_pt = [0] * len(points)
            for r in rc.rays:
                if vec_dot(g, r) == 0:
                    wall_pt = [x + y for x, y in zip(wall_pt, r)]
            # lineality directions (affine heights) do not affect the subdivision,
            # so a zero wall point is legitimate: the tie-break does the crossing
            # step across the wall: heights on the wall, tie-break by -g
            cells = regular_subdivision(points, wall_pt, tie_break=[-x for x in g])
            tri = _cells_to_triangulation(points, cells)
            if tri is None or tri not in index:
                continue
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
    cone ray-for-ray with the same face counts.
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
    if ok and rank <= 4:
        from .cones import faces

        for t_idx, j in matched:
            fv_push = [len(faces(pushed[t_idx], c)) for c in range(pushed[t_idx].dim + 1)]
            fv_sec = [
                len(faces(sec.full_fan.cones[j], c))
                for c in range(sec.full_fan.cones[j].dim + 1)
            ]
            if fv_push != fv_sec:
                ok = False
                details.append(f"face vector mismatch at pair {(t_idx, j)}")
    if not ok and not details:
        details.append(
            f"cone counts differ: {len(pushed)} pushed vs {len(sec.full_fan.cones)} secondary"
        )
    return CompareCertificate(ok, matched, details)
