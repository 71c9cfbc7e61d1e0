"""Mori fan of the canonical bundle, its coarsening by boundary-exceptional
curves, bogus-cone completion, theta cocycles, and the GKZ oracle.

The fans live on the Picard lattice of the surface.  The Mori fan (the Mori
chambers, one per orthogonal set of (-1)-classes, and the bogus cones
gamma + R>=0.K over the faces gamma on the boundary of the effective cone)
depends on the lattice alone: mori_fan_K builds and proves it once per
lattice and process, one cone per Weyl orbit.  A boundary only annotates the
chambers; grouping those whose contracted set meets it in the same
components, and completing the groups by bogus cones, gives the secondary
fan, built one cone per orbit of the boundary stabilizer.  Each fan's walls
are built once, as data of the Fan, and the degree certificate, the
coarsening pass, the cocycle battery and the DOT export read that one map.
secondary_fan always proves what it returns (see its lemmas).  In the toric
cases the whole object must agree with an independently computed GKZ
secondary fan of the reflexive polygon.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .cones import (
    Fan,
    RationalCone,
    _facet_faces_key,
    _tiling_defect,
    adjacency_pairs,
    boundary_walls,
    cone_from_inequalities,
    cone_from_rays,
    fan_check,
    intersect,
    is_complete,
    on_facet,
)
from .delpezzo import (
    BoundaryCycle,
    Contraction,
    PicLattice,
    WeylElement,
    boundary_stabilizer,
    contractions,
    effective_cone,
    mori_chamber,
    orbit_tree,
    validate_boundary,
    weyl_generators,
)
from .disk import (
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
    primitive,
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


def _orbit_cones(keys, build, gens, what: str, by: str = "simple reflection",
                 names=None) -> tuple[list[RationalCone], list, list[int], list[tuple]]:
    """build(key) for every key, in keys order, with one build per orbit of gens;
    also, for every key, its cone's _facet_faces_key and the index of the
    first key of its orbit, and, per generator, the index of each key's image.

    keys are sorted tuples of vectors; a generator is a pair (w.act,
    w^-T.act) of a unimodular w (_isometry_moves).  Lemma: each w in W(E_k)
    is an isometry of the intersection form J, w^T J w = J, and J^2 = 1, so
    w^-T = J w J.  The first key of an orbit, in keys order, is built; every
    other key q = w.p of the orbit's Schreier tree gets its parent p's cone
    moved by w, read off w's image tables: rays go to w.r, facet normals to
    w^-T.f and a facet's rays to the w.r, as r.f = (w.r).(w^-T.f).  So rays
    and facets stay primitive and irredundant, and a moved cone equals its
    direct build field for field when that is pointed and full-dimensional.
    The walk proves that each generator maps the finite key set into, hence
    onto, itself: InternalInvariantError names a key (by names, if given)
    that a generator (named by) moves outside keys, and an orbit whose first
    cone is lineal or lower-dimensional.  With no gens every key is its own
    orbit.  orbit_tree calls each generator once on each key of the orbit;
    the calls record their images, which give the permutations.
    """
    index = {key: i for i, key in enumerate(keys)}
    moves = [lambda p, a=act: tuple(sorted(map(a, p))) for act, _ in gens]
    images: list[dict] = [{} for _ in gens]
    walk = [lambda p, m=m, seen=seen: seen.setdefault(p, m(p))
            for m, seen in zip(moves, images)]
    cones: list = [None] * len(keys)
    incidences, roots = list(cones), [0] * len(keys)
    for key in keys:
        root = index[key]
        if cones[root] is not None:
            continue
        # breadth-first: a parent's cone is in place before its children's
        for q, edge in orbit_tree(key, walk).items():
            if edge is None:
                cone = build(q)
                if cone.lineality or cone.equations:
                    raise InternalInvariantError(
                        f"the cone of {what} {list(q)} is lineal or lower-dimensional,"
                        " so its orbit cannot be moved")
                tight = _facet_faces_key(cone)
            elif q not in index:
                p, i = edge
                raise InternalInvariantError(
                    f"{what} {names[index[p]] if names else list(p)} moves by {by} {i}"
                    f" to {list(q)}, which is no {what}")
            else:
                p, i = edge
                c = cones[index[p]]
                facets, tight = zip(*sorted(zip(map(gens[i][1], c.facets),
                                                map(moves[i], incidences[index[p]]))))
                cone = RationalCone(c.ambient_rank, moves[i](c.rays), facets)
            cones[index[q]], incidences[index[q]], roots[index[q]] = cone, tight, root
    return cones, incidences, roots, [tuple(index[seen[key]] for key in keys) for seen in images]


def _isometry_moves(lat: PicLattice, ws) -> list[tuple]:
    """The generator (w.act, w^-T.act) of _orbit_cones for each w in ws: w^-T = J w J."""
    j = lat.form.gram
    return [(w.act, WeylElement(j.mul(w.matrix).mul(j)).act) for w in ws]


def _complete_with_bogus(members: Fan, lat: PicLattice, eff: RationalCone, gens,
                         what: str, by: str = "simple reflection") -> tuple[Fan, list[tuple]]:
    """The members, then the bogus cone face + R>=0.K over each face on the
    boundary of eff, proved a complete fan; also returns those faces.

    The faces are the member walls met by one member.  gens (see
    _orbit_cones) permute the members and fix eff and K, so they permute the
    faces and the facets of eff, and cone(w.F + K) = w.cone(F + K):
    _orbit_cones builds one bogus cone per orbit, once its face is proved on
    a facet of eff, and walks the faces apart from the members.  is_complete
    reads the whole wall map: True proves a complete fan at every rank (see
    its lemmas).  A failure raises InternalInvariantError naming what or the
    face.
    """
    def build(face):
        if not on_facet(face, eff):  # the members are pointed (_orbit_cones)
            raise InternalInvariantError(
                f"wall {list(face)} of cone {members.label_of(members.walls[face, ()][0][0])}"
                " is met by one cone and lies on no facet of the support")
        return cone_from_rays(list(face) + [lat.canonical], lat.rank)

    faces = boundary_walls(members)
    bogus, keys, roots, perms = _orbit_cones(faces, build, gens, f"{what} face", by)
    fan = members.extended(bogus, ["bogus[" + ",".join(map(str, face)) + "]" for face in faces],
                           keys, roots, perms)
    if not is_complete(fan):
        defect = _tiling_defect(fan.cones, walls=fan.walls, label_of=fan.label_of,
                                roots=fan.orbit_roots)
        raise InternalInvariantError(f"{what} is not a complete fan: {defect}")
    return fan, faces


@lru_cache(maxsize=None)
def mori_fan_K(lat: PicLattice) -> Fan:
    """The Mori chambers in contractions(lat) order, then the bogus cones over
    the faces on the boundary of Eff: a complete fan on Pic, proved by the
    degree certificate (hence a fan), built once per lattice and process.

    Lemma (Humphreys, Reflection Groups and Coxeter Groups, 1990): W(E_k) acts
    by isometries of Pic that fix K and permute the (-1)-classes, so it
    permutes the contractions and fixes Nef and Eff; hence
    mori_chamber(w.c) = w.mori_chamber(c), and W permutes the faces on the
    boundary of Eff and their bogus cones.  So _orbit_cones builds one chamber
    and one bogus cone per orbit of the simple reflections and moves the
    rest with their walls' incidences; its walk proves that W maps the cone
    set onto itself.  The fan's orbits and perms keep the walk: each cone's
    W-orbit root, the chambers' first (the Weyl section reads those), and
    each simple reflection's permutation of the cones.  So
    _complete_with_bogus tests one face per orbit on Eff, and is_complete
    opposite sides only at the walls of orbit roots (its orbit lemma), which
    rests on exact moves: tests compare the moved walls with dot products.
    """
    cons = contractions(lat)
    gens = _isometry_moves(lat, weyl_generators(lat))
    chambers, keys, roots, perms = _orbit_cones(
        [c.classes for c in cons], lambda classes: mori_chamber(lat, Contraction(classes)),
        gens, "contraction")
    members = Fan(lat.rank, ()).extended(chambers, [c.label() for c in cons], keys, roots, perms)
    return _complete_with_bogus(members, lat, effective_cone(lat), gens, "Mori fan")[0]


def build_chambers(lat: PicLattice, boundary: BoundaryCycle) -> list[Chamber]:
    """The chambers of mori_fan_K(lat), in its order, each with the boundary
    components its contraction contracts."""
    rep = validate_boundary(lat, boundary)
    if not rep.valid:
        raise ValidationError("; ".join(rep.diagnostics))
    out = []
    for con, cone in zip(contractions(lat), mori_fan_K(lat).cones):
        exc = frozenset(i + 1 for i, cls in enumerate(boundary.classes) if cls in con.classes)
        out.append(Chamber(con, cone, exc))
    return out


@dataclass(frozen=True)
class MovSecGroup:
    key: frozenset[int]
    cone: RationalCone
    member_ids: tuple[int, ...]

    def label(self) -> str:
        return _group_label(self.key)


def _group_label(key) -> str:
    return "mov[" + ",".join(str(i) for i in sorted(key)) + "]"


def movsec(chambers: list[Chamber], gens) -> tuple[list[MovSecGroup], Fan]:
    """Group chambers by boundary-exceptional set, each group with the hull of
    its chambers' rays; also the fan of the hulls, with its walls and orbits.

    gens (see _orbit_cones) generate Stab(B), which permutes the chambers
    and the boundary classes, hence the groups, and the hull of w.R is
    w.hull(R): _orbit_cones builds one hull per orbit, a group keyed by its
    sorted chamber rays, and proves that gens map the groups onto themselves.
    Nothing else is proved here: secondary_fan proves the hulls and their
    bogus cones a complete fan that holds every Mori cone, and by its lemma
    each hull is then the union of its group's chambers.
    """
    by_key: dict[frozenset[int], list[int]] = {}
    for i, ch in enumerate(chambers):
        by_key.setdefault(ch.boundary_exc, []).append(i)
    rank = chambers[0].cone.ambient_rank
    keys = sorted(by_key, key=sorted)
    labels = list(map(_group_label, keys))
    rays = [tuple(sorted({r for i in by_key[key] for r in chambers[i].cone.rays})) for key in keys]
    hulls, tight, roots, perms = _orbit_cones(rays, lambda r: cone_from_rays(r, rank), gens,
                                              "secondary fan group",
                                              "boundary stabilizer generator", labels)
    groups = [MovSecGroup(key, hull, tuple(by_key[key])) for key, hull in zip(keys, hulls)]
    return groups, Fan(rank, ()).extended(hulls, labels, tight, roots, perms)


@dataclass
class SecondaryFan:
    lat: PicLattice
    boundary: BoundaryCycle
    chambers: list[Chamber]
    groups: list[MovSecGroup]
    bogus_faces: list[tuple]
    full_fan: Fan
    mori_fan: Fan
    movsec_fan: Fan  # the moving part: one cone per group, the first cones of full_fan
    boundary_orbit_size: int  # |W B| (boundary_stabilizer), so |Stab(B)| = |W| / |W B|

    @property
    def moving_count(self) -> int:
        return len(self.groups)

    @property
    def bogus_count(self) -> int:
        return len(self.full_fan.cones) - len(self.groups)

    @property
    def maximal_count(self) -> int:
        return len(self.full_fan.cones)


def secondary_fan(lat: PicLattice, boundary: BoundaryCycle) -> SecondaryFan:
    """Build the secondary fan and prove it a complete fan coarsening the Mori fan.

    Every proof raises InternalInvariantError when it fails, so a returned
    fan is proved.  The Mori fan does not depend on the boundary: mori_fan_K
    builds and proves it once per lattice, and build_chambers only annotates
    its chambers, so a second boundary on the same lattice reuses it.  Each
    fan's walls are built once: the Mori fan and the moving groups each get
    their bogus cones from the walls met by one cone, is_complete reads the
    same map to prove each a complete fan, and the coarsening pass reads the
    Mori walls.  The boundary stabilizer Stab(B) is walked once, during the
    build: movsec builds one hull per orbit of the groups, and
    _complete_with_bogus one bogus cone per orbit of the faces.  The walks
    prove that each generator maps the groups, and the faces, onto
    themselves, so Stab(B) maps the fan and its movsec subfan onto
    themselves and no orbit crosses the subfan.  full_fan keeps each cone's
    orbit root, the first cone of its orbit, in Fan.orbits, and the walk's
    images, each generator's permutation of the cones, in Fan.perms:
    is_complete, the bundle stage and the Weyl section read the roots, and
    fan_check, one pair per orbit of pairs, reads the perms.

    Coarsening is one set lookup per Mori bogus cone cone(F + K), F its rays
    other than primitive(K): mori.walls names the chamber c on F and c's
    inward normal g there, and (group of c, g) must be the incidence of a
    hull wall W that a secondary bogus cone was built over.  Lookup lemma:
    then g is a facet normal of c's group hull H, and W = H cap g-perp.  The
    rays of c are among H's generators and g = 0 on F, so F lies in
    H cap g-perp = cone(W), H being pointed (W is keyed with no lineality),
    and cone(F + K) lies in cone(W + K), the bogus cone built over W.
    K lemma: K generates each bogus cone b = cone(W + K), which is_complete
    proved full-dimensional, so g.K != 0; b lies in {x : sign(g.K) g.x >= 0}
    and -K does not.  Tiling lemma (of is_complete): both fans are complete
    and every Mori cone lies in a named secondary cone, a chamber in its
    group's hull by construction.  A Mori cone whose interior meets int C
    lies in its named C', and C cap C' is a common face with interior points,
    so C' = C.  So each secondary cone is the union of the Mori cones that
    name it, and each hull the union of its group's chambers: a grouping that
    is not convex fails at a face off Eff, in is_complete or in the lookup.
    """
    chambers = build_chambers(lat, boundary)
    mori = mori_fan_K(lat)
    stab, orbit_size = boundary_stabilizer(lat, boundary)
    gens = _isometry_moves(lat, stab)
    groups, mov = movsec(chambers, gens)
    fan, faces_on_eff = _complete_with_bogus(mov, lat, effective_cone(lat), gens, "secondary fan",
                                             "boundary stabilizer generator")
    sec = SecondaryFan(lat, boundary, chambers, groups, faces_on_eff, fan, mori, mov, orbit_size)
    rep = fan_check(fan)
    if not rep.is_fan:
        raise InternalInvariantError(
            f"secondary fan fails the fan predicate: {rep.violations[:3]}"
        )
    # (group index, inward facet) of each hull wall a bogus cone was built over
    on_eff = {inc for face in faces_on_eff for inc in mov.walls.get((face, ()), ())}
    group_of = {i: gi for gi, g in enumerate(groups) for i in g.member_ids}
    k_ray = primitive(lat.canonical)
    for i in range(len(chambers), len(mori.cones)):
        face = tuple(r for r in mori.cones[i].rays if r != k_ray)
        if not any((group_of.get(mi), g) in on_eff for mi, g in mori.walls.get((face, ()), ())):
            raise InternalInvariantError(
                f"Mori cone {mori.label_of(i)} lies in no secondary bogus cone"
            )
    return sec


def grouping_by_triangulation(sec: SecondaryFan) -> list:
    """Each moving group's disk triangulation key, in sec.groups order: a
    chamber's is the fan triangulation flipped at its boundary_exc, the key
    movsec groups by, so this partition is the exceptional one exactly when no
    two groups share a key.  InternalInvariantError names two that do.  A
    disk with n < 3 boundary vertices has no flips, so ValidationError
    refuses a group that flips one before any triangulation is built."""
    n = sec.boundary.n
    flipped = next((g for g in sec.groups if g.key), None)
    if n < 3 and flipped is not None:
        raise ValidationError(f"triangulation grouping: moving group {flipped.label()} flips the"
                              f" disk, which needs a boundary cycle of length at least 3, not {n}")
    first: dict = {}  # canonical key -> index of the first group with it
    for i, g in enumerate(sec.groups):
        j = first.setdefault(triangulation_with_flips(n, g.key).canonical_key(), i)
        if j != i:
            raise InternalInvariantError(
                f"moving groups {sec.groups[j].label()} (group {j}) and {g.label()} (group {i})"
                " have the same disk triangulation")
    return list(first)  # no key repeats: one per group, in order


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


def _chamber_adjacency(sec: SecondaryFan) -> dict[tuple[int, int], tuple[IntVec, ...]]:
    """Adjacent chamber pairs and their shared walls: the Mori fan's pairs of chambers."""
    return {e: w for e, w in adjacency_pairs(sec.mori_fan).items() if e[1] < len(sec.chambers)}


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


def cocycle_battery(sec: SecondaryFan) -> dict:
    """Antisymmetry, loop additivity, boundary vanishing and nef nonnegativity.

    The points are those of levels 0 to 2, the adjacency the Mori fan's; each
    value is computed once per flop index, direction and point (see
    _crossing_cochain), and every pass reads those tables.  Loop additivity is a
    coboundary test: a 1-cochain on a connected graph sums to zero on every
    closed loop exactly when it is the coboundary of a potential.  Integrating
    along one breadth-first tree, phi_p(0) = 0 and
    phi_p(w) = phi_p(u) - c_p(u, w), gives the only candidate, so c_p is
    additive on loops if and only if every chord (a, b) off the tree has
    c_p(a, b) = phi_p(a) - phi_p(b).  phi holds each chamber's potential at
    all points as one flat tuple, so a chord is one comparison.

    Memo lemma: a pass's verdict at a pair and point depends only on the
    pair's tables (and, for the nef pass, the pair's rays) and on the value
    there, so it is computed once per distinct table object, or once per
    distinct value of a table, and read for every pair and point that share
    it.  Tables are keyed by identity: a table built for one pair alone gets
    its own entry.  The first failing point of a pair in the nef pass is the
    first point holding the first failing value, taking the values in order of
    first occurrence.  The failures come out as the per-pair loops would list
    them, in the same order.
    """
    lat, boundary, chambers = sec.lat, sec.boundary, sec.chambers
    comp = gamma_complex(fan_triangulation(boundary.n))
    points = [p for m in range(3) for p in comp.points_at_level(m)]
    adj = _chamber_adjacency(sec)
    edges = {}
    for a, b in adj:
        idx = _single_flop_index(chambers[a], chambers[b])
        if idx is None:
            raise InternalInvariantError("adjacent chambers differ by more than one flop")
        edges[(a, b)] = idx

    fwd, back = _crossing_cochain(points, edges, chambers, boundary)
    failures = []
    flipped = {}  # (id fwd, id back) -> points where c(a, b) != -c(b, a)
    for e in adj:
        key = (id(fwd[e]), id(back[e]))
        if key not in flipped:
            flipped[key] = [p for p, cab, cba in zip(points, fwd[e], back[e])
                            if cab != vec_scale(-1, cba)]
        failures += [("antisymmetry", *e, p) for p in flipped[key]]
    # integrate along the tree, then test every chord as a coboundary
    flat = {}  # id table -> the table as one tuple, points x rank

    def flat_of(table):
        if id(table) not in flat:
            flat[id(table)] = tuple(itertools.chain.from_iterable(table))
        return flat[id(table)]

    rank = lat.rank
    tree = _bfs_tree(adj)
    phi = {0: (0,) * (len(points) * rank)}
    potentials = {phi[0]: phi[0]}  # each distinct potential as one object
    for u, w in tree:
        step = fwd[(u, w)] if u < w else back[(w, u)]
        pot = tuple(map(operator.sub, phi[u], flat_of(step)))
        phi[w] = potentials.setdefault(pot, pot)
    if len(phi) != len(chambers):
        raise InternalInvariantError("chamber adjacency graph is not connected")
    tree_pairs = {(min(u, w), max(u, w)) for u, w in tree}
    chords = [e for e in adj if e not in tree_pairs]
    first_miss = {}  # (id phi a, id phi b, id table) -> first failing point index or None
    for a, b in chords:
        table = fwd[(a, b)]
        key = (id(phi[a]), id(phi[b]), id(table))
        if key not in first_miss:
            diff = tuple(map(operator.sub, phi[a], phi[b]))
            first_miss[key] = None if flat_of(table) == diff else next(
                i for i, c in enumerate(table) if c != diff[i * rank:i * rank + rank])
        if first_miss[key] is not None:
            failures.append(("loop", a, b, points[first_miss[key]]))
    # boundary and center vanishing
    ends = [i for i, p in enumerate(points) if comp.is_boundary(p) or comp.on_center_ray(p)]
    nonzero = {}  # id fwd table -> its boundary and center points where it is nonzero
    for table in fwd.values():
        if id(table) not in nonzero:
            nonzero[id(table)] = {i for i in ends if any(table[i])}
    if any(nonzero.values()):
        for i in ends:
            failures += [("vanishing", *e, points[i]) for e in adj if i in nonzero[id(fwd[e])]]
    # pairing with the non-contracting chamber's rays is nonnegative,
    # and the value kills every class on the shared face
    dual_of = lru_cache(maxsize=None)(lat.form.gram.apply)  # once per distinct ray
    distinct = {}  # id table -> its values in order of first occurrence
    for (a, b), wall in adj.items():
        i = edges[(a, b)]
        if i == 0:
            continue
        lo, hi, vals = (a, b, fwd[(a, b)]) if i in chambers[b].boundary_exc \
            else (b, a, back[(a, b)])
        if id(vals) not in distinct:
            distinct[id(vals)] = list(dict.fromkeys(vals))
        lo_duals = [dual_of(r) for r in chambers[lo].cone.rays]
        wall_duals = [dual_of(r) for r in wall]
        for c in distinct[id(vals)]:
            if not any(c):  # zero pairs to zero with every ray
                continue
            if any(vec_dot(c, r) < 0 for r in lo_duals):
                failures.append(("nef-pairing", lo, hi, points[vals.index(c)]))
                break
            if any(vec_dot(c, r) != 0 for r in wall_duals):
                failures.append(("shared-face", lo, hi, points[vals.index(c)]))
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
    for u, w in _bfs_tree(_chamber_adjacency(sec)):
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


def one_stratum_report(sec: SecondaryFan, keys: list) -> list[dict]:
    """For each wall of the full fan, whether the combinatorial family data changes.

    Moving cones carry (exceptional set, triangulation key), the key being
    the group's entry in keys (grouping_by_triangulation); bogus cones carry
    (base face, the group sharing it as a wall, dropped-center theta pattern).
    Walls whose two sides carry identical data are flagged: they would
    correspond to a contracted stratum.  Each shadow holds its own cone's
    group key or base face, and those are distinct per cone, so no wall is
    flagged: changes is true on every wall by construction, and the pipeline
    does not run it.  It stays while perfbench's tracer lists it.
    """
    fan = sec.full_fan
    n_mov = len(sec.groups)
    # a bogus cone's base face is the one wall it shares with a moving group
    owner = {}
    for (rays, _), incident in fan.walls.items():
        ids = sorted(mi for mi, _ in incident)
        if ids[0] < n_mov <= ids[-1]:
            owner[rays] = sec.groups[ids[0]]
    shadows = [("moving", tuple(sorted(g.key)), key)
               for g, key in zip(sec.groups, keys, strict=True)]
    shadows += [("bogus", face, (tuple(sorted(owner[face].key)),), "theta-drop-center")
                for face in sec.bogus_faces]

    out = []
    for a, b in adjacency_pairs(fan):
        da, db = shadows[a], shadows[b]
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

    Triangles are placed one at a time (De Loera-Rambau-Santos,
    *Triangulations*, ch. 3).  The front holds directed edges with placed
    triangles (or the outside) on their right and uncovered hull on their
    left; it starts as the hull boundary, counterclockwise through every used
    point on it.  The least front edge (a, b) gets abc for each used c
    strictly on its left whose closed triangle holds no other used point and
    whose new sides properly cross no placed edge (once triangles are empty,
    sides overlapping in more than a point are equal, so orientation signs
    decide).  abc removes (a, b) and each side on the front the other way
    round; its other sides join the front reversed.  An empty front is a
    triangulation; one that does not tile the hull (doubled area `hull_area`)
    is a broken invariant.

    Lemma: the two tests keep placed interiors disjoint (empty triangles whose
    interiors meet are equal or have crossing sides, and ab crosses no placed
    edge), so neither (c, b) nor (a, c) is ever on the front.  A triangulation
    holding the placed triangles has each front edge as an edge and exactly
    one unplaced triangle on its left, which passes both tests: each step
    extends towards it in one way, so each triangulation is reached once.
    """
    pts = points
    corners = _hull_vertices(pts)  # used holds them: its hull is the configuration's
    ring = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        (px, py), (qx, qy) = pts[p], pts[q]
        ring += sorted((u for u in used if u != q and _orient(pts[p], pts[q], pts[u]) == 0),
                       key=lambda u: (pts[u][0] - px) * (qx - px) + (pts[u][1] - py) * (qy - py))
    out = []

    def crosses(p, q, r, s):
        return (_orient(p, q, r) * _orient(p, q, s) < 0
                and _orient(r, s, p) * _orient(r, s, q) < 0)

    def place(front, edges, tris):
        if not front:
            if sum(_triangle_area2(*(pts[v] for v in t)) for t in tris) != hull_area:
                raise InternalInvariantError(f"triangles {sorted(tris)} do not tile the hull")
            out.append(frozenset(tris))
            return
        a, b = min(front)
        pa, pb = pts[a], pts[b]
        for c in used:
            pc = pts[c]
            if (_orient(pa, pb, pc) <= 0
                    or any(_point_in_triangle(pts[d], pa, pb, pc) for d in used if d not in (a, b, c))
                    or any(crosses(pts[x], pts[y], pts[u], pts[v])
                           for x, y in ((b, c), (c, a)) for u, v in edges)):
                continue
            sides = ((b, c), (c, a))
            place((front - {(a, b), *sides}) | {(y, x) for x, y in sides if (x, y) not in front},
                  edges + list(sides), tris + [tuple(sorted((a, b, c)))])

    place(set(zip(ring, ring[1:] + ring[:1])), [], [])
    return out


def all_triangulations(points) -> list[frozenset]:
    """Every triangulation of the configuration (unused points allowed), sorted:
    per set of used points holding the hull corners, those placed on it."""
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
    out = []  # the triangulations of used have vertex set used, so none repeats
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            used = tuple(sorted(set(corners) | set(extra)))
            out += _triangulations_of_subset(points, used, hull_area)
    return sorted(out, key=sorted)


def secondary_cone(points, triangulation, section: IntMat) -> RationalCone:
    """Cone of height functions inducing the triangulation, through proj, in Z^(s-3).

    Lemma: w induces it iff the lift folds up strictly across each interior
    edge (the far vertex of one triangle lies above the lift on the other) and
    each unused point lies strictly above the lift on a triangle holding it: a
    locally convex piecewise-affine function on a convex domain is convex.
    Each row a kills ker proj, so a = (a.S) o proj.  Only affine w vanish on
    every row and no row is zero, so the cone is pointed, and full-dimensional
    iff the triangulation is regular (De Loera-Rambau-Santos, 2010).
    """
    s = len(points)
    tris = sorted(triangulation)
    used = sorted({v for t in tris for v in t})
    ineqs = []

    def lift_functional(tri, target):
        """Row a.S of w(target) - ell_tri(target) >= 0, cleared to integers."""
        pa, pb, pc = (points[v] for v in tri)
        det, pt = _orient(pa, pb, pc), points[target]
        row = [0] * s
        row[target] = abs(det)
        # minus the barycentric coordinates of target w.r.t. tri, times |det|
        for v, lam in zip(tri, (_orient(pt, pb, pc), _orient(pa, pt, pc), _orient(pa, pb, pt))):
            row[v] -= lam if det > 0 else -lam
        return section.apply(row)

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
        host = next(t for t in tris if _point_in_triangle(points[d], *(points[v] for v in t)))
        ineqs.append(lift_functional(host, d))
    return cone_from_inequalities(ineqs, ambient_rank=section.rows)


@dataclass
class GkzFan:
    points: list
    triangulations: list[frozenset]
    fan: Fan  # in the quotient by affine functions
    section: IntMat  # S^T: proj maps row j to e_j
    irregular: list[frozenset]


def _affine_functions(points) -> list[IntVec]:
    """The constant and the two coordinate functions on the configuration."""
    return [tuple(1 for _ in points), tuple(p[0] for p in points), tuple(p[1] for p in points)]


def gkz_secondary_fan(points) -> GkzFan:
    """Secondary fan modulo lineality, from all regular triangulations.

    proj kills exactly the affine functions and is onto Z^(s-3), so it has an
    integral section S (proj.S = I).  The full-dimensional secondary cones are
    the maximal cones (Gelfand-Kapranov-Zelevinsky 1994, ch. 7); the degree
    certificate proves them a complete fan, so no regular triangulation is missing.
    """
    points = [tuple(p) for p in points]
    proj = quotient_lattice_map(_affine_functions(points), len(points))
    section = IntMat(proj.rows, len(points), tuple(
        x for e in IntMat.identity(proj.rows).row_list() for x in solve_integral(proj, e)))
    regular, irregular, cones = [], [], []
    for t in all_triangulations(points):
        cone = secondary_cone(points, t, section)
        if cone.equations:
            irregular.append(t)
        else:
            regular.append(t)
            cones.append(cone)
    fan = Fan(proj.rows, tuple(cones), tuple(f"T{i}" for i in range(len(cones))))
    if not is_complete(fan):
        raise InternalInvariantError(
            "GKZ secondary fan is not a complete fan:"
            f" {_tiling_defect(fan.cones, walls=fan.walls, label_of=fan.label_of)}"
        )
    return GkzFan(points, regular, fan, section, irregular)


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

    The linear map phi sends the basis vector of a boundary ray to the class of
    its divisor and the center to the canonical class; its kernel must be
    exactly the affine functions, and every pushed maximal cone must match a
    secondary cone ray-for-ray.  phi = (phi.S) o proj with phi.S nonsingular
    (rank check); an injective map sends extreme rays onto extreme rays, so
    no sweep.
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
    phi_bar = phi.mul(gkz.section.transpose())
    sec_cones = {c.key(): i for i, c in enumerate(sec.full_fan.cones)}
    matched = []
    for t_idx, c in enumerate(gkz.fan.cones):
        j = sec_cones.get((tuple(sorted(primitive(phi_bar.apply(r)) for r in c.rays)), ()))
        if j is None:
            details.append(
                f"triangulation {sorted(gkz.triangulations[t_idx])} pushes to no secondary cone"
            )
        else:
            matched.append((t_idx, j))
    pushed, n = len(gkz.fan.cones), len(sec.full_fan.cones)
    ok = len(matched) == pushed == n and len({j for _, j in matched}) == pushed
    if not ok and not details:
        details.append(f"cone counts differ: {pushed} pushed vs {n} secondary")
    return CompareCertificate(ok, matched, details)
