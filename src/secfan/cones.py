"""Exact rational polyhedral cones and fans.

Cones carry a double description: irredundant extreme rays (plus an explicit
lineality basis when not pointed) and irredundant inward facet normals (plus
span equations when not full-dimensional).  Conversion between the two sides is
an incremental double description sweep over integers; each ray carries the
bitset of constraints it is tight on and only adjacent rays are combined, so
every ray kept is extreme and no floating point ever enters a predicate.
Insertion order and output order are deterministic: primitive vectors in
lexicographic order.

A pointed cone given by generators needs one sweep, not two: with its facets
known, a generator is an extreme ray exactly when no other generator is tight
on every facet it is tight on (the zero-set redundancy lemma in
cone_from_rays), so the rays are read off the generators by bitset tests.

intersect resumes its first operand's double description and inserts only the
second operand's constraints: any constraint set defining a cone, with each
extreme ray's zero set taken over it, is a valid start (see dual_description).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_, mul

from .errors import InternalInvariantError, ValidationError
from .lattice import (
    IntVec,
    primitive,
    rank_of,
    sign_normalized,
    vec,
    vec_dot,
    vec_scale,
)

FULL_FACE_LATTICE_CAP = 6  # ambient rank above which full face lattices are refused


def _unit(n: int, i: int) -> IntVec:
    return tuple(1 if j == i else 0 for j in range(n))


def dual_description(ineqs, eqs, n: int, start=None) -> tuple[list[IntVec], list[IntVec]]:
    """Lineality basis and extreme rays of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    Rays come back primitive and lex-sorted; the lineality basis is sign-normalized.
    Every ray carries its zero set: the bitset of the constraints inserted so
    far that it is tight on.  A plus and a minus ray are combined only when
    they are adjacent, that is, when no third ray's zero set contains the
    intersection of theirs (Fukuda and Prodon, "Double description method
    revisited", 1996, Prop. 7), so every ray kept is extreme.

    The sweep starts from R^n, or resumes from start = (lineality basis,
    {extreme ray: zero set}, constraints inserted) of a cone C and returns C
    cut by ineqs and eqs.  Lemma: any set H of constraints defining C, with
    zero sets taken over H, is a valid start.  The constraints of H tight on a
    face cut it out, so Z(r) cuts out the smallest face containing r (distinct
    rays, distinct zero sets), r and s are adjacent exactly when no third zero
    set contains Z(r) & Z(s), and those tight on a 2-face have rank
    n - dim(lineality) - 2, whichever H defines C; H plus an inserted
    constraint defines the next cone.
    """
    # insertions rebind lin and rays, never mutate them, so start is not copied
    lin, rays, inserted = start or ([_unit(n, i) for i in range(n)], {}, 0)

    def insert(a: IntVec, is_eq: bool):
        nonlocal lin, rays, inserted
        bit = 1 << inserted
        inserted += 1
        orig = next((l for l in lin if sum(map(mul, l, a))), None)
        if orig is not None:
            # a cuts the lineality: project along l0 into a's hyperplane, where
            # every ray and every other lineality vector becomes tight on a
            l0, d0 = orig, sum(map(mul, orig, a))
            if d0 < 0:
                l0, d0 = tuple(-x for x in orig), -d0

            def project(v):
                d = sum(map(mul, v, a))
                return tuple(d0 * x - d * y for x, y in zip(v, l0))

            lin = [sign_normalized(project(l)) for l in lin if l is not orig]
            rays = {primitive(project(r)): z | bit for r, z in rays.items()}
            if not is_eq:
                rays[primitive(l0)] = bit - 1  # tight on everything inserted before
            return
        dots = {r: sum(map(mul, r, a)) for r in rays}
        plus = [r for r, d in dots.items() if d > 0]
        minus = [r for r, d in dots.items() if d < 0]
        zero_sets = list(rays.values())
        # a 2-face is tight on constraints of rank n - dim(lineality) - 2
        need = n - len(lin) - 2
        kept = {r: z | bit for r, z in rays.items() if not dots[r]}
        if not is_eq:
            kept.update((r, rays[r]) for r in plus)
        for rp in plus:
            zp, dp = rays[rp], dots[rp]
            for rm in minus:
                common = zp & rays[rm]
                if common.bit_count() < need:
                    continue
                # adjacent when no third zero set contains common: stop at the
                # third holder (distinct extreme rays have distinct zero sets)
                holders = (z for z in zero_sets if z & common == common)
                if next(islice(holders, 2, None), None) is None:
                    dm = dots[rm]
                    kept[primitive(tuple(dp * y - dm * x for x, y in zip(rp, rm)))] = common | bit
        rays = kept

    for e in eqs:
        e = sign_normalized(vec(e))
        if any(x != 0 for x in e):
            insert(e, True)
    for a in sorted(primitive(vec(a)) for a in ineqs):
        if any(x != 0 for x in a):
            insert(a, False)
    return sorted(lin), sorted(rays)


@dataclass(frozen=True)
class RationalCone:
    """Pointed-or-lineal rational cone with both descriptions held irredundantly."""

    ambient_rank: int
    rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]
    equations: tuple[IntVec, ...] = ()
    lineality: tuple[IntVec, ...] = ()

    @property
    def dim(self) -> int:
        # the equations are a basis of the span's orthogonal complement
        return self.ambient_rank - len(self.equations)

    def is_pointed(self) -> bool:
        return not self.lineality

    def contains_point(self, x: IntVec) -> bool:
        return all(vec_dot(f, x) >= 0 for f in self.facets) and all(
            vec_dot(e, x) == 0 for e in self.equations
        )

    def interior_point(self) -> IntVec:
        """A point of the relative interior (sum of rays, or 0 for the zero cone)."""
        if not self.rays:
            return tuple(0 for _ in range(self.ambient_rank))
        s = self.rays[0]
        for r in self.rays[1:]:
            s = tuple(a + b for a, b in zip(s, r))
        return s

    def contains_cone(self, other: "RationalCone") -> bool:
        gens = list(other.rays) + list(other.lineality) + [vec_scale(-1, l) for l in other.lineality]
        return all(self.contains_point(g) for g in gens)

    def key(self):
        return (self.rays, self.lineality)

    def __eq__(self, other):
        if not isinstance(other, RationalCone):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.key() == other.key()

    def __hash__(self):
        return hash((self.ambient_rank, self.key()))


def cone_from_rays(rays, ambient_rank: int | None = None, lineality=()) -> RationalCone:
    """Irredundant double description of the conic hull of the given generators.

    One sweep (V to H) gives the facets and span equations.  A pointed cone
    then takes its rays from the generators, by the zero-set redundancy lemma:
    after deduplicating primitive generators, the cone is pointed if and only
    if no generator is tight on every facet, and then a generator g is an
    extreme ray if and only if no other generator is tight on every facet g
    is tight on.  Proof sketch: a face is cut out by the facets containing it,
    and every face is generated by the generators lying in it.  The smallest
    face containing g is cut out by the facets tight on g; it is the ray of g
    exactly when no other primitive generator lies in it.  Likewise the
    lineality space is the face cut out by all facets, nonzero exactly when
    some generator lies in it.  A cone that is not pointed takes a second
    sweep (H to V), whose lineality basis and rays modulo it are the stored
    ones.
    """
    rays = [vec(r) for r in rays]
    lineality = [vec(l) for l in lineality]
    if not rays and not lineality:
        raise ValidationError("need at least one generator")
    n = ambient_rank if ambient_rank is not None else len((rays + lineality)[0])
    for r in rays + lineality:
        if len(r) != n:
            raise ValidationError("generators have mixed lengths")
    if any(all(x == 0 for x in r) for r in rays):
        raise ValidationError("zero vector is not a valid ray")
    # facets of cone(R) = extreme rays of the dual {y : y.r >= 0, y.l = 0};
    # dual lineality = equations of the primal span; dual rays = facet normals
    dual_lin, dual_rays = dual_description(rays, lineality, n)
    equations, facets = tuple(dual_lin), tuple(dual_rays)
    if not any(any(l) for l in lineality):
        gens = sorted(set(primitive(r) for r in rays))
        # per facet, the bitset of generators tight on it
        tight = [sum(1 << i for i, g in enumerate(gens) if vec_dot(f, g) == 0) for f in facets]
        everyone = (1 << len(gens)) - 1
        if not reduce(and_, tight, everyone):
            # g is extreme when the generators tight on all of g's facets are g alone
            extreme = tuple(g for i, g in enumerate(gens)
                            if reduce(and_, (t for t in tight if t >> i & 1), everyone) == 1 << i)
            return RationalCone(n, extreme, facets, equations)
    lin2, rays2 = dual_description(facets, equations, n)
    return RationalCone(
        ambient_rank=n,
        rays=tuple(rays2),
        facets=facets,
        equations=equations,
        lineality=tuple(lin2),
    )


def cone_from_inequalities(facets, equations=(), ambient_rank: int | None = None) -> RationalCone:
    facets = [vec(f) for f in facets]
    equations = [vec(e) for e in equations]
    if ambient_rank is None:
        if not facets and not equations:
            raise ValidationError("ambient rank required for the unconstrained cone")
        ambient_rank = len((facets + equations)[0])
    lin, rays = dual_description(facets, equations, ambient_rank)
    if not rays and not lin:
        return zero_cone(ambient_rank)
    return cone_from_rays(rays, ambient_rank, lineality=lin)


def zero_cone(ambient_rank: int) -> RationalCone:
    eqs = tuple(_unit(ambient_rank, i) for i in range(ambient_rank))
    return RationalCone(ambient_rank, (), (), eqs, ())


def dual_cone(c: RationalCone) -> RationalCone:
    """Polar dual: rays of the output are the facets of the input and vice versa."""
    if not c.facets and not c.equations:
        return zero_cone(c.ambient_rank)
    return cone_from_rays(c.facets, c.ambient_rank, lineality=c.equations)


def intersect(a: RationalCone, b: RationalCone) -> RationalCone:
    """a cut by b: the sweep resumes from a's lineality and rays, with zero sets
    over a's equations and facets (a valid start, see dual_description), and
    inserts only b's constraints; cone_from_rays puts the result in canonical form.
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValidationError("ambient rank mismatch")
    own = a.equations + a.facets
    zero_sets = {r: sum(1 << i for i, h in enumerate(own) if not sum(map(mul, h, r)))
                 for r in a.rays}
    n = a.ambient_rank
    lin, rays = dual_description(b.facets, b.equations, n, start=(a.lineality, zero_sets, len(own)))
    return cone_from_rays(rays, n, lineality=lin) if rays or lin else zero_cone(n)


def faces(c: RationalCone, codim: int) -> list[RationalCone]:
    """All faces of the given codimension (within the cone's own dimension).

    Faces are read off the ray-facet incidences: every facet of a face F is
    F cut by some facet of c, so the ray sets one codimension down are the
    intersections (ray set of F) & (ray set of a facet of c) whose rank,
    with the lineality of c, drops by exactly one.  Each distinct face is
    built once, from its rays and the lineality of c.
    """
    if codim < 0 or codim > c.dim:
        raise ValidationError("codim out of range")
    if c.ambient_rank > FULL_FACE_LATTICE_CAP and codim > 1:
        raise ValidationError(
            f"full face lattices are capped at ambient rank {FULL_FACE_LATTICE_CAP}"
        )
    if codim == 0:
        return [c]
    facet_sets = [frozenset(rays) for rays in _facet_faces_key(c)]
    level = {frozenset(c.rays)}
    dim = c.dim
    for _ in range(codim):
        dim -= 1
        cuts = {s & f for s in level for f in facet_sets}
        level = {s for s in cuts if rank_of(list(s) + list(c.lineality)) == dim}
    out = [
        cone_from_rays(sorted(s), c.ambient_rank, lineality=c.lineality)
        if s or c.lineality
        else zero_cone(c.ambient_rank)
        for s in level
    ]
    return sorted(out, key=RationalCone.key)


def _face_rays(c: RationalCone, rays) -> frozenset:
    """Rays of c on the smallest face of c containing the given vectors of c.

    That face is c cut by every facet of c tight on all the vectors; with the
    lineality of c, its rays (these) generate it.
    """
    tight = [g for g in c.facets if all(vec_dot(g, r) == 0 for r in rays)]
    return frozenset(r for r in c.rays if all(vec_dot(g, r) == 0 for g in tight))


def is_face_of(face: RationalCone, c: RationalCone) -> bool:
    """face lies in c and contains the smallest face of c around it."""
    if not c.contains_cone(face):
        return False
    lines = list(c.lineality) + [vec_scale(-1, l) for l in c.lineality]
    return all(face.contains_point(r) for r in [*_face_rays(c, face.rays), *lines])


@dataclass(frozen=True)
class Fan:
    """Finite collection of maximal cones with provenance labels.

    The wall map of the cones is built on first use of walls and kept:
    is_complete, adjacency_pairs and boundary_walls all read it.
    """

    ambient_rank: int
    cones: tuple[RationalCone, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.cones):
            raise ValidationError("one label per cone")

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"cone{i}"

    @cached_property
    def walls(self) -> dict[tuple, list[tuple[int, IntVec]]]:
        """The wall map of the cones (see _wall_map), built on first use."""
        return _wall_map(self.cones)

    def extended(self, cones, labels) -> "Fan":
        """This fan followed by more labelled cones; walls are built for the new cones only."""
        cones = tuple(cones)
        out = Fan(self.ambient_rank, self.cones + cones, self.labels + tuple(labels))
        walls = {key: list(incident) for key, incident in self.walls.items()}
        out.__dict__["walls"] = _wall_map(cones, len(self.cones), walls)  # fills the cache
        return out


@dataclass
class FanReport:
    is_fan: bool
    violations: list = field(default_factory=list)


def _pair_is_common_face_fast(a: RationalCone, b: RationalCone) -> bool | None:
    """Separating-functional certificate for pointed cones; None = undecided.

    For a valid pair the rays of each cone inside the other generate the common
    face, and some nonnegative combination of tight facets separates the two
    cones with equality exactly on that face.  Only accepts with a verified
    separator; anything unclear falls back to the exact check.
    """
    if a.lineality or b.lineality:
        return None
    sa = frozenset(r for r in a.rays if b.contains_point(r))
    sb = frozenset(r for r in b.rays if a.contains_point(r))
    if sa != sb:
        return None
    face_rays = sa
    tight_a = [g for g in a.facets if all(vec_dot(g, r) == 0 for r in face_rays)]
    tight_b = [g for g in b.facets if all(vec_dot(g, r) == 0 for r in face_rays)]
    cut_a = {r for r in a.rays if all(vec_dot(g, r) == 0 for g in tight_a)}
    cut_b = {r for r in b.rays if all(vec_dot(g, r) == 0 for g in tight_b)}
    if cut_a != face_rays or cut_b != face_rays:
        return None
    candidates = []
    if tight_a:
        candidates.append(tuple(sum(g[t] for g in tight_a) for t in range(a.ambient_rank)))
    candidates.extend(tight_a)
    for ell in candidates:
        if all(vec_dot(ell, r) <= 0 for r in b.rays):
            tight_rays_b = {r for r in b.rays if vec_dot(ell, r) == 0}
            tight_rays_a = {r for r in a.rays if vec_dot(ell, r) == 0}
            if tight_rays_a == face_rays and tight_rays_b == face_rays:
                return True
    return None


def _check_pair(fan: Fan, i: int, j: int):
    a, b = fan.cones[i], fan.cones[j]
    fast = _pair_is_common_face_fast(a, b)
    if fast:
        return None
    cap = intersect(a, b)
    if not is_face_of(cap, a) or not is_face_of(cap, b):
        return (fan.label_of(i), fan.label_of(j), "intersection is not a common face")
    return None


def fan_check(fan: Fan) -> FanReport:
    """Verify every pairwise intersection of maximal cones is a face of both.

    Quadratic in the number of cones.  It serves fans that need not be
    complete, where is_complete does not apply, and it is the oracle the
    degree certificate of is_complete is tested against.
    """
    n = len(fan.cones)
    results = (_check_pair(fan, i, j) for i in range(n) for j in range(i + 1, n))
    violations = [r for r in results if r is not None]
    return FanReport(is_fan=not violations, violations=violations)


def _facet_faces_key(c: RationalCone) -> list[tuple]:
    """Per facet of c, in facet order, the sorted rays of c tight on it."""
    return [tuple(sorted(r for r in c.rays if vec_dot(g, r) == 0)) for g in c.facets]


def is_complete(fan: Fan) -> bool:
    """The maximal cones form a complete fan: cones_tile with the whole space as target.

    The whole space has no facets, so the certificate reads: every cone is
    full-dimensional, every wall of every cone is met by exactly one other
    cone on the opposite side, and one interior point of cone 0 lies in no
    other cone.  The covering degree is
    then 1 off a set of codimension 2: the support is all of R^n and the
    interiors are pairwise disjoint.

    Lemma (compare De Loera, Rambau and Santos, Triangulations, ch. 4): a
    complete facet-to-facet tiling by convex cones is a fan, i.e. every two
    cones meet in a common face.  Sketch: at any point x, the tangent cones of
    the tiles containing x again form a complete facet-to-facet tiling.  Two
    tangent cones sharing a facet have the lineality space of that facet, and
    the facet adjacency graph is connected because the codimension-2 skeleton
    does not disconnect R^n; so every tile A containing x meets x in the
    relative interior of a face F_A of one common span L, and F_A = A cap L.
    Walking inside relint F_A away from x never reaches the relative boundary
    of F_B (the span would drop there), so F_A = F_B; applied at a relative
    interior point of A cap B this gives A cap B = F_A, a face of both.
    Hence True means "complete fan", at every rank, with no sampling.
    """
    return _tiling_defect(fan.cones, walls=fan.walls) is None


def is_coarsening(coarse: Fan, fine: Fan) -> bool:
    """Every maximal cone of fine sits inside some cone of coarse, supports agree.

    Support agreement is certified by tiling: the fine cones landing in a coarse
    cone must tile it exactly, otherwise the supports differ.
    """
    if coarse.ambient_rank != fine.ambient_rank:
        raise ValidationError("ambient rank mismatch")
    members: dict[int, list[RationalCone]] = {i: [] for i in range(len(coarse.cones))}
    for c in fine.cones:
        host = next((i for i, big in enumerate(coarse.cones) if big.contains_cone(c)), None)
        if host is None:
            return False
        members[host].append(c)
    for i, big in enumerate(coarse.cones):
        if not members[i] or not cones_tile(members[i], big):
            raise ValidationError("support mismatch between the two fans")
    return True


def cones_tile(members: list[RationalCone], target: RationalCone) -> bool:
    """Certificate that the members tile the target cone exactly, by degree.

    Every member sits inside the target with the same dimension; every
    codimension-1 face of a member is either on the target's boundary (count
    one) or matched by exactly one other member lying strictly on the opposite
    side of its hyperplane.  The covering degree is then constant over the
    target's interior, and a single generic point contained in exactly one
    member pins it to one: the members tile, with pairwise disjoint interiors.
    """
    return _tiling_defect(members, target) is None


def _wall_map(members, start: int = 0, walls=None) -> dict[tuple, list[tuple[int, IntVec]]]:
    """Codimension-1 faces of the members: (rays, lineality) -> [(member index, inward facet)].

    A wall is keyed by its sorted rays and the member's lineality, which every
    face of the member shares, so that a lineal wall never matches another
    wall with the same rays.  Members are numbered from start and added to
    walls, a map of the members before them, when given.
    """
    walls = {} if walls is None else walls
    for mi, m in enumerate(members, start):
        for g, rays in zip(m.facets, _facet_faces_key(m)):
            walls.setdefault((rays, m.lineality), []).append((mi, g))
    return walls


def _tiling_defect(members, target: RationalCone | None = None, walls=None) -> str | None:
    """The first way the members fail the tiling certificate, or None if they pass.

    target None is the whole space.  Members are named by their index.  walls
    is the members' wall map, built here when not given.
    """
    if not members:
        return "no members"
    if target is None:
        n = members[0].ambient_rank
        target = RationalCone(n, (), (), (), tuple(_unit(n, i) for i in range(n)))
    for mi, m in enumerate(members):
        if m.dim != target.dim:
            return f"cone {mi} has dimension {m.dim}, not {target.dim}"
        if not target.contains_cone(m):
            return f"cone {mi} leaves the target"
    if walls is None:
        walls = _wall_map(members)
    for (key, _), incident in walls.items():
        if len(incident) > 2:
            return f"wall {list(key)} is shared by cones {[mi for mi, _ in incident]}"
        if len(incident) == 1:
            on_boundary = any(
                all(vec_dot(g, r) == 0 for r in key) for g in target.facets
            )
            if not on_boundary:
                return f"wall {list(key)} of cone {incident[0][0]} is met by no other cone"
        else:
            (ma, ga), (mb, gb) = incident
            if ma == mb:
                return f"wall {list(key)} is two facets of cone {ma}"
            # opposite sides of the wall hyperplane
            if not all(vec_dot(ga, r) <= 0 for r in members[mb].rays) or not all(
                vec_dot(gb, r) <= 0 for r in members[ma].rays
            ):
                return f"wall {list(key)}: cones {ma} and {mb} are not on opposite sides"
    probe = members[0].interior_point()
    hits = [mi for mi, m in enumerate(members) if m.contains_point(probe)]
    if len(hits) != 1:
        return f"interior point {list(probe)} of cone 0 lies in {len(hits)} cones {hits}"
    # the probe must also witness the target's interior side
    if not target.contains_point(probe):
        return f"interior point {list(probe)} of cone 0 lies outside the target"
    return None


# ---------------------------------------------------------------------------
# serialization: fan JSON (integers as decimal strings) and DOT adjacency


def _vec_to_json(v: IntVec) -> list[str]:
    return [str(x) for x in v]


def cone_to_json(c: RationalCone, label: str = "", provenance: str = "") -> dict:
    out = {
        "rays": [_vec_to_json(r) for r in c.rays],
        "facets": [_vec_to_json(f) for f in c.facets],
        "label": label,
        "provenance": provenance,
    }
    if c.equations:
        out["equations"] = [_vec_to_json(e) for e in c.equations]
    if c.lineality:
        out["lineality"] = [_vec_to_json(l) for l in c.lineality]
    return out


def fan_to_json(fan: Fan, provenances: tuple[str, ...] = (), metadata: dict | None = None) -> dict:
    return {
        "ambient_rank": fan.ambient_rank,
        "cones": [
            cone_to_json(
                c,
                label=fan.label_of(i),
                provenance=provenances[i] if provenances else "",
            )
            for i, c in enumerate(fan.cones)
        ],
        "metadata": metadata or {},
    }


def _vec_from_json(v) -> IntVec:
    return tuple(int(x) for x in v)


def fan_from_json(data: dict) -> Fan:
    n = int(data["ambient_rank"])
    cones = []
    labels = []
    for cd in data["cones"]:
        rays = [_vec_from_json(r) for r in cd["rays"]]
        lin = [_vec_from_json(l) for l in cd.get("lineality", [])]
        cones.append(cone_from_rays(rays, n, lineality=lin) if rays or lin else zero_cone(n))
        labels.append(cd.get("label", ""))
    return Fan(n, tuple(cones), tuple(labels))


def adjacency_pairs(fan: Fan) -> dict[tuple[int, int], tuple[IntVec, ...]]:
    """Pairs (a, b), a < b, of maximal cones sharing a codimension-1 face.

    Maps each pair, in sorted order, to the sorted rays of that shared wall;
    iterating the result yields the pairs alone.  Walls are matched by rays
    and lineality, as in the tiling certificate.
    """
    walls: dict[tuple[int, int], tuple[IntVec, ...]] = {}
    for (rays, _), incident in fan.walls.items():
        for a, _ in incident:
            for b, _ in incident:
                if a < b:
                    walls.setdefault((a, b), rays)
    return dict(sorted(walls.items()))


def boundary_walls(fan: Fan, support: RationalCone) -> list[tuple[IntVec, ...]]:
    """Rays of the walls met by exactly one cone of the fan, sorted.

    When the cones tile support, those are its walls on the boundary of
    support, so each must lie in a facet hyperplane of support; one that does
    not is a gap in the tiling and raises InternalInvariantError naming it.
    """
    out = sorted(rays for (rays, _), incident in fan.walls.items() if len(incident) == 1)
    for rays in out:
        if not any(all(vec_dot(h, r) == 0 for r in rays) for h in support.facets):
            raise InternalInvariantError(
                f"wall {list(rays)} is met by one cone and lies on no facet of the support")
    return out


def fan_to_dot(fan: Fan, groups: dict[int, str] | None = None) -> str:
    """DOT graph of chamber adjacency; nodes colored by group key when given."""
    palette = [
        "lightblue", "lightsalmon", "palegreen", "khaki", "plum", "lightgray",
        "lightpink", "wheat", "paleturquoise", "thistle",
    ]
    group_color: dict[str, str] = {}
    lines = ["graph chambers {", "  node [style=filled];"]
    for i in range(len(fan.cones)):
        g = (groups or {}).get(i, "")
        if g not in group_color:
            group_color[g] = palette[len(group_color) % len(palette)]
        lines.append(f'  "{fan.label_of(i)}" [fillcolor={group_color[g]}];')
    for a, b in adjacency_pairs(fan):
        lines.append(f'  "{fan.label_of(a)}" -- "{fan.label_of(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
