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
_extreme_generators), so the rays are read off the generators by bitset
tests.  Dually, a full-dimensional cone given by inequalities reads its facets
off them once one sweep has found its rays (cone_from_inequalities).

intersect resumes its first operand's double description and inserts only the
second operand's constraints: any constraint set defining a cone, with each
extreme ray's zero set taken over it, is a valid start (see dual_description).

fan_check tests only the pairs with an orbit root of the fan's orbits, proves
most of them by a separating functional, tested on bitmasks read off one
facet.ray sign table per call, and sends the rest to the exact intersect and
is_face_of.

Callers need no edge cases: an empty hull in a given rank is zero_cone, and
image(m, c) is the one rule for the image of a cone under an integer map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, count, islice
from operator import and_, mul, sub

from .errors import ValidationError
from .lattice import (
    IntMat,
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
        return tuple(map(sum, zip((0,) * self.ambient_rank, *self.rays)))

    def contains_cone(self, other: "RationalCone") -> bool:
        gens = list(other.rays) + list(other.lineality) + [vec_scale(-1, l) for l in other.lineality]
        return not (self.facets or self.equations) or all(map(self.contains_point, gens))

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
    then takes its rays from the generators (_extreme_generators).  A cone
    that is not pointed takes a second sweep (H to V), whose lineality basis
    and rays modulo it are the stored ones.

    No rays and no lineality give zero_cone(ambient_rank), field for field, or
    ValidationError without ambient_rank.  A zero ray is refused (fan files too).
    """
    rays = [vec(r) for r in rays]
    lineality = [vec(l) for l in lineality]
    if not rays and not lineality:
        if ambient_rank is None:
            raise ValidationError("need at least one generator")
        return zero_cone(ambient_rank)
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
        extreme = _extreme_generators(rays, facets)
        if extreme is not None:
            return RationalCone(n, extreme, facets, equations)
    lin2, rays2 = dual_description(facets, equations, n)
    return RationalCone(
        ambient_rank=n,
        rays=tuple(rays2),
        facets=facets,
        equations=equations,
        lineality=tuple(lin2),
    )


def _extreme_generators(gens, facets) -> tuple[IntVec, ...] | None:
    """The extreme rays among the nonzero generators of a cone with the given
    facets, primitive and lex-sorted, or None when the cone is not pointed.

    Zero-set redundancy lemma: after deduplicating primitive generators, the
    cone is pointed if and only if no generator is tight on every facet, and
    then a generator g is an extreme ray if and only if no other generator is
    tight on every facet g is tight on.  Proof sketch: a face is cut out by
    the facets containing it, and every face is generated by the generators
    lying in it.  The smallest face containing g is cut out by the facets
    tight on g; it is the ray of g exactly when no other primitive generator
    lies in it.  Likewise the lineality space is the face cut out by all
    facets, nonzero exactly when some generator lies in it.  Any constraints
    defining the cone will do for facets, redundant ones included.
    """
    gens = sorted(set(primitive(g) for g in gens if any(g)))
    # per facet, the bitset of generators tight on it
    tight = [sum(1 << i for i, g in enumerate(gens) if vec_dot(f, g) == 0) for f in facets]
    everyone = (1 << len(gens)) - 1
    if reduce(and_, tight, everyone):
        return None
    # g is extreme when the generators tight on all of g's facets are g alone
    return tuple(g for i, g in enumerate(gens)
                 if reduce(and_, (t for t in tight if t >> i & 1), everyone) == 1 << i)


def cone_from_inequalities(facets, equations=(), ambient_rank: int | None = None) -> RationalCone:
    """The cone {x : f.x >= 0 for f in facets, e.x = 0 for e in equations}.

    One sweep (H to V) gives the lineality and rays.  Without equations, the
    result's facets are the extreme rays of its dual cone, the conic hull of
    the given facets, whose constraints are the result's rays and lineality;
    so when that dual is pointed (the result is full-dimensional) they are
    read off the given facets (_extreme_generators).  A pointed result is then
    complete, and a lineal one takes the same second sweep as cone_from_rays.
    Otherwise the rays go through cone_from_rays.
    """
    facets = [vec(f) for f in facets]
    equations = [vec(e) for e in equations]
    if ambient_rank is None:
        if not facets and not equations:
            raise ValidationError("ambient rank required for the unconstrained cone")
        ambient_rank = len((facets + equations)[0])
    lin, rays = dual_description(facets, equations, ambient_rank)
    return _swept_cone(facets, equations, lin, rays, ambient_rank)


def _swept_cone(facets, equations, lin, rays, n: int) -> RationalCone:
    """The canonical cone that a sweep of facets and equations found as lin and rays."""
    # the dual's constraints are the rays and +-lineality, tight on every facet
    outer = None if equations or not rays else _extreme_generators(facets, rays)
    if outer is None:
        return cone_from_rays(rays, n, lineality=lin)
    if lin:
        lin, rays = dual_description(outer, (), n)
    return RationalCone(n, tuple(rays), outer, (), tuple(lin))


def zero_cone(ambient_rank: int) -> RationalCone:
    eqs = tuple(_unit(ambient_rank, i) for i in range(ambient_rank))
    return RationalCone(ambient_rank, (), (), eqs, ())


def image(m: IntMat, c: RationalCone) -> RationalCone:
    """m(c): the nonzero images of c's rays, with those of its lineality basis as lineality."""
    rays = [g for g in map(m.apply, c.rays) if any(g)]
    lin = [g for g in map(m.apply, c.lineality) if any(g)]
    return cone_from_rays(rays, m.rows, lineality=lin)


def intersect(a: RationalCone, b: RationalCone) -> RationalCone:
    """a cut by b: the sweep resumes from a's lineality and rays, with zero sets
    over a's equations and facets (a valid start, see dual_description), and
    inserts only b's constraints.  Those and a's cut out the result, which is
    finished from them as cone_from_inequalities finishes (_swept_cone).
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValidationError("ambient rank mismatch")
    own = a.equations + a.facets
    zero_sets = {r: sum(1 << i for i, h in enumerate(own) if not sum(map(mul, h, r)))
                 for r in a.rays}
    n = a.ambient_rank
    lin, rays = dual_description(b.facets, b.equations, n, start=(a.lineality, zero_sets, len(own)))
    return _swept_cone(a.facets + b.facets, a.equations + b.equations, lin, rays, n)


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
    out = [cone_from_rays(sorted(s), c.ambient_rank, lineality=c.lineality) for s in level]
    return sorted(out, key=RationalCone.key)


def _face_rays(c: RationalCone, rays) -> frozenset:
    """Rays of c on the smallest face of c containing the given vectors of c.

    That face is c cut by every facet of c tight on all the vectors; with the
    lineality of c, its rays (these) generate it.
    """
    tight = [g for g in c.facets if all(vec_dot(g, r) == 0 for r in rays)]
    return frozenset(r for r in c.rays if all(vec_dot(g, r) == 0 for g in tight))


def on_facet(rays, c: RationalCone) -> bool:
    """The vectors all lie on the hyperplane of one facet of c."""
    return any(all(vec_dot(g, r) == 0 for r in rays) for g in c.facets)


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
    is_complete, adjacency_pairs and boundary_walls all read it.  orbits[i]
    is the index of the first cone of cone i's orbit under a group of linear
    automorphisms that permutes the first len(orbits) cones (every cone of
    mori_fan_K under W(E_k), and of secondary_fan's full fan under the
    boundary stabilizer); it is not compared, so equality and JSON see the
    cones alone.  Orbit lemma: such a w maps rays by w and facets by w^-T,
    so it permutes the walls with their incidences and the pairs of cones,
    keeping each sign g.r = (w^-T g).(w r) and each face relation; and
    w.C = root(C) for some w, so a test of every wall of C, or of every pair
    {C, D}, holds if it holds at root(C).  A further cone is its own root.
    """

    ambient_rank: int
    cones: tuple[RationalCone, ...]
    labels: tuple[str, ...] = ()
    orbits: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.cones):
            raise ValidationError("one label per cone")

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"cone{i}"

    @property
    def orbit_roots(self) -> tuple[int, ...]:
        """Each cone's orbit root: orbits, then each further cone its own root."""
        return self.orbits + tuple(range(len(self.orbits), len(self.cones)))

    @cached_property
    def walls(self) -> dict[tuple, list[tuple[int, IntVec]]]:
        """The wall map of the cones (see _wall_map), built on first use."""
        return _wall_map(self.cones)

    def with_orbits(self, orbits) -> "Fan":
        """This fan with the given orbits; a wall map already built is kept."""
        out = Fan(self.ambient_rank, self.cones, self.labels, tuple(orbits))
        if "walls" in self.__dict__:
            out.__dict__["walls"] = self.walls
        return out

    def extended(self, cones, labels, keys=None, roots=()) -> "Fan":
        """This fan followed by more labelled cones, with their facet keys
        (_wall_map) and orbit roots when given; walls are built for them only."""
        cones = tuple(cones)
        orbits = self.orbit_roots + tuple(roots) if roots else self.orbits
        out = Fan(self.ambient_rank, self.cones + cones, self.labels + tuple(labels), orbits)
        # _wall_map rebinds the lists it adds to, so a shallow copy leaves self.walls as it is
        out.__dict__["walls"] = _wall_map(cones, len(self.cones), dict(self.walls), keys)
        return out


@dataclass
class FanReport:
    is_fan: bool
    violations: list = field(default_factory=list)


def fan_check(fan: Fan) -> FanReport:
    """Verify every pairwise intersection of maximal cones is a face of both.

    Quadratic in the number of cones.  It serves fans that need not be
    complete, and is the oracle is_complete's degree certificate is tested on.

    Lemma (separating hyperplane; De Loera, Rambau and Santos, Triangulations,
    2010): if A, B are pointed, l >= 0 on the rays of A, l <= 0 on those of B,
    and the rays of A and of B with l = 0 are the same vectors Z, then A cap B
    lies in {l = 0}, which meets A and B in cone(Z); so A cap B = cone(Z), a
    face of both.  Candidates only propose l; only a verified l proves.  With
    F the rays of A in B (they must be those of B in A, so F holds every ray
    A and B share) and T_A, T_B the facets of A, B vanishing on F, they are
    sum T_A, sum T_A - sum T_B, -sum T_B, each g in T_A and each -h for h in
    T_B.  All vanish on F, so l proves when > 0 on A's other rays, < 0 on B's.

    One table per call: each distinct facet or equation vector is dotted once
    with each distinct ray, kept as the bitmasks of the rays where it is = 0
    and >= 0.  F, its test, T_A and the single facets are then mask tests; sum
    T_A is > 0 on a ray of A where one of T_A is, and the sums' signs on the
    other cone's rays are exact dots.  Lineal cones, and pairs no candidate
    separates, get intersect and is_face_of on both.

    Only the pairs in which one cone is an orbit root are tested (Fan's
    orbit lemma); with no orbits every pair is tested, on the same path.
    """
    cones, n = fan.cones, fan.ambient_rank
    bit = {r: 1 << k for k, r in enumerate(dict.fromkeys(r for c in cones for r in c.rays))}
    everyone = (1 << len(bit)) - 1
    signs = {}  # distinct normal -> bits of the rays where it is = 0, and >= 0
    for h in {h for c in cones for h in c.facets + c.equations}:
        dots = [(sum(map(mul, h, r)), b) for r, b in bit.items()]
        signs[h] = sum(b for d, b in dots if not d), sum(b for d, b in dots if d >= 0)
    own = [sum(map(bit.get, c.rays)) for c in cones]
    held = [reduce(and_, [signs[g][1] for g in c.facets] + [signs[e][0] for e in c.equations],
                   everyone) for c in cones]  # the rays each cone contains
    rows = [[(g, *signs[g]) for g in c.facets] for c in cones]
    rays = [[(r, bit[r]) for r in c.rays] for c in cones]

    def separated(i, j) -> bool:
        ra, rb = own[i], own[j]
        common = ra & held[j]
        if common != rb & held[i]:
            return False
        t_a, t_b = ([row for row in rows[k] if row[1] & common == common] for k in (i, j))
        # g > 0 on A's rays off F, and < 0 on B's: zero on A, and >= 0 on B, only at F
        if (any(ra & z == common and rb & nonneg == common for _, z, nonneg in t_a)
                or any(ra & nonneg == common and rb & z == common for _, z, nonneg in t_b)):
            return True
        # each of T_A is >= 0 on A, so sum T_A = 0 on a ray of A where all of T_A are
        cut_a, cut_b = (reduce(and_, (z for _, z, _ in t), everyone) for t in (t_a, t_b))
        sum_a, sum_b = (tuple(map(sum, zip((0,) * n, *(g for g, _, _ in t)))) for t in (t_a, t_b))
        out_a, out_b = ([r for r, b in rays[k] if not b & common] for k in (i, j))
        diff = tuple(map(sub, sum_a, sum_b))
        return (ra & cut_a == common and all(sum(map(mul, sum_a, r)) < 0 for r in out_b)
                or rb & cut_b == common and all(sum(map(mul, sum_b, r)) < 0 for r in out_a)
                or all(sum(map(mul, diff, r)) > 0 for r in out_a)
                and all(sum(map(mul, diff, r)) < 0 for r in out_b))

    roots = fan.orbit_roots
    violations = []
    for (i, a), (j, b) in combinations(enumerate(cones), 2):
        if roots[i] != i and roots[j] != j:
            continue  # w.(a, b) with w.a = root(a) is tested in its place
        if a.lineality or b.lineality or not separated(i, j):
            cap = intersect(a, b)
            if not is_face_of(cap, a) or not is_face_of(cap, b):
                violations.append((fan.label_of(i), fan.label_of(j),
                                   "intersection is not a common face"))
    return FanReport(is_fan=not violations, violations=violations)


def _facet_faces_key(c: RationalCone) -> list[tuple]:
    """Per facet of c, in facet order, the sorted rays of c tight on it."""
    return [tuple(sorted(r for r in c.rays if vec_dot(g, r) == 0)) for g in c.facets]


def is_complete(fan: Fan) -> bool:
    """The maximal cones form a complete fan: cones_tile with the whole space as target.

    The whole space has no facets, so the certificate reads: every cone is
    full-dimensional, every wall of every cone is met by exactly one other
    cone on the opposite side, and one interior point of cone 0 lies in no
    other cone.  The covering degree is then 1 off a set of codimension 2:
    the support is all of R^n and the interiors are pairwise disjoint.

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
    Opposite sides are tested only at walls with an orbit root on them (Fan's
    orbit lemma); the multiplicities and the probe are checked everywhere.
    """
    return _tiling_defect(fan.cones, walls=fan.walls, roots=fan.orbit_roots) is None


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


def _wall_map(members, start=0, walls=None, keys=None) -> dict[tuple, list[tuple[int, IntVec]]]:
    """Codimension-1 faces of the members: (rays, lineality) -> [(member index, inward facet)].

    A wall is keyed by its sorted rays and the member's lineality, which every
    face of the member shares, so that a lineal wall never matches another
    wall with the same rays.  Members are numbered from start and added to
    walls, a map of the members before them, when given, whose lists are
    replaced, not appended to.  keys holds their _facet_faces_key if known.
    """
    walls = {} if walls is None else walls
    for mi, m, tight in zip(count(start), members, keys or map(_facet_faces_key, members)):
        for g, rays in zip(m.facets, tight):
            walls[rays, m.lineality] = [*walls.get((rays, m.lineality), ()), (mi, g)]
    return walls


def _tiling_defect(members, target: RationalCone | None = None, walls=None,
                   label_of=str, roots=()) -> str | None:
    """The first way the members fail the tiling certificate, or None if they pass.

    target None is the whole space.  Member i is named label_of(i), by default
    its index.  walls is the members' wall map, built here when not given.
    roots are their orbit roots, as in is_complete, or () for none.
    """
    if not members:
        return "no members"
    if target is None:
        n = members[0].ambient_rank
        target = RationalCone(n, (), (), (), tuple(_unit(n, i) for i in range(n)))
    for mi, m in enumerate(members):
        if m.dim != target.dim:
            return f"cone {label_of(mi)} has dimension {m.dim}, not {target.dim}"
        if not target.contains_cone(m):
            return f"cone {label_of(mi)} leaves the target"
    if walls is None:
        walls = _wall_map(members)
    for (key, _), incident in walls.items():
        if len(incident) > 2:
            cones = ", ".join(label_of(mi) for mi, _ in incident)
            return f"wall {list(key)} is shared by cones [{cones}]"
        if len(incident) == 1:
            if not on_facet(key, target):
                return f"wall {list(key)} of cone {label_of(incident[0][0])} is met by no other cone"
        else:
            (ma, ga), (mb, gb) = incident
            if ma == mb:
                return f"wall {list(key)} is two facets of cone {label_of(ma)}"
            # opposite sides of the wall hyperplane
            if (not roots or roots[ma] == ma or roots[mb] == mb) and (
                    not all(vec_dot(ga, r) <= 0 for r in members[mb].rays)
                    or not all(vec_dot(gb, r) <= 0 for r in members[ma].rays)):
                return (f"wall {list(key)}: cones {label_of(ma)} and {label_of(mb)}"
                        " are not on opposite sides")
    probe = members[0].interior_point()
    hits = [mi for mi, m in enumerate(members) if m.contains_point(probe)]
    if len(hits) != 1:
        return (f"interior point {list(probe)} of cone {label_of(0)} lies in {len(hits)}"
                f" cones [{', '.join(map(label_of, hits))}]")
    # the probe must also witness the target's interior side
    if not target.contains_point(probe):
        return f"interior point {list(probe)} of cone {label_of(0)} lies outside the target"
    return None


# ---------------------------------------------------------------------------
# serialization: fan JSON (integers as decimal strings) and DOT adjacency


def _vec_to_json(v: IntVec) -> list[str]:
    return [str(x) for x in v]


def fan_to_json(fan: Fan, metadata: dict | None = None) -> dict:
    """The indexed layout: the fan's sorted distinct rays and facets, once each,
    and per cone its label, provenance and indices into those two tables."""
    rays = sorted({r for c in fan.cones for r in c.rays})
    facets = sorted({f for c in fan.cones for f in c.facets})
    ray_at = {r: i for i, r in enumerate(rays)}
    facet_at = {f: i for i, f in enumerate(facets)}
    cones = []
    for i, c in enumerate(fan.cones):
        cd = {"rays": [ray_at[r] for r in c.rays], "facets": [facet_at[f] for f in c.facets],
              "label": fan.label_of(i), "provenance": ""}
        if c.equations:
            cd["equations"] = [_vec_to_json(e) for e in c.equations]
        if c.lineality:
            cd["lineality"] = [_vec_to_json(l) for l in c.lineality]
        cones.append(cd)
    return {
        "ambient_rank": fan.ambient_rank,
        "rays": [_vec_to_json(r) for r in rays],
        "facets": [_vec_to_json(f) for f in facets],
        "cones": cones,
        "metadata": metadata or {},
    }


_DECIMAL = re.compile(r"-?[0-9]+")


def _vec_from_json(v, where: str) -> IntVec:
    """A vector of decimal strings (what fan_to_json writes) or plain JSON ints;
    any other entry (a float, a bool, other text) raises ValidationError, which
    names it by `where` and its position, rather than being truncated by int()."""
    out = []
    for pos, x in enumerate(v):
        if not (type(x) is int or (type(x) is str and _DECIMAL.fullmatch(x))):
            raise ValidationError(f"{where}, entry {pos} is {x!r}, "
                                  "not an integer or a decimal string")
        out.append(int(x))
    return tuple(out)


def fan_from_json(data: dict) -> Fan:
    """The fan of fan_to_json's layout.  Facets are not trusted: each cone is
    rebuilt from its rays and lineality.  Still, every part of the file is
    read: a ray or facet index that is not an int in range of its table (a
    negative one would wrap) raises ValidationError, as does an
    `ambient_rank` that is not an int, a label that is not a string, or an
    entry of a vector or of either table that is not an int or a decimal
    string."""
    n = data["ambient_rank"]
    if type(n) is not int:
        raise ValidationError(f"'ambient_rank' is {n!r}, not an integer")
    tables = {name: [_vec_from_json(v, f"{name[:-1]} table: {name[:-1]} {i}")
                     for i, v in enumerate(data[name])] for name in ("rays", "facets")}
    cones = []
    labels = []
    for j, cd in enumerate(data["cones"]):
        label = cd.get("label", "")
        if type(label) is not str:
            raise ValidationError(f"cone {j}: label is {label!r}, not a string")
        for name, table in tables.items():
            for pos, i in enumerate(cd[name]):
                if type(i) is not int or not 0 <= i < len(table):
                    raise ValidationError(f"cone {j} ({label!r}): {name[:-1]} {pos} is {i!r}, "
                                          f"not an index into the table of {len(table)} {name}")
        rays = [tables["rays"][i] for i in cd["rays"]]
        lin = [_vec_from_json(l, f"cone {j} ({label!r}): lineality row {r}")
               for r, l in enumerate(cd.get("lineality", []))]
        cones.append(cone_from_rays(rays, n, lineality=lin))
        labels.append(label)
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


def boundary_walls(fan: Fan) -> list[tuple[IntVec, ...]]:
    """Rays of the walls met by exactly one cone of the fan, sorted.

    When the cones tile a cone, those are its walls on that cone's boundary,
    so each must lie in one of its facet hyperplanes (secondary's
    _complete_with_bogus proves it, one wall per orbit)."""
    return sorted(rays for (rays, _), incident in fan.walls.items() if len(incident) == 1)


def fan_to_dot(fan: Fan, groups: dict[int, str] | None = None) -> str:
    """DOT graph of chamber adjacency; nodes colored by group key when given.

    Cone i is node ci, declared once with its label; edges name nodes by id."""
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
        lines.append(f'  c{i} [label="{fan.label_of(i)}", fillcolor={group_color[g]}];')
    for a, b in adjacency_pairs(fan):
        lines.append(f"  c{a} -- c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
