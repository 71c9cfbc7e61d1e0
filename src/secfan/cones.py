"""Exact rational polyhedral cones and fans.

Cones carry a double description: irredundant extreme rays (plus an explicit
lineality basis when not pointed) and irredundant inward facet normals (plus
span equations when not full-dimensional).  Conversion between the two sides is
an incremental double description sweep over integers; extremality is decided
by a rank test on tight constraints, so no floating point ever enters a
predicate.  Insertion order and output order are deterministic: primitive
vectors in lexicographic order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ValidationError
from .lattice import (
    IntVec,
    primitive,
    sign_normalized,
    vec,
    vec_dot,
    vec_scale,
    vec_sub,
)

FULL_FACE_LATTICE_CAP = 6  # ambient rank above which full face lattices are refused
COMPLETENESS_FULL_CAP = 5  # rank above which completeness falls back to membership probes
COMPLETENESS_PROBES = 10_000
COMPLETENESS_SEED = 20220110


def _unit(n: int, i: int) -> IntVec:
    return tuple(1 if j == i else 0 for j in range(n))


def _rank(vectors) -> int:
    """Rank over Q by fraction-free elimination (hot path, avoids SNF)."""
    rows = [list(vec(v)) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                a, b = pr[col], rows[r][col]
                rows[r] = [a * x - b * y for x, y in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank


def dual_description(ineqs, eqs, n: int) -> tuple[list[IntVec], list[IntVec]]:
    """Lineality basis and extreme rays of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    Rays come back primitive and lex-sorted; the lineality basis is sign-normalized.
    """
    lin: list[IntVec] = [_unit(n, i) for i in range(n)]
    rays: list[IntVec] = []
    processed: list[tuple[IntVec, bool]] = []  # (normal, is_equation)

    def reduce_lineality(a: IntVec, keep_positive_ray: bool):
        nonlocal lin, rays
        orig = next((l for l in lin if vec_dot(l, a) != 0), None)
        if orig is None:
            return False
        l0, d0 = orig, vec_dot(orig, a)
        if d0 < 0:
            l0, d0 = vec_scale(-1, orig), -d0
        new_lin = []
        for l in lin:
            if l is orig:
                continue
            d = vec_dot(l, a)
            proj = sign_normalized(vec_sub(vec_scale(d0, l), vec_scale(d, l0)))
            if any(x != 0 for x in proj):
                new_lin.append(proj)
        new_rays = []
        for r in rays:
            d = vec_dot(r, a)
            proj = primitive(vec_sub(vec_scale(d0, r), vec_scale(d, l0)))
            if any(x != 0 for x in proj):
                new_rays.append(proj)
        if keep_positive_ray:
            new_rays.append(primitive(l0))
        lin = new_lin
        rays = sorted(set(new_rays))
        return True

    def tight_normals(r: IntVec) -> list[IntVec]:
        out = [a for a, _ in processed if vec_dot(a, r) == 0]
        return out

    def filter_extreme():
        nonlocal rays
        target = n - len(lin) - 1
        keep = []
        for r in rays:
            if all(x == 0 for x in r):
                continue
            if _rank(tight_normals(r)) >= target:
                keep.append(r)
        rays = sorted(set(keep))

    def insert(a: IntVec, is_eq: bool):
        nonlocal rays
        if reduce_lineality(a, keep_positive_ray=not is_eq):
            processed.append((a, is_eq))
            filter_extreme()
            return
        plus = [r for r in rays if vec_dot(r, a) > 0]
        zero = [r for r in rays if vec_dot(r, a) == 0]
        minus = [r for r in rays if vec_dot(r, a) < 0]
        combos = []
        for rp in plus:
            dp = vec_dot(rp, a)
            for rm in minus:
                dm = vec_dot(rm, a)
                combos.append(primitive(vec_sub(vec_scale(dp, rm), vec_scale(dm, rp))))
        if is_eq:
            rays = sorted(set(zero + combos))
        else:
            rays = sorted(set(plus + zero + combos))
        processed.append((a, is_eq))
        filter_extreme()

    for e in eqs:
        e = sign_normalized(vec(e))
        if any(x != 0 for x in e):
            insert(e, True)
    for a in sorted(primitive(vec(a)) for a in ineqs):
        if any(x != 0 for x in a):
            insert(a, False)
    lin = sorted(set(sign_normalized(l) for l in lin if any(x != 0 for x in l)))
    return lin, sorted(set(rays))


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
        return _rank(list(self.rays) + list(self.lineality))

    def is_pointed(self) -> bool:
        return not self.lineality

    def contains_point(self, x: IntVec) -> bool:
        x = vec(x)
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
    """Irredundant double description of the conic hull of the given generators."""
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
    # facets of cone(R) = extreme rays of the dual {y : y.r >= 0, y.l = 0}
    dual_lin, dual_rays = dual_description(rays, lineality, n)
    # dual lineality = equations of the primal span; dual rays = facet normals
    equations = tuple(sorted(set(sign_normalized(l) for l in dual_lin)))
    facets = tuple(sorted(set(primitive(r) for r in dual_rays)))
    # irredundant primal rays: convert back from the H-description
    lin2, rays2 = dual_description(facets, equations, n)
    return RationalCone(
        ambient_rank=n,
        rays=tuple(rays2),
        facets=facets,
        equations=equations,
        lineality=tuple(sorted(set(sign_normalized(l) for l in lin2))),
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
    if a.ambient_rank != b.ambient_rank:
        raise ValidationError("ambient rank mismatch")
    n = a.ambient_rank
    ineqs = list(a.facets) + list(b.facets)
    eqs = list(a.equations) + list(b.equations)
    lin, rays = dual_description(ineqs, eqs, n)
    if not rays and not lin:
        return zero_cone(n)
    return cone_from_rays(rays, n, lineality=lin)


_face_cache: dict[tuple, dict[int, tuple[RationalCone, ...]]] = {}


def faces(c: RationalCone, codim: int) -> list[RationalCone]:
    """All faces of the given codimension (within the cone's own dimension)."""
    if codim < 0 or codim > c.dim:
        raise ValidationError("codim out of range")
    if c.ambient_rank > FULL_FACE_LATTICE_CAP and codim > 1:
        raise ValidationError(
            f"full face lattices are capped at ambient rank {FULL_FACE_LATTICE_CAP}"
        )
    key = (c.ambient_rank, c.key())
    cache = _face_cache.setdefault(key, {0: (c,)})
    level = max(cache)
    while level < codim:
        nxt: dict = {}
        for f in cache[level]:
            for g in f.facets:
                sub_rays = tuple(r for r in f.rays if vec_dot(g, r) == 0)
                if sub_rays or f.lineality:
                    sub = cone_from_rays(sub_rays, c.ambient_rank, lineality=f.lineality)
                else:
                    sub = zero_cone(c.ambient_rank)
                if sub.dim == f.dim - 1:
                    nxt[sub.key()] = sub
        level += 1
        cache[level] = tuple(sorted(nxt.values(), key=lambda x: x.key()))
    return list(cache[codim])


def is_face_of(face: RationalCone, c: RationalCone) -> bool:
    """Face test for pointed cones: cut by the facets of c tight on all of face."""
    if not c.contains_cone(face):
        return False
    tight = [g for g in c.facets if all(vec_dot(g, r) == 0 for r in face.rays)]
    cut_rays = tuple(r for r in c.rays if all(vec_dot(g, r) == 0 for g in tight))
    return set(cut_rays) == set(face.rays)


@dataclass(frozen=True)
class Fan:
    """Finite collection of maximal cones with provenance labels."""

    ambient_rank: int
    cones: tuple[RationalCone, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.cones):
            raise ValidationError("one label per cone")

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels else f"cone{i}"


@dataclass
class FanReport:
    is_fan: bool
    is_complete: bool | None = None
    contracted_1_strata: list = field(default_factory=list)
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
    """Verify every pairwise intersection of maximal cones is a face of both."""
    n = len(fan.cones)
    results = (_check_pair(fan, i, j) for i in range(n) for j in range(i + 1, n))
    violations = [r for r in results if r is not None]
    return FanReport(is_fan=not violations, violations=violations)


def _facet_faces_key(c: RationalCone) -> list[tuple]:
    out = []
    for g in c.facets:
        sub_rays = tuple(sorted(r for r in c.rays if vec_dot(g, r) == 0))
        out.append(sub_rays)
    return out


def is_complete(fan: Fan, probes: int = COMPLETENESS_PROBES, seed: int = COMPLETENESS_SEED) -> bool:
    """Support equals the ambient space.

    At rank <= COMPLETENESS_FULL_CAP: every codimension-1 face of a maximal cone
    must lie in exactly two maximal cones, plus a probe at seeded pseudorandom
    directions.  Above the cap only the (reproducible) probe runs; determinant
    volume bookkeeping is avoided on purpose.
    """
    n = fan.ambient_rank
    if not fan.cones:
        return False
    if n == 0:
        return True
    if any(c.dim < n for c in fan.cones):
        return False
    if n <= COMPLETENESS_FULL_CAP:
        counts: dict[tuple, int] = {}
        for c in fan.cones:
            for key in _facet_faces_key(c):
                counts[key] = counts.get(key, 0) + 1
        if any(v != 2 for v in counts.values()):
            return False
        probe_count = min(probes, 200)
    else:
        probe_count = probes
    rng = random.Random(seed)
    for _ in range(probe_count):
        x = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
        if not any(c.contains_point(x) for c in fan.cones):
            return False
    return True


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
    if not members:
        return False
    if any(m.dim != target.dim for m in members):
        return False
    if not all(target.contains_cone(m) for m in members):
        return False
    # collect codim-1 faces: key -> list of (member index, inward facet normal)
    walls: dict[tuple, list[tuple[int, IntVec]]] = {}
    for mi, m in enumerate(members):
        for g in m.facets:
            key = tuple(sorted(r for r in m.rays if vec_dot(g, r) == 0))
            walls.setdefault(key, []).append((mi, g))
    for key, incident in walls.items():
        if len(incident) > 2:
            return False
        if len(incident) == 1:
            on_boundary = any(
                all(vec_dot(g, r) == 0 for r in key) for g in target.facets
            )
            if not on_boundary:
                return False
        else:
            (ma, ga), (mb, gb) = incident
            if ma == mb:
                return False
            # opposite sides of the wall hyperplane
            if not all(vec_dot(ga, r) <= 0 for r in members[mb].rays):
                return False
            if not all(vec_dot(gb, r) <= 0 for r in members[ma].rays):
                return False
    probe = members[0].interior_point()
    hits = sum(1 for m in members if m.contains_point(probe))
    if hits != 1:
        return False
    # the probe must also witness the target's interior side
    return target.contains_point(probe)


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
        if rays or lin:
            cones.append(cone_from_rays(rays, n, lineality=lin) if rays
                         else cone_from_rays([], n, lin))
        else:
            cones.append(zero_cone(n))
    for cd in data["cones"]:
        labels.append(cd.get("label", ""))
    return Fan(n, tuple(cones), tuple(labels))


def adjacency_pairs(fan: Fan) -> dict[tuple[int, int], tuple[IntVec, ...]]:
    """Pairs (a, b), a < b, of maximal cones sharing a codimension-1 face.

    Maps each pair, in sorted order, to the sorted rays of that shared wall;
    iterating the result yields the pairs alone.
    """
    by_face: dict[tuple, list[int]] = {}
    for i, c in enumerate(fan.cones):
        for key in _facet_faces_key(c):
            by_face.setdefault(key, []).append(i)
    walls: dict[tuple[int, int], tuple[IntVec, ...]] = {}
    for key, members in by_face.items():
        for a in members:
            for b in members:
                if a < b:
                    walls.setdefault((a, b), key)
    return dict(sorted(walls.items()))


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
