"""Earlier face kernels, kept as test oracles for the incidence-based ones.

faces_by_recursion rebuilds every face from the facets of the face one
codimension up, with one double-description sweep per (face, facet) pair.
decompose_by_face_walk finds sigma_2 by a breadth-first walk over the face
lattice of each cone, keeping the faces of largest dimension whose span
misses the subspace and failing when there are two.
boundary_faces_by_facet_scan finds the faces on the boundary of Eff by
testing every facet of every cone for full rank and for an Eff facet
hyperplane holding it.
fan_check_by_facet_sums is the earlier pairwise fan predicate: its only
separator candidates are the sum of the facets of the first cone tight on the
common rays and each such facet alone, and every other pair is intersected.
_separated is the earlier separator test of fan_check, with the candidates
secfan.cones.fan_check still tries: it rebuilds two facet.ray dot tables per
pair, where fan_check reads sign bitmasks off one table per call.
pairs_left_by_dot_tables lists the pairs it leaves to the exact check.
"""

from itertools import combinations
from operator import add, mul, neg

from secfan.cones import (
    Fan,
    FanReport,
    RationalCone,
    _facet_faces_key,
    cone_from_rays,
    intersect,
    is_face_of,
    zero_cone,
)
from secfan.errors import ValidationError
from secfan.lattice import rank_of, vec_dot
from secfan.toricstack import (
    BundleInput,
    DecompositionCert,
    _span_meets_trivially,
)


def faces_by_recursion(c: RationalCone, codim: int) -> list[RationalCone]:
    if codim < 0 or codim > c.dim:
        raise ValidationError("codim out of range")
    level = [c]
    for _ in range(codim):
        nxt = {}
        for f in level:
            for g in f.facets:
                sub_rays = tuple(r for r in f.rays if vec_dot(g, r) == 0)
                if sub_rays or f.lineality:
                    sub = cone_from_rays(sub_rays, c.ambient_rank, lineality=f.lineality)
                else:
                    sub = zero_cone(c.ambient_rank)
                if sub.dim == f.dim - 1:
                    nxt[sub.key()] = sub
        level = sorted(nxt.values(), key=lambda x: x.key())
    return list(level)


def _cone_in_fan_by_faces(c: RationalCone, fan) -> bool:
    for top in fan.cones:
        if top == c:
            return True
        if not top.contains_cone(c):
            continue
        for codim in range(1, top.dim + 1):
            if any(f == c for f in faces_by_recursion(top, codim)):
                return True
    return c.dim == 0


def decompose_by_face_walk(inp: BundleInput) -> DecompositionCert:
    rank = inp.rank
    # span(L) as the hull of +-L, whose lineality the sweep finds
    sub_cone = cone_from_rays([*inp.sub_lattice, *[[-x for x in b] for b in inp.sub_lattice]], rank)
    sub_keys = {c.key() for c in inp.subfan.cones}
    pieces = []
    failures = []
    for idx, sigma in enumerate(inp.ambient.cones):
        label = inp.ambient.label_of(idx)
        if sigma.key() in sub_keys:
            pieces.append((zero_cone(rank), sigma))
            continue
        sigma1 = intersect(sigma, sub_cone)
        best = None
        ambiguous = False
        frontier = [sigma]
        seen = set()
        while frontier:
            f = frontier.pop()
            if f.key() in seen:
                continue
            seen.add(f.key())
            if _span_meets_trivially(f, inp.sub_lattice):
                if best is None or f.dim > best.dim:
                    best = f
                    ambiguous = False
                elif f.dim == best.dim and f != best:
                    ambiguous = True
            else:
                frontier.extend(faces_by_recursion(f, 1))
        if best is None:
            failures.append(f"{label}: no face avoids the subspace")
            continue
        if ambiguous:
            failures.append(f"{label}: maximal avoiding face is not unique")
            continue
        sigma2 = best
        recomposed = cone_from_rays(
            list(sigma1.rays) + list(sigma2.rays), rank
        ) if (sigma1.rays or sigma2.rays) else zero_cone(rank)
        if recomposed != sigma:
            failures.append(f"{label}: sigma_1 + sigma_2 does not recompose the cone")
            continue
        if not _cone_in_fan_by_faces(sigma2, inp.subfan):
            failures.append(f"{label}: sigma_2 is not a cone of the subfan")
            continue
        pieces.append((sigma1, sigma2))
    return DecompositionCert(pieces, failures)


def boundary_faces_by_facet_scan(cones_list, eff: RationalCone, rank: int):
    """Codimension-1 faces of the given cones lying on the boundary of eff."""
    seen = {}
    for c in cones_list:
        for face_rays in _facet_faces_key(c):
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


def fan_check_by_facet_sums(fan: Fan) -> FanReport:
    n = len(fan.cones)
    results = (_check_pair(fan, i, j) for i in range(n) for j in range(i + 1, n))
    violations = [r for r in results if r is not None]
    return FanReport(is_fan=not violations, violations=violations)


def _dots(rows, vectors) -> list[list[int]]:
    """The table of row . vector: one list per row, one entry per vector."""
    return [[sum(map(mul, h, v)) for v in vectors] for h in rows]


def _inside(cross, equations, rays) -> list[int]:
    """Indices of the rays where all rows of cross are >= 0 and all equations vanish."""
    return [k for k, (r, col) in enumerate(zip(rays, zip(*cross)))
            if min(col) >= 0 and not any(sum(map(mul, e, r)) for e in equations)]


def _separated(a: RationalCone, b: RationalCone, own_a, own_b) -> bool:
    """Some candidate of fan_check separates the pointed cones a and b (see there)."""
    ab, ba, m = _dots(a.facets, b.rays), _dots(b.facets, a.rays), len(a.rays)
    in_b, in_a = _inside(ba, b.equations, a.rays), _inside(ab, a.equations, b.rays)
    if {a.rays[k] for k in in_b} != {b.rays[k] for k in in_a}:
        return False
    t_a = [g + list(map(neg, h)) for g, h in zip(own_a, ab) if not any(g[k] for k in in_b)]
    t_b = [list(map(neg, h)) + g for g, h in zip(own_b, ba) if not any(g[k] for k in in_a)]
    sum_a, sum_b = ([*map(sum, zip(*t))] if t else [0] * (m + len(b.rays)) for t in (t_a, t_b))
    return any(min(w, default=0) >= 0 and {r for r, x in zip(a.rays, w) if not x}
               == {r for r, x in zip(b.rays, w[m:]) if not x}
               for w in (sum_a, [*map(add, sum_a, sum_b)], sum_b, *t_a, *t_b))


def pairs_left_by_dot_tables(fan: Fan) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, that fan_check by _separated sends to intersect."""
    own = [_dots(c.facets, c.rays) for c in fan.cones]
    return [(i, j) for (i, a), (j, b) in combinations(enumerate(fan.cones), 2)
            if a.lineality or b.lineality or not _separated(a, b, own[i], own[j])]
