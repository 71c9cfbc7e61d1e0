"""The earlier double-description kernel, kept as a test oracle for the new one.

dual_description_by_rank_filter combines every plus ray with every minus ray
and, after each insertion, drops the combinations that are not extreme: it
rebuilds every ray's tight constraints and keeps the ray when their rank is
n - dim(lineality) - 1.  It returns the same (lineality, rays) pair as
secfan.cones.dual_description.

cone_from_rays_two_sweeps is the earlier cone_from_rays: it converts the
generators to facets and back (V to H to V) with two double-description
sweeps, where secfan.cones.cone_from_rays reads a pointed cone's rays off the
generators after the first.

cone_from_inequalities_by_three_sweeps is the earlier cone_from_inequalities:
it passes the rays of its H to V sweep to cone_from_rays (V to H, and H to V
again when the result is lineal), where secfan.cones.cone_from_inequalities
reads a full-dimensional result's facets off the given inequalities.

intersect_from_facets is the earlier intersect: it sweeps the equations and
facets of both cones from scratch, where secfan.cones.intersect resumes the
first cone's double description and inserts only the second cone's.
"""

from secfan import cones
from secfan.cones import RationalCone, _unit, cone_from_inequalities
from secfan.lattice import (
    IntVec,
    primitive,
    rank_of,
    sign_normalized,
    vec,
    vec_dot,
    vec_scale,
    vec_sub,
)


def dual_description_by_rank_filter(ineqs, eqs, n: int) -> tuple[list[IntVec], list[IntVec]]:
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
        return [a for a, _ in processed if vec_dot(a, r) == 0]

    def filter_extreme():
        nonlocal rays
        target = n - len(lin) - 1
        keep = []
        for r in rays:
            if all(x == 0 for x in r):
                continue
            if rank_of(tight_normals(r)) >= target:
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


def cone_from_rays_two_sweeps(rays, ambient_rank: int | None = None, lineality=()) -> RationalCone:
    rays = [vec(r) for r in rays]
    lineality = [vec(l) for l in lineality]
    n = ambient_rank if ambient_rank is not None else len((rays + lineality)[0])
    dual_lin, dual_rays = cones.dual_description(rays, lineality, n)
    equations = tuple(sorted(set(sign_normalized(l) for l in dual_lin)))
    facets = tuple(sorted(set(primitive(r) for r in dual_rays)))
    lin2, rays2 = cones.dual_description(facets, equations, n)
    return RationalCone(
        ambient_rank=n,
        rays=tuple(rays2),
        facets=facets,
        equations=equations,
        lineality=tuple(sorted(set(sign_normalized(l) for l in lin2))),
    )


def cone_from_inequalities_by_three_sweeps(facets, equations, ambient_rank: int) -> RationalCone:
    lin, rays = cones.dual_description(facets, equations, ambient_rank)
    return cones.cone_from_rays(rays, ambient_rank, lineality=lin)


def intersect_from_facets(a: RationalCone, b: RationalCone) -> RationalCone:
    return cone_from_inequalities(a.facets + b.facets, a.equations + b.equations, a.ambient_rank)
