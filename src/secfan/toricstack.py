"""Toric fiber-bundle decompositions at the fan level.

Each cone of the ambient fan must split as (piece inside the distinguished
subspace) + (face from the subfan); the lifted fan lives in the direct sum and
projects back by addition.  Stabilizers along lifted strata are the torsion of
the lattice by the two sublattice factors, which is where the stack differs
from its coarse space.  Both are computed once per orbit of the ambient fan's
orbits (a symmetry of both fans fixing the subspace's basis): a decomposition
failure is named at every cone of its orbit, a stabilizer once per orbit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .cones import (
    Fan,
    RationalCone,
    _face_rays,
    cone_from_rays,
    intersect,
    is_face_of,
    zero_cone,
)
from .errors import ValidationError
from .lattice import (
    IntVec,
    TorsionGroup,
    primitive_coords,
    rank_of,
    saturate,
    torsion_quotient,
)


@dataclass(frozen=True)
class BundleInput:
    ambient: Fan          # Delta
    subfan: Fan           # Delta' (cones must appear in Delta's cone set)
    sub_lattice: tuple[IntVec, ...]  # basis of L inside N

    @property
    def rank(self) -> int:
        return self.ambient.ambient_rank


@dataclass
class DecompositionCert:
    # (sigma_1, sigma_2) per maximal cone; None for a cone that read its orbit root's outcome
    pieces: list[tuple[RationalCone, RationalCone] | None]
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _span_meets_trivially(cone: RationalCone, sub_basis) -> bool:
    gens = list(cone.rays) + list(cone.lineality)
    return rank_of(gens + list(sub_basis)) == rank_of(gens) + rank_of(list(sub_basis))


def _cone_in_fan(c: RationalCone, fan: Fan) -> bool:
    """c equals some cone of the fan (maximal cones or their faces)."""
    return any(is_face_of(c, top) for top in fan.cones) or c.dim == 0


def decompose(inp: BundleInput) -> DecompositionCert:
    """Split every maximal ambient cone as sigma_1 + sigma_2 per the hypothesis.

    sigma_1 is sigma cap span(L) and sigma_2 is the unique maximal face of
    sigma whose span misses L, read off the ray-facet incidences of sigma
    with no walk over the face lattice.  Let C be the cone on the rays of
    sigma outside span(L), plus the lineality of sigma.  A face whose span
    misses L has no ray in span(L), so it lies inside C.  So when C is a face
    whose span misses L, it contains every such face and is the unique
    maximal one.  Otherwise each such face lacks some ray r of sigma outside
    span(L), and sigma_1 plus that face is not sigma: r is extreme, so it is
    no sum of a point of sigma_1 and a point of a face without r.  C is a
    face exactly when the rays of sigma tight on every facet tight on C's
    rays are C's rays.  Then sigma_1 + sigma_2 = sigma, with no test: each
    ray of sigma lies in span(L), so in sigma_1, or outside it, so in
    sigma_2; the lineality of sigma lies in sigma_2; and sigma_1 and sigma_2
    both lie in the convex cone sigma.

    The work runs once per orbit root of the ambient fan (Fan.orbit_roots);
    every other cone gets its root's outcome under its own label.  Lemma: let w
    map the ambient fan and the subfan onto themselves, unimodular and fixing
    each vector of the basis of L (for the secondary fan, w in the boundary
    stabilizer: it fixes K, and secondary_fan proved the rest).  Then w
    carries span(L), the rays outside it, faces, spans and sums of sigma onto
    those of w.sigma, and the subfan's cones and faces onto themselves, so it
    carries sigma_1 and sigma_2 of sigma onto those of w.sigma and each test
    has the same outcome on both.
    """
    rank = inp.rank
    sub_cone = cone_from_rays([], rank, lineality=inp.sub_lattice)  # span(L)
    sub_rank = rank_of(list(inp.sub_lattice))
    sub_keys = {c.key() for c in inp.subfan.cones}

    def split(sigma):
        """(sigma_1, sigma_2), or the reason sigma does not split."""
        if sigma.key() in sub_keys:
            return zero_cone(rank), sigma
        sigma1 = intersect(sigma, sub_cone)
        outside = [r for r in sigma.rays if rank_of([r, *inp.sub_lattice]) > sub_rank]
        if _face_rays(sigma, outside) != set(outside):
            return "the rays outside the subspace span no face"
        sigma2 = cone_from_rays(outside, rank, lineality=sigma.lineality)
        if not _span_meets_trivially(sigma2, inp.sub_lattice):
            return "subspace meets the span of sigma_2"
        if not _cone_in_fan(sigma2, inp.subfan):
            return "sigma_2 is not a cone of the subfan"
        return sigma1, sigma2

    outcome: dict[int, str | tuple] = {}
    pieces = []
    failures = []
    for idx, root in enumerate(inp.ambient.orbit_roots):
        if root == idx:
            outcome[idx] = split(inp.ambient.cones[idx])
        if isinstance(outcome[root], str):
            failures.append(f"{inp.ambient.label_of(idx)}: {outcome[root]}")
        else:
            pieces.append(outcome[root] if root == idx else None)
    return DecompositionCert(pieces, failures)


def stabilizers(inp: BundleInput, cert: DecompositionCert) -> list[tuple[str, int, TorsionGroup]]:
    """Torsion of N/(N_1 + N_2) per lifted stratum, N_i the saturated span lattices,
    as one (root label, orbit size, group) entry per orbit of the ambient fan's
    orbits, in root order; a fan without orbits gets one entry per cone.

    cert is decompose(inp), computed once by the caller.  N_1 is generated by
    the sigma_1 lattice points inside L (not its saturation in N): refining L
    changes the answer while the coarse fan stays put.  As in decompose, only
    orbit roots are computed: w as there is unimodular and fixes L, so it
    maps N_1 and N_2 of sigma onto those of w.sigma, and N/(N_1 + N_2) onto
    the quotient of w.sigma, with the same invariant factors.
    """
    if not cert.ok:
        raise ValidationError("decomposition failed: " + "; ".join(cert.failures))
    rank = inp.rank
    out = []
    # a root is the first cone of its orbit, so the roots come in cone order
    for root, size in Counter(inp.ambient.orbit_roots).items():
        s1, s2 = cert.pieces[root]
        n1 = _cone_lattice_gens_in(s1, inp.sub_lattice, rank)
        tg = torsion_quotient(n1 + saturate(s2.rays + s2.lineality), rank)
        out.append((inp.ambient.label_of(root), size, tg))
    return out


def _cone_lattice_gens_in(s1: RationalCone, sub_basis, rank: int):
    """Generators of the group generated by s1's points of the sublattice L."""
    gens = []
    for ray in s1.rays:
        coeffs = primitive_coords(sub_basis, ray)
        if coeffs is None:
            raise ValidationError("sigma_1 ray outside the subspace")
        gens.append(tuple(
            sum(coeffs[j] * sub_basis[j][i] for j in range(len(sub_basis)))
            for i in range(rank)
        ))
    return gens
