"""Toric fiber-bundle decompositions at the fan level.

Each cone of the ambient fan must split as (piece inside the distinguished
subspace) + (face from the subfan); the lifted fan lives in the direct sum and
projects back by addition.  Stabilizers along lifted strata are the torsion of
the lattice by the two sublattice factors, which is where the stack differs
from its coarse space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import (
    Fan,
    RationalCone,
    _face_rays,
    cone_from_rays,
    fan_check,
    image,
    intersect,
    is_face_of,
    zero_cone,
)
from .errors import ValidationError
from .lattice import (
    IntMat,
    IntVec,
    TorsionGroup,
    primitive_coords,
    rank_of,
    saturate,
    torsion_quotient,
    vec_dot,
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
    pieces: list[tuple[RationalCone, RationalCone]]  # (sigma_1, sigma_2) per maximal cone
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
    rays are C's rays.
    """
    rank = inp.rank
    sub_cone = cone_from_rays([], rank, lineality=inp.sub_lattice)  # span(L)
    sub_rank = rank_of(list(inp.sub_lattice))
    sub_keys = {c.key() for c in inp.subfan.cones}
    pieces = []
    failures = []
    for idx, sigma in enumerate(inp.ambient.cones):
        label = inp.ambient.label_of(idx)
        if sigma.key() in sub_keys:
            pieces.append((zero_cone(rank), sigma))
            continue
        sigma1 = intersect(sigma, sub_cone)
        outside = [r for r in sigma.rays if rank_of([r, *inp.sub_lattice]) > sub_rank]
        if _face_rays(sigma, outside) != set(outside):
            failures.append(f"{label}: the rays outside the subspace span no face")
            continue
        sigma2 = cone_from_rays(outside, rank, lineality=sigma.lineality)
        if not _span_meets_trivially(sigma2, inp.sub_lattice):
            failures.append(f"{label}: subspace meets the span of sigma_2")
            continue
        recomposed = cone_from_rays(sigma1.rays + sigma2.rays, rank, lineality=sigma2.lineality)
        if recomposed != sigma:
            failures.append(f"{label}: sigma_1 + sigma_2 does not recompose the cone")
            continue
        if not _cone_in_fan(sigma2, inp.subfan):
            failures.append(f"{label}: sigma_2 is not a cone of the subfan")
            continue
        pieces.append((sigma1, sigma2))
    return DecompositionCert(pieces, failures)


@dataclass
class TildeFan:
    fan: Fan                      # in L (+) N, coordinates (L-basis coords, N coords)
    projection: IntMat            # b(l, n) = l + n
    pairs: list[tuple[RationalCone, RationalCone]]


def build_tilde(inp: BundleInput) -> TildeFan:
    cert = decompose(inp)
    if not cert.ok:
        raise ValidationError("decomposition failed: " + "; ".join(cert.failures))
    rank = inp.rank
    r = len(inp.sub_lattice)
    total = r + rank

    cones = []
    labels = []
    for idx, (s1, s2) in enumerate(cert.pieces):
        gens = []
        for ray in s1.rays:
            coords = primitive_coords(inp.sub_lattice, ray)
            if coords is None:
                raise ValidationError("sigma_1 generator outside the subspace")
            gens.append(coords + tuple(0 for _ in range(rank)))
        pad = (0,) * r
        gens += [pad + tuple(ray) for ray in s2.rays]
        cones.append(cone_from_rays(gens, total, lineality=[pad + tuple(l) for l in s2.lineality]))
        labels.append(inp.ambient.label_of(idx))
    proj_rows = []
    for i in range(rank):
        row = [inp.sub_lattice[j][i] for j in range(r)] + [
            1 if t == i else 0 for t in range(rank)
        ]
        proj_rows.append(tuple(row))
    tilde = Fan(total, tuple(cones), tuple(labels))
    rep = fan_check(tilde)
    if not rep.is_fan:
        raise ValidationError(f"lifted cones do not form a fan: {rep.violations[:3]}")
    return TildeFan(tilde, IntMat.from_rows(proj_rows), cert.pieces)


@dataclass
class StabilizerReport:
    entries: list[tuple[str, TorsionGroup]]

    def nontrivial(self) -> list[tuple[str, TorsionGroup]]:
        return [(lbl, t) for lbl, t in self.entries if not t.is_trivial()]


def stabilizers(inp: BundleInput, cert: DecompositionCert) -> StabilizerReport:
    """Torsion of N/(N_1 + N_2) per lifted stratum, N_i the saturated span lattices.

    cert is decompose(inp), computed once by the caller.  N_1 is generated by
    the sigma_1 lattice points inside L (not its saturation in N): refining L
    changes the answer while the coarse fan stays put.
    """
    if not cert.ok:
        raise ValidationError("decomposition failed: " + "; ".join(cert.failures))
    rank = inp.rank
    out = []
    for idx, (s1, s2) in enumerate(cert.pieces):
        n1 = _cone_lattice_gens_in(s1, inp.sub_lattice, rank)
        n2 = saturate(s2.rays + s2.lineality)
        tg = torsion_quotient(n1 + n2, rank)
        out.append((inp.ambient.label_of(idx), tg))
    return StabilizerReport(out)


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


@dataclass
class BundleCheck:
    ok: bool
    diagnostics: list[str]


def check_bundle(inp: BundleInput, quotient_fan: Fan, quotient_map: IntMat) -> BundleCheck:
    """Hypothesis check for the fiber-bundle corollary.

    Every ambient cone must decompose with sigma_1 inside the subspace fan and
    sigma_2 in the lift, and the lift must map cone-for-cone onto the quotient
    fan under the projection N -> N/L.
    """
    diags: list[str] = []
    cert = decompose(inp)
    if not cert.ok:
        diags.extend(cert.failures)
    quotient_keys = {c.key() for c in quotient_fan.cones}
    image_keys = {image(quotient_map, c).key() for c in inp.subfan.cones}
    if image_keys != quotient_keys:
        missing = quotient_keys - image_keys
        extra = image_keys - quotient_keys
        if missing:
            diags.append(f"{len(missing)} quotient cone(s) have no lift")
        if extra:
            diags.append(f"{len(extra)} lifted cone(s) project outside the quotient fan")
    for idx, c in enumerate(inp.subfan.cones):
        if not _span_meets_trivially(c, inp.sub_lattice):
            diags.append(f"lift cone {inp.subfan.label_of(idx)} meets the subspace")
    return BundleCheck(not diags, diags)


def character_extends(chi: IntVec, fiber_fan: Fan) -> bool:
    """Monomial-membership test: the character extends over the fiber toric
    variety exactly when it is nonnegative on every cone of its fan."""
    return all(
        vec_dot(chi, r) >= 0 for c in fiber_fan.cones for r in c.rays
    ) and all(
        vec_dot(chi, l) == 0 for c in fiber_fan.cones for l in c.lineality
    )

