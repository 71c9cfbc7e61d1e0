"""Umbrella theta algebras: lattice-point bases, Stanley-Reisner products,
Hilbert data, theta divisor checks and the flop-stratum deformation rule.

The central fiber algebra has basis theta_P over integer points P of the cone
complex; the product of two basis vectors is the sum over representatives in a
common simplicial cone.  For honest simplicial complexes (n >= 3) this is the
plain rule theta_P.theta_Q = theta_{P+Q} or 0; the self-glued small cycles
(n <= 2) produce genuine integer combinations, which the summed-basis
computation handles uniformly.  Coefficients live in the monoid ring of
effective curve classes; membership is validated at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delpezzo import BoundaryCycle, PicLattice, effective_cone, minus_one_classes
from .disk import (
    DiskTriangulation,
    GammaPoint,
    convert_point,
    fan_chart_data,
    fan_point,
    fan_triangulation,
    gamma_complex,
)
from .errors import InternalInvariantError, ValidationError
from .lattice import IntVec, vec


# ---------------------------------------------------------------------------
# coefficients: integer combinations of monomials z^gamma, gamma effective


def validate_effective(lat: PicLattice, gamma: IntVec):
    """gamma must lie in the cone of curves (nonnegative in the generators)."""
    if len(gamma) != lat.rank or not effective_cone(lat).contains_point(vec(gamma)):
        raise ValidationError(f"{gamma} is not an effective curve class")


@dataclass(frozen=True)
class ThetaElement:
    """Finite sum of theta basis points with curve-monomial integer coefficients."""

    terms: tuple[tuple[GammaPoint, IntVec, int], ...]  # (point, gamma, coefficient)

    @classmethod
    def zero(cls) -> "ThetaElement":
        return cls(())

    @classmethod
    def of(cls, p: GammaPoint, gamma: IntVec | None = None, coeff: int = 1) -> "ThetaElement":
        g = tuple(gamma) if gamma is not None else ()
        return cls(((p, g, coeff),))

    def specialize_classes(self) -> "ThetaElement":
        """Set every z^gamma with gamma != 0 to zero (degeneration to the umbrella)."""
        kept = tuple((p, g, c) for p, g, c in self.terms if not any(g))
        return ThetaElement(kept)

    def __add__(self, other: "ThetaElement") -> "ThetaElement":
        acc: dict = {}
        for p, g, c in self.terms + other.terms:
            acc[(p, g)] = acc.get((p, g), 0) + c
        out = tuple(
            (p, g, c) for (p, g), c in sorted(acc.items(), key=lambda kv: (kv[0][0].cell, kv[0][0].coords, kv[0][1]))
            if c != 0
        )
        return ThetaElement(out)


# ---------------------------------------------------------------------------
# gamma points and the umbrella ring


def hilbert(n: int, m: int) -> int:
    return len(gamma_complex(fan_triangulation(n)).points_at_level(m))


def proj_degree(n: int) -> int:
    """Twice the leading coefficient of the quadratic Hilbert growth: the second
    difference at levels 1 to 3, once the third difference through level 4 is 0."""
    h1, h2, h3, h4 = (hilbert(n, m) for m in (1, 2, 3, 4))
    if h4 - 3 * h3 + 3 * h2 - h1 != 0:
        raise InternalInvariantError("Hilbert growth is not quadratic")
    return h3 - 2 * h2 + h1


class UmbrellaRing:
    """Central-fiber algebra with the summed theta basis.

    Products are computed in the disjoint-simplex ring and re-expressed in the
    summed basis; a result whose coefficients are not constant on gluing fibers
    would contradict the closure property and raises the internal error.
    """

    def __init__(self, n: int, tri: DiskTriangulation | None = None):
        self.n = n
        self.tri = tri or fan_triangulation(n)
        self.complex = gamma_complex(self.tri)

    def basis(self, level: int) -> tuple[GammaPoint, ...]:
        return self.complex.points_at_level(level)

    def product(self, p: GammaPoint, q: GammaPoint) -> ThetaElement:
        comp = self.complex
        reps_p = comp.representatives(p.cell, p.coords)
        reps_q = comp.representatives(q.cell, q.coords)
        raw: dict[tuple, int] = {}
        for cp, up in reps_p:
            for cq, uq in reps_q:
                if cp != cq:
                    continue
                s = tuple(a + b for a, b in zip(up, uq))
                raw[(cp, s)] = raw.get((cp, s), 0) + 1
        # group representatives by their glued image and check constancy
        by_point: dict = {}
        for (cell, coords), coeff in raw.items():
            canon = comp.canonical(cell, coords)
            by_point.setdefault((canon.cell, canon.coords), {})[(cell, coords)] = coeff
        out = ThetaElement.zero()
        for (cell, coords), rep_coeffs in sorted(by_point.items()):
            canon = GammaPoint(self.n, cell, coords)
            fiber = comp.representatives(cell, coords)
            values = [rep_coeffs.get(r, 0) for r in fiber]
            if len(set(values)) != 1:
                raise InternalInvariantError(
                    "product left the summed basis: closure failure"
                )
            if values[0]:
                out = out + ThetaElement.of(canon, None, values[0])
        return out


def central_product(p: GammaPoint, q: GammaPoint,
                    tri: DiskTriangulation | None = None) -> ThetaElement:
    """Product of two theta basis points in the central fiber of the given chart.

    Inputs are fan-complex points; they are converted into the chart first.
    """
    n = p.n
    if q.n != n:
        raise ValidationError("points live on different boundaries")
    tri = tri or fan_triangulation(n)
    ring = UmbrellaRing(n, tri)
    pp = convert_point(p, tri) if p.cell[0] == "T" else p
    qq = convert_point(q, tri) if q.cell[0] == "T" else q
    return ring.product(pp, qq)


def boundary_algebra(n: int) -> dict:
    """Level data of the boundary subalgebra: one degree-one chain per component.

    The per-component dimension counts lattice points of that component's own
    edge cone (the chain copy before the cyclic gluing), which is where the
    degree-one polarization shows: edge ("bd", i) is one side of one fan
    cell, whose level-m points split m over its two slots, so m + 1 of them.
    The total counts glued points, so each of the n vertices is shared once
    and the level-m total is n*m.
    """
    comp = gamma_complex(fan_triangulation(n))
    out = {"n": n, "levels": {}}
    for m in range(1, 5):
        pts = [p for p in comp.points_at_level(m) if comp.is_boundary(p)]
        out["levels"][m] = {
            "total": len(pts),
            "per_component": {i: m + 1 for i in range(1, n + 1)},
        }
    return out


def weight(p: GammaPoint) -> tuple[int, ...]:
    """Coordinates of a fan-chart point in the ray basis (center first)."""
    a, b = fan_chart_data(p)
    return tuple([a] + [b.get(i, 0) for i in range(1, p.n + 1)])


# ---------------------------------------------------------------------------
# theta divisor checks


def theta_divisor_checks(n: int) -> dict:
    """Evaluate Theta = sum of degree-one thetas at the nodes and the cone point.

    At the node over boundary vertex v_i only theta_{v_i} survives
    (all_nodes_missed); at the cone point only the center theta survives
    (center_check).  Dropping the center theta breaks the cone-point check,
    as the degenerate-stratum variant should (degenerate_variant_fails_center).
    """
    comp = gamma_complex(fan_triangulation(n))
    level1 = comp.points_at_level(1)

    def survives_on_ray(p: GammaPoint, label: int) -> bool:
        for cell, coords in comp.representatives(p.cell, p.coords):
            labels = comp.cell_labels[cell]
            pos = [t for t in range(3) if coords[t] > 0]
            if pos and all(labels[t] == label for t in pos):
                return True
        return False

    center = [p for p in level1 if survives_on_ray(p, 0)]
    center_pt = comp.center_point()
    return {
        "all_nodes_missed": all(sum(survives_on_ray(p, i) for p in level1) == 1
                                for i in range(1, n + 1)),
        "center_check": len(center) == 1,
        # the bogus-stratum variant drops the center theta from the sum
        "degenerate_variant_fails_center": all(comp.same_point(p, center_pt) for p in center),
    }


# ---------------------------------------------------------------------------
# flop-stratum products


def flop_stratum_product(p: GammaPoint, q: GammaPoint, lat: PicLattice,
                         boundary: BoundaryCycle, flop_index: int) -> ThetaElement:
    """Product in the one-parameter smoothing across the flop at boundary index i.

    Level-one inputs only; the special pair of neighbors of v_i picks up the
    curve class of D_i via the unique balanced two-leg spine, every other pair
    multiplies by the central rule.  Setting z^{[D_i]} to zero recovers the
    central product.
    """
    from .spines import AffineStructure, two_leg_outputs

    n = boundary.n
    if p.level != 1 or q.level != 1:
        raise ValidationError("flop-stratum products are defined in degree one")
    d_class = boundary.classes[flop_index - 1]
    if d_class not in minus_one_classes(lat) or lat.dot(d_class, d_class) != -1:
        raise ValidationError("flop index must name a boundary (-1)-component")
    comp = gamma_complex(fan_triangulation(n))
    prev_i = (flop_index - 2) % n + 1
    next_i = flop_index % n + 1
    vp, vq = comp.vertex_point(prev_i), comp.vertex_point(next_i)
    pair = {(p.cell, p.coords), (q.cell, q.coords)}
    special = {(vp.cell, vp.coords), (vq.cell, vq.coords)}
    if pair == special and prev_i != next_i:
        selfints = [lat.dot(c, c) for c in boundary.classes]
        aff = AffineStructure(n=n, selfint=tuple(selfints))
        outputs = two_leg_outputs(aff, prev_i, next_i)
        terms = ThetaElement.zero()
        for out_point, crossing in outputs:
            # the one-parameter smoothing keeps only the flopped curve's
            # class; spines crossing other rays die on this stratum
            if any(idx != flop_index for idx in crossing):
                continue
            gamma = vec(tuple(0 for _ in range(lat.rank)))
            for idx, mult in crossing.items():
                cls = boundary.classes[idx - 1]
                gamma = tuple(g + mult * c for g, c in zip(gamma, cls))
            validate_effective(lat, gamma)
            pt = fan_point(n, out_point[0], out_point[1])
            terms = terms + ThetaElement.of(pt, gamma)
        return terms
    result = central_product(p, q)
    return result
