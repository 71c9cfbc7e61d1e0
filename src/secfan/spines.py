"""Integral-affine structure on the punctured disk over a boundary cycle,
straight-spine shooting, balancing, crossing classes and two-leg products.

Charts are indexed by boundary intervals: chart j has basis (v_j, v_{j+1}) and
the change across ray j follows v_{j-1} + v_{j+1} = -(D_j^2) v_j, the standard
relation determined by the self-intersections.  Every leg, in local charts or
in the development, is walked by one integer routine: chart changes have
determinant 1, so a leg's direction stays integral and the sign of
det(direction, position) decides which ray it meets next.  A leg through the
puncture is rejected rather than perturbed.  Crossing multiplicities are |det|
of the leg direction against the primitive ray vector in the local chart, so
counts are orientation free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

Mat2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class AffineStructure:
    n: int
    selfint: tuple[int, ...]

    def __post_init__(self):
        if len(self.selfint) != self.n or self.n < 1:
            raise ValidationError("need one self-intersection per boundary component")

    def d2(self, i: int) -> int:
        return self.selfint[(i - 1) % self.n]


def transition(aff: AffineStructure, i: int) -> Mat2:
    """Chart change across ray i, from basis (v_{i-1}, v_i) to (v_i, v_{i+1})."""
    return ((-aff.d2(i), 1), (-1, 0))


def _mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def monodromy(aff: AffineStructure) -> Mat2:
    """Ordered product M_n ... M_1 of the chart transitions around the puncture."""
    out: Mat2 = ((1, 0), (0, 1))
    for i in range(1, aff.n + 1):
        out = _mat_mul(transition(aff, i), out)
    return out


@dataclass(frozen=True)
class Leg:
    direction: tuple[int, int]  # in the vertex chart basis
    weight: int = 1

    def __post_init__(self):
        if self.direction == (0, 0):
            raise ValidationError("zero leg direction")
        if self.weight <= 0:
            raise ValidationError("leg weight must be positive")


@dataclass(frozen=True)
class Spine:
    """Star spine: one interior vertex with straight legs to infinity."""

    vertex_chart: int  # chart j = cone between rays j and j+1
    vertex_position: tuple[Fraction, Fraction]
    legs: tuple[Leg, ...]


def spine(vertex_chart: int, vertex_position, legs) -> Spine:
    pos = (Fraction(vertex_position[0]), Fraction(vertex_position[1]))
    if pos[0] <= 0 or pos[1] <= 0:
        raise ValidationError("spine vertex must sit in the open chart cone")
    return Spine(
        vertex_chart,
        pos,
        tuple(Leg((int(d[0]), int(d[1])), int(w)) for d, w in legs),
    )


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _walk(aff: AffineStructure, chart: int, d: tuple[int, int], k, lo: int, hi: int):
    """Walk a straight leg chart by chart, from `chart` with direction d in its basis.

    Chart changes are integer matrices of determinant 1, so d stays an integer
    vector and k = det(d, position) is the same in every chart and at every
    point of the leg.  The position, which lies in the closed chart cone and
    off the puncture, therefore matters only through the sign of k: the leg
    escapes when d >= 0, meets ray a (the y = 0 side) when dy < 0 and
    (dx >= 0 or k > 0), meets ray a + 1 (the x = 0 side) when dx < 0 and
    (dy >= 0 or k < 0), and otherwise runs into the puncture.  A crossing's
    multiplicity is |det| of d against the ray, the negative coordinate.

    Charts are developed, not reduced mod n.  The chart index moves one way
    only, because a straight line's angle around the puncture is monotone, so
    a cap on crossings is the index range lo <= chart <= hi.

    Returns (path, crossings, end): path[i] is (chart, direction) after i
    crossings, crossings[i] is the (ray, multiplicity) of crossing i + 1, and
    end is "escaped", "puncture" or "range".
    """
    a, (dx, dy) = chart, d
    path, crossings = [(a, d)], []
    while dx < 0 or dy < 0:
        if dy < 0 and (dx >= 0 or k > 0):
            ray, a, mult = a, a - 1, -dy
            dx, dy = -dy, dx - aff.d2(ray) * dy
        elif dx < 0 and (dy >= 0 or k < 0):
            ray, a, mult = a + 1, a + 1, -dx
            dx, dy = dy - aff.d2(ray) * dx, -dx
        else:
            return path, crossings, "puncture"
        if not lo <= a <= hi:
            return path, crossings, "range"
        crossings.append((ray, mult))
        path.append((a, (dx, dy)))
    return path, crossings, "escaped"


def _chart_in_range(aff: AffineStructure, chart: int) -> None:
    if not 1 <= chart <= aff.n:
        raise ValidationError(f"chart {chart} is not one of 1..{aff.n}")


def trace_leg(aff: AffineStructure, chart: int, pos, direction):
    """Walk a straight leg to infinity; returns (crossings, final chart, final direction).

    Crossings are (boundary ray, multiplicity) in order.  Raises when the
    start is not in the open cone of a chart 1..n, when the leg hits the
    puncture, or when it fails to escape within 6n + 5 crossings (only
    possible for non-toric structures).
    """
    _chart_in_range(aff, chart)
    x, y = Fraction(pos[0]), Fraction(pos[1])
    if x <= 0 or y <= 0:
        raise ValidationError("leg must start in the open chart cone")
    try:
        d = (operator.index(direction[0]), operator.index(direction[1]))
    except TypeError:
        raise ValidationError(f"leg direction {direction!r} is not integral") from None
    cap = 6 * aff.n + 5
    path, crossings, end = _walk(aff, chart, d, _det(d, (x, y)), chart - cap, chart + cap)
    if end == "puncture":
        raise ValidationError("leg passes through the puncture")
    if end == "range":
        raise ValidationError("leg does not escape to infinity (winding cap reached)")
    n = aff.n
    a, d = path[-1]
    return [((ray - 1) % n + 1, m) for ray, m in crossings], (a - 1) % n + 1, d


def is_balanced(aff: AffineStructure, s: Spine) -> bool:
    """Weighted outgoing directions sum to zero at the vertex."""
    _chart_in_range(aff, s.vertex_chart)
    if s.vertex_position[0] <= 0 or s.vertex_position[1] <= 0:
        raise ValidationError("vertex on the singular point or a ray")
    total = (0, 0)
    for leg in s.legs:
        total = (
            total[0] + leg.weight * leg.direction[0],
            total[1] + leg.weight * leg.direction[1],
        )
    return total == (0, 0)


def crossing_class(aff: AffineStructure, s: Spine) -> tuple[int, ...]:
    """Accumulated boundary multiplicities over every leg crossing, a tuple
    indexed by boundary ray."""
    mults = [0] * aff.n
    for leg in s.legs:
        crossings, _, _ = trace_leg(
            aff, s.vertex_chart, s.vertex_position, leg.direction
        )
        for ray, m in crossings:
            mults[ray - 1] += leg.weight * m
    return tuple(mults)


def count(aff: AffineStructure, s: Spine, gamma) -> int:
    """1 when the spine is balanced and gamma is its crossing class, else 0."""
    if not is_balanced(aff, s):
        return 0
    return 1 if tuple(gamma) == crossing_class(aff, s) else 0


# ---------------------------------------------------------------------------
# two-leg products by exhaustive straight-spine search in the development


def develop_rays(aff: AffineStructure, lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """Developed ray vectors on an index interval; base chart is (v_1, v_2)."""
    out = {1: (1, 0), 2: (0, 1)}
    j = 2
    while j < hi:
        prev, cur = out[j - 1], out[j]
        d2 = aff.d2(j)
        out[j + 1] = (-d2 * cur[0] - prev[0], -d2 * cur[1] - prev[1])
        j += 1
    j = 1
    while j > lo:
        cur, nxt = out[j], out[j + 1]
        d2 = aff.d2(j)
        out[j - 1] = (-d2 * cur[0] - nxt[0], -d2 * cur[1] - nxt[1])
        j -= 1
    return out


def two_leg_outputs(aff: AffineStructure, i1: int, i2: int):
    """Balanced three-valent spines with two unit legs toward boundary rays.

    Returns a list of (output point data, crossing multiplicities) pairs where
    the point data is (center coordinate, boundary coordinates) at level two.
    Degenerate opposite legs give straight-line spines with center output.

    The output is read where -d3 lies in the closed chart cone, which along
    the output leg happens in the vertex chart only, so that leg is not
    walked (and no walk bound, lo or lo + 1, can change the outputs): a
    crossing of ray a needs dy < 0 and leaves dx = -dy > 0, one of ray a + 1
    needs dx < 0 and leaves dy = -dx > 0 (see _walk).
    """
    n = aff.n
    lo, hi = -2 * n, 3 * n
    dev = develop_rays(aff, lo, hi)
    results = {}
    for j0 in range(1, n + 1):
        # the vertex sits at x in chart j0, whose basis has determinant 1, so
        # a developed vector's chart coordinates are two determinants
        x, va, vb = (2, 1), dev[j0], dev[j0 + 1]
        lifts = {
            i: [q for q in range(lo + 1, hi) if (q - i) % n == 0 and abs(q - j0) <= n]
            for i in (i1, i2)
        }
        legs = {}
        for q in set(lifts[i1] + lifts[i2]):
            d = (_det(dev[q], vb), _det(va, dev[q]))
            _, crossings, end = _walk(aff, j0, d, _det(d, x), lo, hi - 2)
            if end == "escaped":
                legs[q] = (d, crossings)
        for q1 in lifts[i1]:
            for q2 in lifts[i2]:
                if q1 not in legs or q2 not in legs:
                    continue
                (d1, cross1), (d2, cross2) = legs[q1], legs[q2]
                base = cross1 + cross2
                d3 = (-d1[0] - d2[0], -d1[1] - d2[1])
                # d3 = 0 too: opposite legs, a straight line with center output
                if d3[0] <= 0 and d3[1] <= 0:
                    _record_output(results, n, j0, (-d3[0], -d3[1]), base)
    return sorted(
        results.values(),
        key=lambda r: (r[0][0], sorted(r[0][1].items()), sorted(r[1].items())),
    )


def _record_output(results, n, chart, out_coords, crossings):
    """Canonicalize one spine result: output as level-two point data plus class."""
    alpha, beta = out_coords
    if alpha + beta > 2:
        return
    b: dict[int, int] = {}
    idx_a = (chart - 1) % n + 1
    idx_b = chart % n + 1
    if alpha:
        b[idx_a] = b.get(idx_a, 0) + alpha
    if beta:
        b[idx_b] = b.get(idx_b, 0) + beta
    center = 2 - alpha - beta
    mults: dict[int, int] = {}
    for ray, m in crossings:
        key = (ray - 1) % n + 1
        mults[key] = mults.get(key, 0) + m
    sig = (center, tuple(sorted(b.items())), tuple(sorted(mults.items())))
    results[sig] = ((center, b), mults)
