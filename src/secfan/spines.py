"""Integral-affine structure on the punctured disk over a boundary cycle,
straight-spine shooting, balancing, crossing classes and two-leg products.

Charts are indexed by boundary intervals: chart j has basis (v_j, v_{j+1}) and
the change across ray j follows v_{j-1} + v_{j+1} = -(D_j^2) v_j, the standard
relation determined by the self-intersections.  A leg is traced exactly with
Fraction positions; running along a ray or through the puncture is rejected
rather than perturbed.  Crossing multiplicities are |det| of the leg direction
against the primitive ray vector in the local chart, so counts are orientation
free.
"""

from __future__ import annotations

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


def is_toric_monodromy(aff: AffineStructure) -> bool:
    return monodromy(aff) == ((1, 0), (0, 1))


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


_MAX_CROSSINGS_FACTOR = 6


def _cross_cw(aff: AffineStructure, j: int, v):
    """Chart j -> chart j-1 coordinates (crossing ray j)."""
    x, y = v
    return (-y, x - aff.d2(j) * y), (j - 2) % aff.n + 1


def _cross_ccw(aff: AffineStructure, j: int, v):
    """Chart j -> chart j+1 coordinates (crossing ray j+1)."""
    x, y = v
    d2 = aff.d2(j % aff.n + 1)
    return (y - d2 * x, -x), j % aff.n + 1


def trace_leg(aff: AffineStructure, chart: int, pos, direction):
    """Walk a straight leg to infinity; returns the crossing record.

    Raises when the leg runs along a ray, hits the puncture, or fails to
    escape within the winding cap (only possible for non-toric structures).
    """
    x, y = Fraction(pos[0]), Fraction(pos[1])
    dx, dy = Fraction(direction[0]), Fraction(direction[1])
    j = chart
    crossings: list[tuple[int, int]] = []
    for _ in range(_MAX_CROSSINGS_FACTOR * aff.n + 6):
        if dx >= 0 and dy >= 0:
            return crossings, j, (dx, dy)
        t_cw = (-y / dy) if dy < 0 else None  # hits the ray j side (y = 0)
        t_ccw = (-x / dx) if dx < 0 else None  # hits the ray j+1 side (x = 0)
        if t_cw is not None and (t_ccw is None or t_cw < t_ccw):
            nx = x + t_cw * dx
            if nx <= 0:
                raise ValidationError("leg passes through the puncture")
            mult = abs(dy)
            if mult == 0:
                raise ValidationError("leg runs along a ray: not transverse")
            crossings.append((j, int(mult) if mult.denominator == 1 else mult))
            (x, y), _ = _cross_cw(aff, j, (nx, Fraction(0)))
            (dx, dy), j = _cross_cw(aff, j, (dx, dy))
        elif t_ccw is not None and (t_cw is None or t_ccw < t_cw):
            ny = y + t_ccw * dy
            if ny <= 0:
                raise ValidationError("leg passes through the puncture")
            mult = abs(dx)
            if mult == 0:
                raise ValidationError("leg runs along a ray: not transverse")
            ray = j % aff.n + 1
            crossings.append((ray, int(mult) if mult.denominator == 1 else mult))
            (x, y), _ = _cross_ccw(aff, j, (Fraction(0), ny))
            (dx, dy), j = _cross_ccw(aff, j, (dx, dy))
        else:
            raise ValidationError("leg hits the chart corner: not transverse")
    raise ValidationError("leg does not escape to infinity (winding cap reached)")


def is_balanced(aff: AffineStructure, s: Spine) -> bool:
    """Weighted outgoing directions sum to zero at the vertex."""
    if s.vertex_position[0] <= 0 or s.vertex_position[1] <= 0:
        raise ValidationError("vertex on the singular point or a ray")
    total = (0, 0)
    for leg in s.legs:
        total = (
            total[0] + leg.weight * leg.direction[0],
            total[1] + leg.weight * leg.direction[1],
        )
    return total == (0, 0)


def crossing_class(aff: AffineStructure, s: Spine, classes=None):
    """Accumulated boundary multiplicities over every leg crossing.

    With `classes` (one curve-class vector per boundary index) the result is
    their weighted sum; otherwise a multiplicity tuple indexed by boundary ray.
    """
    mults = [0] * aff.n
    for leg in s.legs:
        crossings, _, _ = trace_leg(
            aff, s.vertex_chart, s.vertex_position, leg.direction
        )
        for ray, m in crossings:
            if not isinstance(m, int):
                raise ValidationError("non-integral crossing multiplicity")
            mults[ray - 1] += leg.weight * m
    if classes is None:
        return tuple(mults)
    rank = len(classes[0])
    out = [0] * rank
    for i, m in enumerate(mults):
        for t in range(rank):
            out[t] += m * classes[i][t]
    return tuple(out)


def count(aff: AffineStructure, s: Spine, gamma, classes=None) -> int:
    """1 when the spine is balanced and gamma is its crossing class, else 0."""
    if not is_balanced(aff, s):
        return 0
    return 1 if tuple(gamma) == crossing_class(aff, s, classes) else 0


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


def _dev_leg(dev, j0: int, x, d, lo: int, hi: int):
    """Crossings of the straight ray x + t d in the development, walking charts.

    Returns None when the route is invalid (not transverse or out of range).
    """
    from .lattice import solve_rational

    def coords_in(a, v):
        va, vb = dev[a], dev[a + 1]
        sol = solve_rational([(va[0], vb[0]), (va[1], vb[1])], v)
        return sol

    a = j0
    pos = (Fraction(x[0]), Fraction(x[1]))
    crossings = []
    for _ in range(4 * (hi - lo)):
        c = coords_in(a, pos)
        dvec = coords_in(a, d)
        if c is None or dvec is None:
            return None
        if dvec[0] >= 0 and dvec[1] >= 0:
            return crossings, a
        t_cw = (-c[1] / dvec[1]) if dvec[1] < 0 else None
        t_ccw = (-c[0] / dvec[0]) if dvec[0] < 0 else None
        if t_cw is not None and (t_ccw is None or t_cw < t_ccw):
            t = t_cw
            ray = a
            new_a = a - 1
        elif t_ccw is not None and (t_cw is None or t_ccw < t_cw):
            t = t_ccw
            ray = a + 1
            new_a = a + 1
        else:
            return None
        if new_a < lo or new_a + 1 > hi:
            return None
        npos = (pos[0] + t * Fraction(d[0]), pos[1] + t * Fraction(d[1]))
        rv = dev[ray]
        det = Fraction(d[0]) * rv[1] - Fraction(d[1]) * rv[0]
        if det == 0:
            return None
        s = solve_rational([(rv[0],), (rv[1],)], npos)
        if s is None or s[0] <= 0:
            return None  # puncture or wrong side
        mult = abs(det)
        if mult.denominator != 1:
            return None
        crossings.append((ray, int(mult)))
        pos = npos
        a = new_a
    return None


def two_leg_outputs(aff: AffineStructure, i1: int, i2: int):
    """Balanced three-valent spines with two unit legs toward boundary rays.

    Returns a list of (output point data, crossing multiplicities) pairs where
    the point data is (center coordinate, boundary coordinates) at level two.
    Degenerate opposite legs give straight-line spines with center output.
    """
    n = aff.n
    lo, hi = -2 * n, 3 * n
    dev = develop_rays(aff, lo, hi)
    results = {}
    for j0 in range(1, n + 1):
        x = (
            2 * dev[j0][0] + dev[j0 + 1][0],
            2 * dev[j0][1] + dev[j0 + 1][1],
        )
        lifts1 = [q for q in range(lo + 1, hi) if (q - i1) % n == 0]
        lifts2 = [q for q in range(lo + 1, hi) if (q - i2) % n == 0]
        for q1 in lifts1:
            if abs(q1 - j0) > n:
                continue
            leg1 = _dev_leg(dev, j0, x, dev[q1], lo, hi - 1)
            if leg1 is None:
                continue
            for q2 in lifts2:
                if abs(q2 - j0) > n:
                    continue
                leg2 = _dev_leg(dev, j0, x, dev[q2], lo, hi - 1)
                if leg2 is None:
                    continue
                d1, d2 = dev[q1], dev[q2]
                d3 = (-(d1[0] + d2[0]), -(d1[1] + d2[1]))
                base = list(leg1[0]) + list(leg2[0])
                if d3 == (0, 0):
                    _record_output(results, aff, dev, j0, (0, 0), base, n)
                    continue
                walk = _output_walk(dev, j0, x, d3, lo, hi - 1)
                if walk is None:
                    continue
                for out_chart, out_dir_neg, extra in walk:
                    _record_output(
                        results, aff, dev, out_chart, out_dir_neg, base + extra, n,
                    )
    return sorted(results.values(), key=lambda r: (r[0], sorted(r[1].items())))


def _output_walk(dev, j0, x, d3, lo, hi):
    """Positions for the evaluation end of the output leg: one variant per chart
    prefix where the backward direction stays in the chart cone."""
    from .lattice import solve_rational

    def coords_in(a, v):
        va, vb = dev[a], dev[a + 1]
        return solve_rational([(va[0], vb[0]), (va[1], vb[1])], v)

    out = []
    a = j0
    pos = (Fraction(x[0]), Fraction(x[1]))
    extra: list[tuple[int, int]] = []
    neg = (-d3[0], -d3[1])
    for _ in range(len(dev)):
        c_neg = coords_in(a, neg)
        if c_neg is not None and c_neg[0] >= 0 and c_neg[1] >= 0:
            out.append((a, (c_neg[0], c_neg[1]), list(extra)))
        c = coords_in(a, pos)
        dvec = coords_in(a, d3)
        if c is None or dvec is None:
            break
        if dvec[0] >= 0 and dvec[1] >= 0:
            break
        t_cw = (-c[1] / dvec[1]) if dvec[1] < 0 else None
        t_ccw = (-c[0] / dvec[0]) if dvec[0] < 0 else None
        if t_cw is not None and (t_ccw is None or t_cw < t_ccw):
            t, ray, new_a = t_cw, a, a - 1
        elif t_ccw is not None and (t_cw is None or t_ccw < t_cw):
            t, ray, new_a = t_ccw, a + 1, a + 1
        else:
            break
        if new_a <= lo or new_a + 1 > hi:
            break
        npos = (pos[0] + t * Fraction(d3[0]), pos[1] + t * Fraction(d3[1]))
        rv = dev[ray]
        det = Fraction(d3[0]) * rv[1] - Fraction(d3[1]) * rv[0]
        s = solve_rational([(rv[0],), (rv[1],)], npos)
        if det == 0 or s is None or s[0] <= 0 or abs(det).denominator != 1:
            break
        extra.append((ray, int(abs(det))))
        pos, a = npos, new_a
    return out


def _record_output(results, aff, dev, chart, out_coords, crossings, n):
    """Canonicalize one spine result: output as level-two point data plus class."""
    alpha, beta = Fraction(out_coords[0]), Fraction(out_coords[1])
    if alpha.denominator != 1 or beta.denominator != 1:
        return
    alpha, beta = int(alpha), int(beta)
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
