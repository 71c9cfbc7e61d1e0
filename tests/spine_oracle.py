"""Earlier spine walkers, kept as test oracles for the integer chart walk.

trace_leg walks a leg in local chart coordinates with Fraction positions,
through _cross_cw and _cross_ccw.  _dev_leg and _output_walk walk in developed
coordinates, solving two 2x2 systems per step and a third for the puncture
test.  two_leg_outputs enumerates the two-leg spines through them.

These are the earlier code verbatim but for one fix: the sort key of
two_leg_outputs.  The earlier key compared the (center, b) pairs of two
outputs, so outputs with the same center and different b dicts raised
TypeError; the key here compares sorted item lists instead.
"""

from fractions import Fraction

from secfan.errors import ValidationError
from secfan.spines import AffineStructure, develop_rays

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


def _dev_leg(dev, j0: int, x, d, lo: int, hi: int):
    """Crossings of the straight ray x + t d in the development, walking charts.

    Returns None when the route is invalid (not transverse or out of range).
    """
    from secfan.lattice import solve_rational

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
    return sorted(
        results.values(),
        key=lambda r: (r[0][0], sorted(r[0][1].items()), sorted(r[1].items())),
    )


def _output_walk(dev, j0, x, d3, lo, hi):
    """Positions for the evaluation end of the output leg: one variant per chart
    prefix where the backward direction stays in the chart cone."""
    from secfan.lattice import solve_rational

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
