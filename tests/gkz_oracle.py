"""Earlier GKZ kernels and the flip-graph walk, kept as test oracles.

regular_subdivision_by_fractions evaluates every point's lexicographic height
key against the affine interpolation on each triangle in Fraction arithmetic.
triangulations_of_subset_by_edge_lists grows every non-crossing edge list one
edge at a time and tests extendability and global maximality by scanning the
set of crossing pairs.  all_triangulations_by_edge_lists runs it over every
set of used points, as secfan.secondary.all_triangulations does.
triangulations_of_subset_by_bitsets lists the maximal independent sets of
the crossing graph with one bitmask per edge; all_triangulations_by_bitsets
is secfan.secondary.all_triangulations with it in place of the placing
kernel.  The segment helpers _on_segment, _segments_cross and
_strictly_inside serve these kernels alone.

These are the earlier code verbatim but for a rename and one fix.  The
bitset kernel's _faces_of_edge_set is _faces_of_bitset_edge_set here, beside
the edge-list kernel's own.  The fix is to the hull area that the edge-list
kernel's _faces_of_edge_set compares against.  The earlier code summed a fan of
triangles over the hull corners in index order, which is not the cyclic
order in general: for the unit square listed as (0,0), (1,1), (1,0), (0,1)
that sum is 0, so no triangulation was found.  _hull_area2 here sums the
shoelace terms of the hull edges instead, found as the corner pairs with
every point on their left or on them.

flip_graph_triangulations and _cells_to_triangulation are the flip-graph
walk that secfan.secondary.gkz_secondary_fan ran after its degree
certificate, verbatim but for the kernel: regular_subdivision_by_fractions
in place of the integer lower-hull kernel deleted with the walk.  It crosses
each wall of the secondary cones once, lifting the points to a point of the
wall with the far side's direction as tie-break, and asserts that the lower
hull is the triangulation beyond the wall: a check of secondary_cone against
the lifting construction.

lineal_secondary_cone is secfan.secondary.secondary_cone before it was built
in the quotient by the affine functions, verbatim but for the name: the cone
in R^s, with the affine functions as its lineality.  Its image under the
quotient map is the library's cone, field for field.
"""

import itertools
from fractions import Fraction
from unittest import mock

from secfan import secondary
from secfan.cones import RationalCone, cone_from_inequalities
from secfan.errors import InternalInvariantError, ValidationError
from secfan.lattice import vec_dot
from secfan.secondary import _hull_vertices, _orient, _point_in_triangle, _triangle_area2


def _on_segment(p, a, b) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _segments_cross(a, b, c, d) -> bool:
    """Segments ab and cd intersect at a point that is not a common endpoint."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True
    if len(shared) == 1:
        s = next(iter(shared))
        p = a if b == s else b
        q = c if d == s else d
        if _orient(s, p, q) == 0:
            # colinear from the shared endpoint: overlap iff same direction
            return (p[0] - s[0]) * (q[0] - s[0]) + (p[1] - s[1]) * (q[1] - s[1]) > 0
        return False
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 == 0 and o2 == 0:
        # colinear segments: cross iff they overlap in more than a point
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        return max(lo1, lo2) < min(hi1, hi2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if p not in (u, v) and _on_segment(p, u, v):
            return True
    return False


def regular_subdivision_by_fractions(points, heights, tie_break=None):
    """Cells of the lower-hull subdivision (lexicographic tie-break heights optional)."""
    points = [tuple(p) for p in points]
    s = len(points)
    hts = [
        (Fraction(heights[i]), Fraction(tie_break[i]) if tie_break else Fraction(0))
        for i in range(s)
    ]
    cells = []
    for tri in itertools.combinations(range(s), 3):
        a, b, c = tri
        det = _orient(points[a], points[b], points[c])
        if det == 0:
            continue
        # affine pair (ell0, ell1) interpolating the two height layers on tri
        def ell(pt, layer):
            la = _orient(pt, points[b], points[c])
            lb = _orient(points[a], pt, points[c])
            lc = _orient(points[a], points[b], pt)
            total = la * hts[a][layer] + lb * hts[b][layer] + lc * hts[c][layer]
            return Fraction(total, det)

        lower = True
        tight = []
        for d in range(s):
            v0, v1 = ell(points[d], 0), ell(points[d], 1)
            key = (hts[d][0] - v0, hts[d][1] - v1)
            if key < (0, 0):
                lower = False
                break
            if key == (0, 0):
                tight.append(d)
        if lower:
            cells.append(tuple(sorted(tight)))
    out = sorted(set(cells))
    return [c for c in out if not any(set(c) < set(o) for o in out)]


def lineal_secondary_cone(points, triangulation) -> RationalCone:
    """Closed cone of height functions inducing the triangulation (with lineality).

    Lemma: w induces it iff the lift folds up strictly across each interior
    edge (the far vertex of one triangle lies above the lift on the other) and
    each unused point lies strictly above the lift on a triangle holding it: a
    locally convex piecewise-affine function on a convex domain is convex.  No
    row is zero (|det| at its target), so the triangulation is regular iff this
    cone is full-dimensional (De Loera-Rambau-Santos, *Triangulations*, 2010).
    """
    points = [tuple(p) for p in points]
    s = len(points)
    tris = sorted(triangulation)
    used = sorted({v for t in tris for v in t})
    ineqs = []

    def lift_functional(tri, target):
        """Row expressing w(target) - ell_tri(target) >= 0, cleared to integers."""
        a, b, c = tri
        pa, pb, pc = points[a], points[b], points[c]
        det = _orient(pa, pb, pc)
        # barycentric coordinates of target w.r.t. tri, times det
        pt = points[target]
        la = _orient(pt, pb, pc)
        lb = _orient(pa, pt, pc)
        lc = _orient(pa, pb, pt)
        row = [0] * s
        sign = 1 if det > 0 else -1
        row[target] = abs(det)
        row[a] -= sign * la
        row[b] -= sign * lb
        row[c] -= sign * lc
        return tuple(row)

    # folding across interior edges
    edge_owner: dict[tuple, list] = {}
    for t in tris:
        for e in itertools.combinations(t, 2):
            edge_owner.setdefault(tuple(sorted(e)), []).append(t)
    for e, owners in edge_owner.items():
        if len(owners) == 2:
            t1, t2 = owners
            opp = next(v for v in t2 if v not in t1)
            ineqs.append(lift_functional(t1, opp))
    # unused points sit above the lift of their containing cell
    for d in range(s):
        if d in used:
            continue
        host = next(
            t for t in tris
            if _point_in_triangle(points[d], points[t[0]], points[t[1]], points[t[2]])
        )
        ineqs.append(lift_functional(host, d))
    return cone_from_inequalities(ineqs, ambient_rank=s)


def flip_graph_triangulations(points, regular, raw_cones) -> set:
    """Reachable set by crossing secondary-cone walls with perturbed lifts.

    The fan is complete, so every facet g of a cone is a wall shared with the
    cone on its far side, which has the facet -g; each wall is crossed once,
    from the side reached first.
    """
    if not regular:
        return set()
    index = {t: i for i, t in enumerate(regular)}
    start = regular[0]
    seen = {start}
    frontier = [start]
    crossed: set[tuple] = set()  # (triangulation, facet) walls already crossed
    while frontier:
        t = frontier.pop()
        rc = raw_cones[index[t]]
        for g in rc.facets:
            if (t, g) in crossed:
                continue
            wall_pt = [0] * len(points)
            for r in rc.rays:
                if vec_dot(g, r) == 0:
                    wall_pt = [x + y for x, y in zip(wall_pt, r)]
            # lineality directions (affine heights) do not affect the subdivision,
            # so a zero wall point is legitimate: the tie-break does the crossing
            # step across the wall: heights on the wall, tie-break by -g
            back = tuple(-x for x in g)
            cells = regular_subdivision_by_fractions(points, wall_pt, tie_break=back)
            tri = _cells_to_triangulation(points, cells)
            if tri not in index or back not in raw_cones[index[tri]].facets:
                raise InternalInvariantError(
                    f"crossing facet {list(g)} of triangulation {sorted(t)} lands on "
                    f"no regular triangulation whose cone has the facet {list(back)}"
                )
            crossed.add((tri, back))
            if tri not in seen:
                seen.add(tri)
                frontier.append(tri)
    return seen


def _cells_to_triangulation(points, cells):
    tris = []
    for c in cells:
        if len(c) != 3:
            return None
        if _triangle_area2(points[c[0]], points[c[1]], points[c[2]]) == 0:
            return None
        tris.append(tuple(sorted(c)))
    return frozenset(tris)


def triangulations_of_subset_by_edge_lists(points, used: tuple[int, ...]) -> list[frozenset]:
    """All triangulations with vertex set exactly `used`, as sets of triangles."""
    pts = points
    candidate_edges = []
    for a, b in itertools.combinations(used, 2):
        if any(
            c != a and c != b and _on_segment(pts[c], pts[a], pts[b]) and pts[c] not in (pts[a], pts[b])
            for c in used
        ):
            continue  # an edge through a used point is not allowed
        candidate_edges.append((a, b))
    crossing = {
        (e, f)
        for e, f in itertools.combinations(candidate_edges, 2)
        if _segments_cross(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]])
    }

    def crosses(e, f):
        return (e, f) in crossing or (f, e) in crossing

    results = []
    m = len(candidate_edges)

    def grow(chosen, start):
        extendable = False
        for t in range(start, m):
            e = candidate_edges[t]
            if all(not crosses(e, c) for c in chosen):
                extendable = True
                grow(chosen + [e], t + 1)
        if not extendable:
            # maximal among edges with index >= start; confirm global maximality
            if all(
                any(crosses(e, c) for c in chosen)
                for e in candidate_edges
                if e not in chosen
            ):
                results.append(frozenset(chosen))

    grow([], 0)
    out = []
    for edge_set in results:
        tris = _faces_of_edge_set(pts, used, edge_set)
        if tris is not None:
            out.append(frozenset(tris))
    return out


def _faces_of_edge_set(points, used, edge_set) -> list[tuple[int, int, int]] | None:
    """Triangles of a maximal non-crossing edge set; None when degenerate."""
    edges = set(edge_set)
    tris = []
    for tri in itertools.combinations(sorted(used), 3):
        a, b, c = tri
        if _triangle_area2(points[a], points[b], points[c]) == 0:
            continue
        if not all(tuple(sorted(e)) in edges for e in ((a, b), (b, c), (a, c))):
            continue
        if any(
            d not in tri and _point_in_triangle(points[d], points[a], points[b], points[c])
            and _triangle_area2(points[a], points[b], points[c]) > 0
            and _strictly_inside(points[d], points[a], points[b], points[c])
            for d in used
        ):
            continue
        tris.append(tri)
    # the triangles must tile the hull: compare doubled areas
    hull_area = _hull_area2(points)
    total = sum(_triangle_area2(points[a], points[b], points[c]) for a, b, c in tris)
    if total != hull_area:
        return None
    return tris


def _hull_area2(points) -> int:
    """Doubled area of the convex hull: the shoelace sum over its counterclockwise edges."""
    corners = _hull_vertices(points)
    return sum(
        points[i][0] * points[j][1] - points[j][0] * points[i][1]
        for i in corners
        for j in corners
        if i != j and all(_orient(points[i], points[j], p) >= 0 for p in points)
    )


def all_triangulations_by_edge_lists(points) -> list[frozenset]:
    """Every triangulation of the configuration (unused points allowed)."""
    points = [tuple(p) for p in points]
    if len(set(points)) != len(points):
        raise ValidationError("configuration points must be distinct")
    if len(points) < 3 or all(_orient(points[0], points[1], p) == 0 for p in points[2:]):
        raise ValidationError("configuration does not affinely span the plane")
    if len(points) > 12:
        raise ValidationError("configuration capped at 12 points")
    corners = _hull_vertices(points)
    optional = [i for i in range(len(points)) if i not in corners]
    seen = set()
    out = []
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            used = tuple(sorted(set(corners) | set(extra)))
            for tri in triangulations_of_subset_by_edge_lists(points, used):
                if tri not in seen:
                    seen.add(tri)
                    out.append(tri)
    return sorted(out, key=sorted)


def triangulations_of_subset_by_bitsets(points, used: tuple[int, ...], hull_area: int) -> list[frozenset]:
    """All triangulations with vertex set exactly `used`, as sets of triangles.

    A triangulation of a planar point set is a maximal set of pairwise
    non-crossing edges (De Loera-Rambau-Santos, *Triangulations*, ch. 2), so
    this lists the maximal independent sets of the crossing graph on the
    candidate edges: the segments between used points that pass through no
    other used point.  Edge t carries the bitmask cross[t] of the edges it
    crosses.  A partial set is a pair of bitmasks (chosen, blocked), blocked
    being the union of cross over chosen: edge t extends it when bit t of
    blocked is clear, and it is maximal when chosen | blocked covers every
    edge.  The triangles of a maximal set (edge triples with no used point
    inside) must tile the hull, of doubled area `hull_area`; a set that does
    not is a broken invariant, not a skipped candidate.
    """
    pts = points
    edges = [
        (a, b)
        for a, b in itertools.combinations(used, 2)
        if not any(c != a and c != b and _on_segment(pts[c], pts[a], pts[b]) for c in used)
    ]
    m = len(edges)
    cross = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        (a, b), (c, d) = edges[i], edges[j]
        if _segments_cross(pts[a], pts[b], pts[c], pts[d]):
            cross[i] |= 1 << j
            cross[j] |= 1 << i
    full = (1 << m) - 1
    results = []

    def grow(chosen, blocked, start):
        free = (~blocked >> start << start) & full
        if not free:
            # maximal among edges with index >= start; confirm global maximality
            if chosen | blocked == full:
                results.append(chosen)
            return
        while free:
            bit = free & -free
            t = bit.bit_length() - 1
            grow(chosen | bit, blocked | cross[t], t + 1)
            free ^= bit

    grow(0, 0, 0)
    out = []
    for chosen in results:
        edge_set = {edges[t] for t in range(m) if chosen >> t & 1}
        tris = _faces_of_bitset_edge_set(pts, used, edge_set)
        # a maximal non-crossing edge set is a triangulation: its triangles tile the hull
        if sum(_triangle_area2(pts[a], pts[b], pts[c]) for a, b, c in tris) != hull_area:
            raise InternalInvariantError(
                f"maximal non-crossing edge set {sorted(edge_set)} does not tile the hull"
            )
        out.append(frozenset(tris))
    return out


def _faces_of_bitset_edge_set(points, used, edges) -> list[tuple[int, int, int]]:
    """Triangles of a non-crossing edge set with no used point inside them."""
    # no three collinear used points are pairwise joined: the outer segment holds the middle one
    tris = []
    for tri in itertools.combinations(sorted(used), 3):
        a, b, c = tri
        if not ((a, b) in edges and (b, c) in edges and (a, c) in edges):
            continue
        if any(d not in tri and _strictly_inside(points[d], points[a], points[b], points[c])
               for d in used):
            continue
        tris.append(tri)
    return tris


def _strictly_inside(p, a, b, c) -> bool:
    s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if _orient(a, b, c) < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 > 0 and s2 > 0 and s3 > 0


def all_triangulations_by_bitsets(points) -> list[frozenset]:
    """secfan.secondary.all_triangulations, run with the bitset kernel."""
    with mock.patch.object(secondary, "_triangulations_of_subset",
                           triangulations_of_subset_by_bitsets):
        return secondary.all_triangulations(points)
