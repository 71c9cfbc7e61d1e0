"""Earlier GKZ kernels, kept as test oracles for the integer and bitset ones.

regular_subdivision_by_fractions evaluates every point's lexicographic height
key against the affine interpolation on each triangle in Fraction arithmetic.
triangulations_of_subset_by_edge_lists grows every non-crossing edge list one
edge at a time and tests extendability and global maximality by scanning the
set of crossing pairs.  all_triangulations_by_edge_lists runs it over every
set of used points, as secfan.secondary.all_triangulations does.

These are the earlier code verbatim but for one fix: the hull area that
_faces_of_edge_set compares against.  The earlier code summed a fan of
triangles over the hull corners in index order, which is not the cyclic
order in general: for the unit square listed as (0,0), (1,1), (1,0), (0,1)
that sum is 0, so no triangulation was found.  _hull_area2 here sums the
shoelace terms of the hull edges instead, found as the corner pairs with
every point on their left or on them.
"""

import itertools
from fractions import Fraction

from secfan.errors import ValidationError
from secfan.secondary import (
    _hull_vertices,
    _on_segment,
    _orient,
    _point_in_triangle,
    _segments_cross,
    _strictly_inside,
    _triangle_area2,
)


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
