"""The earlier cocycle battery, kept as a test oracle for the coboundary one.

cocycle_battery_by_cycles checks loop additivity by walking each chord's
fundamental cycle up to the root of a breadth-first spanning tree, and calls
theta_cocycle afresh in each of its four passes.  It returns the same report
as secfan.secondary.cocycle_battery.  Both batteries evaluate crossings
through secfan.secondary._crossing_values, which theta_cocycle calls and
which is looked up on the module at call time, so a test that patches it
there patches both batteries.

chamber_adjacency builds a fresh wall map of the chambers alone; the library
reads the same pairs off the Mori fan's proven wall map.
"""

from secfan import secondary
from secfan.cones import Fan, adjacency_pairs
from secfan.delpezzo import BoundaryCycle, PicLattice
from secfan.disk import fan_triangulation, gamma_complex
from secfan.errors import InternalInvariantError
from secfan.lattice import vec_scale
from secfan.secondary import Chamber, _single_flop_index


def chamber_adjacency(chambers: list[Chamber]) -> dict:
    """Adjacent chamber pairs mapped to the rays of their shared wall."""
    return adjacency_pairs(Fan(chambers[0].cone.ambient_rank, tuple(c.cone for c in chambers)))


def cocycle_battery_by_cycles(lat: PicLattice, boundary: BoundaryCycle,
                              chambers: list[Chamber]) -> dict:
    """Antisymmetry, loop additivity, boundary vanishing and nef nonnegativity.

    Loop additivity is checked on a fundamental cycle basis of the chamber
    adjacency graph, which is equivalent to additivity on every closed loop.
    """
    comp = gamma_complex(fan_triangulation(boundary.n))
    points = [p for m in range(3) for p in comp.points_at_level(m)]
    adj = chamber_adjacency(chambers)
    edges = {}
    for a, b in adj:
        idx = _single_flop_index(chambers[a], chambers[b])
        if idx is None:
            raise InternalInvariantError("adjacent chambers differ by more than one flop")
        edges[(a, b)] = idx
    report = {"pairs": len(adj), "points": len(points), "loops": 0, "failures": []}

    def cval(p, a, b):
        return secondary.theta_cocycle(p, chambers[a], chambers[b], boundary)

    zero = tuple(0 for _ in range(lat.rank))
    for (a, b) in adj:
        for p in points:
            cab, cba = cval(p, a, b), cval(p, b, a)
            if tuple(cab) != vec_scale(-1, cba):
                report["failures"].append(("antisymmetry", a, b, p))
    # spanning forest + chords -> fundamental cycles
    parent = {0: None}
    order = [0]
    tree = set()
    frontier = [0]
    neighbors: dict[int, list[int]] = {}
    for a, b in adj:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(neighbors.get(u, [])):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
                    tree.add((min(u, w), max(u, w)))
                    nxt.append(w)
        frontier = nxt

    def path_to_root(u):
        out = []
        while parent[u] is not None:
            out.append((parent[u], u))
            u = parent[u]
        return out

    for a, b in adj:
        if (a, b) in tree:
            continue
        report["loops"] += 1
        # directed cycle: chord a->b, then b up to the root, then root down to a
        loop = (
            [(a, b)]
            + [(v, u) for (u, v) in path_to_root(b)]
            + list(reversed(path_to_root(a)))
        )
        for p in points:
            total = zero
            for (u, w) in loop:
                total = tuple(x + y for x, y in zip(total, cval(p, u, w)))
            if any(total):
                report["failures"].append(("loop", a, b, p))
                break
    # boundary and center vanishing
    for p in points:
        if comp.is_boundary(p) or comp.on_center_ray(p):
            for a, b in adj:
                if any(cval(p, a, b)):
                    report["failures"].append(("vanishing", a, b, p))
    # pairing with the non-contracting chamber's rays is nonnegative,
    # and the value kills every class on the shared face
    for (a, b), wall in adj.items():
        i = edges[(a, b)]
        if i == 0:
            continue
        lo, hi = (a, b) if i in chambers[b].boundary_exc else (b, a)
        for p in points:
            c = cval(p, lo, hi)
            if any(lat.dot(c, r) < 0 for r in chambers[lo].cone.rays):
                report["failures"].append(("nef-pairing", lo, hi, p))
                break
            if any(lat.dot(c, r) != 0 for r in wall):
                report["failures"].append(("shared-face", lo, hi, p))
                break
    report["ok"] = not report["failures"]
    return report
