"""Two earlier cocycle batteries, kept as test oracles for the library's.

cocycle_battery_by_cycles checks loop additivity by walking each chord's
fundamental cycle up to the root of a breadth-first spanning tree, and calls
theta_cocycle afresh in each of its four passes.  cocycle_battery_per_pair is
the coboundary battery as it was before its passes read each shared table or
distinct value once: every pass runs once per (adjacent pair, point).  Both
return the same report as secfan.secondary.cocycle_battery.  The cycle oracle
evaluates crossings through secfan.secondary._crossing_values, which
theta_cocycle calls; the per-pair oracle reads the tables of
secfan.secondary._crossing_cochain, as the library does.  Both are looked up
on the module at call time, so a test that patches one there patches the
batteries that read it.

chamber_adjacency builds a fresh wall map of the chambers alone; the library
reads the same pairs off the Mori fan's proven wall map.
"""

from secfan import secondary
from secfan.cones import Fan, adjacency_pairs
from secfan.delpezzo import BoundaryCycle, PicLattice
from secfan.disk import fan_triangulation, gamma_complex
from secfan.errors import InternalInvariantError
from secfan.lattice import vec_dot, vec_scale, vec_sub
from secfan.secondary import Chamber, SecondaryFan, _bfs_tree, _chamber_adjacency, _single_flop_index


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


def cocycle_battery_per_pair(sec: SecondaryFan) -> dict:
    """The four passes of cocycle_battery, each run once per (adjacent pair, point).

    Loop additivity is the same coboundary test: integrate the crossings
    along the breadth-first tree, then every chord (a, b) must have
    c_p(a, b) = phi_p(a) - phi_p(b) at every point.
    """
    lat, boundary, chambers = sec.lat, sec.boundary, sec.chambers
    comp = gamma_complex(fan_triangulation(boundary.n))
    points = [p for m in range(3) for p in comp.points_at_level(m)]
    adj = _chamber_adjacency(sec)
    edges = {}
    for a, b in adj:
        idx = _single_flop_index(chambers[a], chambers[b])
        if idx is None:
            raise InternalInvariantError("adjacent chambers differ by more than one flop")
        edges[(a, b)] = idx

    fwd, back = secondary._crossing_cochain(points, edges, chambers, boundary)
    failures = []
    for (a, b) in adj:
        for p, cab, cba in zip(points, fwd[(a, b)], back[(a, b)]):
            if cab != vec_scale(-1, cba):
                failures.append(("antisymmetry", a, b, p))
    # integrate along the tree, then test every chord as a coboundary
    tree = _bfs_tree(adj)
    phi = {0: [tuple(0 for _ in range(lat.rank))] * len(points)}
    for u, w in tree:
        step = fwd[(u, w)] if u < w else back[(w, u)]
        phi[w] = [vec_sub(x, c) for x, c in zip(phi[u], step)]
    if len(phi) != len(chambers):
        raise InternalInvariantError("chamber adjacency graph is not connected")
    tree_pairs = {(min(u, w), max(u, w)) for u, w in tree}
    chords = [e for e in adj if e not in tree_pairs]
    for a, b in chords:
        for p, cab, pa, pb in zip(points, fwd[(a, b)], phi[a], phi[b]):
            if cab != vec_sub(pa, pb):
                failures.append(("loop", a, b, p))
                break
    # boundary and center vanishing
    for i, p in enumerate(points):
        if comp.is_boundary(p) or comp.on_center_ray(p):
            for a, b in adj:
                if any(fwd[(a, b)][i]):
                    failures.append(("vanishing", a, b, p))
    # pairing with the non-contracting chamber's rays is nonnegative,
    # and the value kills every class on the shared face
    gram = lat.form.gram
    for (a, b), wall in adj.items():
        i = edges[(a, b)]
        if i == 0:
            continue
        lo, hi, vals = (a, b, fwd[(a, b)]) if i in chambers[b].boundary_exc \
            else (b, a, back[(a, b)])
        lo_duals = [gram.apply(r) for r in chambers[lo].cone.rays]
        wall_duals = [gram.apply(r) for r in wall]
        for p, c in zip(points, vals):
            if any(vec_dot(c, r) < 0 for r in lo_duals):
                failures.append(("nef-pairing", lo, hi, p))
                break
            if any(vec_dot(c, r) != 0 for r in wall_duals):
                failures.append(("shared-face", lo, hi, p))
                break
    return {"pairs": len(adj), "points": len(points), "loops": len(chords),
            "failures": failures, "ok": not failures}
