"""Disk triangulations and lattice points of the cone over them.

The disk has boundary vertices 1..n in cyclic order and one interior vertex 0.
Triangulations are the fan triangulation (spokes from 0 to every boundary
vertex) modified by flips at a set of pairwise non-adjacent boundary indices;
a flip at i trades the spoke 0-v_i for the opposite diagonal of its
quadrilateral.  Multi-edges are legal (the n = 4 double flip produces a bigon
around the center), so edges carry explicit ids rather than vertex pairs.

The cone over the triangulated disk is a complex of unimodular 3-dimensional
simplicial cones glued along 2-dimensional faces; its integer points are
represented per cell and canonicalized to the lexicographically smallest
incident cell.  Gluing across a flip follows the square relation
v_{i-1} + v_{i+1} = v_i + v_0, so flipped charts convert exactly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import ValidationError

CellId = tuple[str, int]
EdgeId = tuple[str, int]


@dataclass(frozen=True)
class DiskTriangulation:
    n: int
    flips: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one boundary vertex")
        for i in self.flips:
            if not 1 <= i <= self.n:
                raise ValidationError(f"flip index {i} out of range")
        if self.flips and self.n < 3:
            raise ValidationError("flips need at least three boundary vertices")
        for i in self.flips:
            j = i % self.n + 1
            if j in self.flips and j != i:
                raise ValidationError(f"flips at adjacent indices {i}, {j}")

    def _next(self, i: int) -> int:
        return i % self.n + 1

    def _prev(self, i: int) -> int:
        return (i - 2) % self.n + 1

    def cells(self) -> list[tuple[CellId, tuple[int, int, int], tuple[EdgeId, EdgeId, EdgeId]]]:
        """(cell id, vertex labels, edge ids); edge k joins the vertices other than slot k."""
        out = []
        destroyed = set()
        for i in self.flips:
            destroyed.add(self._prev(i))
            destroyed.add(i)
        for i in sorted(self.flips):
            p, nx = self._prev(i), self._next(i)
            # A_i = (0, v_{i-1}, v_{i+1}); side opposite 0 is the new diagonal
            out.append((("A", i), (0, p, nx), (("diag", i), ("spoke", nx), ("spoke", p))))
            # B_i = (v_{i-1}, v_i, v_{i+1})
            out.append((("B", i), (p, i, nx), (("bd", i), ("diag", i), ("bd", p))))
        for j in range(1, self.n + 1):
            if j not in destroyed:
                nx = self._next(j)
                out.append((("T", j), (0, j, nx), (("bd", j), ("spoke", nx), ("spoke", j))))
        return sorted(out)

    def edge_multiset(self) -> Counter:
        """Edges as (sorted vertex pair) with multiplicity; the flip bookkeeping surface."""
        c: Counter = Counter()
        seen_ids = set()
        for _, labels, eids in self.cells():
            for k, eid in enumerate(eids):
                if eid in seen_ids:
                    continue
                seen_ids.add(eid)
                a, b = (labels[t] for t in range(3) if t != k)
                c[tuple(sorted((a, b)))] += 1
        return c

    def triangle_multiset(self) -> Counter:
        return Counter(tuple(sorted(labels)) for _, labels, _ in self.cells())

    def canonical_key(self):
        return (
            self.n,
            tuple(sorted(self.edge_multiset().items())),
            tuple(sorted(self.triangle_multiset().items())),
        )

    def flip(self, i: int) -> "DiskTriangulation":
        if i in self.flips:
            raise ValidationError(f"index {i} already flipped")
        return DiskTriangulation(self.n, self.flips | {i})


def fan_triangulation(n: int) -> DiskTriangulation:
    return DiskTriangulation(n, frozenset())


def triangulation_with_flips(n: int, flips) -> DiskTriangulation:
    return DiskTriangulation(n, frozenset(flips))


@dataclass(frozen=True)
class GammaPoint:
    """Integer point of the cone complex, canonicalized per triangulation chart."""

    n: int
    cell: CellId
    coords: tuple[int, int, int]

    @property
    def level(self) -> int:
        return sum(self.coords)

    def is_origin(self) -> bool:
        return self.level == 0


class GammaComplex:
    """Cone complex over a triangulated disk with canonical point bookkeeping."""

    def __init__(self, tri: DiskTriangulation):
        self.tri = tri
        self.n = tri.n
        self._cells = tri.cells()
        self.cell_labels = {cid: labels for cid, labels, _ in self._cells}
        self.cell_edges = {cid: eids for cid, _, eids in self._cells}
        # edge id -> list of (cell, opposite slot); for n = 1 the two spoke
        # sides of the unique cell share one id, which is the self-gluing
        self.edge_sides: dict[EdgeId, list[tuple[CellId, int]]] = {}
        for cid, _, eids in self._cells:
            for k, eid in enumerate(eids):
                self.edge_sides.setdefault(eid, []).append((cid, k))
        self._levels: dict[int, tuple[GammaPoint, ...]] = {}  # level -> its points, enumerated once

    def cell_ids(self) -> list[CellId]:
        return [cid for cid, _, _ in self._cells]

    def _edge_reps(self, cid: CellId, coords) -> list[tuple[CellId, tuple[int, int, int]]]:
        """All representatives of a point lying on a side (exactly one zero slot)."""
        zero = coords.index(0)
        eid = self.cell_edges[cid][zero]
        labels = self.cell_labels[cid]
        out = []
        for ocid, oslot in self.edge_sides[eid]:
            olabels = self.cell_labels[ocid]
            slots = [t for t in range(3) if t != oslot]
            new = [0, 0, 0]
            used = set()
            ok = True
            for t in range(3):
                if t == zero or coords[t] == 0:
                    continue
                cands = [s for s in slots if olabels[s] == labels[t] and s not in used]
                if not cands:
                    ok = False
                    break
                new[cands[0]] = coords[t]
                used.add(cands[0])
            if ok:
                out.append((ocid, tuple(new)))
        return out

    def _ray_reps(self, label: int, value: int) -> list[tuple[CellId, tuple[int, int, int]]]:
        out = []
        for cid, labels, _ in self._cells:
            for slot in range(3):
                if labels[slot] == label:
                    coords = [0, 0, 0]
                    coords[slot] = value
                    out.append((cid, tuple(coords)))
        return out

    def representatives(self, cid: CellId, coords) -> list[tuple[CellId, tuple[int, int, int]]]:
        """The q-fiber of the point: every (cell, slot coords) mapping onto it."""
        coords = tuple(coords)
        positive = [t for t in range(3) if coords[t] > 0]
        labels = self.cell_labels[cid]
        if len(positive) == 3:
            return [(cid, coords)]
        if len(positive) == 2:
            reps = self._edge_reps(cid, coords)
            return sorted(set(reps))
        if len(positive) == 1:
            slot = positive[0]
            return sorted(set(self._ray_reps(labels[slot], coords[slot])))
        return sorted((c, (0, 0, 0)) for c in self.cell_ids())

    def canonical(self, cid: CellId, coords) -> GammaPoint:
        if any(x < 0 for x in coords):
            raise ValidationError("cone coordinates must be nonnegative")
        reps = self.representatives(cid, coords)
        best = min(reps)
        return GammaPoint(self.n, best[0], best[1])

    def point(self, cid: CellId, coords) -> GammaPoint:
        if cid not in self.cell_labels:
            raise ValidationError(f"no cell {cid} in this triangulation")
        return self.canonical(cid, tuple(int(x) for x in coords))

    def same_point(self, p: GammaPoint, q: GammaPoint) -> bool:
        return self.canonical(p.cell, p.coords) == self.canonical(q.cell, q.coords)

    def points_at_level(self, m: int) -> tuple[GammaPoint, ...]:
        if m < 0:
            raise ValidationError("level must be nonnegative")
        if m not in self._levels:
            seen = {}
            for cid in self.cell_ids():
                for a in range(m + 1):
                    for b in range(m + 1 - a):
                        p = self.canonical(cid, (a, b, m - a - b))
                        seen[(p.cell, p.coords)] = p
            self._levels[m] = tuple(sorted(seen.values(), key=lambda p: (p.cell, p.coords)))
        return self._levels[m]

    def vertex_point(self, label: int) -> GammaPoint:
        reps = self._ray_reps(label, 1)
        if not reps:
            raise ValidationError(f"no vertex labeled {label}")
        best = min(reps)
        return GammaPoint(self.n, best[0], best[1])

    def center_point(self) -> GammaPoint:
        return self.vertex_point(0)

    def is_boundary(self, p: GammaPoint) -> bool:
        """True when the point lies in the cone over the boundary circle."""
        if p.is_origin():
            return True
        for cid, coords in self.representatives(p.cell, p.coords):
            labels = self.cell_labels[cid]
            eids = self.cell_edges[cid]
            for k in range(3):
                if eids[k][0] == "bd" and coords[k] == 0:
                    return True
            # a single positive slot on a boundary vertex is also boundary
            pos = [t for t in range(3) if coords[t] > 0]
            if len(pos) == 1 and labels[pos[0]] != 0:
                return True
        return False

    def on_center_ray(self, p: GammaPoint) -> bool:
        if p.is_origin():
            return True
        pos = [t for t in range(3) if p.coords[t] > 0]
        return len(pos) == 1 and self.cell_labels[p.cell][pos[0]] == 0


@lru_cache(maxsize=None)
def _complex_cache(n: int, flips: frozenset) -> GammaComplex:
    return GammaComplex(DiskTriangulation(n, flips))


def gamma_complex(tri: DiskTriangulation) -> GammaComplex:
    return _complex_cache(tri.n, tri.flips)


@lru_cache(maxsize=None)
def fan_chart_data(p: GammaPoint) -> tuple[int, Mapping[int, int]]:
    """(center coordinate, boundary coordinates) of a fan-triangulation point;
    read once per point and process, the coordinates as a read-only map."""
    if p.cell[0] != "T":
        raise ValidationError("fan chart data needs a fan-triangulation point")
    comp = gamma_complex(fan_triangulation(p.n))
    labels = comp.cell_labels[p.cell]
    a = 0
    b: dict[int, int] = {}
    for slot in range(3):
        if p.coords[slot] == 0:
            continue
        if labels[slot] == 0:
            a += p.coords[slot]
        else:
            b[labels[slot]] = b.get(labels[slot], 0) + p.coords[slot]
    return a, MappingProxyType(b)


def fan_point(n: int, a: int, b: dict[int, int]) -> GammaPoint:
    """Point of the fan complex from center coordinate a and boundary coordinates b."""
    comp = gamma_complex(fan_triangulation(n))
    support = sorted(i for i, v in b.items() if v > 0)
    if not support:
        return comp.canonical(("T", 1), (a, 0, 0))
    if len(support) > 2:
        raise ValidationError("boundary support must lie in a single cell")
    if len(support) == 1:
        i = support[0]
        return comp.canonical(("T", i), (a, b[i], 0))
    i, j = support
    if j == i % n + 1:
        return comp.canonical(("T", i), (a, b[i], b[j]))
    if i == j % n + 1:
        return comp.canonical(("T", j), (a, b[j], b[i]))
    raise ValidationError("boundary support must be cyclically consecutive")


def convert_point(p: GammaPoint, target: DiskTriangulation) -> GammaPoint:
    """Rewrite a fan-complex point in the chart of a flipped triangulation.

    Uses the square gluing per flip: a >= b_i lands in the center cell A_i,
    otherwise in the outer cell B_i.
    """
    comp = gamma_complex(target)
    if not target.flips:
        return comp.canonical(p.cell, p.coords)
    a, b = fan_chart_data(p)
    support = sorted(i for i, v in b.items() if v > 0)
    hit = [i for i in sorted(target.flips) if i in support]
    if hit:
        # support is consecutive and flips are non-adjacent, so at most one hit
        i = hit[0]
        p_, nx = target._prev(i), target._next(i)
        bi, bp, bn = b.get(i, 0), b.get(p_, 0), b.get(nx, 0)
        if a >= bi:
            return comp.canonical(("A", i), (a - bi, bp + bi, bi + bn))
        return comp.canonical(("B", i), (bp + a, bi - a, bn + a))
    # support avoids every flipped vertex: some target cell holds it verbatim
    level = a + sum(b.values())
    for cid in comp.cell_ids():
        labels = comp.cell_labels[cid]
        if 0 not in labels or any(s not in labels for s in support):
            continue
        coords = [a if lbl == 0 else b.get(lbl, 0) for lbl in labels]
        if sum(coords) == level:
            return comp.canonical(cid, tuple(coords))
    raise ValidationError("point support does not fit the target triangulation")
