"""Picard lattices of del Pezzo surfaces.

The blowup model carries the basis (H, E_1..E_k) with intersection form
diag(1, -1, ..., -1) and canonical class -3H + sum E_i; the quadric model is
kept separate with basis (f_1, f_2), hyperbolic form and canonical (-2, -2).
Class enumeration is an exhaustive bounded search: Cauchy-Schwarz bounds the H
coefficient of a solution of C.C = -1, C.K = -1 by (3d-1)^2 <= k(d^2+1), which
caps d at 7 for every k <= 8.  The search is verified post hoc by checking no
solutions sit on the bound boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import mul

from .cones import RationalCone, cone_from_inequalities, cone_from_rays, dual_description
from .errors import InternalInvariantError, ValidationError
from .lattice import BilinearForm, IntMat, IntVec

CONTRACTION_CAP = 6  # full clique enumeration refused above this blowup count

H_COEFF_BOUND = 7


@dataclass(frozen=True)
class PicLattice:
    k: int
    model_tag: str = "blowup"  # "blowup" | "quadric"

    def __post_init__(self):
        if self.model_tag == "blowup":
            if not 0 <= self.k <= 8:
                raise ValidationError("blowup count must be 0..8")
        elif self.model_tag == "quadric":
            if self.k != 2:
                raise ValidationError("quadric model has fixed rank 2")
        else:
            raise ValidationError(f"unknown model_tag {self.model_tag!r}")

    @property
    def rank(self) -> int:
        return 2 if self.model_tag == "quadric" else self.k + 1

    @property
    def degree(self) -> int:
        return 8 if self.model_tag == "quadric" else 9 - self.k

    @cached_property
    def form(self) -> BilinearForm:
        if self.model_tag == "quadric":
            return BilinearForm(IntMat.from_rows([(0, 1), (1, 0)]))
        return BilinearForm.diagonal([1] + [-1] * self.k)

    @property
    def canonical(self) -> IntVec:
        if self.model_tag == "quadric":
            return (-2, -2)
        return tuple([-3] + [1] * self.k)

    def dot(self, x: IntVec, y: IntVec) -> int:
        """pair(self.form, x, y), read off the form: x0 y1 + x1 y0 on the quadric,
        x0 y0 - sum of xi yi on a blowup."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError(f"length mismatch: {len(x)} and {len(y)} vs rank {self.rank}")
        if self.model_tag == "quadric":
            return x[0] * y[1] + x[1] * y[0]
        return x[0] * y[0] - sum(map(mul, x[1:], y[1:]))


def quadric() -> PicLattice:
    return PicLattice(k=2, model_tag="quadric")


def _search_classes(lat: PicLattice, self_int: int, k_degree: int) -> list[IntVec]:
    """All C with C.C = self_int and C.K = k_degree, by bounded backtracking.

    For the blowup model the E-coefficients m_i satisfy sum m_i = -k_degree - 3d and
    sum m_i^2 = d^2 - self_int; partial sums are pruned with Cauchy-Schwarz.
    """
    if lat.model_tag == "quadric":
        out = []
        for a in range(-H_COEFF_BOUND, H_COEFF_BOUND + 1):
            for b in range(-H_COEFF_BOUND, H_COEFF_BOUND + 1):
                c = (a, b)
                if lat.dot(c, c) == self_int and lat.dot(c, lat.canonical) == k_degree:
                    out.append(c)
        return sorted(out)
    k = lat.k
    out = []
    for d in range(-H_COEFF_BOUND, H_COEFF_BOUND + 1):
        target_sum = -k_degree - 3 * d
        target_sq = d * d - self_int
        if target_sq < 0:
            continue

        def extend(prefix, s, q):
            t = k - len(prefix)
            if t == 0:
                if s == 0 and q == 0:
                    out.append(tuple([d] + prefix))
                return
            if s * s > t * q:
                return
            bound = isqrt(q)
            for m in range(-bound, bound + 1):
                extend(prefix + [m], s - m, q - m * m)

        extend([], target_sum, target_sq)
    return sorted(out)


def _bounded_search(k: int, model_tag: str, self_int: int, k_degree: int) -> tuple[IntVec, ...]:
    found = _search_classes(PicLattice(k, model_tag), self_int, k_degree)
    # post hoc: the Cauchy-Schwarz bound is not tight, nothing sits on the boundary
    if any(abs(c[0]) >= H_COEFF_BOUND for c in found):
        raise InternalInvariantError(f"a class with C.C = {self_int} sits on the search bound")
    return tuple(found)


@lru_cache(maxsize=None)
def _minus_one_classes(k: int, model_tag: str) -> tuple[IntVec, ...]:
    return _bounded_search(k, model_tag, -1, -1)


def minus_one_classes(lat: PicLattice) -> list[IntVec]:
    """All classes with C.C = -1 and C.K = -1, exhaustively."""
    return list(_minus_one_classes(lat.k, lat.model_tag))


@lru_cache(maxsize=None)
def _roots(k: int, model_tag: str) -> tuple[IntVec, ...]:
    return _bounded_search(k, model_tag, -2, 0)


def roots(lat: PicLattice) -> list[IntVec]:
    """All classes with a.a = -2 and a.K = 0 (the root system of the lattice)."""
    return list(_roots(lat.k, lat.model_tag))


def ne_generators(lat: PicLattice) -> list[IntVec]:
    """Extremal curve classes generating the cone of curves."""
    if lat.model_tag == "quadric":
        return [(1, 0), (0, 1)]
    if lat.k == 0:
        return [(1,)]
    if lat.k == 1:
        # exceptional curve and the fiber class of the ruling
        return [(0, 1), (1, -1)]
    return minus_one_classes(lat)


@lru_cache(maxsize=None)
def effective_cone(lat: PicLattice) -> RationalCone:
    return cone_from_rays(ne_generators(lat), lat.rank)


def nef_cone(lat: PicLattice) -> RationalCone:
    """Dual of the curve cone under the intersection pairing."""
    gram = lat.form.gram
    ineqs = [gram.apply(c) for c in ne_generators(lat)]
    return cone_from_inequalities(ineqs, ambient_rank=lat.rank)


@dataclass(frozen=True)
class Contraction:
    """Pairwise-orthogonal set of (-1)-classes, i.e. a simultaneous blowdown."""

    classes: tuple[IntVec, ...]

    def __len__(self):
        return len(self.classes)

    def label(self) -> str:
        return "c[" + ",".join(map(str, self.classes)) + "]" if self.classes else "nef"


def validate_contraction(lat: PicLattice, c: Contraction):
    mo = set(minus_one_classes(lat))
    for x in c.classes:
        if x not in mo:
            raise ValidationError(f"{x} is not a (-1)-class")
    for x, y in itertools.combinations(c.classes, 2):
        if lat.dot(x, y) != 0:
            raise ValidationError(f"classes {x} and {y} are not orthogonal")


@lru_cache(maxsize=None)
def contractions(lat: PicLattice) -> tuple[Contraction, ...]:
    """All cliques (including empty) of the orthogonality graph on (-1)-classes."""
    if lat.model_tag == "blowup" and lat.k > CONTRACTION_CAP:
        raise ValidationError(
            f"full contraction enumeration is capped at k <= {CONTRACTION_CAP}; "
            "use per-chamber predicates for larger lattices"
        )
    classes = minus_one_classes(lat)
    n = len(classes)
    orth = [
        [lat.dot(classes[i], classes[j]) == 0 for j in range(n)] for i in range(n)
    ]
    cliques: list[tuple[int, ...]] = []

    def grow(current: list[int], start: int):
        cliques.append(tuple(current))
        for nxt in range(start, n):
            if all(orth[i][nxt] for i in current):
                current.append(nxt)
                grow(current, nxt + 1)
                current.pop()

    grow([], 0)
    return tuple(Contraction(tuple(classes[i] for i in c)) for c in sorted(cliques))


def mori_chamber(lat: PicLattice, c: Contraction) -> RationalCone:
    """Pullback nef cone of the blowdown plus the span of the contracted classes.

    The pullback nef cone is the face of Nef cut out by the contracted
    classes; one sweep gives its extreme rays, and one more the chamber.
    """
    validate_contraction(lat, c)
    gram = lat.form.gram
    eqs = [gram.apply(f) for f in c.classes]
    ineqs = [gram.apply(x) for x in ne_generators(lat)]
    lin, face_rays = dual_description(ineqs, eqs, lat.rank)
    if lin:
        raise InternalInvariantError(f"nef face of contraction {c.classes} is not pointed")
    gens = face_rays + list(c.classes)
    return cone_from_rays(gens, lat.rank)


@dataclass(frozen=True)
class WeylElement:
    matrix: IntMat

    @cached_property
    def _moved_rows(self) -> tuple:
        """(i, row i) for each row of the matrix that differs from the identity's."""
        m, one = self.matrix, IntMat.identity(self.matrix.rows)
        return tuple((i, m.row(i)) for i in range(m.rows) if m.row(i) != one.row(i))

    @cached_property
    def act(self):
        """v -> matrix.apply(v), each v moved once per element: its image table."""
        return lru_cache(maxsize=None)(self._apply)

    @cached_property
    def transpose(self) -> "WeylElement":
        """matrix^T, which moves facet normals: s^-T = s^T for an involution s."""
        return WeylElement(self.matrix.transpose())

    def _apply(self, v: IntVec) -> IntVec:
        """matrix.apply(v), computing only the moved rows (2 or 4 for a simple reflection)."""
        if len(v) != self.matrix.cols:
            raise ValueError("vector length mismatch")
        out = list(v)
        for i, row in self._moved_rows:
            out[i] = sum(map(mul, row, v))
        return tuple(out)

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.matrix.mul(other.matrix))


def reflection(lat: PicLattice, alpha: IntVec) -> WeylElement:
    """s_alpha(x) = x + (x.alpha) alpha for a root alpha (alpha.alpha = -2)."""
    if lat.dot(alpha, alpha) != -2:
        raise ValidationError("reflections are defined for roots only")
    n = lat.rank
    dots = [lat.dot(tuple(int(t == j) for t in range(n)), alpha) for j in range(n)]  # e_j.alpha
    return WeylElement(IntMat.from_rows([[int(i == j) + dots[j] * alpha[i] for j in range(n)]
                                         for i in range(n)]))


def simple_roots(lat: PicLattice) -> list[IntVec]:
    if lat.model_tag == "quadric" or lat.k < 2:
        return []
    out = [tuple([1, -1, -1, -1] + [0] * (lat.k - 3))] if lat.k >= 3 else []
    return out + [tuple(int(j == i) - int(j == i + 1) for j in range(lat.k + 1))  # E_i - E_{i+1}
                  for i in range(1, lat.k)]


@lru_cache(maxsize=None)
def weyl_generators(lat: PicLattice) -> tuple[WeylElement, ...]:
    return tuple(reflection(lat, a) for a in simple_roots(lat))


def orbit_tree(start, moves) -> dict:
    """Breadth-first Schreier tree: point -> (parent, move index), start -> None."""
    tree, queue = {start: None}, [start]
    for p in queue:
        for i, move in enumerate(moves):
            q = move(p)
            if q not in tree:
                tree[q] = (p, i)
                queue.append(q)
    return tree


@lru_cache(maxsize=None)
def boundary_stabilizer(lat: PicLattice, boundary: BoundaryCycle) -> tuple[tuple, int]:
    """Generators of Stab(B) in W(E_k), B the sorted boundary multiset, and the
    orbit size |W B|; walked once per boundary and process.

    With u_p the element along the Schreier tree of the simple reflections
    from B to p, the u_q^-1 s u_p (s a generator, q = s p) generate Stab(B)
    (Schreier's lemma; Seress, Permutation Group Algorithms, 2003, ch. 4).
    A tree edge, read either way, gives the identity, so it is skipped, as
    are repeats.  With no simple roots (p2, f1, the quadric) B is its own
    orbit and there are no generators: that returns before any walk or root
    is listed.

    Products are told apart by their images of rho = (0, 1, ..., k), a vector
    on no root hyperplane (checked against roots(lat)).  W fixes K and acts on
    K-perp, where the form is definite, as a finite reflection group whose
    reflections are s_a for roots a.  The stabilizer of a vector in such a
    group is generated by the reflections that fix it (Steinberg, 1964), and
    s_a fixes rho only if rho.a = 0, so only the identity fixes rho and two
    products are equal exactly when their images of rho are.  Only the
    distinct products other than the identity are multiplied out, as the
    images of a basis.
    """
    gens = weyl_generators(lat)
    if not gens:
        return (), 1
    moves = [lambda m, a=g.act: tuple(sorted(map(a, m))) for g in gens]
    start = tuple(sorted(boundary.classes))
    tree = orbit_tree(start, moves)
    rho = tuple(range(lat.rank))
    if any(lat.dot(rho, a) == 0 for a in roots(lat)):
        raise InternalInvariantError(f"{list(rho)} lies on a root hyperplane")

    def path(p) -> list[int]:  # generator indices from B down to p
        out = []
        while tree[p] is not None:
            p, i = tree[p]
            out.append(i)
        return out[::-1]

    def apply(word, x: IntVec) -> IntVec:
        for i in word:
            x = gens[i].act(x)
        return x

    img = {start: rho}  # p -> u_p rho
    for p, (parent, i) in list(tree.items())[1:]:
        img[p] = gens[i].act(img[parent])
    seen, words = {rho}, []  # the images of rho so far; words of u_q^-1 s u_p
    for p in tree:
        for i, move in enumerate(moves):
            q = move(p)
            if tree[q] != (p, i) and tree[p] != (q, i):
                image = apply(path(q)[::-1], gens[i].act(img[p]))
                if image not in seen:
                    seen.add(image)
                    words.append(path(p) + [i] + path(q)[::-1])
    basis = IntMat.identity(lat.rank).row_list()

    def element(word) -> WeylElement:
        return WeylElement(IntMat.from_rows(list(zip(*(apply(word, e) for e in basis)))))

    return tuple(map(element, words)), len(tree)


def weyl_group(lat: PicLattice) -> list[WeylElement]:
    """The full group, by closure of the generators (orders 1, 1, 2, 12, 120, 1920, ...)."""
    ident = WeylElement(IntMat.identity(lat.rank))
    tree = orbit_tree(ident, [g.compose for g in weyl_generators(lat)])
    return sorted(tree, key=lambda w: w.matrix.entries)


@dataclass(frozen=True)
class BoundaryCycle:
    """Anticanonical cycle: ordered classes D_1..D_n in cyclic order."""

    classes: tuple[IntVec, ...]

    @property
    def n(self) -> int:
        return len(self.classes)


@dataclass
class BoundaryReport:
    valid: bool
    diagnostics: list[str]
    minus_one_flags: list[bool]


def validate_boundary(lat: PicLattice, b: BoundaryCycle) -> BoundaryReport:
    """Check the cycle invariants and flag which components are (-1)-classes."""
    diags: list[str] = []
    n = b.n
    if n < 1:
        return BoundaryReport(False, ["empty cycle"], [])
    rank = lat.rank
    if any(len(c) != rank for c in b.classes):
        return BoundaryReport(False, [f"class length must be {rank}"], [])
    total = tuple(sum(c[j] for c in b.classes) for j in range(rank))
    anti = tuple(-x for x in lat.canonical)
    if total != anti:
        diags.append(f"sum of components is {total}, expected -K = {anti}")
    if n >= 2:
        for i, d in enumerate(b.classes):
            want = -2 + lat.dot(anti, d)
            got = lat.dot(d, d)
            if got != want:
                diags.append(
                    f"component {i}: self-intersection {got}, adjunction requires {want}"
                )
    # n = 1 is the irreducible nodal member; the sum condition pins it to -K
    if n >= 3:
        for i in range(n):
            for j in range(i + 1, n):
                prod = lat.dot(b.classes[i], b.classes[j])
                adjacent = (j - i == 1) or (i == 0 and j == n - 1)
                want = 1 if adjacent else 0
                if prod != want:
                    diags.append(f"D_{i}.D_{j} = {prod}, expected {want}")
    elif n == 2:
        prod = lat.dot(b.classes[0], b.classes[1])
        if prod != 2:
            diags.append(f"D_0.D_1 = {prod}, expected 2 for a 2-cycle")
    mo = set(minus_one_classes(lat))
    flags = [c in mo for c in b.classes]
    if all(flags) and n >= 7:
        diags.append("a cycle of (-1)-curves has at most 6 components")
    return BoundaryReport(not diags, diags, flags)


def normalized_cycle(b: BoundaryCycle) -> BoundaryCycle:
    """Canonical representative under cyclic rotation (lexicographically least)."""
    rots = [tuple(b.classes[i:] + b.classes[:i]) for i in range(b.n)]
    return BoundaryCycle(min(rots))


def minus_one_cycles(lat: PicLattice, n: int) -> list[BoundaryCycle]:
    """All anticanonical n-cycles of (-1)-classes, up to rotation and reflection."""
    classes = minus_one_classes(lat)
    anti = tuple(-x for x in lat.canonical)
    found = set()
    meet = 2 if n == 2 else 1  # the two components of a 2-cycle meet twice

    def ok_next(path, c, closing):
        # c meets its neighbours in meet and the other components not at all
        ends, body = ((path[-1], path[0]), path[1:-1]) if closing else ((path[-1],), path[:-1])
        return all(lat.dot(p, c) == meet for p in ends) and all(lat.dot(p, c) == 0 for p in body)

    def dfs(path, remaining_sum):
        if len(path) == n:
            if remaining_sum == tuple(0 for _ in range(lat.rank)):
                cyc = tuple(path)
                reps = []
                for seq in (cyc, cyc[::-1]):
                    reps.extend(tuple(seq[i:] + seq[:i]) for i in range(n))
                found.add(min(reps))
            return
        for c in classes:
            if c in path:
                continue
            if not ok_next(path, c, closing=len(path) == n - 1):
                continue
            rest = tuple(r - x for r, x in zip(remaining_sum, c))
            dfs(path + [c], rest)

    for start in classes:
        rest = tuple(a - x for a, x in zip(anti, start))
        dfs([start], rest)
    out = []
    for cyc in sorted(found):
        b = BoundaryCycle(cyc)
        if validate_boundary(lat, b).valid:
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# built-in boundary data for the five toric del Pezzo surfaces


def _toric_data():
    return {
        "p2": {
            "k": 0,
            "rays": [(1, 0), (0, 1), (-1, -1)],
            "classes": [(1,), (1,), (1,)],
        },
        "quadric": {
            "model_tag": "quadric",
            "rays": [(1, 0), (0, 1), (-1, 0), (0, -1)],
            "classes": [(1, 0), (0, 1), (1, 0), (0, 1)],
        },
        "f1": {
            "k": 1,
            "rays": [(1, 0), (1, 1), (0, 1), (-1, -1)],
            "classes": [(1, -1), (0, 1), (1, -1), (1, 0)],
        },
        "dp7": {
            "k": 2,
            "rays": [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)],
            "classes": [(1, -1, -1), (0, 1, 0), (1, -1, 0), (1, 0, -1), (0, 0, 1)],
        },
        "dp6": {
            "k": 3,
            "rays": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
            "classes": [
                (1, -1, -1, 0),
                (0, 1, 0, 0),
                (1, -1, 0, -1),
                (0, 0, 0, 1),
                (1, 0, -1, -1),
                (0, 0, 1, 0),
            ],
        },
    }


TORIC_NAMES = ("p2", "quadric", "f1", "dp7", "dp6")


def toric_boundary(name: str) -> tuple[PicLattice, BoundaryCycle, list[IntVec]]:
    """Lattice, anticanonical toric boundary cycle and fan rays for a toric del Pezzo."""
    data = _toric_data().get(name)
    if data is None:
        raise ValidationError(f"unknown toric surface {name!r}; choose from {TORIC_NAMES}")
    if data.get("model_tag") == "quadric":
        lat = quadric()
    else:
        lat = PicLattice(k=data["k"])
    cycle = BoundaryCycle(tuple(tuple(c) for c in data["classes"]))
    rep = validate_boundary(lat, cycle)
    if not rep.valid:
        raise InternalInvariantError(f"built-in {name} boundary is invalid: {rep.diagnostics}")
    return lat, cycle, [tuple(r) for r in data["rays"]]


def hexagon_boundary() -> tuple[PicLattice, BoundaryCycle]:
    """Degree-6 hexagon of all six (-1)-classes in cyclic order."""
    lat, cycle, _ = toric_boundary("dp6")
    return lat, cycle
