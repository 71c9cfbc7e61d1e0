"""Exact integer linear algebra: Smith normal form, torsion quotients, saturation.

Everything here runs on arbitrary-precision Python integers (Fractions for the
occasional rational solve).  No floating point: downstream cone predicates are
boundary-sensitive and must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mul, sub

IntVec = tuple[int, ...]


def vec(entries) -> IntVec:
    return tuple(map(int, entries))


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(map(sub, a, b))


def vec_scale(c: int, a: IntVec) -> IntVec:
    return tuple(map(mul, repeat(c), a))


def vec_dot(a: IntVec, b: IntVec) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def vec_gcd(a) -> int:
    return gcd(*a)


def primitive(a: IntVec) -> IntVec:
    """Divide out the gcd, keeping direction.  Zero vector maps to itself."""
    g = vec_gcd(a)
    if g <= 1:
        return a if type(a) is tuple else vec(a)
    return tuple(x // g for x in a)


def sign_normalized(a: IntVec) -> IntVec:
    """Primitive form with first nonzero entry positive (for spans, not rays)."""
    p = primitive(a)
    for x in p:
        if x != 0:
            return p if x > 0 else tuple(-y for y in p)
    return p


@dataclass(frozen=True)
class IntMat:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        rows = [vec(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[IntVec]:
        return [self.row(i) for i in range(self.rows)]

    def col(self, j: int) -> IntVec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "IntMat":
        return IntMat.from_rows([self.col(j) for j in range(self.cols)])

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows, cols = self.row_list(), [other.col(j) for j in range(other.cols)]
        return IntMat(self.rows, other.cols, tuple(sum(map(mul, r, c)) for r in rows for c in cols))

    def apply(self, v: IntVec) -> IntVec:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        e, c = self.entries, self.cols
        return tuple(sum(map(mul, e[i * c : i * c + c], v)) for i in range(self.rows))


@dataclass(frozen=True)
class BilinearForm:
    gram: IntMat

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols:
            raise ValueError("gram matrix must be square")
        if any(g[i, j] != g[j, i] for i in range(g.rows) for j in range(g.cols)):
            raise ValueError("gram matrix must be symmetric")

    @classmethod
    def diagonal(cls, diag) -> "BilinearForm":
        d = vec(diag)
        n = len(d)
        return cls(IntMat(n, n, tuple(d[i] if i == j else 0 for i in range(n) for j in range(n))))


def pair(form: BilinearForm, x: IntVec, y: IntVec) -> int:
    """x^T . gram . y"""
    return vec_dot(x, form.gram.apply(vec(y)))


@dataclass(frozen=True)
class TorsionGroup:
    invariant_factors: tuple[int, ...]  # each > 1, each dividing the next
    free_rank: int = 0

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f <= 1 for f in fs):
            raise ValueError("invariant factors must be > 1")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def is_trivial(self) -> bool:
        return not self.invariant_factors


def _snf_pivot(m: list[list[int]], k: int, rows: int, cols: int):
    """Smallest |entry| pivot in the trailing block, ties by lowest row then column."""
    best = None
    for i in range(k, rows):
        for j in range(k, cols):
            v = abs(m[i][j])
            if v != 0 and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """U, D, V with U*m*V = D diagonal, divisibility chain, det(U), det(V) = +-1."""
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    k = 0
    while True:
        piv = _snf_pivot(a, k, rows, cols)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != k:
            swap_rows(pi, k)
        if pj != k:
            swap_cols(pj, k)
        # clear row and column k; restart if a remainder creates a smaller entry
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k] != 0:
                q = a[i][k] // a[k][k]
                add_row(k, i, -q)
                if a[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j] != 0:
                q = a[k][j] // a[k][k]
                add_col(k, j, -q)
                if a[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, k, 1)
            continue
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
        if k >= min(rows, cols):
            break

    return (
        IntMat.from_rows(u),
        IntMat.from_rows(a),
        IntMat.from_rows(v),
    )


def invariant_factors(m: IntMat) -> list[int]:
    _, d, _ = smith_normal_form(m)
    return [d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i] != 0]


def torsion_quotient(sub: list[IntVec], ambient_rank: int) -> TorsionGroup:
    """Invariant factors of the torsion of Z^rank / span(sub); free rank alongside."""
    sub = [vec(s) for s in sub]
    for s in sub:
        if len(s) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
    if not sub:
        return TorsionGroup((), free_rank=ambient_rank)
    factors = invariant_factors(IntMat.from_rows(sub))
    return TorsionGroup(
        tuple(f for f in factors if f > 1),
        free_rank=ambient_rank - len(factors),
    )


def saturate(sub: list[IntVec]) -> list[IntVec]:
    """Basis of the saturation (Q-span of sub intersected with the integer lattice):
    the integer vectors orthogonal to the rows of quotient_lattice_map(sub)."""
    sub = [vec(s) for s in sub if any(x != 0 for x in s)]
    if not sub:
        return []
    n = len(sub[0])
    return quotient_lattice_map(quotient_lattice_map(sub, n).row_list(), n).row_list()


def rank_of(vectors) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    rows = [list(vec(v)) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                a, b = pr[col], rows[r][col]
                rows[r] = [a * x - b * y for x, y in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank


def solve_integral(m: IntMat, rhs: IntVec) -> IntVec | None:
    """Some integral solution of m*x = rhs, or None."""
    rhs = vec(rhs)
    if len(rhs) != m.rows:
        raise ValueError("rhs length must equal row count")
    u, d, v = smith_normal_form(m)
    b = u.apply(rhs)
    y = [0] * m.cols
    for i in range(m.rows):
        di = d[i, i] if i < min(d.rows, d.cols) else 0
        if di == 0:
            if b[i] != 0:
                return None
        else:
            if b[i] % di != 0:
                return None
            y[i] = b[i] // di
    return v.apply(tuple(y))


def solve_rational(rows: list[IntVec], rhs) -> list[Fraction] | None:
    """Solve sum_j x_j * rows_col... i.e. A x = rhs over Q, A given by rows. None if inconsistent."""
    if not rows:
        return [] if all(r == 0 for r in rhs) else None
    nr, nc = len(rows), len(rows[0])
    a = [[Fraction(rows[i][j]) for j in range(nc)] + [Fraction(rhs[i])] for i in range(nr)]
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if a[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = a[i][nc]
    return x


def primitive_coords(basis, x: IntVec) -> IntVec | None:
    """Primitive integer coordinates, in the given basis, of the ray through x.

    Solves x = sum_j c_j basis[j] over Q, clears denominators and divides out
    the gcd.  None when x lies outside the span of the basis.
    """
    rows = [tuple(b[i] for b in basis) for i in range(len(x))]
    sol = solve_rational(rows, x)
    if sol is None:
        return None
    den = 1
    for c in sol:
        den = den * c.denominator // gcd(den, c.denominator)
    return primitive(tuple(int(c * den) for c in sol))


def quotient_lattice_map(sub_basis, rank: int) -> IntMat:
    """Projection Z^rank -> Z^rank / saturate(span(sub_basis)) via Smith reduction.

    x -> the last rank - r coordinates of x.V, r the rank of the generators;
    the rows are primitive and kill exactly the saturated span.
    """
    gens = [vec(b) for b in sub_basis]
    m = IntMat(len(gens), rank, tuple(x for g in gens for x in g))
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
    return IntMat(rank - r, rank, v.transpose().entries[r * rank:])
