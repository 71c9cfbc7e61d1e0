"""The earlier saturation and effective-class kernels, kept as test oracles.

saturate_by_inverse is the earlier secfan.lattice.saturate: it takes the Smith
normal form U*M*V = D of the generators and returns the first rank rows of
V^-1, inverted by Fraction Gauss-Jordan, where the library now applies the
Smith-reduced quotient map twice.  Both return a basis of the same lattice,
not always the same basis.

nonneg_solve_by_subsets is the earlier effective-class test: it searches the
subsets of at most rank generators for a nonnegative rational solution,
exponential in the generator count, where secfan.thetaalg.validate_effective
now asks the effective cone for the point.
"""

import itertools
from fractions import Fraction

from secfan.lattice import IntMat, IntVec, smith_normal_form, solve_rational, vec


def _inverse_unimodular(m: IntMat) -> IntMat:
    """Exact inverse of a +-1-determinant integer matrix (stays integral)."""
    n = m.rows
    aug = [[Fraction(m[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    rows = []
    for r in range(n):
        row = aug[r][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        rows.append(tuple(int(x) for x in row))
    return IntMat.from_rows(rows)


def saturate_by_inverse(sub: list[IntVec]) -> list[IntVec]:
    """Basis of the saturation (Q-span of sub intersected with the integer lattice)."""
    sub = [vec(s) for s in sub if any(x != 0 for x in s)]
    if not sub:
        return []
    m = IntMat.from_rows(sub)
    u, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i] != 0)
    vinv = _inverse_unimodular(v)
    # rows of m span the same lattice as d_i * (row i of V^-1); saturation drops the d_i
    return [vec(vinv.row(i)) for i in range(rank)]


def nonneg_solve_by_subsets(gens, target):
    """Small exact feasibility search: target = sum c_i gens_i with c_i >= 0."""
    rank = len(target)
    for r in range(0, min(len(gens), rank) + 1):
        for sub in itertools.combinations(gens, r):
            sol = solve_rational([tuple(g[i] for g in sub) for i in range(rank)], target) \
                if sub else ([] if not any(target) else None)
            if sol is not None and all(c >= 0 for c in sol):
                return sol
    return None
