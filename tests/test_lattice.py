from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secfan.lattice import (
    BilinearForm,
    IntMat,
    invariant_factors,
    pair,
    primitive,
    primitive_coords,
    quotient_lattice_map,
    rank_of,
    saturate,
    smith_normal_form,
    solve_integral,
    solve_rational,
    torsion_quotient,
)


def mat(rows):
    return IntMat.from_rows(rows)


def test_snf_identity():
    u, d, v = smith_normal_form(mat([[1, 0], [0, 1]]))
    assert d.row_list() == [(1, 0), (0, 1)]


def test_snf_diag_2_3():
    # by-hand row/column reduction: diag(2, 3) ~ diag(1, 6)
    u, d, v = smith_normal_form(mat([[2, 0], [0, 3]]))
    assert d.row_list() == [(1, 0), (0, 6)]


def test_snf_hyperbolic():
    # det -2, first invariant factor gcd of entries = 1
    m = mat([[1, 1], [1, -1]])
    u, d, v = smith_normal_form(m)
    assert d.row_list() == [(1, 0), (0, 2)]
    assert u.mul(m).mul(v).row_list() == d.row_list()


def _det(m: IntMat) -> int:
    n = m.rows
    if n == 0:
        return 1
    rows = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    assert det.denominator == 1
    return int(det)


small_mats = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_snf_properties(rows):
    m = mat(rows)
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v).row_list() == d.row_list()
    assert d.is_diagonal()
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    nz = [x for x in diag if x != 0]
    assert all(x > 0 for x in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # zero block trails the nonzero invariants
    assert diag == nz + [0] * (len(diag) - len(nz))
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1


def test_torsion_quotient_examples():
    assert torsion_quotient([(2, 0), (0, 2)], 2).invariant_factors == (2, 2)
    assert torsion_quotient([(1, 1), (1, -1)], 2).invariant_factors == (2,)
    assert torsion_quotient([(1, 0), (0, 1)], 2).invariant_factors == ()


def test_torsion_quotient_free_rank():
    t = torsion_quotient([(2, 0, 0)], 3)
    assert t.invariant_factors == (2,)
    assert t.free_rank == 2
    assert torsion_quotient([(1, 0, 0)], 3).free_rank == 2
    assert torsion_quotient([], 3).free_rank == 3


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_torsion_order_is_abs_det_for_full_rank(rows):
    m = mat(rows)
    det = _det(m)
    if det == 0:
        return
    t = torsion_quotient([tuple(r) for r in rows], m.rows)
    assert t.order == abs(det)
    assert t.free_rank == 0


def test_saturate_examples():
    assert saturate([(2, 0)]) == [(1, 0)]
    assert saturate([(2, 2)]) == [(1, 1)]
    sat = saturate([(1, 1), (1, -1)])
    # index-2 sublattice saturates to the full lattice
    assert rank_of(sat) == 2
    assert torsion_quotient(sat, 2).is_trivial()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-7, max_value=7), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_saturate_idempotent_and_span_preserving(rows):
    first = saturate([tuple(r) for r in rows])
    second = saturate(first)
    assert rank_of(first) == rank_of([tuple(r) for r in rows])
    assert sorted(first) == sorted(second) or rank_of(first + second) == rank_of(first)
    # saturation is saturated: torsion of Z^3/span is trivial
    assert torsion_quotient(first, 3).invariant_factors == ()


def test_pair_examples():
    lorentz2 = BilinearForm.diagonal([1, -1])
    assert pair(BilinearForm.diagonal([1, -1]), (1, 0), (1, 0)) == 1
    assert pair(lorentz2, (0, 1), (0, 1)) == -1
    lorentz3 = BilinearForm.diagonal([1, -1, -1])
    c = (1, -1, -1)  # H - E1 - E2
    assert pair(lorentz3, c, c) == -1


def test_pair_length_mismatch():
    with pytest.raises(ValueError):
        pair(BilinearForm.diagonal([1, -1]), (1, 0, 0), (1, 0))


def test_solve_integral_examples():
    ident = mat([[1, 0], [0, 1]])
    assert solve_integral(ident, (4, -5)) == (4, -5)
    assert solve_integral(mat([[2]]), (3,)) is None
    x = solve_integral(mat([[1, 1], [1, -1]]), (2, 0))
    assert x == (1, 1)


def test_solve_rational_consistency():
    sol = solve_rational([(2, 0), (0, 4)], (1, 2))
    assert sol == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_rational([(1, 1), (1, 1)], (0, 1)) is None


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3, 0)) == (-3, 0) or primitive((-3, 0)) == (-1, 0)
    assert primitive((-3, 0)) == (-1, 0)


def test_primitive_coords():
    basis = ((2, 0, 0), (0, 3, 0))
    assert primitive_coords(basis, (4, 6, 0)) == (1, 1)
    assert primitive_coords(basis, (1, 0, 0)) == (1, 0)
    assert primitive_coords(basis, (0, 0, 1)) is None


def test_quotient_lattice_map_kills_exactly_the_saturated_span():
    sub = [(2, 4, 0), (0, 0, 3)]
    q = quotient_lattice_map(sub, 3)
    assert q.rows == 1
    assert all(not any(q.apply(s)) for s in sub)
    assert primitive(q.row(0)) == q.row(0)
    assert quotient_lattice_map([], 2) == IntMat.identity(2)
