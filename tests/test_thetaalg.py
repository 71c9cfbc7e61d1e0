import itertools
import time

import pytest

from secfan.delpezzo import PicLattice, hexagon_boundary
from secfan.disk import fan_point, fan_triangulation, gamma_complex, triangulation_with_flips
from secfan.errors import ValidationError
from secfan.thetaalg import (
    ThetaElement,
    UmbrellaRing,
    boundary_algebra,
    central_product,
    flop_stratum_product,
    hilbert,
    proj_degree,
    theta_divisor_checks,
    validate_effective,
    weight,
)


def test_gamma_points_levels():
    comp = gamma_complex(fan_triangulation(6))
    assert len(comp.points_at_level(0)) == 1
    assert len(comp.points_at_level(1)) == 7
    assert len(comp.points_at_level(3)) == 37  # (6*9 + 6*3 + 2) / 2
    # each level is enumerated once per complex, and the complex is shared
    assert gamma_complex(fan_triangulation(6)).points_at_level(3) is comp.points_at_level(3)


@pytest.mark.parametrize("n", range(1, 10))
def test_hilbert_formula(n):
    for m in range(0, 8):
        assert hilbert(n, m) == (n * m * m + n * m + 2) // 2


def test_hilbert_triangulation_independent():
    for flips in ([1], [1, 3], [2, 5]):
        tri = triangulation_with_flips(6, flips)
        for m in range(0, 5):
            assert len(gamma_complex(tri).points_at_level(m)) == hilbert(6, m)


@pytest.mark.parametrize("n", range(1, 10))
def test_proj_degree(n):
    assert proj_degree(n) == n


def _vertices(n):
    comp = gamma_complex(fan_triangulation(n))
    return comp, {i: comp.vertex_point(i) for i in range(1, n + 1)}, comp.center_point()


def test_umbrella_products_simplicial():
    comp, v, c = _vertices(6)
    ring = UmbrellaRing(6)
    pr = ring.product(v[1], v[2])
    assert len(pr.terms) == 1 and pr.terms[0][2] == 1
    assert not ring.product(v[1], v[3]).terms
    assert not ring.product(v[1], v[4]).terms
    pc = ring.product(c, v[4])
    assert len(pc.terms) == 1


def test_central_product_flip_chart():
    comp, v, c = _vertices(6)
    tri = triangulation_with_flips(6, [1])
    assert not central_product(v[6], v[2]).terms
    pr = central_product(v[6], v[2], tri)
    assert pr.terms
    # result is the level-2 point at position v1 (= c + v1 in fan chart)
    target = fan_point(6, 1, {1: 1})
    res_pt = pr.terms[0][0]
    flip_comp = gamma_complex(tri)
    from secfan.disk import convert_point
    assert flip_comp.same_point(res_pt, convert_point(target, tri))


def test_umbrella_nodal_closure():
    ring = UmbrellaRing(1)
    v = [p for p in ring.basis(1) if not ring.complex.on_center_ray(p)][0]
    sq = ring.product(v, v)
    coeffs = sorted(t[2] for t in sq.terms)
    assert coeffs == [1, 2]  # theta_{2v} + 2 theta_interior


def test_umbrella_two_cycle_closure():
    ring = UmbrellaRing(2)
    for p in ring.basis(1):
        for q in ring.basis(1):
            ring.product(p, q)  # closure must not raise


def test_bigon_product_sums_both_diagonals():
    # n = 4 with flips at 1 and 3: the doubled edge contributes two terms
    tri = triangulation_with_flips(4, [1, 3])
    ring = UmbrellaRing(4, tri)
    comp = ring.complex
    pr = ring.product(comp.vertex_point(2), comp.vertex_point(4))
    cells = sorted(t[0].cell for t in pr.terms)
    assert cells == [("A", 1), ("A", 3)]
    assert all(t[2] == 1 for t in pr.terms)


def test_central_associativity_level3():
    ring = UmbrellaRing(5)
    pts = ring.basis(1)
    for a, b, c in itertools.combinations_with_replacement(pts, 3):
        left_inner = ring.product(a, b)
        right_inner = ring.product(b, c)
        left = ThetaElement.zero()
        for pt, _, coeff in left_inner.terms:
            stepped = ring.product(pt, c)
            for pt2, g2, c2 in stepped.terms:
                left = left + ThetaElement.of(pt2, g2, c2 * coeff)
        right = ThetaElement.zero()
        for pt, _, coeff in right_inner.terms:
            stepped = ring.product(a, pt)
            for pt2, g2, c2 in stepped.terms:
                right = right + ThetaElement.of(pt2, g2, c2 * coeff)
        assert left.terms == right.terms


def test_interior_ideal():
    # products of interior points with anything stay interior (levels <= 3)
    ring = UmbrellaRing(4)
    comp = ring.complex
    interior = [
        p
        for m in (1, 2)
        for p in ring.basis(m)
        if not comp.is_boundary(p)
    ]
    basis = [p for m in (1, 2) for p in ring.basis(m)]
    for p in interior:
        for q in basis:
            for pt, _, coeff in ring.product(p, q).terms:
                if coeff:
                    assert not comp.is_boundary(pt)


def test_boundary_algebra_dimensions():
    data = boundary_algebra(6)
    assert data["levels"][1]["total"] == 6
    assert data["levels"][2]["total"] == 12
    assert data["levels"][3]["per_component"][1] == 4  # m + 1 on each chain
    for m in (1, 2, 3):
        for i in range(1, 7):
            assert data["levels"][m]["per_component"][i] == m + 1


def test_grading_level_additive():
    ring = UmbrellaRing(6)
    pts = ring.basis(1)
    for p in pts:
        for q in pts:
            for pt, _, coeff in ring.product(p, q).terms:
                if coeff:
                    assert pt.level == p.level + q.level


def test_weight_examples():
    comp, v, c = _vertices(6)
    assert weight(c) == (1, 0, 0, 0, 0, 0, 0)
    assert weight(fan_point(6, 0, {2: 1, 3: 1})) == (0, 0, 1, 1, 0, 0, 0)


def test_weight_additive_on_fan_products():
    ring = UmbrellaRing(5)
    pts = [p for m in (1, 2) for p in ring.basis(m)]
    for p in pts:
        for q in pts:
            if p.level + q.level > 3:
                continue
            prod = ring.product(p, q)
            for pt, _, coeff in prod.terms:
                if coeff:
                    assert tuple(
                        a + b for a, b in zip(weight(p), weight(q))
                    ) == weight(pt)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_theta_divisor_checks(n):
    rep = theta_divisor_checks(n)
    assert rep["all_nodes_missed"]
    assert rep["center_check"]
    assert rep["degenerate_variant_fails_center"]


def test_flop_stratum_product_hexagon():
    lat, cycle = hexagon_boundary()
    comp, v, c = _vertices(6)
    res = flop_stratum_product(v[6], v[2], lat, cycle, 1)
    assert len(res.terms) == 1
    pt, gamma, coeff = res.terms[0]
    assert coeff == 1
    assert gamma == cycle.classes[0]  # z^{[D_1]}
    assert (pt.cell, pt.coords) == (("T", 1), (1, 1, 0))  # (v_1, level 2)
    # specialization z -> 0 recovers the vanishing central product
    assert not res.specialize_classes().terms
    assert not central_product(v[6], v[2]).terms


def test_flop_stratum_product_other_pairs_central():
    lat, cycle = hexagon_boundary()
    comp, v, c = _vertices(6)
    res = flop_stratum_product(v[1], v[2], lat, cycle, 1)
    assert len(res.terms) == 1
    pt, gamma, coeff = res.terms[0]
    assert gamma == () and coeff == 1


def test_flop_stratum_product_weight_consistency():
    # w(P) + w(Q) = w(class) + w(output) on the flop pair
    lat, cycle = hexagon_boundary()
    comp, v, c = _vertices(6)
    res = flop_stratum_product(v[6], v[2], lat, cycle, 1)
    pt, gamma, _ = res.terms[0]
    lhs = tuple(a + b for a, b in zip(weight(v[6]), weight(v[2])))
    # class weight: pairings of gamma with boundary classes and K
    wk = [lat.dot(gamma, lat.canonical)] + [
        lat.dot(gamma, d) for d in cycle.classes
    ]
    rhs = tuple(a + b for a, b in zip(wk, weight(pt)))
    assert lhs == rhs


def test_flop_stratum_product_pentagon_stratum_restriction():
    # non-toric structure: extra balanced spines exist but their classes are
    # not supported on the flopped curve, so the stratum product has one term
    from secfan.delpezzo import minus_one_cycles

    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    comp = gamma_complex(fan_triangulation(5))
    res = flop_stratum_product(
        comp.vertex_point(5), comp.vertex_point(2), lat, cycle, 1
    )
    assert len(res.terms) == 1
    pt, gamma, coeff = res.terms[0]
    assert gamma == cycle.classes[0]
    assert (pt.cell, pt.coords) == (("T", 1), (1, 1, 0))


def test_flop_stratum_requires_level_one():
    lat, cycle = hexagon_boundary()
    comp, v, c = _vertices(6)
    with pytest.raises(ValidationError):
        flop_stratum_product(fan_point(6, 2, {}), v[1], lat, cycle, 1)


def test_validate_effective():
    lat = PicLattice(3)
    validate_effective(lat, (1, -1, -1, 0))
    validate_effective(lat, (0, 0, 0, 0))
    with pytest.raises(ValidationError):
        validate_effective(lat, tuple(lat.canonical))
    with pytest.raises(ValidationError):
        validate_effective(lat, (1, -1, -1))


def test_validate_effective_is_fast_at_k6():
    # the subset search it replaced did not finish three such calls in a minute
    lat = PicLattice(6)
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        validate_effective(lat, lat.canonical)
    validate_effective(lat, tuple(-x for x in lat.canonical))
    assert time.perf_counter() - start < 1.0
