import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secfan import delpezzo
from secfan.cones import cone_from_inequalities, cones_tile
from secfan.delpezzo import (
    BoundaryCycle,
    Contraction,
    PicLattice,
    TORIC_NAMES,
    contractions,
    effective_cone,
    hexagon_boundary,
    minus_one_classes,
    minus_one_cycles,
    mori_chamber,
    ne_generators,
    normalized_cycle,
    orbit_tree,
    quadric,
    reflection,
    roots,
    simple_roots,
    toric_boundary,
    validate_boundary,
    weyl_generators,
    weyl_group,
)
from secfan.errors import InternalInvariantError, ValidationError
from secfan.lattice import IntMat, pair

MINUS_ONE_COUNTS = (0, 1, 3, 6, 10, 16, 27, 56, 240)


@pytest.mark.parametrize("k", range(9))
def test_minus_one_counts(k):
    lat = PicLattice(k)
    cls = minus_one_classes(lat)
    assert len(cls) == MINUS_ONE_COUNTS[k]
    for c in cls:
        assert lat.dot(c, c) == -1
        assert lat.dot(c, lat.canonical) == -1


def test_minus_one_k1_and_k3():
    assert minus_one_classes(PicLattice(1)) == [(0, 1)]
    cls = set(minus_one_classes(PicLattice(3)))
    expected = {
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1),
    }
    assert cls == expected


def test_quadric_has_no_minus_one_classes():
    assert minus_one_classes(quadric()) == []


ROOT_COUNTS = {0: 0, 1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


@pytest.mark.parametrize("k", range(9))
def test_root_counts(k):
    lat = PicLattice(k)
    rs = roots(lat)
    assert len(rs) == ROOT_COUNTS[k]
    for a in rs:
        assert lat.dot(a, a) == -2
        assert lat.dot(a, lat.canonical) == 0


def test_effective_cone_small():
    assert effective_cone(PicLattice(0)).rays == ((1,),)
    assert set(effective_cone(quadric()).rays) == {(1, 0), (0, 1)}
    eff1 = effective_cone(PicLattice(1))
    assert set(eff1.rays) == {(0, 1), (1, -1)}
    eff3 = effective_cone(PicLattice(3))
    assert len(eff3.rays) == 6  # every (-1)-class is extreme


def nef_cone(lat):
    """Dual of the curve cone under the intersection pairing: the independent
    oracle for mori_chamber of the empty contraction."""
    gram = lat.form.gram
    ineqs = [gram.apply(c) for c in ne_generators(lat)]
    return cone_from_inequalities(ineqs, ambient_rank=lat.rank)


def test_nef_cone_examples():
    assert nef_cone(PicLattice(0)).rays == ((1,),)
    nq = nef_cone(quadric())
    assert set(nq.rays) == {(1, 0), (0, 1)}  # self-dual under the hyperbolic pairing
    lat = PicLattice(3)
    n3 = nef_cone(lat)
    antic = tuple(-x for x in lat.canonical)
    for c in minus_one_classes(lat):
        assert lat.dot(antic, c) == 1
    # -K strictly inside: all facet inequalities strict
    from secfan.lattice import vec_dot
    assert all(vec_dot(f, antic) > 0 for f in n3.facets)


def test_nef_is_dual_of_effective_k3():
    lat = PicLattice(3)
    # duality through the intersection form: L nef iff L.C >= 0 for all curves
    nef = nef_cone(lat)
    for r in nef.rays:
        assert all(lat.dot(r, c) >= 0 for c in minus_one_classes(lat))


def test_contraction_counts():
    assert len(contractions(PicLattice(0))) == 1
    assert len(contractions(PicLattice(1))) == 2
    cs = contractions(PicLattice(3))
    assert len(cs) == 18
    sizes = sorted(len(c) for c in cs)
    assert sizes.count(0) == 1 and sizes.count(1) == 6
    assert sizes.count(2) == 9 and sizes.count(3) == 2


def test_contraction_brute_force_oracle_k3():
    lat = PicLattice(3)
    cls = minus_one_classes(lat)
    count = 0
    for r in range(len(cls) + 1):
        for sub in itertools.combinations(cls, r):
            if all(lat.dot(a, b) == 0 for a, b in itertools.combinations(sub, 2)):
                count += 1
    assert count == len(contractions(lat))


def test_exceptional_set_is_clique():
    lat = PicLattice(4)
    es = [tuple(1 if j == i else 0 for j in range(5)) for i in range(1, 5)]
    assert all(lat.dot(a, b) == 0 for a, b in itertools.combinations(es, 2))


def test_contraction_cap():
    with pytest.raises(ValidationError):
        contractions(PicLattice(7))


def test_mori_chamber_empty_is_nef():
    lat = PicLattice(3)
    assert mori_chamber(lat, Contraction(())) == nef_cone(lat)


def test_mori_chamber_k1():
    lat = PicLattice(1)
    ch = mori_chamber(lat, Contraction(((0, 1),)))
    assert set(ch.rays) == {(0, 1), (1, 0)}  # <E1, H>


def test_chambers_tile_effective_cone_k3():
    lat = PicLattice(3)
    chambers = [mori_chamber(lat, c) for c in contractions(lat)]
    assert cones_tile(chambers, effective_cone(lat))


@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_chambers_tile_effective_cone_other_k(k):
    lat = PicLattice(k)
    chambers = [mori_chamber(lat, c) for c in contractions(lat)]
    assert cones_tile(chambers, effective_cone(lat))


def test_weyl_reflection_swaps_exceptionals():
    lat = PicLattice(3)
    s = reflection(lat, (0, 1, -1, 0))
    assert s.act((0, 1, 0, 0)) == (0, 0, 1, 0)
    for a in roots(lat):
        w = reflection(lat, a)
        assert w.act(lat.canonical) == lat.canonical


def test_weyl_preserves_classes_and_form():
    lat = PicLattice(3)
    mo = set(minus_one_classes(lat))
    rt = set(roots(lat))
    for w in weyl_generators(lat):
        assert {w.act(c) for c in mo} == mo
        assert {w.act(a) for a in rt} == rt
        for x in mo:
            for y in list(mo)[:3]:
                assert lat.dot(w.act(x), w.act(y)) == lat.dot(x, y)


def test_weyl_orbit_of_e1_k3():
    lat = PicLattice(3)
    orbit = orbit_tree((0, 1, 0, 0), [g.act for g in weyl_generators(lat)])
    assert orbit.keys() == set(minus_one_classes(lat))


def test_weyl_order_at_k7_from_the_orbit_of_e():
    # |W(E_7)| = 7! |W E| for the contraction E = {E_1, ..., E_7}, with no element list
    lat = PicLattice(7)
    e = frozenset(tuple(int(i == j) for i in range(8)) for j in range(1, 8))
    moves = [lambda s, a=g.act: frozenset(map(a, s)) for g in weyl_generators(lat)]
    orbit = orbit_tree(e, moves)
    assert len(orbit) == 576
    assert factorial(7) * len(orbit) == 2_903_040


def test_weyl_group_orders():
    assert len(weyl_group(PicLattice(2))) == 2
    assert len(weyl_group(PicLattice(3))) == 12
    assert len(weyl_group(PicLattice(4))) == 120


def test_weyl_act_equals_the_full_matrix_product():
    # act computes only the rows that differ from the identity's
    lat = PicLattice(4)
    vecs = list(itertools.product(range(-2, 3), repeat=lat.rank))[::37] + minus_one_classes(lat)
    for w in weyl_group(lat):
        assert all(w.act(v) == w.matrix.apply(v) for v in vecs)
    assert [len(g._moved_rows) for g in weyl_generators(lat)] == [4, 2, 2, 2]
    with pytest.raises(ValueError):
        weyl_generators(lat)[1].act((0, 1, 0))


def _all_schreier_generators(lat, boundary):
    """Every u_q^-1 s u_p over the Schreier tree of the sorted boundary, tree
    edges included, multiplied out as matrices, less the identity and in
    order of first appearance: the generators the report read before the
    tree edges were skipped and before the products were told apart by
    their images of one vector."""
    gens = weyl_generators(lat)
    moves = [lambda m, a=g.act: tuple(sorted(map(a, m))) for g in gens]
    start = tuple(sorted(boundary.classes))
    tree = orbit_tree(start, moves)
    ident = delpezzo.WeylElement(IntMat.identity(lat.rank))
    word = {start: (ident, ident)}
    for p, (parent, i) in list(tree.items())[1:]:
        word[p] = (gens[i].compose(word[parent][0]), word[parent][1].compose(gens[i]))
    products = dict.fromkeys(word[move(p)][1].compose(g.compose(word[p][0]))
                             for p in tree for g, move in zip(gens, moves))
    return [w for w in products if w != ident], len(tree)


@pytest.mark.parametrize("k", range(2, 7))
def test_boundary_stabilizer_skips_only_identities(k):
    if k == 2:
        lat, cycle, _ = toric_boundary("dp7")
    else:
        lat = PicLattice(k)
        cycle = minus_one_cycles(lat, 9 - k)[0]
    gens, orbit_size = delpezzo.boundary_stabilizer(lat, cycle)
    # the same generators in the same order, so orbit roots and digests hold
    assert (list(gens), orbit_size) == _all_schreier_generators(lat, cycle)
    assert isinstance(gens, tuple) and all(isinstance(w, delpezzo.WeylElement) for w in gens)
    ident = IntMat.identity(lat.rank)
    boundary = sorted(cycle.classes)
    for w in gens:
        assert w.matrix != ident
        assert sorted(map(w.act, cycle.classes)) == boundary
    assert len(gens) == len(set(gens))


def test_boundary_stabilizer_without_simple_roots():
    for lat, cycle, _ in (toric_boundary("quadric"), toric_boundary("p2")):
        assert delpezzo.boundary_stabilizer(lat, cycle) == ((), 1)


def test_validate_boundary_hexagon():
    lat, cycle = hexagon_boundary()
    rep = validate_boundary(lat, cycle)
    assert rep.valid
    assert all(rep.minus_one_flags)


def test_validate_boundary_bad_sum():
    lat = PicLattice(0)
    rep = validate_boundary(lat, BoundaryCycle(((1,), (1,))))
    assert not rep.valid
    assert any("expected -K" in d for d in rep.diagnostics)


def test_boundary_self_int_identity():
    # sum D_i^2 = -2n + 9 - k follows from the adjunction checks
    for name in ("p2", "f1", "dp7", "dp6"):
        lat, cycle, _ = toric_boundary(name)
        total = sum(lat.dot(c, c) for c in cycle.classes)
        assert total == -2 * cycle.n + lat.dot(lat.canonical, lat.canonical)


def test_nodal_boundary_k8_validates():
    lat = PicLattice(8)
    anti = tuple(-x for x in lat.canonical)
    rep = validate_boundary(lat, BoundaryCycle((anti,)))
    assert rep.valid
    assert rep.minus_one_flags == [False]


def test_all_minus_one_cycle_capped_at_six():
    # synthetic 7-cycle of (-1)-classes must be rejected even if sums matched
    lat = PicLattice(2)
    fake = BoundaryCycle(tuple([(0, 1, 0)] * 7))
    rep = validate_boundary(lat, fake)
    assert not rep.valid


def test_a_class_on_the_search_bound_is_a_broken_invariant(monkeypatch):
    # E_1, E_2 and H - E_1 - E_2 have |H coefficient| <= 1, so bound 1 is hit
    monkeypatch.setattr(delpezzo, "H_COEFF_BOUND", 1)
    delpezzo._minus_one_classes.cache_clear()
    try:
        with pytest.raises(InternalInvariantError):
            minus_one_classes(PicLattice(2))
    finally:
        delpezzo._minus_one_classes.cache_clear()


def test_an_invalid_builtin_boundary_is_a_broken_invariant(monkeypatch):
    data = delpezzo._toric_data()
    data["p2"]["classes"] = [(1,), (1,), (2,)]
    monkeypatch.setattr(delpezzo, "_toric_data", lambda: data)
    with pytest.raises(InternalInvariantError):
        toric_boundary("p2")


def test_toric_boundaries_valid():
    for name in TORIC_NAMES:
        lat, cycle, rays = toric_boundary(name)
        assert validate_boundary(lat, cycle).valid
        assert len(rays) == cycle.n
        # fan rays satisfy u_{i-1} + u_{i+1} = -(D_i^2) u_i
        n = cycle.n
        for i in range(n):
            d2 = lat.dot(cycle.classes[i], cycle.classes[i])
            prev, cur, nxt = rays[(i - 1) % n], rays[i], rays[(i + 1) % n]
            assert tuple(p + q for p, q in zip(prev, nxt)) == tuple(-d2 * u for u in cur)


@pytest.mark.parametrize("k, count", [(3, 1), (4, 12), (5, 40), (6, 45), (7, 28)])
def test_minus_one_cycle_counts(k, count):
    """Anticanonical (9 - k)-cycles of (-1)-classes, up to rotation and reflection."""
    assert len(minus_one_cycles(PicLattice(k), 9 - k)) == count


def test_minus_one_two_cycles_meet_twice():
    # the two components of a 2-cycle meet in 2: each is {E, -K - E}, and the
    # 28 of them use each of the 56 (-1)-classes once
    lat = PicLattice(7)
    cycles = minus_one_cycles(lat, 2)
    anti = tuple(-x for x in lat.canonical)
    assert cycles[0].classes == ((0,) * 7 + (1,), (3,) + (-1,) * 6 + (-2,))
    assert all(tuple(map(sum, zip(*c.classes))) == anti for c in cycles)
    assert all(lat.dot(*c.classes) == 2 for c in cycles)
    assert len({cls for c in cycles for cls in c.classes}) == 56


def test_normalized_cycle_rotation_invariant():
    lat, cycle = hexagon_boundary()
    rot = BoundaryCycle(cycle.classes[2:] + cycle.classes[:2])
    assert normalized_cycle(cycle) == normalized_cycle(rot)


def test_ne_generators_k1():
    lat = PicLattice(1)
    assert set(ne_generators(lat)) == {(0, 1), (1, -1)}


@st.composite
def _pairs_of_classes(draw):
    lat = draw(st.sampled_from([PicLattice(k) for k in range(9)] + [quadric()]))
    classes = st.lists(st.integers(-50, 50), min_size=lat.rank, max_size=lat.rank).map(tuple)
    return lat, draw(classes), draw(classes)


@settings(max_examples=200, deadline=None)
@given(_pairs_of_classes())
def test_dot_is_the_pairing_of_the_form(case):
    lat, x, y = case
    assert lat.dot(x, y) == pair(lat.form, x, y)
    # a class of the wrong length is refused, as by pair
    for short in ((x[:-1], y), (x, y + (0,))):
        with pytest.raises(ValueError):
            lat.dot(*short)
        with pytest.raises(ValueError):
            pair(lat.form, *short)
