import pytest

from secfan.cones import Fan, cone_from_rays, zero_cone
from secfan.delpezzo import PicLattice, hexagon_boundary, toric_boundary
from secfan.errors import ValidationError
from secfan.lattice import quotient_lattice_map
from secfan.secondary import secondary_fan
from secfan.toricstack import (
    BundleInput,
    build_tilde,
    check_bundle,
    decompose,
    stabilizers,
)


def simple_input():
    amb = Fan(2, (cone_from_rays([(1, 1), (1, -1)]),), ("sigma",))
    sub = Fan(2, (cone_from_rays([(1, -1)]),), ("tau",))
    return BundleInput(amb, sub, ((1, 1),))


def test_decompose_simple():
    cert = decompose(simple_input())
    assert cert.ok
    s1, s2 = cert.pieces[0]
    assert s1.rays == ((1, 1),)
    assert s2.rays == ((1, -1),)


def test_decompose_trivial_on_subfan_cone():
    sub_cone = cone_from_rays([(1, -1)])
    amb = Fan(2, (sub_cone,), ("tau",))
    sub = Fan(2, (sub_cone,), ("tau",))
    cert = decompose(BundleInput(amb, sub, ((1, 1),)))
    assert cert.ok
    s1, s2 = cert.pieces[0]
    assert s1 == zero_cone(2)
    assert s2 == sub_cone


def test_decompose_rejects_subspace_through_interior():
    # L meets the interior of the would-be sigma_2
    amb = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("sigma",))
    sub = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("sigma",))
    inp = BundleInput(amb, Fan(2, (cone_from_rays([(1, 0)]),), ("l",)), ((1, 1),))
    cert = decompose(inp)
    assert not cert.ok


def test_stabilizer_z2():
    inp = simple_input()
    rep = stabilizers(inp, decompose(inp))
    assert rep.entries[0][1].invariant_factors == (2,)


def test_stabilizer_trivial_when_direct_sum():
    amb = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("sigma",))
    sub = Fan(2, (cone_from_rays([(0, 1)]),), ("tau",))
    inp = BundleInput(amb, sub, ((1, 0),))
    rep = stabilizers(inp, decompose(inp))
    assert rep.entries[0][1].is_trivial()


def test_build_tilde_projection():
    tf = build_tilde(simple_input())
    assert len(tf.fan.cones) == 1
    images = sorted(tuple(tf.projection.apply(r)) for r in tf.fan.cones[0].rays)
    assert images == [(1, -1), (1, 1)]


def test_build_tilde_trivial_sublattice_isomorphic():
    amb = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("s",))
    sub = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("s",))
    # L = 0: the lifted fan reproduces the ambient cones
    inp = BundleInput(amb, sub, ())
    tf = build_tilde(inp)
    assert [c.rays for c in tf.fan.cones] == [((0, 1), (1, 0))]


def _sec_bundle_input(lat, cycle):
    sec = secondary_fan(lat, cycle)
    mov = Fan(
        lat.rank,
        tuple(g.cone for g in sec.groups),
        tuple(g.label() for g in sec.groups),
    )
    return sec, BundleInput(sec.full_fan, mov, (lat.canonical,))


@pytest.mark.parametrize("name", ["p2", "quadric", "f1", "dp7", "dp6"])
def test_secondary_decomposition_toric(name):
    lat, cycle, _ = toric_boundary(name)
    sec, inp = _sec_bundle_input(lat, cycle)
    cert = decompose(inp)
    assert cert.ok, cert.failures
    # bogus cones split as (K-ray, base face); moving cones trivially
    from secfan.lattice import primitive

    n_mov = len(sec.groups)
    for idx, (s1, s2) in enumerate(cert.pieces):
        if idx < n_mov:
            assert s1.dim == 0
        else:
            assert s1.rays == (primitive(lat.canonical),)


def test_doubling_changes_stabilizers_not_fan():
    lat, cycle, _ = toric_boundary("quadric")
    sec, inp = _sec_bundle_input(lat, cycle)
    rep1 = stabilizers(inp, decompose(inp))
    doubled = BundleInput(
        inp.ambient, inp.subfan, (tuple(2 * x for x in lat.canonical),)
    )
    rep2 = stabilizers(doubled, decompose(doubled))
    assert [t.order for _, t in rep1.entries] != [t.order for _, t in rep2.entries]
    # coarse data: the decomposition pieces agree
    c1 = decompose(inp)
    c2 = decompose(doubled)
    assert [(a.rays, b.rays) for a, b in c1.pieces] == [
        (a.rays, b.rays) for a, b in c2.pieces
    ]


def test_build_tilde_hexagon_secondary():
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    mov = Fan(
        lat.rank,
        tuple(g.cone for g in sec.groups),
        tuple(g.label() for g in sec.groups),
    )
    tf = build_tilde(BundleInput(sec.full_fan, mov, (lat.canonical,)))
    assert len(tf.fan.cones) == sec.maximal_count
    # the addition map sends every lifted cone into a cone of the base fan
    for c in tf.fan.cones:
        for r in c.rays:
            img = tuple(tf.projection.apply(r))
            assert any(big.contains_point(img) for big in sec.full_fan.cones)


def test_check_bundle_product_fan():
    L_basis = ((1, 0),)
    amb = Fan(
        2,
        (cone_from_rays([(1, 0), (0, 1)]), cone_from_rays([(1, 0), (0, -1)])),
        ("s+", "s-"),
    )
    lift = Fan(2, (cone_from_rays([(0, 1)]), cone_from_rays([(0, -1)])), ("l+", "l-"))
    qm = quotient_lattice_map(L_basis, 2)
    qfan = Fan(
        1,
        (
            cone_from_rays([qm.apply((0, 1))]),
            cone_from_rays([qm.apply((0, -1))]),
        ),
        ("q+", "q-"),
    )
    assert check_bundle(BundleInput(amb, lift, L_basis), qfan, qm).ok


def test_check_bundle_broken_lift_named():
    L_basis = ((1, 0),)
    amb = Fan(
        2,
        (cone_from_rays([(1, 0), (0, 1)]), cone_from_rays([(1, 0), (0, -1)])),
        ("s+", "s-"),
    )
    bad = Fan(2, (cone_from_rays([(0, 1)]),), ("l+",))
    qm = quotient_lattice_map(L_basis, 2)
    qfan = Fan(
        1,
        (cone_from_rays([qm.apply((0, 1))]), cone_from_rays([qm.apply((0, -1))])),
        ("q+", "q-"),
    )
    res = check_bundle(BundleInput(amb, bad, L_basis), qfan, qm)
    assert not res.ok
    assert any("s-" in d for d in res.diagnostics)


def test_character_extends():
    from secfan.toricstack import character_extends

    fiber = Fan(1, (cone_from_rays([(1,)]),), ("a1",))
    assert character_extends((1,), fiber)  # monomial regular on the affine line
    assert not character_extends((-1,), fiber)
    line = Fan(1, (cone_from_rays([(1,)]), cone_from_rays([(-1,)])), ("p", "m"))
    assert not character_extends((1,), line)  # only constants extend over P1
    assert character_extends((0,), line)


def test_check_bundle_boundary_subfan_hexagon():
    # Corollary-style instance on the bogus boundary of the hexagon fan
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    bogus_fan = Fan(
        lat.rank,
        tuple(sec.bogus_cones),
        tuple(f"b{i}" for i in range(len(sec.bogus_cones))),
    )
    base_fan = Fan(
        lat.rank,
        tuple(cone_from_rays(list(f), lat.rank) for f in sec.bogus_faces),
        tuple(f"g{i}" for i in range(len(sec.bogus_faces))),
    )
    qm = quotient_lattice_map((lat.canonical,), lat.rank)
    quot = Fan(
        lat.rank - 1,
        tuple(
            cone_from_rays([qm.apply(r) for r in c.rays], lat.rank - 1)
            for c in base_fan.cones
        ),
        base_fan.labels,
    )
    res = check_bundle(BundleInput(bogus_fan, base_fan, (lat.canonical,)), quot, qm)
    assert res.ok, res.diagnostics
