"""decompose and stabilizers, and the bundle constructions that only tests
use: the lifted fan (build_tilde), the fiber-bundle hypothesis check
(check_bundle) and the character extension test (character_extends)."""

from dataclasses import dataclass, replace

import pytest

from secfan.cones import Fan, RationalCone, cone_from_rays, fan_check, image, zero_cone
from secfan.delpezzo import PicLattice, hexagon_boundary, toric_boundary
from secfan.errors import ValidationError
from secfan.lattice import IntMat, IntVec, primitive_coords, quotient_lattice_map, vec_dot
from secfan.secondary import secondary_fan
from secfan.toricstack import BundleInput, _span_meets_trivially, decompose, stabilizers


@dataclass
class TildeFan:
    fan: Fan                      # in L (+) N, coordinates (L-basis coords, N coords)
    projection: IntMat            # b(l, n) = l + n
    pairs: list[tuple[RationalCone, RationalCone]]


def build_tilde(inp: BundleInput) -> TildeFan:
    cert = decompose(inp)
    if not cert.ok:
        raise ValidationError("decomposition failed: " + "; ".join(cert.failures))
    rank = inp.rank
    r = len(inp.sub_lattice)
    total = r + rank

    cones = []
    labels = []
    for idx, (s1, s2) in enumerate(cert.pieces):
        gens = []
        for ray in s1.rays:
            coords = primitive_coords(inp.sub_lattice, ray)
            if coords is None:
                raise ValidationError("sigma_1 generator outside the subspace")
            gens.append(coords + tuple(0 for _ in range(rank)))
        pad = (0,) * r
        gens += [pad + tuple(ray) for ray in s2.rays]
        cones.append(cone_from_rays(gens, total, lineality=[pad + tuple(l) for l in s2.lineality]))
        labels.append(inp.ambient.label_of(idx))
    proj_rows = []
    for i in range(rank):
        row = [inp.sub_lattice[j][i] for j in range(r)] + [
            1 if t == i else 0 for t in range(rank)
        ]
        proj_rows.append(tuple(row))
    tilde = Fan(total, tuple(cones), tuple(labels))
    rep = fan_check(tilde)
    if not rep.is_fan:
        raise ValidationError(f"lifted cones do not form a fan: {rep.violations[:3]}")
    return TildeFan(tilde, IntMat.from_rows(proj_rows), cert.pieces)


@dataclass
class BundleCheck:
    ok: bool
    diagnostics: list[str]


def check_bundle(inp: BundleInput, quotient_fan: Fan, quotient_map: IntMat) -> BundleCheck:
    """Hypothesis check for the fiber-bundle corollary.

    Every ambient cone must decompose with sigma_1 inside the subspace fan and
    sigma_2 in the lift, and the lift must map cone-for-cone onto the quotient
    fan under the projection N -> N/L.
    """
    diags: list[str] = []
    cert = decompose(inp)
    if not cert.ok:
        diags.extend(cert.failures)
    quotient_keys = {c.key() for c in quotient_fan.cones}
    image_keys = {image(quotient_map, c).key() for c in inp.subfan.cones}
    if image_keys != quotient_keys:
        missing = quotient_keys - image_keys
        extra = image_keys - quotient_keys
        if missing:
            diags.append(f"{len(missing)} quotient cone(s) have no lift")
        if extra:
            diags.append(f"{len(extra)} lifted cone(s) project outside the quotient fan")
    for idx, c in enumerate(inp.subfan.cones):
        if not _span_meets_trivially(c, inp.sub_lattice):
            diags.append(f"lift cone {inp.subfan.label_of(idx)} meets the subspace")
    return BundleCheck(not diags, diags)


def character_extends(chi: IntVec, fiber_fan: Fan) -> bool:
    """Monomial-membership test: the character extends over the fiber toric
    variety exactly when it is nonnegative on every cone of its fan."""
    return all(
        vec_dot(chi, r) >= 0 for c in fiber_fan.cones for r in c.rays
    ) and all(
        vec_dot(chi, l) == 0 for c in fiber_fan.cones for l in c.lineality
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
    assert rep[0][2].invariant_factors == (2,)


def test_stabilizer_trivial_when_direct_sum():
    amb = Fan(2, (cone_from_rays([(1, 0), (0, 1)]),), ("sigma",))
    sub = Fan(2, (cone_from_rays([(0, 1)]),), ("tau",))
    inp = BundleInput(amb, sub, ((1, 0),))
    rep = stabilizers(inp, decompose(inp))
    assert rep[0][2].is_trivial()


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
    # per-cone pieces: every cone its own orbit root
    return sec, BundleInput(replace(sec.full_fan, orbits=(), perms=()), mov, (lat.canonical,))


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
    assert [t.order for _, _, t in rep1] != [t.order for _, _, t in rep2]
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
    tf = build_tilde(BundleInput(replace(sec.full_fan, orbits=(), perms=()), mov, (lat.canonical,)))
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


def _half_planes(lineality):
    """The two half-planes of R^3 on either side of the given line, through (+-1, 0, 0)."""
    return Fan(3, (cone_from_rays([(1, 0, 0)], 3, lineality=[lineality]),
                   cone_from_rays([(-1, 0, 0)], 3, lineality=[lineality])), ("up", "down"))


def test_check_bundle_lineal_subfan_projects_onto_the_quotient():
    # subfan = ambient = the half-planes z = 0, x >= 0 and x <= 0; L = the z axis
    sub = _half_planes((0, 1, 0))
    qfan = Fan(2, (cone_from_rays([(1, 0)], 2, lineality=[(0, 1)]),
                   cone_from_rays([(-1, 0)], 2, lineality=[(0, 1)])))
    drop_z = IntMat.from_rows([(1, 0, 0), (0, 1, 0)])
    res = check_bundle(BundleInput(sub, sub, ((0, 0, 1),)), qfan, drop_z)
    assert res.ok, res.diagnostics


def test_check_bundle_sees_a_lineality_meeting_the_subspace():
    # the half-planes y = 0 contain L = the z axis in their lineality
    sub = _half_planes((0, 0, 1))
    drop_z = IntMat.from_rows([(1, 0, 0), (0, 1, 0)])
    qfan = Fan(2, (cone_from_rays([(1, 0)]), cone_from_rays([(-1, 0)])))
    res = check_bundle(BundleInput(sub, sub, ((0, 0, 1),)), qfan, drop_z)
    assert [d for d in res.diagnostics if "meets the subspace" in d] == [
        "lift cone up meets the subspace", "lift cone down meets the subspace"]


def _lineal_quarter_spaces():
    """{x >= 0, +-z >= 0} in R^3 with the y axis as lineality; L = the z axis,
    subfan = their common face {x >= 0, z = 0}."""
    y = [(0, 1, 0)]
    amb = Fan(3, (cone_from_rays([(1, 0, 0), (0, 0, 1)], 3, lineality=y),
                  cone_from_rays([(1, 0, 0), (0, 0, -1)], 3, lineality=y)), ("up", "down"))
    sub = Fan(3, (cone_from_rays([(1, 0, 0)], 3, lineality=y),), ("half",))
    return BundleInput(amb, sub, ((0, 0, 1),))


def test_decompose_keeps_the_lineality_of_sigma_2():
    inp = _lineal_quarter_spaces()
    cert = decompose(inp)
    assert cert.ok, cert.failures
    assert [(s1.rays, s2) for s1, s2 in cert.pieces] == [
        (((0, 0, 1),), inp.subfan.cones[0]), (((0, 0, -1),), inp.subfan.cones[0])]


def test_stabilizers_count_the_lineality_of_sigma_2():
    inp = _lineal_quarter_spaces()
    rep = stabilizers(inp, decompose(inp))
    assert [(lbl, size, t.invariant_factors, t.free_rank) for lbl, size, t in rep] == [
        ("up", 1, (), 0), ("down", 1, (), 0)]


def test_build_tilde_lifts_the_lineality_of_sigma_2():
    inp = _lineal_quarter_spaces()
    tf = build_tilde(inp)
    assert [c.lineality for c in tf.fan.cones] == [((0, 0, 1, 0),)] * 2
    assert [image(tf.projection, c) for c in tf.fan.cones] == list(inp.ambient.cones)


def test_character_extends():
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
        sec.full_fan.cones[sec.moving_count:],
        tuple(f"b{i}" for i in range(sec.bogus_count)),
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
