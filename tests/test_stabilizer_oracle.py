"""secondary_fan's per-orbit build against the per-cone oracle."""

import pytest

from stabilizer_oracle import per_cone_secondary_fan
from secfan import secondary
from secfan.delpezzo import (
    TORIC_NAMES,
    BoundaryCycle,
    PicLattice,
    boundary_stabilizer,
    hexagon_boundary,
    minus_one_cycles,
    toric_boundary,
    weyl_generators,
)
from secfan.lattice import IntMat


def _cases():
    yield "hexagon", hexagon_boundary
    for i in range(3):
        yield f"pentagon{i}", lambda i=i: (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[i])
    for i in range(2):
        yield f"square{i}", lambda i=i: (PicLattice(5), minus_one_cycles(PicLattice(5), 4)[i])
    yield "trio", lambda: (PicLattice(6), minus_one_cycles(PicLattice(6), 3)[0])
    # {E_4, -K-E_4}
    yield "two_cycle", lambda: (PicLattice(4), BoundaryCycle(((0, 0, 0, 0, 1),
                                                               (3, -1, -1, -1, -2))))
    for name in TORIC_NAMES:
        yield name, lambda name=name: toric_boundary(name)[:2]


CASES = dict(_cases())


def _fields(cone):
    return cone.rays, cone.facets, cone.equations, cone.lineality


@pytest.mark.parametrize("name", list(CASES))
def test_the_per_orbit_build_matches_the_per_cone_oracle(name):
    lat, cycle = CASES[name]()
    sec, oracle = secondary.secondary_fan(lat, cycle), per_cone_secondary_fan(lat, cycle)
    for got, want in ((sec.full_fan, oracle.full_fan), (sec.movsec_fan, oracle.movsec_fan)):
        assert [_fields(c) for c in got.cones] == [_fields(c) for c in want.cones]
        assert got.labels == want.labels
        # moved facet keys give the wall map that dot products give
        assert list(got.walls.items()) == list(want.walls.items())
    # the build walk's orbits are the oracle walk's, and the subfan keeps its own
    assert sec.full_fan.orbit_roots == oracle.full_fan.orbit_roots
    assert sec.movsec_fan.orbit_roots == sec.full_fan.orbits[:len(sec.groups)]
    assert sec.groups == oracle.groups and sec.bogus_faces == oracle.bogus_faces


def test_one_hull_and_one_bogus_cone_are_built_per_orbit(monkeypatch):
    lat, cycle = CASES["pentagon0"]()
    secondary.mori_fan_K(lat)  # warm: the builds left are the secondary fan's
    built, real = [], secondary.cone_from_rays
    monkeypatch.setattr(secondary, "cone_from_rays",
                        lambda rays, *a: built.append(list(rays)) or real(rays, *a))
    sec = secondary.secondary_fan(lat, cycle)
    bogus = [rays for rays in built if lat.canonical in rays]
    # 11 hulls in 3 orbits and 25 bogus cones in 3 orbits
    assert (len(built) - len(bogus), len(bogus)) == (3, 3)
    assert (sec.moving_count, sec.bogus_count, len(set(sec.full_fan.orbits))) == (11, 25, 6)


@pytest.mark.parametrize("name", ["hexagon", "pentagon0", "square0", "trio"])
def test_stabilizer_generators_are_isometries_of_the_form(name):
    # w^T J w = J and J^2 = 1, so secondary_fan moves facets by J w J = w^-T
    lat, cycle = CASES[name]()
    j = lat.form.gram
    gens = boundary_stabilizer(lat, cycle)[0]
    assert gens and j.mul(j) == IntMat.identity(lat.rank)
    assert all(w.matrix.transpose().mul(j).mul(w.matrix) == j for w in gens)
    # on these a generator has w^T != w^-T, so moving facets by w^T would be wrong
    skew = {"pentagon0", "trio"}
    assert any(w.matrix.transpose() != j.mul(w.matrix).mul(j) for w in gens) == (name in skew)


@pytest.mark.parametrize("k", range(2, 9))
def test_j_s_j_is_the_transpose_of_a_simple_reflection(k):
    # so the facet moves of mori_fan_K, J s J, are the s^T = s^-T of an involution
    lat = PicLattice(k)
    gens, basis = weyl_generators(lat), IntMat.identity(lat.rank).row_list()
    assert gens
    for s, (_, facet_move) in zip(gens, secondary._isometry_moves(lat, gens), strict=True):
        assert list(map(facet_move, basis)) == list(map(s.matrix.transpose().apply, basis))
