"""The incidence-based faces, decompose and rank_of, and the pairwise fan
predicate, against the kernels they replaced."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from face_oracles import (
    _dots,
    _separated,
    boundary_faces_by_facet_scan,
    decompose_by_face_walk,
    faces_by_recursion,
    fan_check_by_facet_sums,
    pairs_left_by_dot_tables,
)
from secfan.cones import (
    Fan,
    FanReport,
    boundary_walls,
    cone_from_rays,
    faces,
    fan_check,
    intersect,
    is_face_of,
)
from secfan.delpezzo import (
    TORIC_NAMES,
    PicLattice,
    effective_cone,
    hexagon_boundary,
    minus_one_cycles,
    toric_boundary,
)
from secfan.lattice import IntMat, invariant_factors, primitive, rank_of
from secfan.secondary import (
    _complete_with_bogus,
    build_chambers,
    movsec,
    secondary_fan,
)
from secfan.toricstack import BundleInput, decompose


def _vectors(n, min_size, max_size):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple).filter(any),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def cones(draw):
    """A cone of rank 2-4 on random rays, sometimes with a lineality space."""
    n = draw(st.integers(2, 4))
    rays = draw(_vectors(n, 1, 5))
    lin = draw(_vectors(n, 1, n - 1)) if draw(st.booleans()) else []
    return cone_from_rays(rays, n, lineality=lin)


def _keys(cs):
    return [c.key() for c in cs]


@settings(max_examples=60, deadline=None)
@given(cones())
def test_faces_match_the_recursion(c):
    for codim in range(c.dim + 1):
        assert _keys(faces(c, codim)) == _keys(faces_by_recursion(c, codim))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.data())
def test_rank_of_matches_the_smith_form(nrows, ncols, data):
    rows = [tuple(data.draw(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)))
            for _ in range(nrows)]
    assert rank_of(rows) == len(invariant_factors(IntMat.from_rows(rows)))


def _same_decomposition(inp):
    new, old = decompose(inp), decompose_by_face_walk(inp)
    assert new.ok == old.ok
    # per cone: the same pieces and the same failing labels; messages may differ
    assert [(a.key(), b.key()) for a, b in new.pieces] == [
        (a.key(), b.key()) for a, b in old.pieces]
    assert [f.split(":")[0] for f in new.failures] == [f.split(":")[0] for f in old.failures]
    return new


@st.composite
def bundle_inputs(draw):
    """Cones spanned by a part inside the subspace and a part outside it.

    The subspace is drawn from the cones' own rays or from sums of them, so it
    often runs through an interior; the subfan holds the outside parts and
    random faces of the cones, so decompositions both pass and fail.
    """
    n = draw(st.integers(2, 4))
    sub = draw(_vectors(n, 1, n - 1))
    cs = []
    for _ in range(draw(st.integers(1, 3))):
        inside = [primitive(tuple(sum(w * b[t] for w, b in zip(ws, sub)) for t in range(n)))
                  for ws in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(sub),
                                                   max_size=len(sub)), max_size=2))]
        outside = draw(_vectors(n, 1, 4))
        gens = [v for v in inside + outside if any(v)]
        lin = draw(_vectors(n, 0, 1)) if draw(st.integers(0, 4)) == 0 else []
        cs.append(cone_from_rays(gens, n, lineality=lin))
    if draw(st.booleans()):
        # a subspace through the sum of a cone's rays: through its interior
        c = cs[0]
        if c.rays:
            sub = [primitive(tuple(sum(r[t] for r in c.rays) for t in range(n)))] + sub[1:]
            sub = [v for v in sub if any(v)] or [c.rays[0]]
    subfan = []
    for c in cs:
        outside = [r for r in c.rays if rank_of([r, *sub]) > rank_of(sub)]
        if outside and draw(st.booleans()):
            subfan.append(cone_from_rays(outside, n, lineality=c.lineality))
        codim = draw(st.integers(0, c.dim))
        fs = faces_by_recursion(c, codim)
        if fs and codim and draw(st.booleans()):
            subfan.append(fs[draw(st.integers(0, len(fs) - 1))])
    subfan = subfan or [cs[0]]
    return BundleInput(Fan(n, tuple(cs)), Fan(n, tuple(subfan)), tuple(sub))


@settings(max_examples=80, deadline=None)
@given(bundle_inputs())
def test_decompose_matches_the_face_walk(inp):
    _same_decomposition(inp)


def test_lineal_cones_fail_in_both():
    # the half-plane x >= 0 of R^2 and the wedge x, y >= 0 of R^3, against a
    # line that misses their lineality
    half = cone_from_rays([(1, 0)], 2, lineality=[(0, 1)])
    wedge = cone_from_rays([(1, 0, 0), (0, 1, 0)], 3, lineality=[(0, 0, 1)])
    for cone, sub in ((half, ((1, 1),)), (wedge, ((1, 0, 1),))):
        n = cone.ambient_rank
        inp = BundleInput(Fan(n, (cone,)), Fan(n, tuple(faces(cone, 1))), sub)
        assert not _same_decomposition(inp).ok


def test_rays_outside_the_subspace_that_span_no_face_fail_in_both():
    # a square pyramid with the subspace through one edge: the other three
    # edges span no face, and two facets of the same dimension miss the line
    sigma = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    inp = BundleInput(Fan(3, (sigma,)), Fan(3, tuple(faces(sigma, 1))), ((1, 0, 1),))
    cert = _same_decomposition(inp)
    assert cert.failures == ["cone0: the rays outside the subspace span no face"]


def _moving_fans(lat, cycle):
    """The chambers' fan, the groups' fan, and the full fan over the groups with
    its bogus faces; the pairwise fan predicate is skipped."""
    chambers = build_chambers(lat, cycle)
    mov = movsec(chambers, ())[1]
    full, faces = _complete_with_bogus(mov, lat, effective_cone(lat), (), "secondary fan")
    return Fan(lat.rank, tuple(c.cone for c in chambers)), mov, full, faces


def _criterion_11_inputs():
    yield "p2", toric_boundary("p2")[:2]
    yield "quadric", toric_boundary("quadric")[:2]
    yield "f1", toric_boundary("f1")[:2]
    yield "dp7", toric_boundary("dp7")[:2]
    yield "hexagon", hexagon_boundary()
    yield "pentagon", (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0])
    yield "square", (PicLattice(5), minus_one_cycles(PicLattice(5), 4)[0])


def test_decompose_matches_the_face_walk_on_the_criterion_11_fans():
    for name, (lat, cycle) in _criterion_11_inputs():
        _, mov, full, _ = _moving_fans(lat, cycle)
        cert = _same_decomposition(BundleInput(full, mov, (lat.canonical,)))
        assert cert.ok, (name, cert.failures)


def _boundary_face_inputs():
    yield "hexagon", hexagon_boundary()
    for name in TORIC_NAMES:
        yield name, toric_boundary(name)[:2]
    for i, cycle in enumerate(minus_one_cycles(PicLattice(4), 5)):
        yield f"pentagon{i}", (PicLattice(4), cycle)
    for i, cycle in enumerate(minus_one_cycles(PicLattice(5), 4)[:3]):
        yield f"square{i}", (PicLattice(5), cycle)


def test_boundary_walls_match_the_facet_scan():
    names = []
    for name, (lat, cycle) in _boundary_face_inputs():
        chamber_fan, mov, _, faces = _moving_fans(lat, cycle)
        eff = effective_cone(lat)
        for fan in (chamber_fan, mov):
            want = boundary_faces_by_facet_scan(fan.cones, eff, lat.rank)
            assert want and boundary_walls(fan) == want, name
        assert faces == want, name
        names.append(name)
    assert len(names) == 1 + len(TORIC_NAMES) + 12 + 3


@st.composite
def cone_collections(draw):
    """Pointed, lineal and lower-dimensional cones of one rank 2-4, with some
    faces of the first cone, so that pairs both are and are not common faces."""
    n = draw(st.integers(2, 4))
    cs = []
    for _ in range(draw(st.integers(1, 3))):
        lin = draw(_vectors(n, 1, 1)) if draw(st.integers(0, 3)) == 0 else []
        cs.append(cone_from_rays(draw(_vectors(n, 1, n + 1)), n, lineality=lin))
    fs = [f for codim in range(1, cs[0].dim + 1) for f in faces(cs[0], codim)]
    cs += draw(st.lists(st.sampled_from(fs), max_size=2)) if fs else []
    return Fan(n, tuple(draw(st.permutations(cs))))


@settings(max_examples=150, deadline=None)
@given(cone_collections())
def test_fan_check_matches_the_facet_sums_on_random_cones(fan):
    assert fan_check(fan) == fan_check_by_facet_sums(fan)


def test_fan_check_matches_the_facet_sums_on_the_criterion_11_fans():
    for name, (lat, cycle) in _criterion_11_inputs():
        full = _moving_fans(lat, cycle)[2]
        assert fan_check(full) == fan_check_by_facet_sums(full) == FanReport(True), name
        # every pair the separator certifies is a common face by the exact check too
        own = [_dots(c.facets, c.rays) for c in full.cones]
        for i, j in itertools.combinations(range(len(full.cones)), 2):
            a, b = full.cones[i], full.cones[j]
            if _separated(a, b, own[i], own[j]):
                cap = intersect(a, b)
                assert is_face_of(cap, a) and is_face_of(cap, b), (name, i, j)


def _intersected(fan):
    """fan_check's report, and the operand pairs it sent to intersect as object ids."""
    calls = []

    def counted(a, b):
        calls.append((id(a), id(b)))
        return intersect(a, b)

    with mock.patch("secfan.cones.intersect", counted):
        report = fan_check(fan)
    return report, calls


def _left_by_dot_tables(fan):
    return [(id(fan.cones[i]), id(fan.cones[j])) for i, j in pairs_left_by_dot_tables(fan)]


@settings(max_examples=150, deadline=None)
@given(cone_collections())
def test_fan_check_intersects_the_pairs_the_dot_tables_leave_on_random_cones(fan):
    assert _intersected(fan)[1] == _left_by_dot_tables(fan)


def test_fan_check_intersects_the_pairs_the_dot_tables_leave_on_the_criterion_11_fans():
    exact = {}
    for name, (lat, cycle) in _criterion_11_inputs():
        full = _moving_fans(lat, cycle)[2]
        report, calls = _intersected(full)
        assert report == FanReport(True) and calls == _left_by_dot_tables(full), name
        exact[name] = len(calls)
    assert exact == {"p2": 0, "quadric": 0, "f1": 0, "dp7": 2,
                     "hexagon": 30, "pentagon": 60, "square": 93}


def test_fan_check_on_the_stabilizer_orbit_roots_agrees_on_the_criterion_11_fans():
    # secondary_fan's full fan carries its Stab(B)-orbits: the pairs with an
    # orbit root give the per-pair report, with fewer exact checks
    exact = {}
    for name, (lat, cycle) in _criterion_11_inputs():
        full = secondary_fan(lat, cycle).full_fan
        assert len(full.orbits) == len(full.cones), name
        report, calls = _intersected(full)
        assert report == fan_check(full.with_orbits(())) == FanReport(True), name
        index, roots = {id(c): i for i, c in enumerate(full.cones)}, full.orbit_roots
        assert all(roots[index[a]] == index[a] or roots[index[b]] == index[b]
                   for a, b in calls), name
        exact[name] = len(calls)
    assert exact == {"p2": 0, "quadric": 0, "f1": 0, "dp7": 2,
                     "hexagon": 17, "pentagon": 28, "square": 36}


@pytest.mark.parametrize("name, exact", [("hexagon", 30), ("pentagon", 60)])
def test_fan_check_intersects_only_the_pairs_no_candidate_separates(monkeypatch, name, exact):
    lat, cycle = dict(_criterion_11_inputs())[name]
    full = _moving_fans(lat, cycle)[2]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr("secfan.cones.intersect", counted)
    assert fan_check(full).is_fan
    assert len(calls) == exact
