"""The coboundary cocycle battery against the fundamental-cycle battery it replaced."""

import pytest

from cocycle_oracle import chamber_adjacency, cocycle_battery_by_cycles, cocycle_battery_per_pair
from secfan import secondary
from secfan.delpezzo import PicLattice, hexagon_boundary, minus_one_cycles
from secfan.disk import fan_point
from secfan.lattice import vec_scale
from secfan.secondary import cocycle_battery, secondary_fan


def _pentagon():
    lat = PicLattice(4)
    return lat, minus_one_cycles(lat, 5)[0]


def _square():
    lat = PicLattice(5)
    return lat, minus_one_cycles(lat, 4)[0]


@pytest.mark.parametrize("setup", [hexagon_boundary, _pentagon, _square],
                         ids=["hexagon", "pentagon", "square"])
def test_battery_matches_the_cycle_oracle(setup):
    lat, cycle = setup()
    sec = secondary_fan(lat, cycle)
    rep = cocycle_battery(sec)
    assert rep == cocycle_battery_by_cycles(lat, cycle, sec.chambers)
    assert rep["ok"] and rep["loops"] > 0


def _tree_and_chords(chambers):
    adj = chamber_adjacency(chambers)
    tree = secondary._bfs_tree(adj)
    tree_pairs = {(min(u, w), max(u, w)) for u, w in tree}
    return tree, [e for e in adj if e not in tree_pairs]


def _vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _perturbed_reports(monkeypatch, lat, cycle, sec, u, w, delta):
    """The three batteries with delta(a, b, p) added to c_p(a, b) on the
    crossings (a, b) = (u, w) and (w, u) alone.

    The library and the per-pair oracle share one table among the crossings
    with the same flop index and direction, so the perturbed values go into
    new tables for the pair (u, w) in the cochain that
    secondary._crossing_cochain returns; every other table, and one of the
    pair's that delta leaves alone, stays the shared object.  The cycle oracle
    evaluates each crossing through secondary.theta_cocycle, which sees both
    chambers."""
    chambers = sec.chambers

    def bumped(points, values, a, b):
        new = [_vec_add(v, delta(a, b, p)) for p, v in zip(points, values)]
        return values if new == values else new

    real_theta = secondary.theta_cocycle

    def perturbed_theta(p, alpha, beta, boundary):
        value = real_theta(p, alpha, beta, boundary)
        for a, b in ((u, w), (w, u)):
            if alpha is chambers[a] and beta is chambers[b]:
                return _vec_add(value, delta(a, b, p))
        return value

    real_cochain = secondary._crossing_cochain

    def perturbed_cochain(points, *args):
        fwd, back = (dict(t) for t in real_cochain(points, *args))
        a, b = min(u, w), max(u, w)
        fwd[(a, b)] = bumped(points, fwd[(a, b)], a, b)
        back[(a, b)] = bumped(points, back[(a, b)], b, a)
        return fwd, back

    reports = []
    for battery, name, fake in (
            (lambda: cocycle_battery(sec), "_crossing_cochain", perturbed_cochain),
            (lambda: cocycle_battery_per_pair(sec), "_crossing_cochain", perturbed_cochain),
            (lambda: cocycle_battery_by_cycles(lat, cycle, chambers), "theta_cocycle",
             perturbed_theta)):
        with monkeypatch.context() as patch:
            patch.setattr(secondary, name, fake)
            reports.append(battery())
    return reports


@pytest.mark.parametrize("both_ways", [False, True], ids=["one-way", "both-ways"])
@pytest.mark.parametrize("edge", ["chord", "tree"])
def test_one_perturbed_value_fails_both_batteries(monkeypatch, edge, both_ways):
    """Add 1 to c_p(u, w), or else to c_p(w, u), at one interior point; with
    both_ways add 1 to c_p(u, w) and take 1 off c_p(w, u), which keeps
    antisymmetry, so the loop check must see it.  The library and the
    per-pair oracle list the same failures; so does the cycle oracle while
    antisymmetry holds (it integrates each cycle in its own direction, the
    others along the tree).  The pentagon's chambers share potentials, so its
    chords share the loop memo's keys; the hexagon's do not."""
    for lat, cycle in (hexagon_boundary(), _pentagon()):
        sec = secondary_fan(lat, cycle)
        tree, chords = _tree_and_chords(sec.chambers)
        u, w = chords[0] if edge == "chord" else tree[0]
        target = fan_point(cycle.n, 1, {1: 1})
        zero, one = (0,) * lat.rank, (1,) + (0,) * (lat.rank - 1)
        ways = [{(u, w): one, (w, u): vec_scale(-1, one)}] if both_ways \
            else [{(u, w): one}, {(w, u): one}]
        expected = {"loop"} if both_ways else {"loop", "antisymmetry"}
        for shifts in ways:
            def delta(a, b, p):
                return shifts.get((a, b), zero) if p == target else zero

            reports = _perturbed_reports(monkeypatch, lat, cycle, sec, u, w, delta)
            for rep in reports:
                assert not rep["ok"]
                assert {f[0] for f in rep["failures"]} & expected
            assert reports[0] == reports[1]
            if both_ways:
                assert reports[1] == reports[2]


@pytest.mark.parametrize("kind", ["vanishing", "nef-pairing", "shared-face"])
@pytest.mark.parametrize("setup", [hexagon_boundary, _pentagon], ids=["hexagon", "pentagon"])
def test_one_perturbed_pair_fails_each_pass_alike(monkeypatch, setup, kind):
    """Perturb the tables of one chord (u, w) across a boundary flop, both ways
    so that antisymmetry holds: put a value on a boundary point, negate the
    value where the non-contracting side's pairing is positive, or add -K, which
    pairs positively with every ray, where the value is zero.  The loop pass
    sees each; the named pass must fail too, the three batteries must list the
    same failures, and no pair but (u, w) may be named: a per-table memo keyed
    by anything but the table would carry the perturbation to the pairs that
    share the unperturbed table, or miss it.  The chord is the last one across
    a boundary flop, so in the pentagon earlier chords share its potentials."""
    lat, cycle = setup()
    sec = secondary_fan(lat, cycle)
    chambers = sec.chambers
    _, chords = _tree_and_chords(chambers)
    u, w = [(a, b) for a, b in chords if secondary._single_flop_index(chambers[a], chambers[b])][-1]
    idx = secondary._single_flop_index(chambers[u], chambers[w])
    lo, hi = (u, w) if idx in chambers[w].boundary_exc else (w, u)
    n, d_class = cycle.n, cycle.classes[idx - 1]
    zero = (0,) * lat.rank
    target, bump = {
        "vanishing": (fan_point(n, 0, {idx: 1}), d_class),
        "nef-pairing": (fan_point(n, 1, {idx: 1}), vec_scale(-2, d_class)),
        "shared-face": (fan_point(n, 1, {idx % n + 1: 1}), vec_scale(-1, lat.canonical)),
    }[kind]
    assert secondary.theta_cocycle(target, chambers[lo], chambers[hi], cycle) == (
        zero if kind != "nef-pairing" else d_class)

    def delta(a, b, p):
        if p != target:
            return zero
        return bump if (a, b) == (lo, hi) else vec_scale(-1, bump)

    reports = _perturbed_reports(monkeypatch, lat, cycle, sec, u, w, delta)
    rep = reports[0]
    assert reports[1] == rep and reports[2] == rep
    assert {f[0] for f in rep["failures"]} >= {kind, "loop"}
    assert {frozenset(f[1:3]) for f in rep["failures"]} == {frozenset((u, w))}
    assert all(f[3] == target for f in rep["failures"])


@pytest.mark.parametrize("setup", [hexagon_boundary, _pentagon, _square],
                         ids=["hexagon", "pentagon", "square"])
def test_battery_matches_the_per_pair_oracle(setup):
    lat, cycle = setup()
    sec = secondary_fan(lat, cycle)
    assert cocycle_battery(sec) == cocycle_battery_per_pair(sec)
