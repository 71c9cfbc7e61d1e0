"""The coboundary cocycle battery against the fundamental-cycle battery it replaced."""

import pytest

from cocycle_oracle import chamber_adjacency, cocycle_battery_by_cycles
from secfan import secondary
from secfan.delpezzo import PicLattice, hexagon_boundary, minus_one_cycles
from secfan.disk import fan_point
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


@pytest.mark.parametrize("both_ways", [False, True], ids=["one-way", "both-ways"])
@pytest.mark.parametrize("edge", ["chord", "tree"])
def test_one_perturbed_value_fails_both_batteries(monkeypatch, edge, both_ways):
    """Add 1 to c_p(u, w) at one interior point; with both_ways also take 1 off
    c_p(w, u), which keeps antisymmetry, so the loop check must see it.

    The battery shares one table among the crossings with the same flop index
    and direction, so its perturbation goes into the per-pair cochain that
    secondary._crossing_cochain returns.  The cycle oracle evaluates each
    crossing through secondary._crossing_values, which sees the flop index
    and the chamber crossed into; in the hexagon that pair names one
    crossing, as the first assertion checks."""
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    chambers = sec.chambers
    tree, chords = _tree_and_chords(chambers)
    u, w = chords[0] if edge == "chord" else tree[0]
    idx = secondary._single_flop_index(chambers[u], chambers[w])
    crossings = [(a, b) for e in chamber_adjacency(chambers) for a, b in (e, e[::-1])]
    into = [(a, b) for a, b in crossings
            if b in (u, w) and secondary._single_flop_index(chambers[a], chambers[b]) == idx]
    assert sorted(into) == sorted([(u, w), (w, u)])
    target = fan_point(6, 1, {1: 1})

    def bumped(points, values, shift):
        return [(v[0] + shift,) + v[1:] if p == target else v for p, v in zip(points, values)]

    def shift(a, b):
        return 1 if (a, b) == (u, w) else -1 if both_ways and (a, b) == (w, u) else 0

    real_values = secondary._crossing_values

    def perturbed_values(points, i, beta, boundary):
        values = real_values(points, i, beta, boundary)
        if i != idx:
            return values
        # by the first assertion, the crossing into w is (u, w) and into u is (w, u)
        into = shift(u, w) if beta is chambers[w] else shift(w, u) if beta is chambers[u] else 0
        return bumped(points, values, into)

    real_cochain = secondary._crossing_cochain

    def perturbed_cochain(points, *args):
        fwd, back = real_cochain(points, *args)
        return ({(a, b): bumped(points, v, shift(a, b)) for (a, b), v in fwd.items()},
                {(a, b): bumped(points, v, shift(b, a)) for (a, b), v in back.items()})

    expected = {"loop"} if both_ways else {"loop", "antisymmetry"}
    for battery, name, fake in (
            (lambda: cocycle_battery(sec), "_crossing_cochain", perturbed_cochain),
            (lambda: cocycle_battery_by_cycles(lat, cycle, chambers), "_crossing_values",
             perturbed_values)):
        with monkeypatch.context() as patch:
            patch.setattr(secondary, name, fake)
            rep = battery()
        assert not rep["ok"]
        assert {f[0] for f in rep["failures"]} & expected
