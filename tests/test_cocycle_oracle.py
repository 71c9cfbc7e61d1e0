"""The coboundary cocycle battery against the fundamental-cycle battery it replaced."""

import pytest

from cocycle_oracle import cocycle_battery_by_cycles
from secfan import secondary
from secfan.delpezzo import PicLattice, hexagon_boundary, minus_one_cycles
from secfan.disk import fan_point
from secfan.secondary import build_chambers, chamber_adjacency, cocycle_battery


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
    chambers = build_chambers(lat, cycle)
    rep = cocycle_battery(lat, cycle, chambers)
    assert rep == cocycle_battery_by_cycles(lat, cycle, chambers)
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

    Both batteries evaluate crossings through secondary._crossing_values, which
    sees the flop index and the chamber crossed into; in the hexagon that pair
    names one crossing, as the first assertion checks."""
    lat, cycle = hexagon_boundary()
    chambers = build_chambers(lat, cycle)
    tree, chords = _tree_and_chords(chambers)
    u, w = chords[0] if edge == "chord" else tree[0]
    idx = secondary._single_flop_index(chambers[u], chambers[w])
    crossings = [(a, b) for e in chamber_adjacency(chambers) for a, b in (e, e[::-1])]
    into = [(a, b) for a, b in crossings
            if b in (u, w) and secondary._single_flop_index(chambers[a], chambers[b]) == idx]
    assert sorted(into) == sorted([(u, w), (w, u)])
    target = fan_point(6, 1, {1: 1})
    real = secondary._crossing_values

    def perturbed(points, i, beta, boundary):
        values = real(points, i, beta, boundary)
        shift = 1 if beta is chambers[w] else -1 if both_ways and beta is chambers[u] else 0
        if i != idx or not shift:
            return values
        return [(v[0] + shift,) + v[1:] if p == target else v for p, v in zip(points, values)]

    monkeypatch.setattr(secondary, "_crossing_values", perturbed)
    expected = {"loop"} if both_ways else {"loop", "antisymmetry"}
    for battery in (cocycle_battery, cocycle_battery_by_cycles):
        rep = battery(lat, cycle, chambers)
        assert not rep["ok"]
        assert {f[0] for f in rep["failures"]} & expected
