"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (integer/rational arithmetic throughout); the
stated runtime budgets are asserted where the criteria give one.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from secfan.cones import Fan, cone_from_rays, cones_tile, fan_check, is_coarsening, is_complete
from secfan.delpezzo import (
    BoundaryCycle,
    PicLattice,
    contractions,
    effective_cone,
    hexagon_boundary,
    minus_one_classes,
    minus_one_cycles,
    mori_chamber,
    quadric,
    toric_boundary,
    validate_boundary,
    weyl_group,
)
from secfan.disk import fan_point, fan_triangulation, gamma_complex
from secfan.secondary import (
    build_chambers,
    cocycle_battery,
    gkz_secondary_fan,
    grouping_by_triangulation,
    movsec,
    movsec_is_single_group,
    secondary_fan,
    toric_compare,
)
from secfan.spines import (
    AffineStructure,
    count,
    crossing_class,
    is_balanced,
    is_toric_monodromy,
    spine,
    two_leg_outputs,
)
from secfan.thetaalg import (
    boundary_algebra,
    flop_stratum_product,
    hilbert,
    proj_degree,
    theta_divisor_checks,
)
from secfan.toricstack import BundleInput, decompose, stabilizers


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_minus_one_counts():
    t0 = time.time()
    expected = (0, 1, 3, 6, 10, 16, 27, 56, 240)
    counts = tuple(len(minus_one_classes(PicLattice(k))) for k in range(9))
    elapsed = time.time() - t0
    report(
        "criterion 1: (-1)-class counts k=0..8",
        counts == expected and elapsed < 5.0,
        f"counts={counts}, {elapsed:.2f}s",
    )


def test_criterion_02_degree6_chambers_tile():
    t0 = time.time()
    lat = PicLattice(3)
    cons = contractions(lat)
    chambers = [mori_chamber(lat, c) for c in cons]
    eff = effective_cone(lat)
    tiles = cones_tile(chambers, eff)
    zero_violations = fan_check(Fan(4, tuple(chambers))).is_fan
    # independent oracle: brute-force clique count over all subsets
    classes = minus_one_classes(lat)
    brute = 0
    for r in range(len(classes) + 1):
        for sub in itertools.combinations(classes, r):
            if all(lat.dot(a, b) == 0 for a, b in itertools.combinations(sub, 2)):
                brute += 1
    elapsed = time.time() - t0
    report(
        "criterion 2: degree-6 Mori chambers",
        len(cons) == 18 and brute == 18 and tiles and zero_violations and elapsed < 10.0,
        f"chambers={len(cons)}, oracle={brute}, tile={tiles}, {elapsed:.2f}s",
    )


def test_criterion_03_secondary_fan_certified_toric():
    t0 = time.time()
    lat, cycle = hexagon_boundary()
    sec = secondary_fan(lat, cycle)
    ok = (
        sec.maximal_count == 32
        and fan_check(sec.full_fan).is_fan
        and is_complete(sec.full_fan)
        and is_coarsening(sec.full_fan, sec.mori_fan)
    )
    certified = {}
    for name in ("p2", "quadric", "f1", "dp7", "dp6"):
        lat_t, cycle_t, rays = toric_boundary(name)
        sec_t = secondary_fan(lat_t, cycle_t)
        gkz = gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)])
        cert = toric_compare(lat_t, cycle_t, rays, gkz, sec_t)
        certified[name] = cert.ok and len(gkz.triangulations) == sec_t.maximal_count
    elapsed = time.time() - t0
    report(
        "criterion 3: Sec(degree 6) = 32 cones, GKZ-certified for all five toric surfaces",
        ok and all(certified.values()) and elapsed < 120.0,
        f"certified={certified}, {elapsed:.1f}s",
    )


def _no_minus_one_boundaries():
    """Valid boundary cycles with no (-1)-components, k = 0..5."""
    out = []
    out.append((PicLattice(0), BoundaryCycle(((1,), (1,), (1,)))))  # three lines
    out.append((PicLattice(1), BoundaryCycle(((1, 0), (2, -1)))))  # line + conic
    out.append((PicLattice(2), BoundaryCycle(((1, 0, 0), (2, -1, -1)))))
    out.append((PicLattice(3), BoundaryCycle(((1, 0, 0, 0), (2, -1, -1, -1)))))
    out.append((PicLattice(4), BoundaryCycle(((1, 0, 0, 0, -1), (2, -1, -1, -1, 0)))))
    out.append(
        (PicLattice(5), BoundaryCycle(((1, 0, 0, 0, 0, -1), (2, -1, -1, -1, -1, 0))))
    )
    out.append((quadric(), BoundaryCycle(((1, 0), (0, 1), (1, 0), (0, 1)))))
    return out


def test_criterion_04_no_boundary_exceptional_single_group():
    results = []
    cases = []
    for lat, cycle in _no_minus_one_boundaries():
        cases.append((lat, cycle))
        # property widening: Weyl images of a valid configuration stay valid,
        # keep no (-1)-components, and must group trivially too
        if lat.model_tag == "blowup" and 2 <= lat.k <= 4:
            for w in weyl_group(lat)[:3]:
                cases.append(
                    (lat, BoundaryCycle(tuple(w.act(c) for c in cycle.classes)))
                )
    for lat, cycle in cases:
        rep = validate_boundary(lat, cycle)
        assert rep.valid, rep.diagnostics
        assert not any(rep.minus_one_flags)
        chambers = build_chambers(lat, cycle)
        groups = movsec(chambers)
        single = len(groups) == 1 and groups[0].cone == effective_cone(lat)
        results.append(single)
    # lazy mode at k = 8: grouping predicate only, no cone enumeration
    lat8 = PicLattice(8)
    anti = tuple(-x for x in lat8.canonical)
    lazy = movsec_is_single_group(lat8, BoundaryCycle((anti,)))
    report(
        "criterion 4: no (-1)-components gives a single moving cone (k<=5 + lazy k=8)",
        all(results) and lazy,
        f"cases={len(results)}, lazy_k8={lazy}",
    )


def _boundary_suite_k_le_5():
    suite = []
    suite.extend(_no_minus_one_boundaries())
    lat6, hexagon = hexagon_boundary()
    suite.append((lat6, hexagon))
    lat5 = PicLattice(4)
    suite.extend((lat5, b) for b in minus_one_cycles(lat5, 5)[:3])
    lat4 = PicLattice(5)
    suite.extend((lat4, b) for b in minus_one_cycles(lat4, 4)[:2])
    for name in ("f1", "dp7"):
        lat_t, cycle_t, _ = toric_boundary(name)
        suite.append((lat_t, cycle_t))
    return suite


def test_criterion_05_movsec_convexity_battery():
    tested = 0
    for lat, cycle in _boundary_suite_k_le_5():
        chambers = build_chambers(lat, cycle)
        movsec(chambers)  # raises InternalInvariantError on any convexity failure
        tested += 1
    # the failure path maps to CLI exit code 3
    stub = (
        "import secfan.secondary as s\n"
        "from secfan.errors import InternalInvariantError\n"
        "def boom(*a, **k):\n"
        "    raise InternalInvariantError('convexity failure (simulated)')\n"
        "s.movsec = boom\n"
        "import json, tempfile, os, sys\n"
        "cfg = {'degree': 9, 'cycle': [[1],[1],[1]]}\n"
        "fd, path = tempfile.mkstemp(suffix='.json'); os.write(fd, json.dumps(cfg).encode()); os.close(fd)\n"
        "import secfan.cli as c\n"
        "sys.argv = ['secfan', 'pipeline', path, '--out', tempfile.mkdtemp()]\n"
        "c.main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", stub], capture_output=True, text=True)
    report(
        "criterion 5: moving-group convexity certified on every tested boundary (k<=5)",
        tested >= 10 and proc.returncode == 3,
        f"boundaries={tested}, failure_exit_code={proc.returncode}",
    )


def test_criterion_06_triangulation_grouping_exhaustive_deg5_deg6():
    lat6 = PicLattice(3)
    hexes = minus_one_cycles(lat6, 6)
    lat5 = PicLattice(4)
    pentagons = minus_one_cycles(lat5, 5)
    checked = 0
    for lat, cycles in ((lat6, hexes), (lat5, pentagons)):
        for cycle in cycles:
            chambers = build_chambers(lat, cycle)
            grouping_by_triangulation(chambers)  # hard failure on mismatch
            checked += 1
    report(
        "criterion 6: triangulation grouping = exceptional grouping, degrees 5 and 6",
        checked == len(hexes) + len(pentagons) and len(hexes) == 1 and len(pentagons) == 12,
        f"hexagons={len(hexes)}, pentagons={len(pentagons)}",
    )


def test_criterion_07_hilbert_functions():
    t0 = time.time()
    ok = True
    for n in range(1, 10):
        for m in range(0, 21):
            if hilbert(n, m) != (n * m * m + n * m + 2) // 2:
                ok = False
        if proj_degree(n) != n:
            ok = False
    elapsed = time.time() - t0
    report(
        "criterion 7: Hilbert h(m) = (n m^2 + n m + 2)/2 and Proj degree = n, n = 1..9, m <= 20",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_08_boundary_algebra_and_theta():
    ok = True
    for n in (1, 2, 3, 4, 5, 6):
        data = boundary_algebra(n)
        for m in (1, 2, 3):
            for i in range(1, n + 1):
                if data["levels"][m]["per_component"][i] != m + 1:
                    ok = False
            if m >= 1 and data["levels"][m]["total"] != n * m:
                ok = False
        checks = theta_divisor_checks(n)
        ok = ok and checks["all_nodes_missed"] and checks["center_check"]
        ok = ok and checks["degenerate_variant_fails_center"]
    report("criterion 8: boundary algebra dimensions and theta divisor checks", ok)


def _hand_spine_suite():
    """(structure, spine) pairs across the five toric shapes and non-toric ones."""
    hexa = AffineStructure(6, (-1,) * 6)
    p2 = AffineStructure(3, (1, 1, 1))
    quad = AffineStructure(4, (0, 0, 0, 0))
    f1 = AffineStructure(4, (0, -1, 0, 1))
    dp7 = AffineStructure(5, (-1, -1, 0, 0, -1))
    non_toric = AffineStructure(3, (-1, -1, -1))
    suite = []
    for aff in (hexa, p2, quad, f1, dp7, non_toric):
        suite.append((aff, spine(1, (2, 1), [((1, 1), 1), ((-1, -1), 1)])))
        suite.append((aff, spine(1, (3, 2), [((2, 1), 1), ((-2, -1), 1)])))
        suite.append((aff, spine(1, (2, 1), [((1, 2), 2), ((-1, -2), 2)])))
        suite.append((aff, spine(2, (1, 1), [((1, 3), 1), ((-1, -3), 1)])))
    suite.append((hexa, spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)])))
    suite.append((hexa, spine(3, (1, 2), [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)])))
    suite.append((dp7, spine(1, (2, 1), [((1, 0), 1), ((-1, 1), 1), ((0, -1), 1)])))
    return suite


def test_criterion_09_monodromy_and_spine_counts():
    toric_seqs = {
        "p2": (1, 1, 1),
        "quadric": (0, 0, 0, 0),
        "f1": (0, -1, 0, 1),
        "dp7": (-1, -1, 0, 0, -1),
        "dp6": (-1,) * 6,
    }
    mono_ok = all(
        is_toric_monodromy(AffineStructure(len(s), s)) for s in toric_seqs.values()
    )
    mono_ok = mono_ok and not is_toric_monodromy(AffineStructure(3, (-1, -1, -1)))
    suite = _hand_spine_suite()
    spine_ok = True
    counted = 0
    for aff, s in suite:
        if not is_balanced(aff, s):
            spine_ok = False
            continue
        z = crossing_class(aff, s)
        if count(aff, s, z) != 1:
            spine_ok = False
        bumped = list(z)
        bumped[0] += 1
        if count(aff, s, tuple(bumped)) != 0:
            spine_ok = False
        counted += 1
    # flop products agree with the spine enumeration on every degree-6 flop case
    lat, cycle = hexagon_boundary()
    hexa = AffineStructure(6, tuple(lat.dot(c, c) for c in cycle.classes))
    comp = gamma_complex(fan_triangulation(6))
    flop_ok = True
    for i in range(1, 7):
        prev_i, next_i = (i - 2) % 6 + 1, i % 6 + 1
        outs = two_leg_outputs(hexa, prev_i, next_i)
        res = flop_stratum_product(
            comp.vertex_point(prev_i), comp.vertex_point(next_i), lat, cycle, i
        )
        got = set()
        for pt, gamma, coeff in res.terms:
            got.add((pt.cell, pt.coords, tuple(gamma), coeff))
        want = set()
        for (center, b), cls in outs:
            target = fan_point(6, center, b)
            gamma = tuple(
                sum(m * cycle.classes[j - 1][t] for j, m in cls.items())
                for t in range(lat.rank)
            )
            want.add((target.cell, target.coords, gamma, 1))
        if got != want:
            flop_ok = False
    report(
        "criterion 9: monodromy identities, spine counts, flop products vs spines",
        mono_ok and spine_ok and counted >= 20 and flop_ok,
        f"spines={counted}, monodromy={mono_ok}, flop_match={flop_ok}",
    )


def test_criterion_10_cocycle_battery_deg5_deg6():
    results = {}
    lat6, hexagon = hexagon_boundary()
    chambers6 = build_chambers(lat6, hexagon)
    rep6 = cocycle_battery(lat6, hexagon, chambers6, max_level=2)
    results["deg6"] = rep6["ok"] and rep6["loops"] > 0
    lat5 = PicLattice(4)
    pentagon = minus_one_cycles(lat5, 5)[0]
    chambers5 = build_chambers(lat5, pentagon)
    rep5 = cocycle_battery(lat5, pentagon, chambers5, max_level=2)
    results["deg5"] = rep5["ok"] and rep5["loops"] > 0
    report(
        "criterion 10: cocycle battery (antisymmetry, loops, vanishing, nef pairing)",
        all(results.values()),
        f"deg6 loops={rep6['loops']}, deg5 loops={rep5['loops']}",
    )


def test_criterion_11_toric_stack_certificates():
    # Z/2 on the torsion example
    amb = Fan(2, (cone_from_rays([(1, 1), (1, -1)]),), ("sigma",))
    sub = Fan(2, (cone_from_rays([(1, -1)]),), ("tau",))
    z2_input = BundleInput(amb, sub, ((1, 1),))
    z2 = stabilizers(z2_input, decompose(z2_input))
    z2_ok = z2.entries[0][1].invariant_factors == (2,)
    # Sec/MovSec certificates at k <= 5
    cert_ok = True
    for lat, cycle in [
        toric_boundary("p2")[:2],
        toric_boundary("quadric")[:2],
        toric_boundary("f1")[:2],
        toric_boundary("dp7")[:2],
        hexagon_boundary(),
        (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0]),
        (PicLattice(5), minus_one_cycles(PicLattice(5), 4)[0]),
    ]:
        sec = secondary_fan(lat, cycle, verify_mori=lat.rank <= 4, check=lat.rank <= 4)
        mov = Fan(
            lat.rank,
            tuple(g.cone for g in sec.groups),
            tuple(g.label() for g in sec.groups),
        )
        cert = decompose(BundleInput(sec.full_fan, mov, (lat.canonical,)))
        cert_ok = cert_ok and cert.ok
    # doubling the sublattice changes stabilizers, not the coarse pieces
    lat_q, cycle_q, _ = toric_boundary("quadric")
    sec_q = secondary_fan(lat_q, cycle_q)
    mov_q = Fan(2, tuple(g.cone for g in sec_q.groups), tuple(g.label() for g in sec_q.groups))
    inp1 = BundleInput(sec_q.full_fan, mov_q, (lat_q.canonical,))
    inp2 = BundleInput(sec_q.full_fan, mov_q, (tuple(2 * x for x in lat_q.canonical),))
    s1, s2 = stabilizers(inp1, decompose(inp1)), stabilizers(inp2, decompose(inp2))
    doubling_ok = [t.order for _, t in s1.entries] != [t.order for _, t in s2.entries]
    pieces_same = [
        (a.rays, b.rays) for a, b in decompose(inp1).pieces
    ] == [(a.rays, b.rays) for a, b in decompose(inp2).pieces]
    report(
        "criterion 11: stabilizer Z/2 example, bundle certificates k<=5, doubling test",
        z2_ok and cert_ok and doubling_ok and pieces_same,
        f"z2={z2_ok}, certs={cert_ok}, doubling={doubling_ok}",
    )


def _weyl_boundaries():
    lat2, cycle2, _ = toric_boundary("dp7")  # k = 2, mixed boundary
    lat3, cycle3 = hexagon_boundary()  # k = 3
    lat4 = PicLattice(4)
    lat5 = PicLattice(5)
    return [
        (lat2, cycle2),
        (lat3, cycle3),
        (lat4, minus_one_cycles(lat4, 5)[0]),
        (lat5, minus_one_cycles(lat5, 4)[0]),
    ]


def test_criterion_12_weyl_equivariance():
    ok = True
    details = []
    for lat, cycle in _weyl_boundaries():
        group = weyl_group(lat)
        chambers = build_chambers(lat, cycle)
        keys = {frozenset(c.contraction.classes) for c in chambers}
        perm_ok = all(
            {frozenset(w.act(x) for x in key) for key in keys} == keys for w in group
        )
        sec = secondary_fan(lat, cycle, verify_mori=lat.rank <= 4, check=lat.rank <= 4)
        boundary_multiset = sorted(cycle.classes)
        stab = [
            w for w in group
            if sorted(w.act(c) for c in cycle.classes) == boundary_multiset
        ]
        cone_keys = {(c.rays, c.lineality) for c in sec.full_fan.cones}
        fix_ok = all(
            {
                (tuple(sorted(w.act(r) for r in c.rays)), c.lineality)
                for c in sec.full_fan.cones
            }
            == cone_keys
            for w in stab
        )
        orbits = _chamber_orbits(lat, group, chambers)
        details.append(
            f"k={lat.k}: |W|={len(group)}, orbits={sorted(len(o) for o in orbits)}, |stab|={len(stab)}"
        )
        ok = ok and perm_ok and fix_ok
    report("criterion 12: Weyl equivariance at k <= 5", ok, "; ".join(details))


def _chamber_orbits(lat, group, chambers):
    keys = [frozenset(c.contraction.classes) for c in chambers]
    index = {k: i for i, k in enumerate(keys)}
    seen = set()
    orbits = []
    for i, key in enumerate(keys):
        if i in seen:
            continue
        orbit = {i}
        for w in group:
            img = frozenset(w.act(c) for c in key)
            orbit.add(index[img])
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_criterion_13_determinism(tmp_path):
    from secfan.cli import build_report, write_bundle

    lat, cycle = hexagon_boundary()
    rep1, sec1 = build_report(lat, cycle, workers=1)
    rep2, sec2 = build_report(lat, cycle, workers=4)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    write_bundle(out1, rep1, sec1)
    write_bundle(out2, rep2, sec2)
    identical = all(
        (out1 / p.name).read_bytes() == (out2 / p.name).read_bytes()
        for p in out1.iterdir()
    )
    report(
        "criterion 13: byte-identical report bundles across worker counts",
        identical and rep1 == rep2,
    )
