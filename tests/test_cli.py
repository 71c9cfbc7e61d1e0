import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from secfan import cli as cli_module
from secfan import cones, secondary, toricstack
from secfan.cli import build_report, cache_put, cli, config_hash, load_config, write_bundle
from secfan.cones import Fan
from secfan.delpezzo import BoundaryCycle, PicLattice, hexagon_boundary, minus_one_cycles
from secfan.errors import ValidationError
from secfan.lattice import rank_of

HEXAGON = {
    "k": 3,
    "model_tag": "blowup",
    "cycle": [
        [1, -1, -1, 0], [0, 1, 0, 0], [1, -1, 0, -1],
        [0, 0, 0, 1], [1, 0, -1, -1], [0, 0, 1, 0],
    ],
}

P2 = {"degree": 9, "cycle": [[1], [1], [1]]}


@pytest.fixture
def hexagon_config(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON))
    return str(path)


@pytest.fixture
def p2_config(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2))
    return str(path)


def test_load_config_requires_one_of_k_degree(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 3, "degree": 6, "cycle": []}))
    with pytest.raises(ValidationError):
        load_config(str(bad))


def test_load_config_quadric_degree(tmp_path):
    good = tmp_path / "q.json"
    good.write_text(
        json.dumps(
            {"degree": 8, "model_tag": "quadric",
             "cycle": [[1, 0], [0, 1], [1, 0], [0, 1]]}
        )
    )
    cfg = load_config(str(good))
    assert cfg["lat"].model_tag == "quadric"
    bad = tmp_path / "qbad.json"
    bad.write_text(json.dumps({"degree": 7, "model_tag": "quadric", "cycle": []}))
    with pytest.raises(ValidationError):
        load_config(str(bad))


def test_invalid_boundary_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 0, "cycle": [[1], [1]]}))  # sum != -K
    proc = subprocess.run(
        [sys.executable, "-m", "secfan.cli", "delpezzo", "validate", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "validation error" in proc.stderr


BAD_CONFIGS = {
    "broken.json": '{"k": 3,',
    "no_cycle.json": '{"k": 3}',
    "k_word.json": '{"k": "three", "cycle": [[1, 0, 0, 0]]}',
    "class_word.json": '{"k": 0, "cycle": [["a"]]}',
    "cycle_number.json": '{"k": 0, "cycle": 5}',
    "model_tag.json": '{"k": 0, "model_tag": "cubic", "cycle": [[3]]}',
    "seed_word.json": '{"k": 0, "cycle": [[3]], "seed": "x"}',
}
# a straight hexagon spine whose vertex chart is no chart 1..6
BAD_SPINES = {
    f"chart{c}.json": json.dumps({
        "vertex_chart": c,
        "vertex_position": [2, 1],
        "legs": [{"direction": [1, 1]}, {"direction": [-1, -1]}],
    })
    for c in (0, 7)
}


@pytest.mark.parametrize("argv", [
    *[["delpezzo", "validate", name] for name in BAD_CONFIGS],
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "K",
     "--config", "no_cycle.json"],
    ["fan", "gkz", "--points", "1,0;0,x"],
    ["fan", "gkz", "--points", "1,0,0;0,1,0;0,0,1"],
    ["fan", "gkz", "--points", "1,0;0,1;2,-1"],
    ["spine", "count", "--selfint", "-1,a", "--spine", "line.json"],
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "1;x"],
    ["bundle", "check", "--fan", "broken.json", "--subfan", "line.json", "--L", "1"],
    ["bundle", "check", "--fan", "no_cycle.json", "--subfan", "line.json", "--L", "1"],
    ["spine", "count", "--selfint", "-1,-1,-1,-1,-1,-1", "--spine", "no_cycle.json"],
    *[["spine", "count", "--selfint", "-1,-1,-1,-1,-1,-1", "--spine", name]
      for name in BAD_SPINES],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2_without_traceback(tmp_path, argv):
    for name, text in {**BAD_CONFIGS, **BAD_SPINES}.items():
        (tmp_path / name).write_text(text)
    line = Fan(1, (cones.cone_from_rays([(1,)]), cones.cone_from_rays([(-1,)])))
    (tmp_path / "line.json").write_text(json.dumps(cones.fan_to_json(line)))
    argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "secfan.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation error" in proc.stderr


def test_internal_invariant_exits_3(tmp_path, monkeypatch):
    cfg = tmp_path / "p2.json"
    cfg.write_text(json.dumps(P2))
    stub = (
        "import secfan.secondary as s\n"
        "from secfan.errors import InternalInvariantError\n"
        "def boom(*a, **k):\n"
        "    raise InternalInvariantError('convexity failure (simulated)')\n"
        "s.movsec = boom\n"
        "import secfan.cli as c\n"
        "import sys\n"
        f"sys.argv = ['secfan', 'pipeline', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "c.main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", stub], capture_output=True, text=True)
    assert proc.returncode == 3
    assert "internal invariant" in proc.stderr


def test_config_hash_rotation_invariant():
    lat = PicLattice(3)
    cyc = BoundaryCycle(tuple(tuple(c) for c in HEXAGON["cycle"]))
    rot = BoundaryCycle(cyc.classes[2:] + cyc.classes[:2])
    assert config_hash(lat, cyc) == config_hash(lat, rot)
    other = BoundaryCycle(cyc.classes[::-1])
    # a reflection is a different configuration unless it happens to rotate
    assert isinstance(config_hash(lat, other), str)


def test_delpezzo_classes_json():
    runner = CliRunner()
    res = runner.invoke(cli, ["delpezzo", "classes", "--k", "3", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["minus_one_count"] == 6
    assert data["root_count"] == 8


def test_validate_echoes_normal_form(hexagon_config):
    runner = CliRunner()
    res = runner.invoke(cli, ["delpezzo", "validate", hexagon_config, "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["valid"]
    assert data["boundary_minus_one"] == [1, 2, 3, 4, 5, 6]


def test_fan_secondary_and_cache(tmp_path, p2_config):
    runner = CliRunner()
    cache = tmp_path / "cache"
    res = runner.invoke(
        cli, ["fan", "secondary", p2_config, "--cache-dir", str(cache)]
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["cones"]) == 2
    # cache hit path returns identical payload
    res2 = runner.invoke(
        cli, ["fan", "secondary", p2_config, "--cache-dir", str(cache)]
    )
    assert json.loads(res2.output) == data
    assert list(cache.glob("secondary/*.json"))


def test_cache_entry_of_another_kind_recomputes_with_warning(tmp_path, hexagon_config):
    runner = CliRunner()
    cache = tmp_path / "cache"
    want = {}
    for kind in ("mori", "secondary"):
        res = runner.invoke(cli, ["fan", kind, hexagon_config, "--cache-dir", str(cache)])
        want[kind] = json.loads(res.output)
    assert want["mori"] != want["secondary"]
    entry = next(cache.glob("mori/*.json"))
    entry.write_bytes(next(cache.glob("secondary/*.json")).read_bytes())
    res = runner.invoke(cli, ["fan", "mori", hexagon_config, "--cache-dir", str(cache)])
    assert res.exit_code == 0
    assert "is not a mori payload, recomputing" in res.output
    payload_line = next(l for l in res.output.splitlines() if l.startswith("{"))
    assert json.loads(payload_line) == want["mori"]
    assert json.loads(entry.read_text()) == want["mori"]


@pytest.mark.parametrize("payload", [[], {"cones": []}, {"metadata": "mori"}])
def test_cache_entry_without_metadata_recomputes_with_warning(tmp_path, p2_config, payload):
    runner = CliRunner()
    cache = tmp_path / "cache"
    want = json.loads(runner.invoke(
        cli, ["fan", "mori", p2_config, "--cache-dir", str(cache)]).output)
    entry = next(cache.glob("mori/*.json"))
    entry.write_text(json.dumps(payload), encoding="utf-8")
    res = runner.invoke(cli, ["fan", "mori", p2_config, "--cache-dir", str(cache)])
    assert "is not a mori payload, recomputing" in res.output
    assert json.loads(res.output.splitlines()[-1]) == want


def test_corrupt_cache_recomputes_with_warning(tmp_path, p2_config):
    runner = CliRunner()
    cache = tmp_path / "cache"
    res = runner.invoke(cli, ["fan", "secondary", p2_config, "--cache-dir", str(cache)])
    data = json.loads(res.output)
    entry = next(cache.glob("secondary/*.json"))
    entry.write_text("{ not json", encoding="utf-8")
    res2 = runner.invoke(cli, ["fan", "secondary", p2_config, "--cache-dir", str(cache)])
    assert res2.exit_code == 0
    assert "warning: corrupt cache entry" in res2.output
    payload_line = next(l for l in res2.output.splitlines() if l.startswith("{"))
    assert json.loads(payload_line) == data
    # the entry was rewritten with a clean payload
    assert json.loads(entry.read_text()) == data


def test_fan_gkz_points():
    runner = CliRunner()
    res = runner.invoke(cli, ["fan", "gkz", "--points", "1,0;0,1;-1,-1;0,0"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["triangulation_count"] == 2


# sha256 of the printed `fan gkz` payload, taken before the integer and bitset
# GKZ kernels replaced the Fraction and edge-list ones
GKZ_DIGESTS = {
    "p2": "7284ebd912a3103461597971b8065d6c804cbcff93576c99cc02552464b45c47",
    "quadric": "5f414f98eea6597eb17f757c5594a62fd7feb25c3ded8beb71fe69b096340c0b",
    "f1": "171a6311343e25f98d96a2b7f5e3cd0181e72cb2f761c0f1c16dcdb6ea0430b9",
    "dp7": "fbd6ded74d0d9741fc589c98409e618d6b15c4416a08561a603c5808fc9b48c1",
    "dp6": "474946fc63451fc1da1c0bc421e3c8e68576b8eadca747a4c4539757886502d5",
    "0,0;4,0;0,4;1,1;2,1;1,2": "99953305c79b65925b99a91595cd2eb9439e21f1f23ef363273f2ac2dd200067",
}


@pytest.mark.parametrize("source", list(GKZ_DIGESTS))
def test_fan_gkz_output_is_pinned(source):
    option = "--points" if ";" in source else "--toric"
    res = CliRunner().invoke(cli, ["fan", "gkz", option, source])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == GKZ_DIGESTS[source]


def test_fan_compare_p2():
    runner = CliRunner()
    res = runner.invoke(cli, ["fan", "compare", "--toric", "p2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["certified"]


def test_theta_commands():
    runner = CliRunner()
    res = runner.invoke(cli, ["theta", "hilbert", "--n", "6", "--max-level", "2"])
    data = json.loads(res.output)
    assert data["values"]["2"] == 19
    assert data["proj_degree"] == 6
    res2 = runner.invoke(cli, ["theta", "checks", "--n", "6"])
    data2 = json.loads(res2.output)
    assert data2["all_nodes_missed"] and data2["center_check"]
    res3 = runner.invoke(cli, ["theta", "table", "--n", "6", "--level", "2"])
    rows = [r for r in res3.output.splitlines() if r.strip()]
    assert len(rows) == 1 + 19  # header + level-2 basis


def test_spine_count_command(tmp_path):
    spine_file = tmp_path / "spine.json"
    spine_file.write_text(
        json.dumps(
            {
                "vertex_chart": 1,
                "vertex_position": [2, 1],
                "legs": [
                    {"direction": [1, 1], "weight": 1},
                    {"direction": [-1, -1], "weight": 1},
                ],
            }
        )
    )
    runner = CliRunner()
    res = runner.invoke(
        cli,
        ["spine", "count", "--selfint", "-1,-1,-1,-1,-1,-1", "--spine", str(spine_file)],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["balanced"] and data["count_at_class"] == 1


def test_bundle_check_command(tmp_path, p2_config):
    runner = CliRunner()
    fan_res = runner.invoke(cli, ["fan", "secondary", p2_config])
    sec_payload = json.loads(fan_res.output)
    mov_res = runner.invoke(cli, ["fan", "movsec", p2_config])
    mov_payload = json.loads(mov_res.output)
    fan_path = tmp_path / "sec.json"
    sub_path = tmp_path / "mov.json"
    fan_path.write_text(json.dumps(sec_payload))
    sub_path.write_text(json.dumps(mov_payload))
    res = runner.invoke(
        cli,
        [
            "bundle", "check",
            "--fan", str(fan_path),
            "--subfan", str(sub_path),
            "--l", "K",
            "--config", p2_config,
        ],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["ok"]


def test_pipeline_bundle_files(tmp_path, p2_config):
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(cli, ["pipeline", p2_config, "--out", str(out)])
    assert res.exit_code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "chambers.dot",
        "fan_mori.json",
        "fan_secondary.json",
        "report.json",
        "report.md",
        "theta_table.csv",
    ]
    report = json.loads((out / "report.json").read_text())
    assert report["counts"]["maximal_cones"] == 2
    assert report["fan_checks"]["secondary_complete"]
    dot = (out / "chambers.dot").read_text()
    assert dot.startswith("graph chambers")


def test_pipeline_hexagon_dot_has_32_nodes(tmp_path, hexagon_config):
    runner = CliRunner()
    out = tmp_path / "hex"
    res = runner.invoke(cli, ["pipeline", hexagon_config, "--out", str(out)])
    assert res.exit_code == 0
    dot = (out / "chambers.dot").read_text()
    assert sum(1 for line in dot.splitlines() if "fillcolor" in line) == 32
    report = json.loads((out / "report.json").read_text())
    assert report["counts"]["maximal_cones"] == 32
    assert report["one_strata"]["non_changing"] == []


def test_pipeline_deterministic_across_workers(tmp_path, p2_config):
    runner = CliRunner()
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    assert runner.invoke(
        cli, ["pipeline", p2_config, "--out", str(out1), "--workers", "1"]
    ).exit_code == 0
    assert runner.invoke(
        cli, ["pipeline", p2_config, "--out", str(out2), "--workers", "4"]
    ).exit_code == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cache_put_reentrant_writer_publishes_whole_payloads(tmp_path, monkeypatch):
    # a second writer of the same key starts while the first is mid-write
    outer, inner = {"writer": "outer"}, {"writer": "inner"}
    real_dump = json.dump

    def dump(obj, fh, **kwargs):
        if obj is outer:
            cache_put(str(tmp_path), "k", "report", inner)
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump)
    cache_put(str(tmp_path), "k", "report", outer)
    monkeypatch.undo()
    assert json.loads((tmp_path / "report" / "k.json").read_text()) == outer
    assert [p.name for p in (tmp_path / "report").iterdir()] == ["k.json"]


def test_cache_put_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def dump(obj, fh, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump)
    with pytest.raises(OSError):
        cache_put(str(tmp_path), "k", "report", {})
    assert list((tmp_path / "report").iterdir()) == []


def test_build_report_verifies_each_fact_once(monkeypatch):
    calls = {}
    checked_fans = {"fan_check": [], "is_complete": []}
    active = []  # names of the counted calls in progress
    stray_intersects = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name in checked_fans:
                checked_fans[name].append(tuple(c.key() for c in args[0].cones))
            if name == "intersect" and not {"fan_check", "decompose"} & set(active):
                stray_intersects.append(list(active))
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    originals = {
        name: getattr(cones, name)
        for name in ("fan_check", "is_complete", "is_coarsening", "intersect", "faces")
    }
    originals["decompose"] = toricstack.decompose
    for name, fn in originals.items():
        wrapper = counted(name, fn)
        for mod in (cli_module, cones, secondary, toricstack):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    battery_intersects = []
    real_battery = cli_module.cocycle_battery

    def battery(*args, **kwargs):
        before = calls.get("intersect", 0)
        out = real_battery(*args, **kwargs)
        battery_intersects.append(calls.get("intersect", 0) - before)
        return out

    monkeypatch.setattr(cli_module, "cocycle_battery", battery)
    report, sec = build_report(*hexagon_boundary())
    mori, full = (tuple(c.key() for c in f.cones) for f in (sec.mori_fan, sec.full_fan))
    # pairwise predicate on the full fan only; the degree certificate on Mori and full
    assert mori != full
    assert checked_fans["fan_check"] == [full]
    assert sorted(checked_fans["is_complete"]) == sorted([mori, full])
    # coarsening is read off movsec and the bogus-cone containment, not re-proved
    assert "is_coarsening" not in calls
    assert calls["decompose"] == 1
    assert "faces" not in calls  # decompose reads faces off the incidences
    assert battery_intersects == [0]
    assert stray_intersects == []
    assert all(report["fan_checks"][k] for k in (
        "mori_is_fan", "secondary_is_fan", "secondary_complete", "coarsens_mori"))


BOUNDARIES = {
    "hexagon": hexagon_boundary,
    "pentagon": lambda: (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0]),
    "square": lambda: (PicLattice(5), minus_one_cycles(PicLattice(5), 4)[0]),
}


@pytest.mark.parametrize("name, rows", [("hexagon", 100), ("pentagon", 309), ("square", 1410)])
def test_build_report_builds_each_fans_walls_once(tmp_path, monkeypatch, name, rows):
    counted, maps = [], []
    real_key, real_map = cones._facet_faces_key, cones._wall_map

    def key(c):
        counted.append(c)
        return real_key(c)

    def wall_map(members, *args):
        maps.append(tuple(members))
        return real_map(members, *args)

    monkeypatch.setattr(cones, "_facet_faces_key", key)
    monkeypatch.setattr(cones, "_wall_map", wall_map)
    report, sec = build_report(*BOUNDARIES[name]())
    write_bundle(tmp_path, report, sec)
    monkeypatch.undo()
    mori, full = sec.mori_fan, sec.full_fan
    # a row per cone of the Mori and the full fan, and per chamber for the
    # tilings of movsec and for the adjacency of the cocycle battery
    assert len(counted) == len(mori.cones) + len(full.cones) + 2 * len(sec.chambers) == rows
    # is_complete, one_stratum_report and fan_to_dot build no map of their own
    assert mori.cones not in maps and full.cones not in maps
    # the bogus cones' walls, added to the members' map, give a fresh map of all
    # cones and leave the members' map as it was
    for fan in (mori, full, sec.movsec_fan):
        assert list(fan.walls.items()) == list(cones._wall_map(fan.cones).items())
        assert all(c.dim == rank_of(list(c.rays) + list(c.lineality)) for c in fan.cones)


def test_cocycle_battery_computes_each_value_once(monkeypatch):
    calls = []
    real = secondary._crossing_values

    def counted(points, idx, beta, boundary):
        calls.extend((p, idx, idx in beta.boundary_exc) for p in points)
        return real(points, idx, beta, boundary)

    monkeypatch.setattr(secondary, "_crossing_values", counted)
    monkeypatch.setattr(secondary, "theta_cocycle", None)
    lat, cycle = hexagon_boundary()
    chambers = secondary.build_chambers(lat, cycle)
    rep = secondary.cocycle_battery(lat, cycle, chambers)
    # a crossing's values depend on its flop index and on whether the chamber
    # it enters contracts that boundary curve: one value per such key and point
    keys = set()
    for e in secondary.chamber_adjacency(chambers):
        for a, b in (e, e[::-1]):
            idx = secondary._single_flop_index(chambers[a], chambers[b])
            keys.add((idx, idx in chambers[b].boundary_exc))
    assert len(keys) == 12 < 2 * rep["pairs"]
    assert len(calls) == len(set(calls)) == len(keys) * rep["points"]
