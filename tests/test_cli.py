import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from secfan import cli as cli_module
from secfan import cones, secondary, toricstack
from secfan.cli import build_report, cache_put, cli, config_hash, load_config
from secfan.delpezzo import BoundaryCycle, PicLattice, hexagon_boundary
from secfan.errors import ValidationError

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
    checked_fans = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "fan_check":
                checked_fans.append(tuple(c.key() for c in args[0].cones))
            return fn(*args, **kwargs)
        return wrapper

    originals = {
        name: getattr(cones, name)
        for name in ("fan_check", "is_complete", "is_coarsening", "intersect")
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
    report, _ = build_report(*hexagon_boundary())
    assert len(checked_fans) == 2 and len(set(checked_fans)) == 2
    assert calls["is_complete"] == calls["is_coarsening"] == calls["decompose"] == 1
    assert battery_intersects == [0]
    assert all(report["fan_checks"][k] for k in (
        "mori_is_fan", "secondary_is_fan", "secondary_complete", "coarsens_mori"))
