import ast
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from cocycle_oracle import chamber_adjacency
from secfan import cli as cli_module
from secfan import cones, delpezzo, disk, secondary, toricstack
from secfan.cli import build_report, cache_put, cli, config_hash, load_config, write_bundle
from secfan.cones import Fan, cone_from_rays
from secfan.delpezzo import (
    BoundaryCycle,
    PicLattice,
    boundary_stabilizer,
    contractions,
    hexagon_boundary,
    minus_one_cycles,
    orbit_tree,
    simple_roots,
    toric_boundary,
    weyl_generators,
)
from secfan.disk import fan_chart_data, fan_triangulation, gamma_complex, triangulation_with_flips
from secfan.errors import InternalInvariantError, ValidationError
from secfan.lattice import IntMat, rank_of
from secfan.secondary import mori_fan_K
from secfan.thetaalg import UmbrellaRing

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
    by_k = tmp_path / "qk.json"
    by_k.write_text(json.dumps({"k": 2, "model_tag": "quadric",
                                "cycle": [[1, 0], [0, 1], [1, 0], [0, 1]]}))
    assert load_config(str(by_k))["lat"] == cfg["lat"]
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
    # JSON numbers that are not integers, and booleans, are refused, not truncated
    "class_float.json": '{"degree": 9, "cycle": [[1.9], [1], [1]]}',
    "k_float.json": '{"k": 0.5, "cycle": [[1], [1], [1]]}',
    "k_bool.json": '{"k": true, "cycle": [[1, 0], [2, -1]]}',
    "quadric_float.json": '{"degree": 8.0, "model_tag": "quadric",'
                          ' "cycle": [[1, 0], [0, 1], [1, 0], [0, 1]]}',
    # the quadric's 'k' is 2, as its 'degree' is 8: any other value is refused, not ignored
    "quadric_k.json": '{"k": 7, "model_tag": "quadric", "cycle": [[1, 0], [0, 1], [1, 0], [0, 1]]}',
    # nested past the interpreter's recursion limit: bad JSON, not a crash
    "deep.json": "[" * 100_000,
}
# a straight hexagon spine in chart 1
SPINE = {
    "vertex_chart": 1,
    "vertex_position": [2, 1],
    "legs": [{"direction": [1, 1]}, {"direction": [-1, -1]}],
}
# that spine with a vertex chart that is no chart 1..6, or with a number that
# is not a JSON integer (refused, not truncated to the spine above)
BAD_SPINES = {
    **{f"chart{c}.json": json.dumps({**SPINE, "vertex_chart": c}) for c in (0, 7)},
    "chart_float.json": json.dumps({**SPINE, "vertex_chart": 1.9}),
    "direction_float.json": json.dumps(
        {**SPINE, "legs": [{"direction": [1.7, 1]}, {"direction": [-1, -1]}]}),
    "weight_float.json": json.dumps(
        {**SPINE, "legs": [{"direction": [1, 1], "weight": 1.5}, {"direction": [-1, -1]}]}),
    "weight_bool.json": json.dumps(
        {**SPINE, "legs": [{"direction": [1, 1], "weight": True}, {"direction": [-1, -1]}]}),
}


def per_cone_layout(line: str) -> str:
    """A fan line in the per-cone layout of older versions: each cone lists its
    own rays and facets, and there are no ray and facet tables."""
    data = json.loads(line)
    rays, facets = data.pop("rays"), data.pop("facets")
    for cd in data["cones"]:
        cd["rays"], cd["facets"] = [rays[i] for i in cd["rays"]], [facets[i] for i in cd["facets"]]
    return json.dumps(data, sort_keys=True)


# the fan {x >= 0, x <= 0} of the line; in the per-cone layout, with cone 1's
# ray index negative (it would wrap to cone 0's ray), past the table's end, or
# not an int, with a number that is not a JSON int or a decimal string
# (refused, not truncated: ray 0 = (-1) read as (1) would repeat cone 0), and
# with a label, a facet table or a facet index that the reader would not use,
# and without the facet table or cone 1's facet list (both are required keys)
LINE_FAN = json.dumps(cones.fan_to_json(
    Fan(1, (cones.cone_from_rays([(1,)]), cones.cone_from_rays([(-1,)])))))
LINE = json.loads(LINE_FAN)


def with_cone_1(**entries) -> str:
    return json.dumps({**LINE, "cones": [LINE["cones"][0], {**LINE["cones"][1], **entries}]})


BAD_FANS = {
    "per_cone.json": per_cone_layout(LINE_FAN),
    **{f"index_{name}.json": with_cone_1(rays=[i])
       for name, i in [("negative", -1), ("past_end", 2), ("bool", True), ("text", "0")]},
    "ray_float.json": json.dumps({**LINE, "rays": [[1.7], ["1"]]}),
    "ray_bool.json": json.dumps({**LINE, "rays": [[True], ["1"]]}),
    "rank_float.json": json.dumps({**LINE, "ambient_rank": 1.9}),
    "rank_text.json": json.dumps({**LINE, "ambient_rank": "1"}),
    "lineality_float.json": with_cone_1(lineality=[[0.5]]),
    "label_list.json": with_cone_1(label=[1]),
    "facet_table.json": json.dumps({**LINE, "facets": [["x"], [1.5]]}),
    "facet_index.json": with_cone_1(facets=[2]),
    "no_facet_table.json": json.dumps({k: v for k, v in LINE.items() if k != "facets"}),
    "no_cone_facets.json": json.dumps({**LINE, "cones": [
        LINE["cones"][0], {k: v for k, v in LINE["cones"][1].items() if k != "facets"}]}),
}


def plane_fan(*cones_rays) -> str:
    return json.dumps(cones.fan_to_json(Fan(2, tuple(cone_from_rays(r) for r in cones_rays))))


# an ambient fan that is no fan (cone 1 lies inside cone 0), a complete one,
# and a subfan of rays that are no cones, nor faces of cones, of either
AMBIENTS = {
    "nested.json": plane_fan([(1, 0), (1, 2)], [(1, 0), (1, 1)]),
    "quadrants.json": plane_fan([(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
                                [(0, -1), (1, 0)]),
    "rays.json": plane_fan([(1, 2)], [(1, 1)]),
}
# by the last argument, the key or option a bad input must name in its error;
# a named key comes with the name of its file
NAMED_KEYS = {"class_float.json": "'cycle' entry", "k_float.json": "'k'", "k_bool.json": "'k'",
              "quadric_float.json": "'degree'", "quadric_k.json": "'k' is 7",
              "chart_float.json": "'vertex_chart'",
              "direction_float.json": "'direction' entry", "weight_float.json": "'weight'",
              "weight_bool.json": "'weight'", "1,0": "--L", "0": "--L",
              "deep.json": "is not valid JSON", "per_cone.json": "'rays'",
              **{name: "cone 1 ('cone1'): ray 0 is" for name in BAD_FANS if "index" in name},
              "ray_float.json": "ray table: ray 0, entry 0 is 1.7",
              "ray_bool.json": "ray table: ray 0, entry 0 is True",
              "rank_float.json": "'ambient_rank' is 1.9", "rank_text.json": "'ambient_rank' is '1'",
              "lineality_float.json": "cone 1 ('cone1'): lineality row 0, entry 0 is 0.5",
              "label_list.json": "cone 1: label is [1], not a string",
              "facet_table.json": "facet table: facet 0, entry 0 is 'x'",
              "facet_index.json": "cone 1 ('cone1'): facet 0 is 2",
              "no_facet_table.json": "'facets'", "no_cone_facets.json": "'facets'",
              "nested.json": "--fan is not a complete fan: wall [(1, 0)]:"
                             " cones cone0 and cone1 are not on opposite sides",
              "rays.json": "--subfan cone cone0 is not a cone of --fan"}


@pytest.mark.parametrize("argv", [
    *[["delpezzo", "validate", name] for name in BAD_CONFIGS],
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "K",
     "--config", "no_cycle.json"],
    ["fan", "gkz", "--points", "1,0;0,x"],
    ["fan", "gkz", "--points", "1,0,0;0,1,0;0,0,1"],
    ["fan", "gkz", "--points", "1,0;0,1;2,-1"],
    ["spine", "count", "--selfint", "-1,a", "--spine", "line.json"],
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "1;x"],
    # --L must be a basis: vectors of the fan's rank, linearly independent
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "1,0"],
    ["bundle", "check", "--fan", "line.json", "--subfan", "line.json", "--L", "0"],
    ["bundle", "check", "--fan", "broken.json", "--subfan", "line.json", "--L", "1"],
    ["bundle", "check", "--fan", "no_cycle.json", "--subfan", "line.json", "--L", "1"],
    # the ambient must be a complete fan, and each subfan cone one of its cones
    ["bundle", "check", "--L", "1,0", "--subfan", "rays.json", "--fan", "nested.json"],
    ["bundle", "check", "--L", "1,0", "--fan", "quadrants.json", "--subfan", "rays.json"],
    ["spine", "count", "--selfint", "-1,-1,-1,-1,-1,-1", "--spine", "no_cycle.json"],
    ["theta", "table", "--n", "6", "--triangulation", "a"],
    ["theta", "hilbert", "--n", "3", "--max-level", "-1"],
    ["fan", "mori", "no_cycle.json", "--workers", "1"],
    ["fan", "mori", "deep.json"],
    *[["bundle", "check", "--L", "1", "--fan", "line.json", "--subfan", name] for name in BAD_FANS],
    *[["spine", "count", "--selfint", "-1,-1,-1,-1,-1,-1", "--spine", name]
      for name in BAD_SPINES],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2_without_traceback(tmp_path, argv):
    for name, text in {**BAD_CONFIGS, **BAD_SPINES, **BAD_FANS, **AMBIENTS,
                       "line.json": LINE_FAN}.items():
        (tmp_path / name).write_text(text)
    key = NAMED_KEYS.get(argv[-1], "")
    argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "secfan.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation error" in proc.stderr
    assert key in proc.stderr
    if key.startswith("'"):
        assert argv[-1] in proc.stderr


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


FAN_KINDS = ("mori", "movsec", "secondary")


@pytest.mark.parametrize("kind", FAN_KINDS)
def test_fan_cache_hit_prints_the_entry_it_read(tmp_path, hexagon_config, monkeypatch, kind):
    runner = CliRunner()
    args = ["fan", kind, hexagon_config, "--cache-dir", str(tmp_path / "cache")]
    miss = runner.invoke(cli, args).output
    entry = next((tmp_path / "cache" / kind).glob("*.json"))
    assert entry.read_bytes() + b"\n" == miss.encode()

    # a hit builds no fan and encodes no payload
    def boom(*args, **kwargs):
        raise AssertionError("a cache hit computed its payload")

    with monkeypatch.context() as m:
        for name in ("fan_to_json", "mori_fan_K", "secondary_fan"):
            m.setattr(cli_module, name, boom)
        assert runner.invoke(cli, args).output == miss

    # an entry in the old indented layout is recomputed once, back to one line
    entry.write_text(cli_module.json_text(json.loads(miss)), encoding="utf-8")
    res = runner.invoke(cli, args)
    assert res.output == f"warning: cache entry {entry} is not a single line, recomputing\n{miss}"
    assert entry.read_bytes() + b"\n" == miss.encode()


@pytest.mark.parametrize("kind", FAN_KINDS)
def test_fan_cache_entry_in_the_per_cone_layout_recomputes_with_warning(tmp_path, hexagon_config,
                                                                        kind):
    runner = CliRunner()
    args = ["fan", kind, hexagon_config, "--cache-dir", str(tmp_path / "cache")]
    miss = runner.invoke(cli, args).output
    entry = next((tmp_path / "cache" / kind).glob("*.json"))
    entry.write_text(per_cone_layout(miss), encoding="utf-8")
    res = runner.invoke(cli, args)
    assert res.exit_code == 0, res.output
    assert res.output == (f"warning: cache entry {entry} is not in the indexed fan layout,"
                          f" recomputing\n{miss}")
    assert entry.read_bytes() + b"\n" == miss.encode()


@pytest.mark.parametrize("kind", FAN_KINDS)
@pytest.mark.parametrize("junk", [b"{ not json", b"\xff\xfe{", b"[" * 100_000],
                         ids=["broken", "not_utf8", "deep"])
def test_corrupt_fan_cache_entry_recomputes_with_warning(tmp_path, hexagon_config, kind, junk):
    runner = CliRunner()
    args = ["fan", kind, hexagon_config, "--cache-dir", str(tmp_path / "cache")]
    miss = runner.invoke(cli, args).output
    entry = next((tmp_path / "cache" / kind).glob("*.json"))
    entry.write_bytes(junk)
    res = runner.invoke(cli, args)
    assert res.exit_code == 0, res.output
    assert res.output == f"warning: corrupt cache entry {entry}, recomputing\n{miss}"
    assert entry.read_bytes() + b"\n" == miss.encode()


@pytest.mark.parametrize("kind", FAN_KINDS)
def test_fan_cache_hit_with_a_matching_proof_runs_no_check(tmp_path, hexagon_config, monkeypatch,
                                                           kind):
    runner = CliRunner()
    args = ["fan", kind, hexagon_config, "--cache-dir", str(tmp_path / "cache")]
    miss = runner.invoke(cli, args).output
    entry = next((tmp_path / "cache" / kind).glob("*.json"))
    blob = f"{cli_module.__version__}\0{kind}\0".encode() + entry.read_bytes()
    assert entry.with_suffix(".sha256").read_text() == hashlib.sha256(blob).hexdigest()

    def boom(*args):
        raise AssertionError("a hit with a matching proof ran the check")

    monkeypatch.setattr(cli_module, "_entry_problem", boom)
    assert runner.invoke(cli, args).output == miss


def test_cache_entry_and_proof_of_another_kind_recompute_with_warning(tmp_path, hexagon_config):
    runner = CliRunner()
    cache = tmp_path / "cache"
    miss = {kind: runner.invoke(cli, ["fan", kind, hexagon_config, "--cache-dir", str(cache)]).output
            for kind in ("mori", "secondary")}
    entry, other = next(cache.glob("mori/*.json")), next(cache.glob("secondary/*.json"))
    for suffix in (".json", ".sha256"):
        entry.with_suffix(suffix).write_bytes(other.with_suffix(suffix).read_bytes())
    res = runner.invoke(cli, ["fan", "mori", hexagon_config, "--cache-dir", str(cache)])
    assert res.output == f"warning: cache entry {entry} is not a mori payload, recomputing\n" \
                         f"{miss['mori']}"
    assert entry.read_bytes() + b"\n" == miss["mori"].encode()
    assert runner.invoke(cli, ["fan", "mori", hexagon_config, "--cache-dir", str(cache)]).output \
        == miss["mori"]


@pytest.mark.parametrize("proof", ["missing", "junk", "other_version"])
def test_cache_entry_without_a_matching_proof_is_checked_and_served(tmp_path, hexagon_config,
                                                                    monkeypatch, proof):
    # caches written before proofs existed, a damaged proof, or one of another version
    runner = CliRunner()
    cache = tmp_path / "cache"
    args = ["fan", "mori", hexagon_config, "--cache-dir", str(cache)]
    with monkeypatch.context() as m:
        if proof == "other_version":
            m.setattr(cli_module, "__version__", "0.0.1")
        miss = runner.invoke(cli, args).output
    entry = next(cache.glob("mori/*.json"))
    if proof == "missing":
        entry.with_suffix(".sha256").unlink()
    elif proof == "junk":
        entry.with_suffix(".sha256").write_bytes(b"\xff" * 64)
    files = lambda: {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()}
    before, checked, real = files(), [], cli_module._entry_problem
    monkeypatch.setattr(cli_module, "_entry_problem",
                        lambda data, kind, path: checked.append(path) or real(data, kind, path))
    assert runner.invoke(cli, args).output == miss
    assert checked == [entry]  # the full check ran once
    assert files() == before  # a read writes no file


def test_cache_entry_removed_before_its_read_is_a_silent_miss(tmp_path, hexagon_config,
                                                              monkeypatch):
    runner = CliRunner()
    args = ["fan", "mori", hexagon_config, "--cache-dir", str(tmp_path / "cache")]
    miss = runner.invoke(cli, args).output
    entry = next((tmp_path / "cache" / "mori").glob("*.json"))
    real_open = Path.open

    def vanishing_open(self, *args, **kwargs):  # a concurrent prune removes the entry first
        if self == entry:
            self.unlink(missing_ok=True)
        return real_open(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Path, "open", vanishing_open)
        res = runner.invoke(cli, args)
    assert res.exit_code == 0, res.output
    assert res.output == miss
    assert entry.read_bytes() + b"\n" == miss.encode()


def test_pipeline_report_entry_gets_no_proof(tmp_path, p2_config):
    res = CliRunner().invoke(cli, ["pipeline", p2_config, "--out", str(tmp_path / "out"),
                                   "--cache-dir", str(tmp_path / "cache")])
    assert res.exit_code == 0, res.output
    (entry,) = (tmp_path / "cache" / "report").iterdir()
    assert entry.suffix == ".json"
    assert entry.read_bytes() == (tmp_path / "out" / "report.json").read_bytes()


def test_fan_gkz_points():
    runner = CliRunner()
    res = runner.invoke(cli, ["fan", "gkz", "--points", "1,0;0,1;-1,-1;0,0"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["triangulation_count"] == 2


def test_fan_gkz_of_one_triangle_is_the_rank_0_fan():
    res = CliRunner().invoke(cli, ["fan", "gkz", "--points", "0,0;1,0;0,1"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["triangulation_count"] == 1
    assert data["fan"]["ambient_rank"] == 0 and len(data["fan"]["cones"]) == 1


def test_fan_mori_builds_no_secondary_fan(tmp_path, monkeypatch):
    def boom(*_):
        raise AssertionError("fan mori built the secondary fan")

    # each bundle fan file is its command's stdout without the newline
    for name in ("hexagon", "pentagon"):
        lat, cycle = BOUNDARIES[name]()
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"k": lat.k, "cycle": [list(c) for c in cycle.classes]}))
        config = str(config)
        write_bundle(tmp_path / name, *build_report(lat, cycle))
        with monkeypatch.context() as m:
            m.setattr(cli_module, "secondary_fan", boom)
            res = CliRunner().invoke(cli, ["fan", "mori", config])
        assert res.exit_code == 0, res.output
        assert (tmp_path / name / "fan_mori.json").read_bytes() + b"\n" == res.output.encode()
        res = CliRunner().invoke(cli, ["fan", "secondary", config])
        assert res.exit_code == 0, res.output
        assert (tmp_path / name / "fan_secondary.json").read_bytes() + b"\n" == res.output.encode()


def test_fan_out_file_is_the_printed_line(tmp_path, hexagon_config):
    res = CliRunner().invoke(cli, ["fan", "mori", hexagon_config, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out" / "fan_mori.json").read_bytes() + b"\n" == res.output.encode()
    md = (tmp_path / "out" / "fan_mori.md").read_text()
    assert f"- maximal cones: {len(json.loads(res.output)['cones'])}\n" in md


def test_bundle_check_reads_an_old_indented_fan_file(tmp_path, hexagon_config):
    runner = CliRunner()
    for kind in ("secondary", "movsec"):
        line = runner.invoke(cli, ["fan", kind, hexagon_config]).output
        (tmp_path / f"{kind}.json").write_text(line)
        (tmp_path / f"{kind}_indented.json").write_text(cli_module.json_text(json.loads(line)))

    def check(suffix):
        res = runner.invoke(cli, ["bundle", "check", "--fan", str(tmp_path / f"secondary{suffix}.json"),
                                  "--subfan", str(tmp_path / f"movsec{suffix}.json"),
                                  "--l", "K", "--config", hexagon_config])
        assert res.exit_code == 0, res.output
        return res.output

    cert = check("")
    assert json.loads(cert)["ok"] and json.loads(cert)["stabilizers"]
    assert check("_indented") == cert


# sha256 of the printed `fan gkz` payload in the indexed fan layout; its fans
# are those pinned before the integer and bitset GKZ kernels replaced the
# Fraction and edge-list ones
GKZ_DIGESTS = {
    "p2": "995d67e947e0f4f7cb03716888b81b3407a4f448b49b968fd6a53f766afe2155",
    "quadric": "9f47a8123b6e3e2981869062c59e8a69dbf2b525ad98b8c517bc71b93da901f5",
    "f1": "a9b768895125b9c04fb227be1849743210877cd828671add5dfb1046586c1849",
    "dp7": "70f1516bc61f6e4d280feb67f210dddb5579267ce5d19a7ad4b2f1b572070021",
    "dp6": "01e0f06298657a4d5d15298a191a60519b66d3242bc982760ae9b741d9021a6f",
    "0,0;4,0;0,4;1,1;2,1;1,2": "b0b2a1f9df9242f8edabebbde1d7cc735c7a10d1f5f62b079c8c1ecf65f1be4c",
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


def theta_table_per_row(n, flips, level):
    """Reference theta table: every degree-one product recomputed for each output row."""
    tri = triangulation_with_flips(n, flips) if flips else fan_triangulation(n)
    ring = UmbrellaRing(n, tri)
    comp = ring.complex
    basis = comp.points_at_level(level)
    lower = comp.points_at_level(level - 1) if level >= 1 else []
    ones = comp.points_at_level(1)
    rows = ["point_cell,point_coords,level,products_from_degree_one"]
    for b in basis:
        sources = []
        for p in lower:
            for q in ones:
                prod = ring.product(p, q)
                for pt, _, coeff in prod.terms:
                    if (pt.cell, pt.coords) == (b.cell, b.coords) and coeff:
                        sources.append(f"{p.cell}{p.coords}*{q.cell}{q.coords}")
        rows.append(
            f"\"{b.cell}\",\"{b.coords}\",{b.level},\"{';'.join(sorted(set(sources)))}\""
        )
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n, flips, level", [
    (5, (), 2), (3, (), 3), (6, (1, 3), 2), (4, (2,), 0), (1, (), 2), (2, (), 2),
])
def test_theta_table_matches_per_row_oracle(n, flips, level):
    assert cli_module.theta_table_csv(n, flips, level) == theta_table_per_row(n, flips, level)


@pytest.mark.parametrize("level", [2, 3])
def test_theta_table_computes_each_product_once(monkeypatch, level):
    calls = []
    real = UmbrellaRing.product

    def product(self, p, q):
        calls.append((p.cell, p.coords, q.cell, q.coords))
        return real(self, p, q)

    monkeypatch.setattr(UmbrellaRing, "product", product)
    cli_module.theta_table_csv(5, (), level)
    comp = gamma_complex(fan_triangulation(5))
    want = len(comp.points_at_level(level - 1)) * len(comp.points_at_level(1))
    assert len(calls) == len(set(calls)) == want


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


def test_bundle_check_takes_a_subfan_of_faces(tmp_path):
    # the x-axis rays are faces of the quadrants, not quadrants: each quadrant
    # splits as its ray on the y-axis plus its ray on the x-axis
    (tmp_path / "quadrants.json").write_text(AMBIENTS["quadrants.json"])
    (tmp_path / "x_axis.json").write_text(plane_fan([(1, 0)], [(-1, 0)]))
    res = CliRunner().invoke(cli, ["bundle", "check", "--fan", str(tmp_path / "quadrants.json"),
                                   "--subfan", str(tmp_path / "x_axis.json"), "--L", "0,1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"]


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
    assert "one_strata" not in report


def test_a_failing_cocycle_battery_is_written_as_data(tmp_path, hexagon_config, monkeypatch):
    lat, cycle = hexagon_boundary()
    point = gamma_complex(fan_triangulation(cycle.n)).points_at_level(1)[0]
    real_battery = cli_module.cocycle_battery
    monkeypatch.setattr(cli_module, "cocycle_battery", lambda sec: {
        **real_battery(sec), "ok": False, "failures": [("loop", 0, 1, point)]})
    out = tmp_path / "hex"
    res = CliRunner().invoke(cli, ["pipeline", hexagon_config, "--out", str(out)])
    assert res.exit_code == 0, res.output
    battery = json.loads((out / "report.json").read_text())["cocycle_battery"]
    assert battery["ok"] is False
    assert battery["failures"] == [{"kind": "loop", "pair": [mori_fan_K(lat).label_of(i)
                                                             for i in (0, 1)],
                                    "cell": list(point.cell), "coords": list(point.coords)}]
    assert "- cocycle battery: False" in (out / "report.md").read_text()


def test_pipeline_is_byte_deterministic(tmp_path, p2_config):
    runner = CliRunner()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert runner.invoke(cli, ["pipeline", p2_config, "--out", str(out1)]).exit_code == 0
    assert runner.invoke(cli, ["pipeline", p2_config, "--out", str(out2)]).exit_code == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cache_put_reentrant_writer_publishes_whole_payloads(tmp_path, monkeypatch):
    # a second writer of the same key starts while the first is mid-write
    outer, inner = {"writer": "outer"}, {"writer": "inner"}
    real_text = cli_module.json_text

    def text(obj):
        if obj is outer:
            cache_put(str(tmp_path), "k", "report", inner)
        return real_text(obj)

    monkeypatch.setattr(cli_module, "json_text", text)
    cache_put(str(tmp_path), "k", "report", outer)
    monkeypatch.undo()
    assert json.loads((tmp_path / "report" / "k.json").read_text()) == outer
    assert [p.name for p in (tmp_path / "report").iterdir()] == ["k.json"]


def test_pipeline_encodes_the_report_once(tmp_path, p2_config, monkeypatch):
    encoded = []
    real_text = cli_module.json_text
    monkeypatch.setattr(cli_module, "json_text", lambda obj: encoded.append(obj) or real_text(obj))
    res = CliRunner().invoke(cli, ["pipeline", p2_config, "--out", str(tmp_path / "out"),
                                   "--cache-dir", str(tmp_path / "cache")])
    assert res.exit_code == 0, res.output
    assert len(encoded) == 1
    entry = next((tmp_path / "cache" / "report").glob("*.json"))
    assert entry.read_bytes() == (tmp_path / "out" / "report.json").read_bytes()


def test_cache_put_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def text(obj):
        raise OSError("disk full")

    monkeypatch.setattr(cli_module, "json_text", text)
    with pytest.raises(OSError):
        cache_put(str(tmp_path), "k", "report", {})
    assert list((tmp_path / "report").iterdir()) == []


def test_build_report_verifies_each_fact_once(monkeypatch, cold_mori_fan):
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
    # coarsening is secondary_fan's one containment pass (each Mori bogus cone
    # in the host its chamber names), not re-proved by is_coarsening
    assert "is_coarsening" not in calls
    assert calls["decompose"] == 1
    assert "faces" not in calls  # decompose reads faces off the incidences
    assert battery_intersects == [0]
    assert stray_intersects == []
    assert all(report["fan_checks"][k] for k in (
        "mori_is_fan", "secondary_is_fan", "secondary_complete", "coarsens_mori"))


def test_disk_triangulations_are_built_per_moving_group(tmp_path, monkeypatch):
    built = []
    real = secondary.triangulation_with_flips

    def counted(n, flips):
        built.append(frozenset(flips))
        return real(n, flips)

    monkeypatch.setattr(secondary, "triangulation_with_flips", counted)
    lat = PicLattice(4)
    cycle = minus_one_cycles(lat, 5)[0]
    secondary.secondary_fan(lat, cycle)
    assert built == []
    report, sec = build_report(lat, cycle)
    write_bundle(tmp_path, report, sec)
    assert (len(sec.chambers), sec.moving_count) == (76, 11)
    # one per group, for the grouping proof; the one-stratum report reads its keys
    assert built == [g.key for g in sec.groups]


def _stab_b_walk_starts(sec):
    """The start of each of secondary_fan's Stab(B) walks: the root key of
    each group orbit, its sorted chamber rays, then the root of each face
    orbit."""
    n, roots = len(sec.groups), sorted(set(sec.full_fan.orbits))
    rays = [tuple(sorted({r for i in g.member_ids for r in sec.chambers[i].cone.rays}))
            for g in sec.groups]
    return [rays[r] for r in roots if r < n] + [sec.bogus_faces[r - n] for r in roots if r >= n]


def test_pipeline_enumerates_each_level_once_and_walks_stab_b_once(tmp_path, monkeypatch):
    enumerated, walks = [], []
    real_level, real_walk = disk.GammaComplex.points_at_level, secondary.orbit_tree
    lat = PicLattice(4)
    mori_fan_K(lat)  # warm: the only walks left are the secondary fan's

    def level(comp, m):
        if m not in comp._levels:
            enumerated.append((comp.tri, m))
        return real_level(comp, m)

    monkeypatch.setattr(disk.GammaComplex, "points_at_level", level)
    monkeypatch.setattr(secondary, "orbit_tree",
                        lambda start, moves: walks.append(start) or real_walk(start, moves))
    disk._complex_cache.cache_clear()  # fresh complexes, so no level is kept yet
    report, sec = build_report(lat, minus_one_cycles(lat, 5)[0])
    write_bundle(tmp_path, report, sec)
    # Hilbert data, the battery, the theta checks, the boundary algebra and
    # the theta table all read the fan triangulation's levels 0 to 5
    assert enumerated == [(fan_triangulation(5), m) for m in range(6)]
    # secondary_fan walks Stab(B) once per orbit of the groups and of the
    # faces, during the build; the Weyl section reads those walks
    assert walks == _stab_b_walk_starts(sec) and len(walks) == 6
    assert report["weyl"]["stabilizer_fixes_secondary_fan"] is True


# {E_4, -K-E_4}: a two-component cycle, where the disk has no flips
TWO_CYCLE = {"k": 4, "cycle": [[0, 0, 0, 0, 1], [3, -1, -1, -1, -2]]}


def test_a_two_cycle_gets_a_proved_secondary_fan_and_pipeline_exits_2(tmp_path):
    lat = PicLattice(4)
    sec = secondary.secondary_fan(lat, BoundaryCycle(tuple(map(tuple, TWO_CYCLE["cycle"]))))
    assert (len(sec.chambers), sec.moving_count, sec.bogus_count) == (76, 2, 13)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(TWO_CYCLE))
    res = CliRunner().invoke(cli, ["fan", "secondary", str(cfg)])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["cones"]) == 15
    # a disk with two boundary vertices has no flips: the grouping refuses
    # group mov[1], which contracts E_4, before it builds any triangulation
    proc = subprocess.run([sys.executable, "-m", "secfan.cli", "pipeline", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("validation error: triangulation grouping: moving group mov[1] flips"
                           " the disk, which needs a boundary cycle of length at least 3, not 2\n")
    # a 2-cycle that contracts no boundary component keeps its one fan triangulation
    report, _ = build_report(PicLattice(1), BoundaryCycle(((1, 0), (2, -1))))
    assert (report["n"], report["counts"]["moving_cones"]) == (2, 1)
    # the cocycle battery needs n >= 3: not run, so not true
    assert report["cocycle_battery"]["ok"] is None
    assert report["cocycle_battery"]["pairs"] == 0
    assert "- cocycle battery: not run (n < 3)\n" in cli_module.report_markdown(report)


BOUNDARIES = {
    "hexagon": hexagon_boundary,
    "pentagon": lambda: (PicLattice(4), minus_one_cycles(PicLattice(4), 5)[0]),
    "square": lambda: (PicLattice(5), minus_one_cycles(PicLattice(5), 4)[0]),
    "p2": lambda: (PicLattice(0), BoundaryCycle(((1,), (1,), (1,)))),
}


# sha256 of each bundle file; the seed-0 square's report carries its k = 5 weyl section
BUNDLE_DIGESTS = {
    "hexagon": {
        "chambers.dot": "c0d01285862e3dcb4ea0d27bff2e72fe81abfb1d0cd46003b2a2f4a1f0892450",
        "fan_mori.json": "7d08075c03809be388cab2d38de095aa256426086fe12b8c016c009562bb2561",
        "fan_secondary.json": "ce4a61cd364c7970895d31949b4910fe1f1b4f6d0a24fb2f1b7d3e3ac76f539f",
        "report.json": "ecd1437c2234805a3e49a6383c73169aa301aaf4b2d046e255e62af503ac120a",
        "report.md": "fec3d48d19bc4f675fbe5918f92984b452d8244992cf1593dc15786e91951d53",
        "theta_table.csv": "985af5adf02f8280444b30586ae0f69b11841cf8c2571ede86d935c11dff1753",
    },
    "p2": {
        "chambers.dot": "8c724281b7cc2471190c1b723d3775328fb283a8dc1d908d05a19ecbe7d17348",
        "fan_mori.json": "bcb04cf6477ee1d7ee66055eb8f68497fbc36047510128bfdaccbdc76cc48431",
        "fan_secondary.json": "e241aa7539ceba9d7da93e1812b6203b25eab017e7b47cbfb02cf4646e637679",
        "report.json": "fe4e667e47576189457970195b574ffa2e68a6c8ff5eda11ff997ad7e9ccbbc0",
        "report.md": "74de51d7fa1fa9a0768218b361caef43ec8ef2468746692b8525c1db0233d902",
        "theta_table.csv": "41fe46231cf966b8fafd195d89b2f819ecba64c233a9b4481f8f4a0afdc337bb",
    },
    "pentagon": {
        "chambers.dot": "c285e7a63e3b93b13e1f361bddec02da8c8a4a3779ffd7e6e3cbea7b6a3fc36a",
        "fan_mori.json": "e070a718a9dd0b9a1e3f2f8128b71b4859a01940ad03d0c87091f80497d57ecd",
        "fan_secondary.json": "3a22dd57a8466d65f76577103c7128feba3b98a5975bf0ec6d5e52ddbdc67a63",
        "report.json": "ea053cbf1069d6d0d2e831916943219d84e23e31937a9c4d957d6b7403bc94fd",
        "report.md": "24e0e77523eec6783d95c8b9ab4af0326bcf763904464ed1fd7b9ab8b7fcdd06",
        "theta_table.csv": "176eb7f0ed8fa40360dfe1a902fb7ff78047c472353cf64d8af02701ef1a9cc2",
    },
    "square": {
        "chambers.dot": "4cad7ab4752620a39125b3c04fc1b0aab01de2c7c88a4e39631b62d5452e07b2",
        "fan_mori.json": "33b10f02636c373b99cf575486d6351a65769e4cce3fa857a5b5b9340a1b28a9",
        "fan_secondary.json": "3a00f4498506aba0643013f2082d33c4aee8fd501ec9a071cdf1689f84cf3cf9",
        "report.json": "f558331d3ac38e13eef15d85a26307736d9ae95e2ddd9fba01ca8cada1e6940d",
        "report.md": "f54f35d38e2d374ff5172ff0267879e828ec9da535fa695f56d41294b68d8d00",
        "theta_table.csv": "d2a64fe38db2c7f666e8afe2292eaf4291864029476657c5d304a7c5f9f6ad99",
    },
}


@pytest.mark.parametrize("name", list(BUNDLE_DIGESTS))
def test_bundle_bytes_are_pinned(tmp_path, name):
    report, sec = build_report(*BOUNDARIES[name]())
    files = write_bundle(tmp_path, report, sec)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files}
    assert got == BUNDLE_DIGESTS[name]


# ids leave out the pinned counts, so a new pin does not rename the test
@pytest.mark.parametrize("name, rows", [("hexagon", 16), ("pentagon", 15), ("square", 19)],
                         ids=["hexagon", "pentagon", "square"])
def test_build_report_builds_each_fans_walls_once(tmp_path, monkeypatch, cold_mori_fan,
                                                 name, rows):
    counted, maps, tilings = [], [], []
    real_key, real_map, real_tile = cones._facet_faces_key, cones._wall_map, cones.cones_tile

    def key(c):
        counted.append(c)
        return real_key(c)

    def wall_map(members, *args):
        maps.append(tuple(members))
        return real_map(members, *args)

    def tile(*args):
        tilings.append(args)
        return real_tile(*args)

    monkeypatch.setattr(cones, "_wall_map", wall_map)
    for mod in (cli_module, cones, secondary):
        if getattr(mod, "_facet_faces_key", None) is real_key:
            monkeypatch.setattr(mod, "_facet_faces_key", key)
        if getattr(mod, "cones_tile", None) is real_tile:
            monkeypatch.setattr(mod, "cones_tile", tile)
    report, sec = build_report(*BOUNDARIES[name]())
    write_bundle(tmp_path, report, sec)
    monkeypatch.undo()
    mori, full = sec.mori_fan, sec.full_fan
    # a row per orbit root of the Mori fan (under W) and of the full fan (under
    # Stab(B)), whose other cones are moved with their rows: movsec and the
    # cocycle battery read the Mori walls, and no group is re-tiled
    assert len(counted) == len(set(mori.orbits)) + len(set(full.orbits)) == rows
    assert tilings == []
    # is_complete and fan_to_dot build no map of their own
    assert mori.cones not in maps and full.cones not in maps
    # the bogus cones' walls, added to the members' map, give a fresh map of all
    # cones and leave the members' map as it was
    for fan in (mori, full, sec.movsec_fan):
        assert list(fan.walls.items()) == list(cones._wall_map(fan.cones).items())
        assert all(c.dim == rank_of(list(c.rays) + list(c.lineality)) for c in fan.cones)


def test_a_warm_mori_fan_gives_the_cold_report(cold_mori_fan):
    lat = PicLattice(4)
    first, second = minus_one_cycles(lat, 5)[:2]
    build_report(lat, first)
    warm = build_report(lat, second)[0]
    cold_mori_fan()
    assert build_report(lat, second)[0] == warm


def _weyl_stub(k):
    """A boundary at k and a secondary-fan stand-in: the Mori fan, no secondary cones."""
    if k == 2:
        lat, cycle, _ = toric_boundary("dp7")
    else:
        lat = PicLattice(k)
        cycle = minus_one_cycles(lat, 9 - k)[0]
    sec = SimpleNamespace(boundary=cycle, full_fan=Fan(lat.rank, ()), mori_fan=mori_fan_K(lat))
    return lat, sec


@pytest.mark.parametrize("k", range(2, 7))
def test_weyl_group_order_is_the_rho_orbit(k):
    # the replaced kernel as the oracle: rho = (0, 1, ..., k) pairs positively
    # with every simple root, so it lies in an open chamber, and W acts simply
    # transitively on chambers, so |W| = |W rho|
    lat, sec = _weyl_stub(k)
    rho = tuple(range(lat.rank))
    assert all(lat.dot(rho, a) > 0 for a in simple_roots(lat))
    rho_orbit = orbit_tree(rho, [g.act for g in weyl_generators(lat)])
    assert cli_module.weyl_orbit_decomposition(lat, sec)["group_order"] == len(rho_orbit)


def test_weyl_section_at_k6():
    lat, sec = _weyl_stub(6)
    assert cli_module.weyl_orbit_decomposition(lat, sec) == {
        "group_order": 51840, "orbit_sizes": [1, 27, 72, 216, 216, 432, 720, 1080],
        "stabilizer_order": 1152, "stabilizer_fixes_secondary_fan": True}


def test_one_chamber_orbit_walk_per_lattice(monkeypatch, cold_mori_fan):
    # mori_fan_K walks each chamber orbit once per lattice, from its first
    # chamber; secondary_fan walks the boundary's W-orbit, then the Stab(B)-orbits
    # of its groups and of its faces, once, and the Weyl section walks nothing
    lat = PicLattice(4)
    keys = [c.classes for c in contractions(lat)]
    walks = []

    def counted(module):
        real = module.orbit_tree

        def walk(start, moves):
            if moves:  # a walk under a group, not the one-point orbit of a point with no generators
                walks.append((module, start))
            return real(start, moves)
        return walk

    for module in (secondary, delpezzo):
        monkeypatch.setattr(module, "orbit_tree", counted(module))
    boundary_stabilizer.cache_clear()
    for i, cycle in enumerate(minus_one_cycles(lat, 5)[:2]):
        walks.clear()
        sec = secondary.secondary_fan(lat, cycle)
        roots = sorted(set(sec.mori_fan.orbits[:len(keys)]))  # the chambers' roots
        fan = sec.full_fan
        stab_b = [(secondary, start) for start in _stab_b_walk_starts(sec)]
        assert len(fan.orbits) == len(fan.cones) and len(stab_b) == 6
        # the chambers' orbits, then the Mori faces' orbits; none on a second
        # boundary; then the boundary's orbit, the groups' and the faces' orbits
        mori, rest = walks[:-1 - len(stab_b)], walks[-1 - len(stab_b):]
        assert mori[:len(roots)] == ([] if i else [(secondary, keys[r]) for r in roots])
        assert (mori == []) == (i == 1)
        assert rest == [(delpezzo, tuple(sorted(cycle.classes)))] + stab_b
        walks.clear()
        cli_module.weyl_orbit_decomposition(lat, sec)
        assert walks == []
    boundary_stabilizer.cache_clear()


def test_weyl_data_names_a_missing_contraction_e(monkeypatch):
    lat, sec = _weyl_stub(4)
    e = tuple(sorted(tuple(int(i == j) for i in range(lat.rank)) for j in range(1, lat.rank)))
    monkeypatch.setattr(cli_module, "contractions",
                        lambda lat: tuple(c for c in contractions(lat) if c.classes != e))
    with pytest.raises(InternalInvariantError, match=re.escape(f"E = {list(e)}")):
        cli_module.weyl_orbit_decomposition(lat, sec)


ORBIT_CASES = {
    "k2": lambda: toric_boundary("dp7")[:2],  # no cycle of (-1)-curves at k = 2
    **{f"k{k}": (lambda k=k: (PicLattice(k), minus_one_cycles(PicLattice(k), 9 - k)[0]))
       for k in range(3, 7)},
    "quadric": lambda: toric_boundary("quadric")[:2],
    "hexagon": hexagon_boundary,
    "p2": lambda: toric_boundary("p2")[:2],
}


def _assert_orbits_expand_to_cones(orbits, cone_entries):
    """Each per-orbit entry, counted orbit size times, gives the per-cone
    multiset, and its root label holds its group in the per-cone run."""
    assert sorted(g for _, size, *g in orbits for _ in range(size)) == sorted(
        g for _, _, *g in cone_entries)
    by_label = {lbl: g for lbl, _, *g in cone_entries}
    assert all(by_label[lbl] == g for lbl, _, *g in orbits)


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbit_read_bundle_stage_matches_the_per_cone_run(name):
    lat, cycle = ORBIT_CASES[name]()
    sec = secondary.secondary_fan(lat, cycle)
    walked = sec.full_fan  # secondary_fan walked its orbits
    per_cone = Fan(walked.ambient_rank, walked.cones, walked.labels)

    def run(fan, subfan):
        inp = toricstack.BundleInput(fan, subfan, (lat.canonical,))
        cert = toricstack.decompose(inp)
        stab = toricstack.stabilizers(inp, cert) if cert.ok else None
        return cert.failures, stab and [(lbl, size, t.invariant_factors, t.free_rank)
                                        for lbl, size, t in stab]

    (failures, orbits), (per_cone_failures, cone_entries) = (
        run(walked, sec.movsec_fan), run(per_cone, sec.movsec_fan))
    assert failures == per_cone_failures == []
    assert [(lbl, size) for lbl, size, *_ in cone_entries] == [
        (lbl, 1) for lbl in walked.labels]
    # every cone's group is its orbit root's group (Stab(B) transports it), and
    # each orbit's size counts the cones with that root
    group_of_root = {lbl: g for lbl, _, *g in orbits}
    assert [g for _, _, *g in cone_entries] == [
        group_of_root[walked.label_of(r)] for r in walked.orbit_roots]
    assert [size for _, size, *_ in orbits] == list(Counter(walked.orbit_roots).values())
    _assert_orbits_expand_to_cones(orbits, cone_entries)
    # with an empty subfan, which every generator fixes, every cone fails
    no_subfan = Fan(lat.rank, ())
    failures = run(walked, no_subfan)
    assert failures == run(per_cone, no_subfan)
    assert failures[0] or lat.rank == 1  # on p2, span(K) is the whole line
    # the orbits are nontrivial wherever Stab(B) moves a cone
    roots = set(walked.orbits)
    assert len(walked.orbits) == len(walked.cones)
    assert (len(roots) < len(walked.cones)) == (name not in ("quadric", "p2"))


# (orbit size, invariant factors) of each Stab(B)-orbit with a nontrivial
# stabilizer, in root order: 14, 25 and 126 cones
STABILIZER_ORBITS = {
    "hexagon": [(2, [3]), (6, [2]), (6, [2])],
    "k4": [(5, [3]), (10, [2]), (10, [2])],
    "k6": [(48, [3]), (6, [2]), (24, [2]), (24, [2]), (24, [3])],
}


@pytest.mark.parametrize("name", list(STABILIZER_ORBITS))
def test_the_report_gives_one_stabilizer_entry_per_orbit(name):
    lat, cycle = ORBIT_CASES[name]()
    report, sec = build_report(lat, cycle)
    orbits = report["bundle"]["nontrivial_stabilizers"]
    assert [(size, factors) for _, size, factors in orbits] == STABILIZER_ORBITS[name]
    fan = sec.full_fan
    inp = toricstack.BundleInput(Fan(fan.ambient_rank, fan.cones, fan.labels), sec.movsec_fan,
                                 (lat.canonical,))
    cone_entries = [(lbl, size, list(t.invariant_factors))
                    for lbl, size, t in toricstack.stabilizers(inp, toricstack.decompose(inp))
                    if not t.is_trivial()]
    _assert_orbits_expand_to_cones(orbits, cone_entries)


def test_bundle_stage_runs_once_per_stabilizer_orbit(monkeypatch):
    lat, cycle = BOUNDARIES["pentagon"]()
    walks, intersects = [], []
    real_walk, real_intersect = secondary.orbit_tree, toricstack.intersect
    monkeypatch.setattr(secondary, "orbit_tree",
                        lambda start, moves: walks.append(start) or real_walk(start, moves))
    monkeypatch.setattr(toricstack, "intersect",
                        lambda a, b: intersects.append(a) or real_intersect(a, b))
    report, sec = build_report(lat, cycle)
    fan = sec.full_fan
    roots = sorted(set(fan.orbits))
    assert (len(fan.cones), len(roots), sec.bogus_count) == (36, 6, 25)
    # one walk per orbit, from its root, during the build; the Weyl section
    # reads the walked fan
    assert walks[-len(roots):] == _stab_b_walk_starts(sec)
    # intersect runs once per orbit root outside the movsec subfan, not once per bogus cone
    moving = {c.key() for c in sec.movsec_fan.cones}
    assert intersects == [fan.cones[r] for r in roots if fan.cones[r].key() not in moving]
    assert len(intersects) == 3
    assert report["weyl"]["stabilizer_fixes_secondary_fan"] is True


def _broken_build(how, patch):
    """Doctor one input of secondary_fan on the seed-0 pentagon, whose
    stabilizer (order 10) holds no simple reflection: give boundary_stabilizer
    the first simple reflection as an eighth generator ("generator"), move
    chamber 0 into a group that holds none of its neighbours ("chamber"), or
    drop the last face of the groups' boundary walls ("face").
    patch(module, name, value) installs it.  Returns the lattice, the cycle
    and the dropped faces."""
    lat, cycle = BOUNDARIES["pentagon"]()
    dropped = []
    if how == "generator":
        real_stab = secondary.boundary_stabilizer
        patch(secondary, "boundary_stabilizer", lambda lat, boundary: (
            real_stab(lat, boundary)[0] + weyl_generators(lat)[:1], real_stab(lat, boundary)[1]))
    elif how == "chamber":
        chambers = secondary.build_chambers(lat, cycle)
        near = {i for e in chamber_adjacency(chambers) if 0 in e for i in e}
        far = next(k for k in sorted({c.boundary_exc for c in chambers}, key=sorted)
                   if all(chambers[i].boundary_exc != k for i in near))
        doctored = [dataclasses.replace(chambers[0], boundary_exc=far), *chambers[1:]]
        patch(secondary, "build_chambers", lambda lat, boundary: doctored)
    else:
        real_walls = secondary.boundary_walls

        def walls(fan):
            faces = real_walls(fan)
            if fan.label_of(0).startswith("mov["):
                dropped.append(faces.pop())
            return faces
        patch(secondary, "boundary_walls", walls)
    return lat, cycle, dropped


@pytest.mark.parametrize("how, what", [("generator", "group"), ("chamber", "group"),
                                       ("face", "face")])
def test_a_fan_the_boundary_stabilizer_does_not_fix_is_named(monkeypatch, how, what):
    lat, cycle, dropped = _broken_build(how, monkeypatch.setattr)
    with pytest.raises(InternalInvariantError) as exc:
        secondary.secondary_fan(lat, cycle)
    named, gen, image = re.fullmatch(
        rf"secondary fan {what} (.+) moves by boundary stabilizer generator (\d+)"
        rf" to (\[.*\]), which is no secondary fan {what}", str(exc.value)).groups()
    gens = secondary.boundary_stabilizer(lat, cycle)[0]
    chambers = secondary.build_chambers(lat, cycle)
    # each group's key is its sorted chamber rays
    keys = {g.label(): tuple(sorted({r for i in g.member_ids for r in chambers[i].cone.rays}))
            for g in secondary.movsec(chambers, ())[0]}
    key = keys[named] if what == "group" else ast.literal_eval(named)
    # the image is the named key moved by the named generator
    assert sorted(map(gens[int(gen)].act, key)) == ast.literal_eval(image)
    if how == "generator":  # only the added reflection moves a group off the groups
        assert int(gen) == len(gens) - 1 == 7
    if how == "face":  # the image is the dropped face
        assert ast.literal_eval(image) == list(dropped[0])
    else:
        assert tuple(ast.literal_eval(image)) not in keys.values()


@pytest.mark.parametrize("how", ["generator", "chamber", "face", "no_e"])
def test_pipeline_exits_3_on_a_broken_weyl_invariant(tmp_path, how):
    lat, cycle = BOUNDARIES["pentagon"]()
    cfg = tmp_path / "pentagon.json"
    cfg.write_text(json.dumps({"k": lat.k, "cycle": [list(c) for c in cycle.classes]}))
    if how == "no_e":  # contractions(lat) without E = {E_1, ..., E_4}
        patch = (
            "real = c.contractions\n"
            "e = tuple(sorted(tuple(int(i == j) for i in range(5)) for j in range(1, 5)))\n"
            "c.contractions = lambda lat: tuple(x for x in real(lat) if x.classes != e)\n"
        )
    else:  # secondary_fan's build walk meets the doctored input
        patch = (
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_cli import _broken_build\n"
            f"_broken_build({how!r}, setattr)\n"
        )
    stub = (
        "import sys\n"
        "import secfan.cli as c\n"
        + patch
        + f"sys.argv = ['secfan', 'pipeline', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "c.main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", stub], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal invariant violated: ")
    assert ("E = " if how == "no_e" else "boundary stabilizer generator") in proc.stderr


def test_cocycle_battery_computes_each_value_once(monkeypatch):
    calls = []
    real = secondary._crossing_values

    def counted(points, idx, beta, boundary):
        calls.extend((p, idx, idx in beta.boundary_exc) for p in points)
        return real(points, idx, beta, boundary)

    monkeypatch.setattr(secondary, "_crossing_values", counted)
    monkeypatch.setattr(secondary, "theta_cocycle", None)
    sec = secondary.secondary_fan(*hexagon_boundary())
    chambers = sec.chambers
    fan_chart_data.cache_clear()
    try:
        rep = secondary.cocycle_battery(sec)
        charts = fan_chart_data.cache_info()
    finally:
        fan_chart_data.cache_clear()
    # the fan chart is read once per point, not once per table and point
    assert charts.misses == rep["points"] < charts.hits
    # a crossing's values depend on its flop index and on whether the chamber
    # it enters contracts that boundary curve: one value per such key and point
    keys = set()
    for e in chamber_adjacency(chambers):
        for a, b in (e, e[::-1]):
            idx = secondary._single_flop_index(chambers[a], chambers[b])
            keys.add((idx, idx in chambers[b].boundary_exc))
    assert len(keys) == 12 < 2 * rep["pairs"]
    assert len(calls) == len(set(calls)) == len(keys) * rep["points"]


def test_cocycle_battery_pairs_each_ray_once(monkeypatch):
    """The nef and shared-face pass applies the Gram matrix once per distinct
    ray, not once per ray of every adjacent pair."""
    sec = secondary.secondary_fan(*hexagon_boundary())
    rays = {r for ch in sec.chambers for r in ch.cone.rays}
    applied = []
    real_apply = IntMat.apply

    def counted(self, v):
        applied.append(v)
        return real_apply(self, v)

    monkeypatch.setattr(IntMat, "apply", counted)
    assert secondary.cocycle_battery(sec)["ok"]
    assert len(applied) == len(set(applied)) and set(applied) <= rays
