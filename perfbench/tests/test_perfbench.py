"""Tests of the benchmark itself: inputs, correctness gates and tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import checks
import child
import inputs
import run
import speed
import tracing
from secfan.delpezzo import PicLattice, hexagon_boundary, minus_one_cycles, toric_boundary

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def hexagon_report():
    from secfan.cli import build_report

    lat, cycle = hexagon_boundary()
    report, _ = build_report(lat, cycle)
    return json.loads(json.dumps(report))


# -- seed -> inputs ------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.workload_inputs(workload, 7) == inputs.workload_inputs(workload, 7)


def test_seed_zero_gives_reference_inputs():
    pent = minus_one_cycles(PicLattice(4), 5)[0]
    sq = minus_one_cycles(PicLattice(5), 4)[0]
    assert inputs.pentagon(0) == {"k": 4, "cycle": [list(c) for c in pent.classes]}
    assert inputs.square(0) == {"k": 5, "cycle": [list(c) for c in sq.classes]}
    for surface in inputs.toric(0):
        lat, cycle, rays = toric_boundary(surface["name"])
        assert surface["config"]["cycle"] == [list(c) for c in cycle.classes]
        assert surface["rays"] == [list(r) for r in rays]
    assert inputs.workload_inputs("cache_hits", 0)["configs"] == {"square": inputs.square(0)}


def test_seeds_pick_different_inputs():
    assert inputs.pentagon(1) != inputs.pentagon(0)
    assert inputs.pentagon(12) == inputs.pentagon(0)
    assert inputs.square(1) != inputs.square(0)
    rotated = {s["name"]: s for s in inputs.toric(1)}
    assert rotated["dp6"]["rays"][0] == list(toric_boundary("dp6")[2][1])


def test_generated_configs_load(tmp_path):
    from secfan.cli import load_config

    for workload in inputs.WORKLOADS:
        paths = inputs.write_configs(inputs.workload_inputs(workload, 5), tmp_path / workload)
        for path in paths.values():
            assert load_config(path)["report"].valid


# -- correctness gates -----------------------------------------------------------


def test_real_report_passes_and_flipped_verdict_fails(hexagon_report):
    assert checks.report_problems(hexagon_report, 18) == []
    doctored = json.loads(json.dumps(hexagon_report))
    doctored["cocycle_battery"]["ok"] = False
    assert checks.report_problems(doctored, 18) == [
        "report verdict cocycle_battery.ok is False, not true"]
    assert checks.report_problems(hexagon_report, 76)  # pinned count differs


def _pipeline_rep(tmp_path, report) -> Path:
    out = tmp_path / "rep"
    text = json.dumps(report, sort_keys=True, indent=1)
    (out / "bundle").mkdir(parents=True)
    (out / "bundle" / "report.json").write_text(text)
    (out / "cache" / "report").mkdir(parents=True)
    (out / "cache" / "report" / "key.json").write_text(text)
    return out


def test_doctored_report_counts_as_failed_run(tmp_path, hexagon_report):
    report = json.loads(json.dumps(hexagon_report))
    report["counts"]["chambers"] = inputs.PENTAGON_CHAMBERS
    clean = run.Run("pentagon_k4", 0, 1, False, tmp_path / "clean")
    clean.check_pipeline({}, _pipeline_rep(tmp_path / "a", report))
    assert (clean.failed, clean.problems) == (0, [])

    report["fan_checks"]["secondary_is_fan"] = False
    doctored = run.Run("pentagon_k4", 0, 1, False, tmp_path / "doctored")
    doctored.check_pipeline({}, _pipeline_rep(tmp_path / "b", report))
    assert doctored.failed == 1
    assert "secondary_is_fan" in doctored.problems[0]


def test_raising_library_gives_a_failed_result_line(tmp_path, monkeypatch):
    import shutil

    # a copy of the library whose certificate check raises, as a broken invariant would
    src = tmp_path / "src"
    shutil.copytree(run.SRC / "secfan", src / "secfan",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "secfan" / "secondary.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef toric_compare(*args, **kwargs):\n"
                 "    raise InternalInvariantError('doctored')\n")
    monkeypatch.setattr(run, "SRC", src)
    r = run.Run("toric_gkz", 0, 0.1, False, tmp_path / "work")
    units, digests = r.timed_reps("toric", r.check_toric)
    assert (units, digests) == ([], [])
    assert r.failed == 1
    assert "raised InternalInvariantError: doctored" in r.problems[0]
    result = r.result(units)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "wall_s" not in result["metrics"]


def test_toric_gate_catches_a_count_change():
    summary = {
        "surfaces": [{"name": n, "certified": True, "triangulations": c, "secondary_cones": c}
                     for n, c in inputs.TORIC_TRIANGULATIONS.items()],
        "flops": [{"index": i, "match": True} for i in range(1, 7)],
    }
    assert checks.toric_problems(summary) == []
    summary["surfaces"][4]["secondary_cones"] = 31
    assert len(checks.toric_problems(summary)) == 1


def test_foreign_cache_payload_counts_as_failure(tmp_path):
    import secfan.cli as cli

    cache = tmp_path / "cache"
    names = ("dp6", "dp7")
    configs = {s["name"]: s["config"] for s in inputs.toric(0) if s["name"] in names}
    paths = inputs.write_configs({"configs": configs}, tmp_path / "inputs")
    warm = child.run_warm(cli, {"configs": paths, "cache": str(cache)})
    assert checks.miss_payload_problems(warm["refs"]) == []
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(warm["refs"]))

    hits = run.Run("cache_hits", 0, 0.3, False, tmp_path / "work")
    hits.hits(cache, refs, trace=False)
    assert (hits.failed, hits.problems) == (0, [])

    # serve dp7's mori fan under dp6's key: the CLI returns it, the gate must not pass it
    def entry(name):
        cfg = cli.load_config(paths[name])
        return cache / "mori" / f"{cli.config_hash(cfg['lat'], cfg['cycle'])}.json"

    entry("dp6").write_bytes(entry("dp7").read_bytes())
    doctored = run.Run("cache_hits", 0, 0.3, False, tmp_path / "work2")
    doctored.hits(cache, refs, trace=False)
    assert doctored.failed >= 1
    assert "differs from its miss payload" in doctored.problems[0]


# -- speed probe ---------------------------------------------------------------


def _probe(costs, step=0.1):
    probe = speed.Probe()
    probe.times = [i * step for i in range(len(costs))]
    probe.costs = list(costs)
    return probe


def test_speed_factor_is_the_mean_speed_of_its_window():
    ref = speed.REF_CHUNK_S
    probe = _probe([ref] * 20 + [2 * ref] * 20)             # half speed from t = 2 s
    assert probe.factor(-0.05, 1.95) == 1.0
    assert probe.factor(1.95, 3.95) == 0.5
    # a stretch that mixes two speeds gets their blend, weighted by samples
    assert probe.factor(1.45, 2.55) == pytest.approx((5 * 1.0 + 6 * 0.5) / 11)
    # a short stretch is judged by the samples of the window around it
    assert probe.factor(3.0, 3.01) == 0.5
    assert probe.factor(1.25, 1.26) == 1.0
    # set-up passes no window: a stretch with few samples takes the nearest five
    assert probe.factor(3.02, 3.03, min_window=0.0) == 0.5
    assert probe.factor(-1.0, -0.9, min_window=0.0) == 1.0


def test_probe_samples_a_busy_process_and_restores_the_signal():
    import signal
    import time

    probe = speed.Probe()
    probe.start()
    try:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.2:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.times) >= 5
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert probe.factor(probe.times[0], probe.times[-1]) > 0
    assert speed.chunk() == speed.chunk()


# -- tracing -------------------------------------------------------------------


def test_wrappers_are_removed_after_tracing():
    import secfan.cones as cones
    import secfan.secondary as secondary
    from secfan.secondary import secondary_fan

    lat, cycle = hexagon_boundary()
    plain = secondary_fan(lat, cycle)
    original = cones.intersect
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert secondary.intersect is cones.intersect is not original
        assert "secfan.secondary.intersect" in tracing.installed_wrappers()
        traced = secondary.secondary_fan(lat, cycle)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert secondary.intersect is cones.intersect is original
    assert traced.full_fan == plain.full_fan
    names = {s[0] for s in tracer.spans}
    assert {"secondary.secondary_fan", "cones.fan_check", "cones.intersect"} <= names
    assert tracer.counters["cones.fan_check.pairs"] > 0


def test_missing_library_function_is_flagged(tmp_path, monkeypatch):
    layers = dict(tracing.LAYERS, cones=tracing.LAYERS["cones"] + ("no_such_function",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["cones.no_such_function"]

    r = run.Run("toric_gkz", 0, 1, True, tmp_path / "work")
    r.traced = {"timed_s": 1.0, "trace": {"spans": [], "counters": {}, "leftover": [],
                                          "missing": tracer.missing}}
    r.finish_trace([1.0], [1.0])
    assert r.info["missing_functions"] == ["cones.no_such_function"]
    assert any("cones.no_such_function" in w for w in r.warnings)
    assert r.failed == 0


def test_wrappers_count_keyword_calls_and_leave_iterators_alone():
    import secfan.cones as cones

    rays = [(1, 0), (0, 1)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = cones.cone_from_rays(rays, 2)
        again = cones.cone_from_rays(rays=rays, ambient_rank=2)
        from_iter = cones.cone_from_rays(iter(rays), 2)
    finally:
        tracer.uninstall()
    assert first == again == from_iter
    assert tracer.counters["cones.cone_from_rays.repeat_calls"] == 1


def test_self_time_subtracts_children():
    spans = [
        ["cli.build_report", 0.0, 10.0, -1, "unit0"],
        ["cones.fan_check", 1.0, 7.0, 0, "unit0"],
        ["cones.intersect", 2.0, 5.0, 1, "unit0"],
        ["cli.load_config", -1.0, -0.5, -1, "setup"],
    ]
    m = tracing.summarize(spans, {"cones.fan_check.pairs": 6}, 10.0, [11.0], [10.0])
    assert m["cli.build_report.self_s"] == 4.0
    assert m["cones.fan_check.self_s"] == 3.0
    assert m["cones.fan_check.s"] == 6.0
    assert m["cones.fan_check.exact_ratio"] == 1 / 6
    assert m["trace.coverage"] == 1.0
    assert m["trace.overhead_s"] == 1.0
    assert list(m) == tracing.metric_names()


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        tracing.metric_unit(n) for n in tracing.metric_names()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
