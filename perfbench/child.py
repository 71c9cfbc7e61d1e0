"""One fresh benchmark process: set up, run the timed work, write what it saw.

Usage: ``python3 child.py SPEC.json``.  run.py starts one of these per timed
repetition, one at a time, so every repetition pays the library's in-process
caches cold, as a CLI user does.  Set-up is interpreter start, ``import
secfan.cli`` and ``load_config`` of every input config; it ends at
``t_ready``.  The process writes its facts to ``spec["result"]`` as JSON; if
the timed work raises, they hold the error instead of the task's outputs.

A speed probe (speed.py) samples the CPU's speed from the first line of
``main`` on.  Each unit of timed work is reported twice: ``raw_units`` as
timed, and ``units`` scaled to the reference speed by the samples taken
while it ran.  ``setup_factor`` does the same for set-up.

Tasks:
  setup     set up and exit (extra set-up samples)
  pipeline  build_report -> write_bundle -> cache_put, as ``secfan pipeline``
  toric     secondary_fan -> gkz_secondary_fan -> toric_compare per surface,
            then the dp6 flop products against two_leg_outputs
  warm      ``secfan fan {mori,movsec,secondary}`` misses that fill the cache
  hits      the same commands served from the cache, in-process via click,
            in rounds of one hit per (config, kind)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

FAN_KINDS = ("mori", "movsec", "secondary")


def invoke(cli, buf: io.StringIO, args: list[str], tracer=None) -> str:
    """Run one command through the click entry point; returns its stdout.

    One buffer serves every call: click caches a wrapper per stdout object that
    keeps the object alive, so a fresh buffer per call would pile up payloads.
    """
    buf.seek(0)
    buf.truncate()
    span = tracer.open("cli.cli") if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            cli.cli.main(args=args, standalone_mode=False)
    finally:
        if span:
            tracer.close(span)
    return buf.getvalue()


def run_pipeline(cli, spec, cfgs) -> dict:
    cfg = cfgs["pentagon"]
    lat, cycle = cfg["lat"], cfg["cycle"]
    t0 = time.perf_counter()
    report, sec = cli.build_report(lat, cycle, workers=1, seed=cfg["seed"])
    cli.write_bundle(Path(spec["out"]), report, sec)
    cli.cache_put(spec["cache"], cli.config_hash(lat, cycle), "report", report)
    t1 = time.perf_counter()
    return {"raw_units": [t1 - t0], "windows": [[t0, t1]]}


def run_toric(spec, cfgs) -> dict:
    from secfan.disk import fan_point, fan_triangulation, gamma_complex
    from secfan.secondary import gkz_secondary_fan, secondary_fan, toric_compare
    from secfan.spines import AffineStructure, two_leg_outputs
    from secfan.thetaalg import flop_stratum_product

    t0 = time.perf_counter()
    surfaces = []
    for name, rays in spec["rays"].items():
        lat, cycle = cfgs[name]["lat"], cfgs[name]["cycle"]
        sec = secondary_fan(lat, cycle)
        gkz = gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)])
        cert = toric_compare(lat, cycle, [tuple(r) for r in rays], gkz, sec)
        surfaces.append({
            "name": name,
            "certified": cert.ok,
            "triangulations": len(gkz.triangulations),
            "secondary_cones": sec.maximal_count,
            "matched": sorted(cert.matched),
        })
    # flop products against the spine enumeration, as acceptance criterion 9
    lat, cycle = cfgs["dp6"]["lat"], cfgs["dp6"]["cycle"]
    hexa = AffineStructure(6, tuple(lat.dot(c, c) for c in cycle.classes))
    comp = gamma_complex(fan_triangulation(6))
    flops = []
    for i in range(1, 7):
        prev_i, next_i = (i - 2) % 6 + 1, i % 6 + 1
        outs = two_leg_outputs(hexa, prev_i, next_i)
        res = flop_stratum_product(
            comp.vertex_point(prev_i), comp.vertex_point(next_i), lat, cycle, i
        )
        got = {(pt.cell, pt.coords, tuple(gamma), coeff) for pt, gamma, coeff in res.terms}
        want = set()
        for (center, b), cls in outs:
            target = fan_point(6, center, b)
            gamma = tuple(
                sum(m * cycle.classes[j - 1][t] for j, m in cls.items())
                for t in range(lat.rank)
            )
            want.add((target.cell, target.coords, gamma, 1))
        flops.append({"index": i, "terms": len(got), "match": got == want})
    t1 = time.perf_counter()
    summary = {"surfaces": surfaces, "flops": flops}
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    return {"raw_units": [t1 - t0], "windows": [[t0, t1]], "toric": summary, "digest": digest}


def run_warm(cli, spec) -> dict:
    """Fill the cache through the CLI's own miss path; record each printed payload."""
    buf = io.StringIO()
    refs = [
        [path, kind, invoke(cli, buf, ["fan", kind, path, "--cache-dir", spec["cache"]])]
        for path in spec["configs"].values() for kind in FAN_KINDS
    ]
    return {"refs": refs}


def run_hits(cli, spec, tracer) -> dict:
    """Rounds of cache hits, one per (config, kind): a fixed count, or until time is up.

    A unit is one round; its time is the sum of its hits' latencies.
    """
    with open(spec["refs"], encoding="utf-8") as fh:
        refs = json.load(fh)
    units, windows, hits, mismatched, errors = [], [], 0, 0, []
    buf = io.StringIO()
    deadline = time.perf_counter() + spec["seconds"]
    while (len(units) < spec["rounds"]) if spec["rounds"] else (time.perf_counter() < deadline):
        if tracer:
            tracer.run = f"round{len(units)}"
        spent = 0.0
        start = time.perf_counter()
        for path, kind, want in refs:
            args = ["fan", kind, path, "--cache-dir", spec["cache"]]
            t0 = time.perf_counter()
            try:
                got = invoke(cli, buf, args, tracer)
            except Exception as exc:  # a failed hit is counted, not fatal
                errors.append(f"{kind} {Path(path).name}: {exc!r}")
                got = None
            spent += time.perf_counter() - t0
            hits += 1
            if got is not None and got != want:
                mismatched += 1
        units.append(spent)
        windows.append([start, time.perf_counter()])
    return {"raw_units": units, "windows": windows, "hits": hits, "mismatched": mismatched,
            "errors": errors[:5], "error_count": len(errors)}


def main(spec_path: str) -> int:
    probe = speed.Probe()
    probe.start()
    t_start = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import secfan.cli as cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cfgs = {name: cli.load_config(path) for name, path in spec["configs"].items()}
    out = {"t_ready": time.perf_counter(), "secfan": str(Path(cli.__file__).resolve()),
           "raw_units": [], "windows": []}
    if tracer:
        tracer.run = "unit0"
    t0 = time.perf_counter()
    task = spec["task"]
    try:
        if task == "pipeline":
            out.update(run_pipeline(cli, spec, cfgs))
        elif task == "toric":
            out.update(run_toric(spec, cfgs))
        elif task == "warm":
            out.update(run_warm(cli, spec))
        elif task == "hits":
            out.update(run_hits(cli, spec, tracer))
        elif task != "setup":
            raise SystemExit(f"unknown task {task!r}")
    except Exception as exc:  # the library raising is a failed repetition, reported to run.py
        out.update(error=f"{type(exc).__name__}: {exc}"[:500])
    out["timed_s"] = time.perf_counter() - t0
    probe.stop()
    out["setup_factor"] = probe.factor(t_start, out["t_ready"], min_window=0.0)
    factors = [probe.factor(a, b) for a, b in out.pop("windows")]
    out["units"] = [raw * f for raw, f in zip(out["raw_units"], factors)]
    out["speed"] = statistics.median(factors) if factors else None
    if tracer:
        tracer.uninstall()
        out["trace"] = {"spans": tracer.spans, "counters": dict(tracer.counters),
                        "leftover": tracing.installed_wrappers(), "missing": tracer.missing}
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
