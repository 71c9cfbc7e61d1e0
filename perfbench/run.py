"""secfan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pentagon_k4 --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout that holds ``src/secfan``.  Every timed
repetition is a fresh single-threaded process (child.py), started one at a
time.  Times are scaled to a reference CPU speed by a probe that samples the
machine's speed inside each process (speed.py).  The last line of stdout is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of BENCHMARK.json.  The line before it holds the run's facts
(CPU count, Python, revision, load average) and informational fields.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 24           # set-up-only processes per run, half before the timed work
                            # and half after it, for the setup_s median
TRACED_HIT_ROUNDS = 20      # fixed rounds of three hits in a traced cache_hits process
COVERAGE_FLOOR = 0.95       # top-level spans must cover this share of traced time
RUN_LIMIT_S = 170.0         # every child is killed past this point of the run

# end-to-end metrics and their units; a unit of work is one pipeline run, one
# toric sweep or one round of three cache hits, each timed after set-up; both
# times are at the reference speed of speed.py
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine_facts() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "secfan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


class Run:
    """One benchmark run: its work directory, child processes and findings."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.work = work
        self.inputs = inputs.workload_inputs(workload, seed)
        self.configs = inputs.write_configs(self.inputs, work / "inputs")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []
        self.info: dict = {}
        self.setup_samples: list[float] = []
        self.raw_setup: list[float] = []
        self.raw_units: list[float] = []
        self.speeds: list[float] = []
        self.rss_kb: list[int] = []
        self.traced: dict | None = None        # the traced child's facts
        self.layer_metrics: dict | None = None
        self._n = 0

    def fail(self, problems: list[str], count: int = 1) -> bool:
        """Record problems; returns True when there were none."""
        if problems:
            self.failed += count
            self.problems += problems
        return not problems

    def spawn(self, task: str, trace: bool = False, **extra) -> dict | None:
        """Run one child process to completion.

        None if the process failed; its facts with an ``error`` (already
        counted as a failure) if the library raised in the timed work.
        """
        self._n += 1
        tag = f"{task}{self._n}"
        spec = {"src": str(SRC), "task": task, "configs": self.configs,
                "rays": self.inputs.get("rays", {}), "trace": trace,
                "result": str(self.work / f"{tag}.result.json"), **extra}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = max(1.0, self.deadline - time.perf_counter())
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail([f"{task} process killed after {timeout:.0f} s"])
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.fail([f"{task} process exited {proc.returncode}: {' | '.join(tail)}"])
            return None
        with open(spec["result"], encoding="utf-8") as fh:
            res = json.load(fh)
        if not res["secfan"].startswith(str(SRC) + os.sep):
            self.fail([f"child imported secfan from {res['secfan']}, not from {SRC}"])
            return None
        raw_setup = res["t_ready"] - t_spawn
        if not trace:
            self.raw_setup.append(raw_setup)
            self.setup_samples.append(raw_setup * res["setup_factor"])
            self.raw_units += res["raw_units"]
            if res["speed"] is not None:
                self.speeds.append(res["speed"])
        if "error" in res:
            self.fail([f"{task} raised {res['error']}"])
        return res

    def probe_setup(self):
        for _ in range(SETUP_PROBES // 2):
            self.attempted += 1
            self.spawn("setup")

    def timed_reps(self, task: str, check, trace: bool = False) -> tuple[list, list]:
        """Repetitions, each a fresh process, while the next is expected to end in time.

        The first repetition always runs.  Returns per-unit times and the
        output digest of every repetition.
        """
        units, digests = [], []
        spent = 0.0
        while not units or spent * (len(units) + 1) / len(units) <= self.seconds:
            self.attempted += 1
            out = self.work / f"rep{self._n + 1}"
            res = self.spawn(task, trace=trace, out=str(out / "bundle"), cache=str(out / "cache"))
            if res is None or "error" in res:
                break
            digests.append(check(res, out))
            units += res["units"]
            spent += res["timed_s"]
            if trace:
                self.traced = res
                break
            self.rss_kb.append(res["rss_kb"])
        return units, digests

    # -- per-workload checks -------------------------------------------------

    def check_pipeline(self, res, out: Path) -> str:
        text = (out / "bundle" / "report.json").read_bytes()
        problems = checks.report_problems(json.loads(text), inputs.PENTAGON_CHAMBERS)
        cached = list((out / "cache" / "report").glob("*.json"))
        if len(cached) != 1:
            problems.append(f"pipeline left {len(cached)} cached reports, expected 1")
        else:
            problems += checks.payload_problems("report cache", cached[0].read_bytes(), text)
        self.fail(problems)
        return hashlib.sha256(text).hexdigest()

    def check_toric(self, res, out: Path) -> str:
        self.fail(checks.toric_problems(res["toric"]))
        return res["digest"]

    # -- workloads -------------------------------------------------------------

    def run_reps(self, task: str, check) -> list[float]:
        self.probe_setup()
        units, digests = self.timed_reps(task, check)
        self.probe_setup()
        if len(set(digests)) > 1:
            self.fail(["repetitions of one input produced different outputs"])
        if self.trace and units:
            traced_units, traced_digests = self.timed_reps(task, check, trace=True)
            if traced_digests and traced_digests[0] != digests[0]:
                self.fail(["the traced run's output differs from the untraced one"])
            self.finish_trace(traced_units, units)
            self.info["traced_unit_s"] = traced_units
        if digests:
            self.info["output_sha256"] = digests[0]
        return units

    def run_cache_hits(self) -> list[float]:
        self.probe_setup()
        cache = self.work / "cache"
        warm = self.spawn("warm", cache=str(cache))
        misses = warm.get("refs") if warm else None
        self.attempted += len(misses) if misses else 1
        if not misses:
            return []
        problems = checks.miss_payload_problems(misses)
        if not self.fail(problems, count=len(problems)):
            return []
        refs = self.work / "refs.json"
        refs.write_text(json.dumps(misses), encoding="utf-8")
        units = self.hits(cache, refs, trace=False)
        self.probe_setup()
        if self.trace and units:
            traced = self.hits(cache, refs, trace=True)
            self.finish_trace(traced, units)
        return units

    def hits(self, cache: Path, refs: Path, trace: bool) -> list[float]:
        res = self.spawn("hits", trace=trace, cache=str(cache), refs=str(refs),
                         seconds=self.seconds, rounds=TRACED_HIT_ROUNDS if trace else 0)
        self.attempted += res.get("hits", 1) if res else 1
        if res is None or "error" in res:
            return []
        if res["mismatched"]:
            self.fail([f"{res['mismatched']} cache hits served a payload that differs from "
                       "its miss payload"], count=res["mismatched"])
        if res["error_count"]:
            self.fail([f"{res['error_count']} cache hits raised: {res['errors']}"],
                      count=res["error_count"])
        if trace:
            self.traced = res
        else:
            self.rss_kb.append(res["rss_kb"])
        return res["units"]

    def finish_trace(self, traced_units: list[float], untraced_units: list[float]):
        res = self.traced
        if res is None or not traced_units:
            return
        tr = res["trace"]
        if tr["leftover"]:
            self.fail([f"wrappers left installed after the traced run: {tr['leftover'][:5]}"])
        if tr["missing"]:
            self.info["missing_functions"] = tr["missing"]
            self.warnings.append(f"the library has no {', '.join(tr['missing'])}: their "
                                 "per-layer metrics read 0, which is not a gain")
        self.layer_metrics = tracing.summarize(tr["spans"], tr["counters"], res["timed_s"],
                                               traced_units, untraced_units)
        coverage = self.layer_metrics["trace.coverage"]
        if coverage < COVERAGE_FLOOR:
            self.info["coverage_warning"] = (
                f"top-level spans cover {coverage:.3f} of traced time, below {COVERAGE_FLOOR}")
            self.warnings.append(self.info["coverage_warning"])

    def execute(self) -> dict:
        """Run the workload; returns the result line."""
        if self.workload == "pentagon_k4":
            units = self.run_reps("pipeline", self.check_pipeline)
        elif self.workload == "toric_gkz":
            units = self.run_reps("toric", self.check_toric)
        else:
            units = self.run_cache_hits()
        return self.result(units)

    def result(self, units: list[float]) -> dict:
        """The result line.  A failed run still gets one, with what was measured."""
        if not units and not self.failed:
            self.fail(["no unit of timed work completed"])
        if self.trace:
            values = self.layer_metrics or {}
            metrics = {name: {"value": value, "unit": tracing.metric_unit(name)}
                       for name, value in values.items()}
        else:
            values = {
                "wall_s": statistics.median(units) if units else None,
                "setup_s": statistics.median(self.setup_samples) if self.setup_samples else None,
                "peak_rss_mb": max(self.rss_kb) / 1024 if self.rss_kb else None,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items() if values[name] is not None}
        # the raw times the metrics were scaled from, and the speed factors
        self.info["units"] = len(units)
        if self.raw_units:
            self.info["raw_wall_s"] = statistics.median(self.raw_units)
        if self.raw_setup:
            self.info["raw_setup_s"] = statistics.median(self.raw_setup)
        if self.speeds:
            self.info["speed_factors"] = [round(f, 4) for f in self.speeds]
        if len(units) <= 20:
            self.info["unit_s"] = units
        return {"correct": not self.problems and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def reference_flag(workload: str, seed: int, info: dict) -> None:
    """Flag a seed-0 output digest that differs from the recorded one (not a failure)."""
    if seed != 0 or "output_sha256" not in info or not REFERENCE.is_file():
        return
    want = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if want is None:
        return
    info["reference_sha256"] = want
    info["matches_reference"] = info["output_sha256"] == want
    if not info["matches_reference"]:
        print(f"perfbench: note: seed-0 output of {workload} differs from the recorded "
              "digest; say why in the change that caused it", file=sys.stderr)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "secfan" / "__init__.py").is_file():
        print(f"perfbench: no secfan sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    facts = machine_facts()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        result = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print(f"perfbench: FAIL: {problem}", file=sys.stderr)
    for warning in run.warnings:
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    reference_flag(args.workload, args.seed, run.info)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "facts": facts,
                      "info": run.info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
