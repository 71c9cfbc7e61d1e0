"""Spans and counters for the benchmark's traced runs.

`Tracer.install()` wraps the library functions listed in `LAYERS` and rebinds
each wrapper in every ``secfan`` module namespace that holds the original, so
calls that cross layers are seen (``from .cones import intersect`` binds a
second name in ``secondary``; a function-local ``from .cones import faces``
reads the patched attribute of ``cones``).  `Tracer.uninstall()` restores
every binding.  Spans and counters stay in memory while the process runs;
`summarize()` turns them into the per-layer metrics named in BENCHMARK.json.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span (-1 for a top-level span) and ``run`` names the repetition
(``"setup"`` before the timed work).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

LAYERS = {
    "lattice": ("smith_normal_form", "saturate", "solve_rational", "solve_integral",
                "torsion_quotient"),
    "cones": ("dual_description", "cone_from_rays", "cone_from_inequalities", "intersect",
              "faces", "fan_check", "is_complete", "is_coarsening", "cones_tile",
              "adjacency_pairs", "fan_to_json", "fan_from_json"),
    "delpezzo": ("minus_one_classes", "contractions", "mori_chamber", "effective_cone",
                 "validate_boundary", "weyl_group"),
    "secondary": ("secondary_fan", "mori_fan_K", "movsec", "cocycle_battery",
                  "one_stratum_report", "gkz_secondary_fan", "all_triangulations",
                  "secondary_cone", "toric_compare"),
    "disk": ("gamma_complex", "triangulation_with_flips"),
    "thetaalg": ("theta_divisor_checks", "boundary_algebra", "flop_stratum_product"),
    "spines": ("two_leg_outputs",),
    "toricstack": ("decompose", "stabilizers"),
    "cli": ("load_config", "build_report", "weyl_orbit_decomposition", "write_bundle",
            "cache_get", "cache_put"),
}

# stage functions whose inclusive time is reported as well as their self time
STAGES = (
    "cones.fan_check", "cones.is_complete", "cones.is_coarsening",
    "secondary.secondary_fan", "secondary.cocycle_battery", "secondary.gkz_secondary_fan",
    "secondary.toric_compare", "thetaalg.flop_stratum_product",
    "toricstack.decompose", "toricstack.stabilizers",
    "cli.build_report", "cli.weyl_orbit_decomposition", "cli.write_bundle", "cli.cli",
)

# the click group itself: the benchmark opens this span around each command it
# sends through the entry point, so a cache hit's dispatch time is covered
ENTRY = "cli.cli"

REPEAT_COUNTED = (
    "cones.fan_check", "cones.is_complete", "cones.is_coarsening", "cones.intersect",
    "cones.cone_from_rays", "toricstack.decompose",
)


def _arg(args, kwargs, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _fan_key(fan):
    return (fan.ambient_rank, tuple(c.key() for c in fan.cones))


def _tuples(vs):
    if not isinstance(vs, (list, tuple)):
        raise TypeError("only sequences are keyed; an iterator would be consumed")
    return tuple(tuple(v) for v in vs)


def _intersect_key(args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return (a.ambient_rank, a.key(), b.key())


def _decompose_key(args, kwargs):
    inp = _arg(args, kwargs, 0, "inp")
    return (_fan_key(inp.ambient), _fan_key(inp.subfan), _tuples(inp.sub_lattice))


# argument key per repeat-counted function: calls with an equal key repeat work.
# A call whose arguments do not fit (a changed signature) is not counted.
ARG_KEYS = {
    "cones.fan_check": lambda a, k: _fan_key(_arg(a, k, 0, "fan")),
    "cones.is_complete": lambda a, k: _fan_key(_arg(a, k, 0, "fan")),
    "cones.is_coarsening": lambda a, k: (
        _fan_key(_arg(a, k, 0, "coarse")), _fan_key(_arg(a, k, 1, "fine"))),
    "cones.intersect": _intersect_key,
    "cones.cone_from_rays": lambda a, k: (
        _arg(a, k, 1, "ambient_rank"), _tuples(_arg(a, k, 0, "rays")),
        _tuples(_arg(a, k, 2, "lineality", ()))),
    "toricstack.decompose": _decompose_key,
}
# errors meaning a call's arguments or result no longer fit its counters: the
# call still runs and is timed, it is only left out of the counts
KEY_ERRORS = (TypeError, LookupError, AttributeError)


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for fq in traced_names() + [ENTRY]:
        names += [f"{fq}.calls", f"{fq}.self_s"]
        if fq in STAGES:
            names.append(f"{fq}.s")
    names += ["cones.fan_check.pairs", "cones.fan_check.exact_ratio",
              "cones.dual_description.rays_out"]
    names += [f"{fq}.repeat_calls" for fq in REPEAT_COUNTED]
    names += ["cli.cache_get.hit_ratio", "trace.coverage", "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run = "setup"
        self._stack: list[int] = []
        self._seen: dict[str, set] = {fq: set() for fq in REPEAT_COUNTED}
        self._bindings: list[tuple[object, str, object]] = []
        self.missing: list[str] = []    # listed functions the library does not have

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fq: str, fn):
        key_of = ARG_KEYS.get(fq)
        seen = self._seen.get(fq)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                if key_of is not None:
                    key = key_of(args, kwargs)
                    if key in seen:
                        counters[f"{fq}.repeat_calls"] += 1
                    else:
                        seen.add(key)
                if fq == "cones.fan_check":
                    n = len(_arg(args, kwargs, 0, "fan").cones)
                    counters["cones.fan_check.pairs"] += n * (n - 1) // 2
            except KEY_ERRORS:
                pass
            span = self.open(fq)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            try:
                if fq == "cones.dual_description":
                    counters["cones.dual_description.rays_out"] += len(result[1])
                elif fq == "cli.cache_get" and result is not None:
                    counters["cli.cache_get.hits"] += 1
            except KEY_ERRORS:
                pass
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for mod in LAYERS:
            importlib.import_module(f"secfan.{mod}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "secfan" or name.startswith("secfan."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"secfan.{mod}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:  # gone from the library: its metrics read 0, flagged
                    self.missing.append(f"{mod}.{fn}")
                    continue
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._bindings.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        while self._bindings:
            m, attr, original = self._bindings.pop()
            setattr(m, attr, original)


def installed_wrappers() -> list[str]:
    """Names in secfan modules still bound to a benchmark wrapper."""
    out = []
    for name, m in sorted(sys.modules.items()):
        if m is None or not (name == "secfan" or name.startswith("secfan.")):
            continue
        for attr, value in vars(m).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                out.append(f"{name}.{attr}")
    return out


def summarize(spans, counters, timed_s: float, traced_units, untraced_units) -> dict:
    """Per-layer metrics from one traced process.

    ``timed_s`` is the traced process's wall time over its timed units;
    ``traced_units`` and ``untraced_units`` are per-unit times of the traced
    and untraced processes of the same run (for the overhead).
    """
    calls = Counter()
    incl = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    selfs = Counter()
    exact = 0
    covered = 0.0
    for i, (name, start, end, parent, run) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        selfs[name] += dur - child[i]
        if name == "cones.intersect" and parent >= 0 and spans[parent][0] == "cones.fan_check":
            exact += 1
        if parent < 0 and run != "setup":
            covered += dur
    out = {}
    for fq in traced_names() + [ENTRY]:
        out[f"{fq}.calls"] = calls[fq]
        out[f"{fq}.self_s"] = selfs[fq]
        if fq in STAGES:
            out[f"{fq}.s"] = incl[fq]
    pairs = counters.get("cones.fan_check.pairs", 0)
    out["cones.fan_check.pairs"] = pairs
    out["cones.fan_check.exact_ratio"] = exact / pairs if pairs else 0.0
    out["cones.dual_description.rays_out"] = counters.get("cones.dual_description.rays_out", 0)
    for fq in REPEAT_COUNTED:
        out[f"{fq}.repeat_calls"] = counters.get(f"{fq}.repeat_calls", 0)
    gets = calls["cli.cache_get"]
    out["cli.cache_get.hit_ratio"] = counters.get("cli.cache_get.hits", 0) / gets if gets else 0.0
    out["trace.coverage"] = covered / timed_s if timed_s > 0 else 0.0
    out["trace.overhead_s"] = statistics.median(traced_units) - statistics.median(untraced_units)
    return out
