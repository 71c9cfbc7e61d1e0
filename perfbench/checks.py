"""Correctness gates: every run's outputs must pass these, or the run fails.

Each function returns a list of problems; an empty list means the output
holds.  A report is checked on its verdicts and pinned counts, a toric sweep
on its certificates and counts, and a cache payload byte for byte against
what the miss produced.
"""

from __future__ import annotations

import json

from inputs import TORIC_TRIANGULATIONS

# report fields that must all be true: each is a proof the pipeline made
REPORT_VERDICTS = (
    ("fan_checks", "mori_is_fan"),
    ("fan_checks", "secondary_is_fan"),
    ("fan_checks", "secondary_complete"),
    ("fan_checks", "coarsens_mori"),
    ("grouping_equality",),
    ("cocycle_battery", "ok"),
    ("theta_checks", "all_nodes_missed"),
    ("theta_checks", "center_check"),
    ("theta_checks", "degenerate_variant_fails_center"),
    ("bundle", "decomposition_ok"),
)


def _field(report: dict, path):
    value = report
    for part in path:
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def report_problems(report: dict, chambers: int) -> list[str]:
    problems = [
        f"report verdict {'.'.join(path)} is {_field(report, path)!r}, not true"
        for path in REPORT_VERDICTS
        if _field(report, path) is not True
    ]
    if "weyl" in report and report["weyl"].get("stabilizer_fixes_secondary_fan") is not True:
        problems.append("report verdict weyl.stabilizer_fixes_secondary_fan is not true")
    got = _field(report, ("counts", "chambers"))
    if got != chambers:
        problems.append(f"report counts.chambers is {got!r}, pinned at {chambers}")
    return problems


def toric_problems(summary: dict) -> list[str]:
    problems = []
    names = [s["name"] for s in summary["surfaces"]]
    if sorted(names) != sorted(TORIC_TRIANGULATIONS):
        problems.append(f"toric surfaces {names}, expected {sorted(TORIC_TRIANGULATIONS)}")
    for s in summary["surfaces"]:
        want = TORIC_TRIANGULATIONS.get(s["name"])
        if not s["certified"]:
            problems.append(f"{s['name']}: GKZ fan not certified against the secondary fan")
        if not s["triangulations"] == s["secondary_cones"] == want:
            problems.append(
                f"{s['name']}: {s['triangulations']} triangulations and "
                f"{s['secondary_cones']} secondary cones, pinned at {want}"
            )
    flops = summary["flops"]
    if len(flops) != 6 or not all(f["match"] for f in flops):
        bad = [f["index"] for f in flops if not f["match"]]
        problems.append(f"dp6 flop products disagree with two_leg_outputs at {bad or flops}")
    return problems


def payload_problems(label: str, served: bytes | str, miss: bytes | str) -> list[str]:
    """A cache payload must be byte-equal to the payload its miss produced."""
    if served == miss:
        return []
    return [f"{label}: cache served a payload that differs from its miss payload"]


def miss_payload_problems(refs) -> list[str]:
    """The warm-up misses must each print one fan payload of the asked kind."""
    problems = []
    for path, kind, text in refs:
        try:
            payload = json.loads(text)
            ok = payload["metadata"]["kind"] == kind and payload["cones"]
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            problems.append(f"miss for fan {kind} on {path} printed no {kind} fan payload")
    return problems
