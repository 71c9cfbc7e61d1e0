"""Seed -> workload inputs.

The same seed always gives the same inputs, and seed 0 gives the reference
inputs: the first pentagon of ``minus_one_cycles(PicLattice(4), 5)``, the
first square of ``minus_one_cycles(PicLattice(5), 4)`` and the built-in toric
boundaries.  The program only ever sees the generated config files.
"""

from __future__ import annotations

import json
from pathlib import Path

# the library is imported inside the functions, once run.py has put the
# checkout's src/ first on sys.path

WORKLOADS = ("pentagon_k4", "toric_gkz", "cache_hits")

# pinned counts the correctness gate holds each input to
PENTAGON_CHAMBERS = 76
TORIC_TRIANGULATIONS = {"p2": 2, "quadric": 3, "f1": 4, "dp7": 10, "dp6": 32}


def config_of(lat, classes) -> dict:
    """Boundary config in the CLI's JSON format."""
    cfg = {"k": lat.k} if lat.model_tag == "blowup" else {"model_tag": lat.model_tag,
                                                          "degree": lat.degree}
    cfg["cycle"] = [list(c) for c in classes]
    return cfg


def pentagon(seed: int) -> dict:
    from secfan.delpezzo import PicLattice, minus_one_cycles

    cycles = minus_one_cycles(PicLattice(4), 5)
    return config_of(PicLattice(4), cycles[seed % len(cycles)].classes)


def square(seed: int) -> dict:
    from secfan.delpezzo import PicLattice, minus_one_cycles

    cycles = minus_one_cycles(PicLattice(5), 4)
    return config_of(PicLattice(5), cycles[seed % len(cycles)].classes)


def toric(seed: int) -> list[dict]:
    """The five toric surfaces, boundary and rays rotated together by the seed."""
    from secfan.delpezzo import TORIC_NAMES, toric_boundary

    out = []
    for name in TORIC_NAMES:
        lat, cycle, rays = toric_boundary(name)
        r = seed % cycle.n
        classes = cycle.classes[r:] + cycle.classes[:r]
        out.append({
            "name": name,
            "config": config_of(lat, classes),
            "rays": [list(x) for x in rays[r:] + rays[:r]],
        })
    return out


def workload_inputs(workload: str, seed: int) -> dict:
    """Everything a run of the workload feeds the program, as plain JSON data."""
    if workload == "pentagon_k4":
        return {"configs": {"pentagon": pentagon(seed)}}
    if workload == "toric_gkz":
        surfaces = toric(seed)
        return {
            "configs": {s["name"]: s["config"] for s in surfaces},
            "rays": {s["name"]: s["rays"] for s in surfaces},
        }
    if workload == "cache_hits":
        return {"configs": {"square": square(seed)}}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_configs(inputs: dict, directory: Path) -> dict[str, str]:
    """Write one config file per input; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in inputs["configs"].items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        paths[name] = str(path)
    return paths
