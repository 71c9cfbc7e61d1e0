"""Command-line surface: configuration, caching, reports and exports.

Subcommands mirror the pipeline stages (delpezzo, fan, theta, spine, bundle,
pipeline).  Reports are the acceptance substrate: they embed the input hash,
library version and seeds, never wall-clock data, so runs are byte-stable
across repetitions.  The --workers options are accepted for compatibility and
change neither output nor speed.  Exit codes: 0 success, 2 validation
problem, 3 broken internal invariant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import click

from . import __version__
from .cones import Fan, fan_from_json, fan_to_dot, fan_to_json
from .delpezzo import (
    BoundaryCycle,
    PicLattice,
    TORIC_NAMES,
    minus_one_classes,
    normalized_cycle,
    quadric,
    roots,
    toric_boundary,
    validate_boundary,
    weyl_group,
)
from .disk import fan_triangulation
from .errors import InternalInvariantError, ValidationError
from .secondary import (
    cocycle_battery,
    gkz_secondary_fan,
    grouping_by_triangulation,
    one_stratum_report,
    secondary_fan,
    toric_compare,
)
from .thetaalg import (
    UmbrellaRing,
    boundary_algebra,
    hilbert,
    proj_degree,
    theta_divisor_checks,
)
from .toricstack import BundleInput, decompose, stabilizers

CACHE_ENV = "SECFAN_CACHE_DIR"
WORKERS_HELP = "accepted for compatibility; changes neither output nor speed"


# ---------------------------------------------------------------------------
# configuration


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if ("k" in data) == ("degree" in data):
        raise ValidationError("config needs exactly one of 'k' or 'degree'")
    model = data.get("model_tag", "blowup")
    if "degree" in data:
        if model == "quadric":
            if data["degree"] != 8:
                raise ValidationError("the quadric model has degree 8")
            k = 2
        else:
            k = 9 - int(data["degree"])
    else:
        k = int(data["k"])
    lat = quadric() if model == "quadric" else PicLattice(k)
    cycle = BoundaryCycle(tuple(tuple(int(x) for x in c) for c in data["cycle"]))
    rep = validate_boundary(lat, cycle)
    if not rep.valid:
        raise ValidationError("invalid boundary: " + "; ".join(rep.diagnostics))
    return {
        "lat": lat,
        "cycle": cycle,
        "report": rep,
        "raw": data,
        "seed": int(data.get("seed", 20220110)),
    }


def config_hash(lat: PicLattice, cycle: BoundaryCycle) -> str:
    canonical = {
        "k": lat.k,
        "model_tag": lat.model_tag,
        "cycle": [list(c) for c in normalized_cycle(cycle).classes],
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# cache


def cache_paths(cache_dir: str | None):
    d = cache_dir or os.environ.get(CACHE_ENV)
    return Path(d) if d else None


def cache_get(cache_dir, key: str, kind: str):
    base = cache_paths(cache_dir)
    if base is None:
        return None
    path = base / kind / f"{key}.json"
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError):
        click.echo(f"warning: corrupt cache entry {path}, recomputing", err=True)
        return None


def cache_put(cache_dir, key: str, kind: str, payload: dict):
    base = cache_paths(cache_dir)
    if base is None:
        return
    path = base / kind / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file per writer: concurrent runs never share a half-written file
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# report assembly


def _fan_payload(fan: Fan, provenances=(), metadata=None) -> dict:
    return fan_to_json(fan, provenances, metadata)


def build_report(lat: PicLattice, cycle: BoundaryCycle, workers: int = 1,
                 seed: int = 20220110, weyl_cap: int = 4) -> dict:
    """Every stage once; the fan checks are the certificates secondary_fan proved.

    workers is accepted for compatibility and has no effect.
    """
    sec = secondary_fan(lat, cycle)
    grouping_by_triangulation(sec.chambers)
    battery = cocycle_battery(lat, cycle, sec.chambers, max_level=2) \
        if cycle.n >= 3 else {"ok": True, "pairs": 0, "loops": 0, "points": 0, "failures": []}
    strata = one_stratum_report(sec)
    theta = theta_divisor_checks(cycle.n)
    halg = boundary_algebra(cycle.n)
    mov_fan = Fan(
        lat.rank,
        tuple(g.cone for g in sec.groups),
        tuple(g.label() for g in sec.groups),
    )
    binput = BundleInput(sec.full_fan, mov_fan, (lat.canonical,))
    bcert = decompose(binput)
    stab = stabilizers(binput, bcert) if bcert.ok else None
    weyl = None
    if lat.model_tag == "blowup" and 2 <= lat.k <= weyl_cap:
        weyl = weyl_orbit_decomposition(lat, sec)
    report = {
        "version": __version__,
        "input_hash": config_hash(lat, cycle),
        "seed": seed,
        "k": lat.k,
        "model_tag": lat.model_tag,
        "degree": lat.degree,
        "n": cycle.n,
        "boundary_minus_one": sorted(
            i + 1 for i, f in enumerate(validate_boundary(lat, cycle).minus_one_flags) if f
        ),
        "counts": {
            "chambers": len(sec.chambers),
            "moving_cones": sec.moving_count,
            "bogus_cones": sec.bogus_count,
            "maximal_cones": sec.maximal_count,
        },
        "fan_checks": dataclasses.asdict(sec.certificates),
        "grouping_equality": True,  # grouping_by_triangulation raised otherwise
        "cocycle_battery": {
            "ok": battery["ok"],
            "pairs": battery["pairs"],
            "loops": battery["loops"],
            "points": battery["points"],
            "failures": battery["failures"][:5],
        },
        "theta_checks": {
            "all_nodes_missed": theta["all_nodes_missed"],
            "center_check": theta["center_check"],
            "degenerate_variant_fails_center": theta["degenerate_variant_fails_center"],
        },
        "hilbert": {str(m): hilbert(cycle.n, m) for m in range(0, 6)},
        "proj_degree": proj_degree(cycle.n),
        "boundary_algebra_level_dims": {
            str(m): halg["levels"][m]["total"] for m in sorted(halg["levels"])
        },
        "one_strata": {
            "total": len(strata),
            "changing": sum(1 for s in strata if s["changes"]),
            "non_changing": [s["wall"] for s in strata if not s["changes"]],
        },
        "bundle": {
            "decomposition_ok": bcert.ok,
            "failures": bcert.failures[:5],
            "nontrivial_stabilizers": [
                [lbl, list(t.invariant_factors)] for lbl, t in (stab.nontrivial() if stab else [])
            ],
        },
    }
    if weyl is not None:
        report["weyl"] = weyl
    return report, sec


def weyl_orbit_decomposition(lat: PicLattice, sec) -> dict:
    """Chamber orbits under the full group, stabilizer action on the fan."""
    group = weyl_group(lat)
    chambers = sec.chambers
    keys = [frozenset(c.contraction.classes) for c in chambers]
    index = {k: i for i, k in enumerate(keys)}
    seen = set()
    orbits = []
    for i, key in enumerate(keys):
        if i in seen:
            continue
        orbit = set()
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            j = index[cur]
            if j in orbit:
                continue
            orbit.add(j)
            for w in group:
                img = frozenset(w.act(c) for c in cur)
                if img in index and index[img] not in orbit:
                    frontier.append(img)
        seen |= orbit
        orbits.append(sorted(orbit))
    boundary_multiset = sorted(sec.boundary.classes)
    stab_elems = [
        w for w in group
        if sorted(w.act(c) for c in sec.boundary.classes) == boundary_multiset
    ]
    cone_keys = {c.key() for c in sec.full_fan.cones}
    fixes = all(
        {_act_cone_key(w, c) for c in sec.full_fan.cones} == cone_keys
        for w in stab_elems
    )
    return {
        "group_order": len(group),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "stabilizer_order": len(stab_elems),
        "stabilizer_fixes_secondary_fan": fixes,
    }


def _act_cone_key(w, cone):
    rays = tuple(sorted(w.act(r) for r in cone.rays))
    lin = tuple(sorted(w.act(l) for l in cone.lineality))
    return (rays, lin)


def report_markdown(report: dict) -> str:
    lines = [
        "# secondary fan report",
        "",
        f"- version: {report['version']}",
        f"- input hash: {report['input_hash']}",
        f"- seed: {report['seed']}",
        f"- model: {report['model_tag']} k={report['k']} degree={report['degree']} n={report['n']}",
        f"- boundary (-1)-components: {report['boundary_minus_one']}",
        "",
        "## counts",
        f"- chambers: {report['counts']['chambers']}",
        f"- moving cones: {report['counts']['moving_cones']}",
        f"- bogus cones: {report['counts']['bogus_cones']}",
        f"- maximal cones: {report['counts']['maximal_cones']}",
        "",
        "## verification",
        f"- mori fan predicate: {report['fan_checks']['mori_is_fan']} "
        f"({report['fan_checks']['mori_check_mode']})",
        f"- secondary fan predicate: {report['fan_checks']['secondary_is_fan']}",
        f"- secondary complete: {report['fan_checks']['secondary_complete']}",
        f"- coarsens mori fan: {report['fan_checks']['coarsens_mori']}",
        f"- triangulation grouping equals exceptional grouping: {report['grouping_equality']}",
        f"- cocycle battery: {report['cocycle_battery']['ok']} "
        f"(pairs={report['cocycle_battery']['pairs']}, loops={report['cocycle_battery']['loops']})",
        f"- theta misses all nodes: {report['theta_checks']['all_nodes_missed']}",
        f"- unique nonvanishing theta at center: {report['theta_checks']['center_check']}",
        f"- degenerate variant fails center: {report['theta_checks']['degenerate_variant_fails_center']}",
        "",
        "## one-strata",
        f"- walls: {report['one_strata']['total']}",
        f"- changing: {report['one_strata']['changing']}",
    ]
    non_changing = report["one_strata"]["non_changing"]
    if non_changing:
        lines.append(f"- WARNING non-changing walls: {non_changing}")
    else:
        lines.append("- every wall changes the restricted family data")
    lines += [
        "",
        "## bundle",
        f"- decomposition certificate: {report['bundle']['decomposition_ok']}",
        f"- nontrivial stabilizers: {report['bundle']['nontrivial_stabilizers']}",
    ]
    if "weyl" in report:
        w = report["weyl"]
        lines += [
            "",
            "## weyl",
            f"- group order: {w['group_order']}",
            f"- chamber orbit sizes: {w['orbit_sizes']}",
            f"- boundary stabilizer order: {w['stabilizer_order']}",
            f"- stabilizer fixes the fan: {w['stabilizer_fixes_secondary_fan']}",
        ]
    return "\n".join(lines) + "\n"


def theta_table_csv(n: int, flips, level: int) -> str:
    """One row per level basis point with the degree-one products landing on it."""
    from .disk import triangulation_with_flips

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


def write_bundle(outdir: Path, report: dict, sec) -> list[str]:
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    files["fan_mori.json"] = json.dumps(
        _fan_payload(sec.mori_fan, metadata={"kind": "mori", "input_hash": report["input_hash"]}),
        sort_keys=True, indent=1,
    )
    files["fan_secondary.json"] = json.dumps(
        _fan_payload(sec.full_fan, metadata={"kind": "secondary", "input_hash": report["input_hash"]}),
        sort_keys=True, indent=1,
    )
    # adjacency of the full secondary fan, nodes colored by moving group
    groups = {gi: g.label() for gi, g in enumerate(sec.groups)}
    for bi in range(len(sec.bogus_cones)):
        groups[len(sec.groups) + bi] = "bogus"
    files["chambers.dot"] = fan_to_dot(sec.full_fan, groups)
    files["theta_table.csv"] = theta_table_csv(sec.boundary.n, (), 2)
    files["report.json"] = json.dumps(report, sort_keys=True, indent=1)
    files["report.md"] = report_markdown(report)
    for name, text in sorted(files.items()):
        with open(outdir / name, "w", encoding="utf-8") as fh:
            fh.write(text)
    return sorted(files)


# ---------------------------------------------------------------------------
# click wiring


@click.group()
def cli():
    """Exact secondary fans for del Pezzo anticanonical pairs."""


@cli.group("delpezzo")
def delpezzo_group():
    """Picard-lattice level data."""


@delpezzo_group.command("classes")
@click.option("--k", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def delpezzo_classes(k, as_json):
    """Counts and lists of (-1)-classes and roots."""
    lat = PicLattice(k)
    cls = minus_one_classes(lat)
    rts = roots(lat)
    payload = {
        "k": k,
        "minus_one_count": len(cls),
        "root_count": len(rts),
        "minus_one_classes": [list(c) for c in cls],
    }
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"k={k}: {len(cls)} (-1)-classes, {len(rts)} roots")


@delpezzo_group.command("validate")
@click.argument("config", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def delpezzo_validate(config, as_json):
    """Validate a boundary config and echo its normalized form."""
    cfg = load_config(config)
    lat, cycle = cfg["lat"], cfg["cycle"]
    norm = normalized_cycle(cycle)
    payload = {
        "valid": True,
        "k": lat.k,
        "model_tag": lat.model_tag,
        "normalized_cycle": [list(c) for c in norm.classes],
        "boundary_minus_one": sorted(
            i + 1 for i, f in enumerate(cfg["report"].minus_one_flags) if f
        ),
        "input_hash": config_hash(lat, cycle),
    }
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"valid boundary, hash {payload['input_hash'][:12]}")


@cli.group("fan")
def fan_group():
    """Fan computations."""


def _fan_command_common(config, cache_dir, kind, outdir=None):
    cfg = load_config(config)
    lat, cycle = cfg["lat"], cfg["cycle"]
    key = config_hash(lat, cycle)
    cached = cache_get(cache_dir, key, kind)
    if cached is not None and outdir is None:
        return cached, True
    sec = secondary_fan(lat, cycle)
    payloads = {
        "mori": _fan_payload(sec.mori_fan, metadata={"input_hash": key, "kind": "mori"}),
        "movsec": _fan_payload(
            Fan(lat.rank, tuple(g.cone for g in sec.groups), tuple(g.label() for g in sec.groups)),
            metadata={"input_hash": key, "kind": "movsec"},
        ),
        "secondary": _fan_payload(
            sec.full_fan, metadata={"input_hash": key, "kind": "secondary"}
        ),
    }
    payload = payloads[kind]
    cache_put(cache_dir, key, kind, payload)
    if outdir is not None:
        base = Path(outdir)
        base.mkdir(parents=True, exist_ok=True)
        with open(base / f"fan_{kind}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        md = [
            f"# {kind} fan",
            "",
            f"- input hash: {key}",
            f"- maximal cones: {len(payload['cones'])}",
            f"- labels: {sorted(c['label'] for c in payload['cones'])}",
        ]
        with open(base / f"fan_{kind}.md", "w", encoding="utf-8") as fh:
            fh.write("\n".join(md) + "\n")
    return payload, False


@fan_group.command("mori")
@click.argument("config", type=click.Path(exists=True))
@click.option("--cache-dir", default=None)
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--out", "outdir", default=None, type=click.Path())
def fan_mori(config, cache_dir, workers, outdir):
    """Mori fan of the canonical bundle (complete, with bogus cones)."""
    payload, hit = _fan_command_common(config, cache_dir, "mori", outdir)
    click.echo(json.dumps(payload, sort_keys=True))


@fan_group.command("movsec")
@click.argument("config", type=click.Path(exists=True))
@click.option("--cache-dir", default=None)
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--out", "outdir", default=None, type=click.Path())
def fan_movsec(config, cache_dir, workers, outdir):
    """Moving part of the secondary fan (grouped chambers)."""
    payload, hit = _fan_command_common(config, cache_dir, "movsec", outdir)
    click.echo(json.dumps(payload, sort_keys=True))


@fan_group.command("secondary")
@click.argument("config", type=click.Path(exists=True))
@click.option("--cache-dir", default=None)
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--out", "outdir", default=None, type=click.Path())
def fan_secondary(config, cache_dir, workers, outdir):
    """Full secondary fan (moving groups plus bogus completion)."""
    payload, hit = _fan_command_common(config, cache_dir, "secondary", outdir)
    click.echo(json.dumps(payload, sort_keys=True))


@fan_group.command("gkz")
@click.option("--points", default=None, help="semicolon-separated x,y pairs")
@click.option("--toric", "toric_name", default=None, type=click.Choice(TORIC_NAMES))
def fan_gkz(points, toric_name):
    """GKZ secondary fan of a plane configuration (modulo lineality)."""
    if (points is None) == (toric_name is None):
        raise ValidationError("give exactly one of --points or --toric")
    if toric_name:
        _, _, rays = toric_boundary(toric_name)
        pts = [tuple(r) for r in rays] + [(0, 0)]
    else:
        pts = [tuple(int(x) for x in chunk.split(",")) for chunk in points.split(";")]
    gkz = gkz_secondary_fan(pts)
    payload = {
        "points": [list(p) for p in pts],
        "triangulation_count": len(gkz.triangulations),
        "irregular_count": len(gkz.irregular),
        "fan": _fan_payload(gkz.fan, metadata={"kind": "gkz"}),
    }
    click.echo(json.dumps(payload, sort_keys=True))


@fan_group.command("compare")
@click.option("--toric", "toric_name", required=True, type=click.Choice(TORIC_NAMES))
def fan_compare(toric_name):
    """Certify the GKZ fan against the secondary fan for a toric del Pezzo."""
    lat, cycle, rays = toric_boundary(toric_name)
    gkz = gkz_secondary_fan([tuple(r) for r in rays] + [(0, 0)])
    cert = toric_compare(lat, cycle, rays, gkz)
    payload = {
        "surface": toric_name,
        "certified": cert.ok,
        "matched_pairs": len(cert.matched),
        "details": cert.details,
    }
    click.echo(json.dumps(payload, sort_keys=True))
    if not cert.ok:
        raise InternalInvariantError("toric comparison failed")


@cli.group("theta")
def theta_group():
    """Umbrella theta algebra data."""


@theta_group.command("hilbert")
@click.option("--n", type=int, required=True)
@click.option("--max-level", type=int, default=6)
def theta_hilbert(n, max_level):
    payload = {
        "n": n,
        "values": {str(m): hilbert(n, m) for m in range(max_level + 1)},
        "proj_degree": proj_degree(n),
    }
    click.echo(json.dumps(payload, sort_keys=True))


@theta_group.command("table")
@click.option("--n", type=int, required=True)
@click.option("--triangulation", "flips", default="", help="comma-separated flip indices")
@click.option("--level", type=int, default=2)
def theta_table(n, flips, level):
    idx = [int(x) for x in flips.split(",") if x.strip()]
    click.echo(theta_table_csv(n, idx, level), nl=False)


@theta_group.command("checks")
@click.option("--n", type=int, required=True)
def theta_checks(n):
    rep = theta_divisor_checks(n)
    payload = {
        "n": n,
        "all_nodes_missed": rep["all_nodes_missed"],
        "center_check": rep["center_check"],
        "degenerate_variant_fails_center": rep["degenerate_variant_fails_center"],
    }
    click.echo(json.dumps(payload, sort_keys=True))


@cli.group("spine")
def spine_group():
    """Integral-affine spine counts."""


@spine_group.command("count")
@click.option("--selfint", required=True, help="comma-separated self-intersections")
@click.option("--spine", "spine_path", required=True, type=click.Path(exists=True))
def spine_count(selfint, spine_path):
    """Count a spine from its JSON description against its crossing class."""
    from .spines import AffineStructure, count, crossing_class, is_balanced
    from .spines import spine as make_spine

    si = tuple(int(x) for x in selfint.split(","))
    aff = AffineStructure(len(si), si)
    with open(spine_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    s = make_spine(
        int(data["vertex_chart"]),
        tuple(data["vertex_position"]),
        [((int(l["direction"][0]), int(l["direction"][1])), int(l.get("weight", 1)))
         for l in data["legs"]],
    )
    balanced = is_balanced(aff, s)
    cls = crossing_class(aff, s) if balanced else None
    payload = {
        "balanced": balanced,
        "crossing_class": list(cls) if cls else None,
        "count_at_class": count(aff, s, cls) if cls else 0,
    }
    click.echo(json.dumps(payload, sort_keys=True))


@cli.group("bundle")
def bundle_group():
    """Toric fiber-bundle certificates."""


@bundle_group.command("check")
@click.option("--fan", "fan_path", required=True, type=click.Path(exists=True))
@click.option("--subfan", "subfan_path", required=True, type=click.Path(exists=True))
@click.option("--l", "--L", "l_spec", required=True,
              help="'K' with --config, or semicolon-separated basis vectors")
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
def bundle_check_cmd(fan_path, subfan_path, l_spec, config_path):
    """Emit a decomposition certificate for fan/subfan with the given subspace."""
    with open(fan_path, "r", encoding="utf-8") as fh:
        ambient = fan_from_json(json.load(fh))
    with open(subfan_path, "r", encoding="utf-8") as fh:
        subfan = fan_from_json(json.load(fh))
    if l_spec.strip().upper() == "K":
        if config_path is None:
            raise ValidationError("--L K needs --config to resolve the canonical class")
        cfg = load_config(config_path)
        basis = (cfg["lat"].canonical,)
    else:
        basis = tuple(
            tuple(int(x) for x in chunk.split(",")) for chunk in l_spec.split(";")
        )
    inp = BundleInput(ambient, subfan, basis)
    cert = decompose(inp)
    stab = stabilizers(inp, cert) if cert.ok else None
    payload = {
        "ok": cert.ok,
        "failures": cert.failures,
        "stabilizers": [
            [lbl, list(t.invariant_factors)] for lbl, t in (stab.entries if stab else [])
        ],
    }
    click.echo(json.dumps(payload, sort_keys=True))


@cli.command("pipeline")
@click.argument("config", type=click.Path(exists=True))
@click.option("--out", "outdir", required=True, type=click.Path())
@click.option("--workers", type=int, default=1, help=WORKERS_HELP)
@click.option("--cache-dir", default=None)
@click.option("--json", "as_json", is_flag=True)
def pipeline(config, outdir, workers, cache_dir, as_json):
    """Run every stage and write the report bundle."""
    cfg = load_config(config)
    lat, cycle = cfg["lat"], cfg["cycle"]
    report, sec = build_report(lat, cycle, seed=cfg["seed"])
    files = write_bundle(Path(outdir), report, sec)
    key = config_hash(lat, cycle)
    cache_put(cache_dir, key, "report", report)
    if as_json:
        click.echo(json.dumps({"files": files, "report": report}, sort_keys=True))
    else:
        click.echo(f"wrote {len(files)} files to {outdir}")


def main():
    try:
        cli(standalone_mode=False)
    except (ValidationError, click.UsageError, click.BadParameter) as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(2)
    except InternalInvariantError as exc:
        click.echo(f"internal invariant violated: {exc}", err=True)
        sys.exit(3)
    except click.exceptions.Abort:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
