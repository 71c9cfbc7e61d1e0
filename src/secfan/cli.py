"""Command-line surface: configuration, caching, reports and exports.

Subcommands mirror the pipeline stages (delpezzo, fan, theta, spine, bundle,
pipeline).  Reports are the acceptance substrate: they embed the input hash,
library version and seeds, never wall-clock data, so runs are byte-stable
across repetitions; every blowup report with k >= 2 carries Weyl data.
A fan has one text, fan_line: the line `secfan fan` prints is the cache
entry and the bundle's fan_*.json file (indented files in the same indexed
layout still load; the per-cone layout of older versions is refused).  A fan
entry is written with a SHA-256 proof that it passed the hit check, so a hit
serves it unparsed (cache_get).  A report is encoded once, as json_text, for
report.json and its cache entry, which gets no proof.
Exit codes: 0 success, 2 validation problem, 3 broken invariant.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from math import factorial
from pathlib import Path

import click

from . import __version__
from .cones import _tiling_defect, fan_from_json, fan_to_dot, fan_to_json
from .delpezzo import (
    BoundaryCycle,
    PicLattice,
    TORIC_NAMES,
    boundary_stabilizer,
    contractions,
    minus_one_classes,
    normalized_cycle,
    quadric,
    roots,
    toric_boundary,
    validate_boundary,
)
from .disk import triangulation_with_flips
from .errors import InternalInvariantError, ValidationError
from .lattice import rank_of
from .secondary import (
    cocycle_battery,
    gkz_secondary_fan,
    grouping_by_triangulation,
    mori_fan_K,
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
from .toricstack import BundleInput, _cone_in_fan, decompose, stabilizers

CACHE_ENV = "SECFAN_CACHE_DIR"
THETA_CHECKS = ("all_nodes_missed", "center_check", "degenerate_variant_fails_center")


# ---------------------------------------------------------------------------
# configuration


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # floats, strings and booleans are refused, not truncated
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    return value


def _read_json(path: str, what: str, parse=None):
    """The file's JSON value, through parse if given; any fault names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # broken JSON or UTF-8, or nested too deep
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return data if parse is None else parse(data)
    except KeyError as exc:
        raise ValidationError(f"{what} {path} has no key {exc}") from None
    except (IndexError, TypeError, ValueError, AttributeError) as exc:  # wrong shape
        raise ValidationError(f"{what} {path} is malformed: {exc}") from None


def load_config(path: str) -> dict:
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    if ("k" in data) == ("degree" in data):
        raise ValidationError("config needs exactly one of 'k' or 'degree'")
    model = data.get("model_tag", "blowup")
    if model not in ("blowup", "quadric"):
        raise ValidationError(f"config {path}: unknown model_tag {model!r}")
    if "degree" in data:
        if model == "quadric":
            if _json_int(data["degree"], f"config {path}: 'degree'") != 8:
                raise ValidationError("the quadric model has degree 8")
            k = 2
        else:
            k = 9 - _json_int(data["degree"], f"config {path}: 'degree'")
    else:
        k = _json_int(data["k"], f"config {path}: 'k'")
        if model == "quadric" and k != 2:
            raise ValidationError(f"config {path}: 'k' is {k}, but the quadric model has k = 2")
    lat = quadric() if model == "quadric" else PicLattice(k)
    classes = data.get("cycle")
    if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
        raise ValidationError(f"config {path}: 'cycle' must be a list of classes, each a list")
    cycle = BoundaryCycle(
        tuple(tuple(_json_int(x, f"config {path}: a 'cycle' entry") for x in c) for c in classes)
    )
    rep = validate_boundary(lat, cycle)
    if not rep.valid:
        raise ValidationError("invalid boundary: " + "; ".join(rep.diagnostics))
    seed = _json_int(data.get("seed", 20220110), f"config {path}: 'seed'")
    return {"lat": lat, "cycle": cycle, "report": rep, "seed": seed}


def _option_ints(text: str, option: str) -> tuple[int, ...]:
    """Comma-separated integers given to a command-line option."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{option} takes comma-separated integers, not {text!r}") from None


def config_hash(lat: PicLattice, cycle: BoundaryCycle) -> str:
    canonical = {"k": lat.k, "model_tag": lat.model_tag,
                 "cycle": [list(c) for c in normalized_cycle(cycle).classes]}
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def json_text(obj) -> str:
    """The report format: sorted keys, one-space indent."""
    return json.dumps(obj, sort_keys=True, indent=1)


def fan_line(fan, input_hash: str, kind: str) -> str:
    """The one text of a fan: what `secfan fan` prints, caches and writes to files."""
    return json.dumps(fan_to_json(fan, metadata={"input_hash": input_hash, "kind": kind}),
                      sort_keys=True)


# ---------------------------------------------------------------------------
# cache


def cache_entry(cache_dir: str | None, key: str, kind: str) -> Path | None:
    d = cache_dir or os.environ.get(CACHE_ENV)
    return Path(d) / kind / f"{key}.json" if d else None


def _entry_problem(data: bytes, kind: str, path: Path) -> str | None:
    """The hit check: None if data is one line of a JSON object whose metadata.kind is
    kind, in the indexed fan layout (a top-level rays table); else the warning."""
    try:
        text = data.decode("utf-8")
        payload = json.loads(text)
    except (ValueError, RecursionError):  # broken JSON or UTF-8, or nested too deep
        return f"warning: corrupt cache entry {path}, recomputing"
    meta = payload.get("metadata") if isinstance(payload, dict) else None
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        return f"warning: cache entry {path} is not a {kind} payload, recomputing"
    if not isinstance(payload.get("rays"), list):  # the per-cone layout of older versions
        return f"warning: cache entry {path} is not in the indexed fan layout, recomputing"
    if "\n" in text:  # the old indented layout: served as is, it would change stdout
        return f"warning: cache entry {path} is not a single line, recomputing"
    return None


def _proof(data: bytes, kind: str) -> bytes:
    """The hex sha256 of __version__ + NUL + kind + NUL + the entry's bytes."""
    digest = hashlib.sha256(f"{__version__}\0{kind}\0".encode())
    digest.update(data)
    return digest.hexdigest().encode()


def cache_get(cache_dir, key: str, kind: str) -> str | None:
    """The entry's text, if its proof matches or it passes _entry_problem; reads never write.

    cache_put writes the proof DIR/<kind>/<key>.sha256 only for text that passed the
    check, so a matching proof means these exact bytes were written by this library
    version under this kind after passing it; they are served unparsed.  Any truncation,
    bit flip, old layout or copy from another kind's slot changes the digest, so such an
    entry falls back to the full check."""
    path = cache_entry(cache_dir, key, kind)
    if path is None:
        return None
    try:
        data = path.read_bytes()
    except FileNotFoundError:  # never written, or removed since: a plain miss
        return None
    except OSError:
        click.echo(f"warning: corrupt cache entry {path}, recomputing", err=True)
        return None
    try:
        proved = path.with_suffix(".sha256").read_bytes() == _proof(data, kind)
    except OSError:
        proved = False
    if not proved and (problem := _entry_problem(data, kind, path)) is not None:
        click.echo(problem, err=True)
        return None
    return data.decode("utf-8")


def _publish(path: Path, payload: dict | str) -> str:
    """Write path whole (a temp file per writer, then a rename), a dict as json_text."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text := payload if isinstance(payload, str) else json_text(payload))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return text


def cache_put(cache_dir, key: str, kind: str, payload: dict | str):
    """Publish the entry (a dict as json_text), then its proof if it passes the hit check."""
    path = cache_entry(cache_dir, key, kind)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    data = _publish(path, payload).encode("utf-8")
    if _entry_problem(data, kind, path) is None:
        _publish(path.with_suffix(".sha256"), _proof(data, kind).decode())


# ---------------------------------------------------------------------------
# report assembly


def build_report(lat: PicLattice, cycle: BoundaryCycle, workers: int = 1,
                 seed: int = 20220110) -> dict:
    """Every stage once; secondary_fan proves the four fan checks or raises.

    Blowups with k >= 2 get a "weyl" section.  workers has no effect.
    """
    sec = secondary_fan(lat, cycle)  # its full fan carries the proved Stab(B)-orbits
    grouping_by_triangulation(sec)  # raises unless the two groupings agree
    # not run below n = 3: ok is null, not a proof
    battery = cocycle_battery(sec) \
        if cycle.n >= 3 else {"ok": None, "pairs": 0, "loops": 0, "points": 0, "failures": []}
    theta = theta_divisor_checks(cycle.n)
    halg = boundary_algebra(cycle.n)
    binput = BundleInput(sec.full_fan, sec.movsec_fan, (lat.canonical,))
    bcert = decompose(binput)
    stab = stabilizers(binput, bcert) if bcert.ok else None
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
        "fan_checks": {  # secondary_fan raised otherwise
            "mori_is_fan": True,
            "secondary_is_fan": True,
            "secondary_complete": True,
            "coarsens_mori": True,
        },
        "grouping_equality": True,  # grouping_by_triangulation raised otherwise
        "cocycle_battery": {
            "ok": battery["ok"],
            "pairs": battery["pairs"],
            "loops": battery["loops"],
            "points": battery["points"],
            "failures": [{"kind": kind, "pair": [sec.mori_fan.label_of(i) for i in (a, b)],
                          "cell": list(p.cell), "coords": list(p.coords)}
                         for kind, a, b, p in battery["failures"][:5]],
        },
        "theta_checks": {key: theta[key] for key in THETA_CHECKS},
        "hilbert": {str(m): hilbert(cycle.n, m) for m in range(0, 6)},
        "proj_degree": proj_degree(cycle.n),
        "boundary_algebra_level_dims": {
            str(m): halg["levels"][m]["total"] for m in sorted(halg["levels"])
        },
        "bundle": {
            "decomposition_ok": bcert.ok,
            "failures": bcert.failures[:5],
            "nontrivial_stabilizers": [  # one per Stab(B)-orbit: root label, orbit size
                [lbl, size, list(t.invariant_factors)]
                for lbl, size, t in stab or () if not t.is_trivial()
            ],
        },
    }
    if lat.model_tag == "blowup" and lat.k >= 2:
        report["weyl"] = weyl_orbit_decomposition(lat, sec)
    return report, sec


def weyl_orbit_decomposition(lat: PicLattice, sec) -> dict:
    """W(E_k) data from the simple reflections alone; no element list is built.

    The chamber orbits are the Mori fan's first orbits: mori_fan_K walked them
    once, along Schreier trees of the generators, and proved every image a chamber.
    |W| = k! |W E| for the contraction E = {E_1, ..., E_k}: W fixes K, and K
    with the E_i spans Pic (x) Q since H = (sum E_i - K) / 3, so only the
    identity fixes every E_i; an element mapping E onto itself permutes the
    E_i, and the reflections in E_i - E_{i+1} give every permutation, so
    Stab(E) = S_k; orbit-stabilizer does the rest.  The boundary stabilizer
    has order |W| / |W B| (boundary_stabilizer).  A group maps a finite set
    of cones onto itself iff each generator does, which secondary_fan proved
    with the Stab(B) walk of its build, so that fact is read here, not
    walked again.
    """
    keys = [c.classes for c in contractions(lat)]
    roots = sec.mori_fan.orbits[:len(keys)]  # the chambers' roots; the bogus cones' follow
    sizes = Counter(roots)  # orbit root -> orbit size
    e = tuple(sorted(tuple(int(i == j) for i in range(lat.rank)) for j in range(1, lat.rank)))
    if e not in keys:
        raise InternalInvariantError(f"the contraction E = {list(e)} is not in contractions(lat)")
    order = factorial(lat.k) * sizes[roots[keys.index(e)]]
    return {"group_order": order, "orbit_sizes": sorted(sizes.values()),
            "stabilizer_order": order // boundary_stabilizer(lat, sec.boundary)[1],
            "stabilizer_fixes_secondary_fan": True}  # secondary_fan raised otherwise


def report_markdown(report: dict) -> str:
    stabs = report["bundle"]["nontrivial_stabilizers"]  # one per Stab(B)-orbit
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
        f"- mori fan predicate: {report['fan_checks']['mori_is_fan']}",
        f"- secondary fan predicate: {report['fan_checks']['secondary_is_fan']}",
        f"- secondary complete: {report['fan_checks']['secondary_complete']}",
        f"- coarsens mori fan: {report['fan_checks']['coarsens_mori']}",
        f"- triangulation grouping equals exceptional grouping: {report['grouping_equality']}",
        "- cocycle battery: not run (n < 3)" if report["cocycle_battery"]["ok"] is None else
        f"- cocycle battery: {report['cocycle_battery']['ok']} "
        f"(pairs={report['cocycle_battery']['pairs']}, loops={report['cocycle_battery']['loops']})",
        f"- theta misses all nodes: {report['theta_checks']['all_nodes_missed']}",
        f"- unique nonvanishing theta at center: {report['theta_checks']['center_check']}",
        f"- degenerate variant fails center: {report['theta_checks']['degenerate_variant_fails_center']}",
        "",
        "## bundle",
        f"- decomposition certificate: {report['bundle']['decomposition_ok']}",
        f"- Stab(B)-orbits with a nontrivial stabilizer: {len(stabs)}",
        *(f"- {size} cones like {lbl}: invariant factors {factors}"
          for lbl, size, factors in stabs),
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
    ring = UmbrellaRing(n, triangulation_with_flips(n, flips))
    comp = ring.complex
    basis = comp.points_at_level(level)
    lower = comp.points_at_level(level - 1) if level >= 1 else []
    ones = comp.points_at_level(1)
    sources = {}  # target point -> the degree-one products landing on it
    for p in lower:
        for q in ones:
            for pt, _, coeff in ring.product(p, q).terms:
                if coeff:
                    sources.setdefault((pt.cell, pt.coords), set()).add(
                        f"{p.cell}{p.coords}*{q.cell}{q.coords}")
    rows = ["point_cell,point_coords,level,products_from_degree_one"]
    for b in basis:
        srcs = ";".join(sorted(sources.get((b.cell, b.coords), ())))
        rows.append(f"\"{b.cell}\",\"{b.coords}\",{b.level},\"{srcs}\"")
    return "\n".join(rows) + "\n"


def write_bundle(outdir: Path, report: dict, sec) -> dict[str, str]:
    """Write the bundle; each file's text by name.  A fan file is its command's line."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    files["fan_mori.json"] = fan_line(sec.mori_fan, report["input_hash"], "mori")
    files["fan_secondary.json"] = fan_line(sec.full_fan, report["input_hash"], "secondary")
    # adjacency of the full secondary fan, nodes colored by moving group
    groups = {gi: g.label() for gi, g in enumerate(sec.groups)}
    for bi in range(len(sec.bogus_cones)):
        groups[len(sec.groups) + bi] = "bogus"
    files["chambers.dot"] = fan_to_dot(sec.full_fan, groups)
    files["theta_table.csv"] = theta_table_csv(sec.boundary.n, (), 2)
    files["report.json"] = json_text(report)
    files["report.md"] = report_markdown(report)
    for name, text in sorted(files.items()):
        (outdir / name).write_text(text, encoding="utf-8")
    return files


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


def _fan_command_common(config, cache_dir, kind, outdir=None) -> str:
    """The line the fan command prints; a cache hit is the entry's own text."""
    cfg = load_config(config)
    lat, cycle = cfg["lat"], cfg["cycle"]
    key = config_hash(lat, cycle)
    if outdir is None and (cached := cache_get(cache_dir, key, kind)) is not None:
        return cached
    if kind == "mori":
        fan = mori_fan_K(lat)
    else:
        sec = secondary_fan(lat, cycle)
        fan = sec.movsec_fan if kind == "movsec" else sec.full_fan
    line = fan_line(fan, key, kind)
    cache_put(cache_dir, key, kind, line)
    if outdir is not None:
        base = Path(outdir)
        base.mkdir(parents=True, exist_ok=True)
        (base / f"fan_{kind}.json").write_text(line, encoding="utf-8")
        labels = sorted(fan.label_of(i) for i in range(len(fan.cones)))
        (base / f"fan_{kind}.md").write_text(
            f"# {kind} fan\n\n- input hash: {key}\n- maximal cones: {len(fan.cones)}\n"
            f"- labels: {labels}\n", encoding="utf-8")
    return line


for _kind, _help in (
    ("mori", "Mori fan of the canonical bundle (complete, with bogus cones)."),
    ("movsec", "Moving part of the secondary fan (grouped chambers)."),
    ("secondary", "Full secondary fan (moving groups plus bogus completion)."),
):
    @fan_group.command(_kind, help=_help)
    @click.argument("config", type=click.Path(exists=True))
    @click.option("--cache-dir", default=None)
    @click.option("--out", "outdir", default=None, type=click.Path())
    def _fan(config, cache_dir, outdir, kind=_kind):
        click.echo(_fan_command_common(config, cache_dir, kind, outdir))


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
        pts = [_option_ints(chunk, "--points") for chunk in points.split(";")]
        if any(len(p) != 2 for p in pts):
            raise ValidationError(f"--points takes x,y pairs, not {points!r}")
    gkz = gkz_secondary_fan(pts)
    payload = {
        "points": [list(p) for p in pts],
        "triangulation_count": len(gkz.triangulations),
        "irregular_count": len(gkz.irregular),
        "fan": fan_to_json(gkz.fan, metadata={"kind": "gkz"}),
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
@click.option("--max-level", type=click.IntRange(min=0), default=6)
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
    idx = _option_ints(flips, "--triangulation") if flips.strip() else ()
    click.echo(theta_table_csv(n, idx, level), nl=False)


@theta_group.command("checks")
@click.option("--n", type=int, required=True)
def theta_checks(n):
    rep = theta_divisor_checks(n)
    click.echo(json.dumps({"n": n, **{key: rep[key] for key in THETA_CHECKS}}, sort_keys=True))


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

    si = _option_ints(selfint, "--selfint")
    aff = AffineStructure(len(si), si)
    s = _read_json(spine_path, "spine file", lambda data: make_spine(
        _json_int(data["vertex_chart"], "'vertex_chart'"),
        tuple(data["vertex_position"]),
        [(tuple(_json_int(x, "a 'direction' entry") for x in l["direction"]),
          _json_int(l.get("weight", 1), "'weight'")) for l in data["legs"]],
    ))
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
    ambient = _read_json(fan_path, "fan file", fan_from_json)
    subfan = _read_json(subfan_path, "fan file", fan_from_json)
    if l_spec.strip().upper() == "K":
        if config_path is None:
            raise ValidationError("--L K needs --config to resolve the canonical class")
        cfg = load_config(config_path)
        basis = (cfg["lat"].canonical,)
    else:
        basis = tuple(_option_ints(chunk, "--L") for chunk in l_spec.split(";"))
    if any(len(b) != ambient.ambient_rank for b in basis) or rank_of(basis) != len(basis):
        raise ValidationError(f"--L needs independent vectors of length {ambient.ambient_rank}")
    # the ambient must be a complete fan, proved by the degree certificate
    # (is_complete's), and every subfan cone one of its cones or their faces
    defect = _tiling_defect(ambient.cones, walls=ambient.walls, label_of=ambient.label_of)
    if defect is not None:
        raise ValidationError(f"--fan is not a complete fan: {defect}")
    stray = next((i for i, c in enumerate(subfan.cones) if not _cone_in_fan(c, ambient)), None)
    if stray is not None:
        raise ValidationError(f"--subfan cone {subfan.label_of(stray)} is not a cone of --fan")
    inp = BundleInput(ambient, subfan, basis)
    cert = decompose(inp)
    stab = stabilizers(inp, cert) if cert.ok else None
    payload = {
        "ok": cert.ok,
        "failures": cert.failures,
        "stabilizers": [
            [lbl, list(t.invariant_factors)] for lbl, _, t in stab or ()
        ],
    }
    click.echo(json.dumps(payload, sort_keys=True))


@cli.command("pipeline")
@click.argument("config", type=click.Path(exists=True))
@click.option("--out", "outdir", required=True, type=click.Path())
@click.option("--cache-dir", default=None)
@click.option("--json", "as_json", is_flag=True)
def pipeline(config, outdir, cache_dir, as_json):
    """Run every stage and write the report bundle."""
    cfg = load_config(config)
    lat, cycle = cfg["lat"], cfg["cycle"]
    report, sec = build_report(lat, cycle, seed=cfg["seed"])
    texts = write_bundle(Path(outdir), report, sec)
    cache_put(cache_dir, report["input_hash"], "report", texts["report.json"])
    files = sorted(texts)
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
