"""Command-line front end: JSON reports and SVG fan cross-sections.

Every verb emits a deterministic artifact: JSON to stdout or ``--out``, a
plain-text summary with ``--format text``, or an SVG cross-section for
``render``.  The JSON shapes are published in ``data/cli_schema.json``;
the tests check outputs against it, the CLI does not check each run.
Exit codes: 0 success, 1 any verification flag false, 2 malformed input
or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .cones import (
    _VECTOR_TEXT,
    Cone,
    Vec,
    _lists,
    _vector_literals,
    _vector_str,
    hilbert_basis,
    parse_cone,
)
from .polyparse import ParseError, Polynomial, parse_polynomial
from .profile import contains_point, facet_equation, profile_lattice_points

if TYPE_CHECKING:
    from .newton import Fan

# Every other module is imported by the verb that needs it, so a CLI
# process compiles only what its verb uses.

PARAM_FLAGS = ("r", "n", "k", "l", "m")
_FORMATS = ("json", "text")


# ---------------------------------------------------------------------------
# output schema


@cache
def load_schema() -> dict:
    """The published JSON contract of every verb, ``data/cli_schema.json``;
    the tests check outputs against it, not each run."""
    from importlib import resources  # pulls in tempfile and shutil; no verb needs it

    return json.loads(
        resources.files("torfan.data").joinpath("cli_schema.json").read_text()
    )


# ---------------------------------------------------------------------------
# SVG rendering

_SIDE = 480.0
_E1 = (60.0, 540.0)
_E2 = (540.0, 540.0)
_E3 = (300.0, 540.0 - _SIDE * math.sqrt(3.0) / 2.0)
_CENTER = ((_E1[0] + _E2[0] + _E3[0]) / 3.0, (_E1[1] + _E2[1] + _E3[1]) / 3.0)
_FILLS = (
    "#dbeafe", "#dcfce7", "#fee2e2", "#fef9c3",
    "#f3e8ff", "#e0f2fe", "#fce7f3", "#ecfccb",
)


def _project(v) -> tuple[float, float]:
    s = v[0] + v[1] + v[2]
    a, b, c = v[0] / s, v[1] / s, v[2] / s  # int division: huge rays do not overflow
    return (
        a * _E1[0] + b * _E2[0] + c * _E3[0],
        a * _E1[1] + b * _E2[1] + c * _E3[1],
    )


def _ray_label(v) -> str:
    units = {(1, 0, 0): "e1", (0, 1, 0): "e2", (0, 0, 1): "e3"}
    return units.get(tuple(v), _vector_str(v))


def _points_attr(pts) -> str:
    return " ".join("%.2f,%.2f" % p for p in pts)


def render_svg(fan: Fan) -> str:
    """Cross-section of an octant fan with the plane x+y+z = 1.

    Every maximal cone becomes one polygon (degenerate for cones of
    dimension below 3, which draw as segments or points); rays carry
    their lattice coordinates.  Output is deterministic.
    """
    # html, not xml.sax.saxutils: both escape &, < and > alike, but that
    # one imports urllib.request, tens of milliseconds per CLI process
    from html import escape

    if not fan.cones:
        raise ValueError("cannot render an empty fan")
    for v in fan.rays:
        if len(v) != 3 or min(v) < 0 or sum(v) <= 0:
            raise ValueError(f"fan must lie in the octant: bad ray {v}")
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="white"/>',
    ]
    for k, fc in enumerate(fan.cones):
        pts = [_project(fan.rays[i]) for i in fc.rays]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        fill = _FILLS[k % len(_FILLS)] if len(pts) >= 3 else "none"
        title = f"<title>{escape(fc.label, quote=False)}</title>" if fc.label else ""
        parts.append(
            f'<polygon points="{_points_attr(pts)}" fill="{fill}" '
            f'stroke="#333333" stroke-width="1.5"/>{title}'
        )
    corners = "M %.2f %.2f L %.2f %.2f L %.2f %.2f Z" % (*_E1, *_E2, *_E3)
    parts.append(
        f'<path d="{corners}" fill="none" stroke="#111111" stroke-width="1.5"/>'
    )
    for v in fan.rays:
        x, y = _project(v)
        dx, dy = x - _CENTER[0], y - _CENTER[1]
        norm = math.hypot(dx, dy)
        if norm < 1e-9:
            lx, ly = x, y - 14.0
        else:
            lx, ly = x + 20.0 * dx / norm, y + 20.0 * dy / norm
        parts.append('<circle cx="%.2f" cy="%.2f" r="2.5" fill="#111111"/>' % (x, y))
        parts.append(
            '<text x="%.2f" y="%.2f" font-family="monospace" font-size="12" '
            'text-anchor="middle">%s</text>' % (lx, ly + 4.0, _ray_label(v))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# input helpers


def _read_vectors(path: str) -> list[tuple[int, int, int]]:
    """Vectors from a file: after its ``#`` comment, each line holds (a,b,c)
    literals or one triple of integers split by whitespace or commas."""
    vecs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body and "(" not in body:  # a plain triple reads as one literal
            body = "(" + ",".join(body.replace(",", " ").split()) + ")"
        if _VECTOR_TEXT.sub("", body).replace(",", " ").strip():
            reason = f"expected (a,b,c) literals or 3 integers, got {line.strip()[:80]!r}"
            raise ValueError(f"{path}:{lineno}: {reason}")
        try:
            vecs += _vector_literals(body)
        except ParseError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    if not vecs:
        raise ValueError(f"no vectors found in {path}")
    return vecs


def _params_from(ns: argparse.Namespace) -> dict[str, int] | None:
    params = {f: getattr(ns, f) for f in PARAM_FLAGS if getattr(ns, f, None) is not None}
    return params or None


def _dual_cones(text: str) -> tuple[Polynomial, list[tuple[Cone, Vec]]]:
    """The polynomial of ``text`` and its (cone, vertex) pairs; ValueError
    when the dual Newton fan has no full-dimensional cone."""
    from .newton import dual_newton_cones

    p = parse_polynomial(text)
    pairs = dual_newton_cones(p)
    if not pairs:
        raise ValueError("the dual Newton fan has no full-dimensional cones")
    return p, pairs


# ---------------------------------------------------------------------------
# verb handlers: each returns (flags_ok, schema_key, payload)


def _run_dnp(ns) -> tuple[bool, str, dict]:
    from .newton import Fan, fan_consistency_report

    p, pairs = _dual_cones(ns.poly)
    by_label = {f"vertex {_vector_str(v)}": v for _, v in pairs}
    fan = Fan.from_cones([c for c, _ in pairs], list(by_label))
    consistency = fan_consistency_report([c for c, _ in pairs])
    obj = fan.to_obj()
    for row in obj["cones"]:
        row["vertex"] = list(by_label[row["label"]])
    obj["equation"] = str(p)
    obj.update(consistency)
    ok = consistency["covering_ok"] and consistency["face_fitting_ok"]
    return ok, "dnp", obj


def _run_hilbert(ns) -> tuple[bool, str, list]:
    c = parse_cone(ns.cone)
    return True, "hilbert", _lists(hilbert_basis(c))


def _run_resolve(ns) -> tuple[bool, str, dict]:
    from .refine import refine_fan

    p, pairs = _dual_cones(ns.poly)
    cones = [c for c, _ in pairs]
    inserted = _read_vectors(ns.rays) if ns.rays else None
    report = refine_fan(cones, inserted)
    obj = {
        "equation": str(p),
        "source_rays": _lists(sorted({g for c in cones for g in c.generators})),
        "refinement": report.to_obj(),
    }
    if inserted is not None:
        obj["inserted"] = _lists(inserted)
    rep = obj["refinement"]
    ok = (
        rep["regular"]
        and rep["covering_ok"]
        and rep["face_fitting_ok"]
        and rep["all_rays_irreducible"]
    )
    return ok, "resolve", obj


def _run_profile(ns) -> tuple[bool, str, dict]:
    text = ns.input.strip()
    obj: dict = {}
    if text.startswith("<"):
        cones = [parse_cone(text)]
        obj["cone"] = _lists(cones[0].generators)
        rows = [{}]
    else:
        p, pairs = _dual_cones(text)
        cones = [c for c, _ in pairs]
        obj["equation"] = str(p)
        rows = [{"vertex": list(v)} for _, v in pairs]
    entries = []
    for c, row in zip(cones, rows):
        entries.append(
            {
                "rays": _lists(c.generators),
                "kind": c.profile.kind,
                "bounding": [facet_equation(f) for f in c.profile.bounding],
                "lattice_points": _lists(profile_lattice_points(c.profile)),
                **row,
            }
        )
    obj["profiles"] = entries
    ok = True
    if ns.vectors:
        results = []
        for v in _read_vectors(ns.vectors):
            containing = [i for i, c in enumerate(cones) if c.contains(v)]
            outside = [i for i in containing if not contains_point(cones[i].profile, v)]
            row_ok = bool(containing) and not outside
            results.append(
                {
                    "vector": list(v),
                    "containing_cones": containing,
                    "outside_profile_of": outside,
                    "ok": row_ok,
                }
            )
            ok = ok and row_ok
        obj["vectors"] = results
    return ok, "profile", obj


def _run_groebner(ns) -> tuple[bool, str, dict]:
    from .valuation import groebner_fan, tropical_variety

    p = parse_polynomial(ns.poly)
    if ns.tropical:
        fan = tropical_variety(p)
        obj = fan.to_obj()
        obj["equation"] = str(p)
        return True, "groebner-tropical", obj
    cones = groebner_fan(p)
    return True, "groebner", {
        "equation": str(p),
        "cones": [
            {
                "rays": _lists(g.cone.generators),
                "dim": g.cone.dim,
                "initial_form": str(g.initial_form),
            }
            for g in cones
        ],
    }


def _run_jets(ns) -> tuple[bool, str, dict]:
    from .valuation import jet_equations

    p = parse_polynomial(ns.poly)
    system = jet_equations(p, ns.m)
    obj = {"equation": str(p)}
    obj.update(system.to_obj())
    return True, "jets", obj


def _entry_fields(ent) -> dict:
    """The registry fields that ``catalog list`` and ``catalog show`` share."""
    from .catalog import default_grid

    obj = {
        "name": ent.name,
        "parameters": list(ent.parameters),
        "constraint": ent.constraint,
        "template": ent.template,
        "rtp": ent.rtp,
        "grid": default_grid(ent.name),
    }
    if ent.note:
        obj["note"] = ent.note
    return obj


def _run_catalog(ns) -> tuple[bool, str, dict]:
    from .catalog import entry, families, fixture_instances, instance

    if ns.action == "list":
        fams = [
            _entry_fields(entry(name))
            | {"fixtures": [p for f, p in fixture_instances() if f == name]}
            for name in families()
        ]
        return True, "catalog-list", {"families": fams}
    inst = instance(ns.family, _params_from(ns))
    obj = _entry_fields(inst.entry)
    obj["params"] = inst.params
    obj["equation"] = str(inst.poly)
    obj["fixture"] = inst.fixture is not None
    rec = inst.stated
    if rec.cones is not None:
        obj["stated_maximal_cones"] = [_lists(c.generators) for c in rec.cones]
        by_cone = rec.subprofiles or {}
        obj["subprofiles"] = [
            [
                {"equation": str(h), "recomputed": h.recomputed}
                for h in by_cone.get(i, ())
            ]
            for i in range(len(rec.cones))
        ]
    return True, "catalog-show", obj


def _run_verify(ns) -> tuple[bool, str, dict]:
    from .catalog import verify

    report = verify(ns.family, _params_from(ns))
    return report.overall, "verify", report.to_obj()


def _run_render(ns) -> tuple[bool, None, str]:
    from .newton import Fan

    fan = Fan.from_json(Path(ns.fan).read_text())
    return True, None, render_svg(fan)


# ---------------------------------------------------------------------------
# text rendering


def _text_lines(key: str, obj) -> list[str]:
    if key == "hilbert":
        return [_vector_str(v) for v in obj]
    if key == "dnp":
        lines = [f"equation: {obj['equation']}"]
        for row in obj["cones"]:
            rays = " ".join(_vector_str(obj["rays"][i]) for i in row["rays"])
            lines.append(f"{row['label']}: {rays}")
        lines.append(f"covering_ok: {obj['covering_ok']}")
        lines.append(f"face_fitting_ok: {obj['face_fitting_ok']}")
        return lines
    if key == "resolve":
        rep = obj["refinement"]
        return [
            f"equation: {obj['equation']}",
            f"pieces: {len(rep['certificates'])}",
            f"new rays: {' '.join(_vector_str(v) for v in rep['new_rays']) or '(none)'}",
            f"regular: {rep['regular']}",
            f"covering_ok: {rep['covering_ok']}",
            f"face_fitting_ok: {rep['face_fitting_ok']}",
            f"all_rays_irreducible: {rep['all_rays_irreducible']}",
        ]
    if key == "profile":
        lines = []
        if "equation" in obj:
            lines.append(f"equation: {obj['equation']}")
        for i, prof in enumerate(obj["profiles"]):
            rays = " ".join(_vector_str(v) for v in prof["rays"])
            lines.append(f"cone {i} [{prof['kind']}]: {rays}")
            for eq in prof["bounding"]:
                lines.append(f"  facet: {eq} = 0")
            lines.append(f"  lattice points: {len(prof['lattice_points'])}")
        for row in obj.get("vectors", []):
            state = "ok" if row["ok"] else f"outside in cones {row['outside_profile_of']}"
            if not row["containing_cones"]:
                state = "in no cone"
            lines.append(f"vector {_vector_str(row['vector'])}: {state}")
        return lines
    if key == "groebner":
        lines = [f"equation: {obj['equation']}"]
        for g in obj["cones"]:
            rays = " ".join(_vector_str(v) for v in g["rays"])
            lines.append(f"dim {g['dim']}: {rays} | initial: {g['initial_form']}")
        return lines
    if key == "groebner-tropical":
        lines = [f"equation: {obj['equation']}"]
        for row in obj["cones"]:
            rays = " ".join(_vector_str(obj["rays"][i]) for i in row["rays"])
            lines.append(f"{rays} | initial: {row.get('label', '')}")
        return lines
    if key == "jets":
        lines = [f"equation: {obj['equation']}"]
        lines += [f"F{i} = {eq}" for i, eq in enumerate(obj["equations"])]
        return lines
    if key == "catalog-list":
        return [
            "%-12s %-10s %s" % (f["name"], ",".join(f["parameters"]) or "-", f["template"])
            for f in obj["families"]
        ]
    if key == "catalog-show":
        lines = [f"{k}: {obj[k]}" for k in ("name", "template", "constraint", "equation")]
        lines.append(f"params: {obj['params']}")
        lines.append(f"rtp: {obj['rtp']}  fixture: {obj['fixture']}")
        return lines
    if key == "verify":
        lines = [f"family: {obj['family']}  params: {obj['params']}"]
        for stage, data in obj["stages"].items():
            suffix = " (observational)" if data.get("observational") else ""
            lines.append(f"{stage}: {data['status']}{suffix}")
        lines.append(f"overall: {obj['overall']}")
        return lines
    raise AssertionError(f"no text renderer for {key}")


# ---------------------------------------------------------------------------
# dispatch


class _VerbParser(argparse.ArgumentParser):
    """Reads a token such as -x^4+y^3 as an operand: no verb has an option -x."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-", "h"):
            return None  # argparse reads None as a positional argument
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torfan",
        description="Exact toric tools for Newton polyhedra of surface "
        "singularities: dual fans, Hilbert bases, unimodular refinements, "
        "profiles, Groebner fans, jets.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    def common(sp):
        sp.add_argument("--out", help="write the artifact to this file")
        sp.add_argument(
            "--format", choices=_FORMATS, default=_FORMATS[0], help="output format"
        )

    sp = sub.add_parser("dnp", help="dual Newton fan of a polynomial")
    sp.add_argument("poly")
    common(sp)

    sp = sub.add_parser("hilbert", help="Hilbert basis of a cone literal")
    sp.add_argument("cone", help='cone text like "<(0,1,0),(0,0,1),(6,8,9)>"')
    common(sp)

    sp = sub.add_parser("resolve", help="unimodular refinement of the dual fan")
    sp.add_argument("poly")
    sp.add_argument("--rays", help="file of rays to insert instead of Hilbert bases")
    common(sp)

    sp = sub.add_parser("profile", help="profiles of a polynomial's fan or one cone")
    sp.add_argument("input", help="polynomial, or cone text starting with '<'")
    sp.add_argument("--vectors", help="file of vectors to test for containment")
    common(sp)

    sp = sub.add_parser("groebner", help="Groebner fan, or tropical subfan")
    sp.add_argument("poly")
    sp.add_argument("--tropical", action="store_true")
    common(sp)

    sp = sub.add_parser("jets", help="jet-space equations F_0..F_m")
    sp.add_argument("poly")
    sp.add_argument("--m", type=int, required=True, help="truncation order")
    common(sp)

    sp = sub.add_parser("catalog", help="singularity family registry")
    act = sp.add_subparsers(dest="action", required=True)
    lp = act.add_parser("list", help="all families")
    common(lp)
    shp = act.add_parser("show", help="one family, optionally at parameters")
    shp.add_argument("family")
    for flag in PARAM_FLAGS:
        shp.add_argument(f"--{flag}", type=int)
    common(shp)

    sp = sub.add_parser("verify", help="full verification pipeline for a family")
    sp.add_argument("family")
    for flag in PARAM_FLAGS:
        sp.add_argument(f"--{flag}", type=int)
    common(sp)

    sp = sub.add_parser("render", help="SVG cross-section of a fan JSON file")
    sp.add_argument("fan", help="fan JSON produced by dnp or groebner --tropical")
    sp.add_argument("--out", required=True, help="output SVG path")
    return parser


_HANDLERS = {
    "dnp": _run_dnp,
    "hilbert": _run_hilbert,
    "resolve": _run_resolve,
    "profile": _run_profile,
    "groebner": _run_groebner,
    "jets": _run_jets,
    "catalog": _run_catalog,
    "verify": _run_verify,
    "render": _run_render,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def run(argv: list[str]) -> int:
    """Parse argv, dispatch one verb, emit its artifact; returns exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as status:
        return int(status.code or 0)
    try:
        ok, key, payload = _HANDLERS[ns.verb](ns)
        if ns.verb == "render":
            _emit(payload, ns.out)
        elif ns.format == "text":
            _emit("\n".join(_text_lines(key, payload)) + "\n", ns.out)
        else:
            _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", ns.out)
    except (ValueError, OSError, OverflowError) as e:
        # an unwritable --out is an input error too, not a failed check
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
