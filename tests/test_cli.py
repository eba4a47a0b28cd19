import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import CLI_SCHEMA, SchemaError, validate_output
from torfan import cli
from torfan.catalog import default_grid, families, verify
from torfan.polyparse import parse_polynomial

ELL = "y^3+x*z^2-x^4"
B22 = "x^7*z-x^2*y^2-y^2*z"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_json(capsys, args):
    code = cli.run(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_hilbert_verb_exact_list(capsys):
    code, obj = run_json(capsys, ["hilbert", "<(0,1,0),(0,0,1),(6,8,9)>"])
    assert code == 0
    assert sorted(map(tuple, obj)) == [
        (0, 0, 1), (0, 1, 0), (1, 2, 2), (2, 3, 3), (3, 4, 5), (6, 8, 9),
    ]


def test_dnp_fan_shape(capsys):
    code, obj = run_json(capsys, ["dnp", ELL])
    assert code == 0
    assert sorted(map(tuple, obj["rays"])) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (3, 1, 0), (6, 8, 9),
    ]
    assert len(obj["cones"]) == 3
    assert obj["covering_ok"] and obj["face_fitting_ok"]
    vertices = {tuple(c["vertex"]) for c in obj["cones"]}
    assert vertices == {(0, 3, 0), (1, 0, 2), (4, 0, 0)}


def test_resolve_exit_zero_when_regular(capsys):
    code, obj = run_json(capsys, ["resolve", ELL])
    assert code == 0
    rep = obj["refinement"]
    assert rep["regular"] and rep["all_rays_irreducible"]
    assert all(abs(c["det"]) == 1 for c in rep["certificates"])


def test_resolve_with_rays_file(tmp_path, capsys):
    rays = tmp_path / "rays.txt"
    rays.write_text("(1,0,1)\n(1,1,1)\n")
    code, obj = run_json(capsys, ["resolve", "x^2+y^2+z^2", "--rays", str(rays)])
    assert obj["inserted"] == [[1, 0, 1], [1, 1, 1]]
    assert code in (0, 1)  # exit reflects the regularity flags either way


def test_resolve_refuses_a_ray_in_no_cone(tmp_path, capsys):
    rays = tmp_path / "rays.txt"
    rays.write_text("(-1,2,3)\n")
    assert cli.run(["resolve", "x^2+y^2+z^2", "--rays", str(rays)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prescribed ray (-1, 2, 3) lies in no cone of the fan" in captured.err


def test_profile_cone_facet(capsys):
    code, obj = run_json(capsys, ["profile", "<(0,1,0),(0,0,1),(6,8,9)>"])
    assert code == 0
    prof = obj["profiles"][0]
    assert prof["kind"] == "simplicial"
    assert prof["bounding"] == ["8x-3y-3z+3"]


def test_profile_vectors_exit_code(tmp_path, capsys):
    vf = tmp_path / "v.txt"
    vf.write_text("(1,2,2)\n")
    code, obj = run_json(capsys, ["profile", ELL, "--vectors", str(vf)])
    assert code == 1
    row = obj["vectors"][0]
    assert row["ok"] is False and row["containing_cones"]
    vf.write_text("(1,1,1)\n")
    code, obj = run_json(capsys, ["profile", ELL, "--vectors", str(vf)])
    assert code == 0
    # a vector in no cone is not ok, for a fan and for one cone
    vf.write_text("(-1,0,0)\n")
    for source in (ELL, "<(1,0,0),(0,1,0),(1,1,3)>"):
        code, obj = run_json(capsys, ["profile", source, "--vectors", str(vf)])
        assert code == 1
        assert obj["vectors"] == [
            {"vector": [-1, 0, 0], "containing_cones": [], "outside_profile_of": [], "ok": False}
        ]
        assert cli.run(["profile", source, "--vectors", str(vf), "--format", "text"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "vector (-1,0,0): in no cone"


def test_groebner_and_tropical(capsys):
    code, obj = run_json(capsys, ["groebner", B22])
    assert code == 0
    assert sum(1 for g in obj["cones"] if g["dim"] == 3) == 3
    code, obj = run_json(capsys, ["groebner", B22, "--tropical"])
    assert code == 0
    assert len(obj["cones"]) == 4


def test_jets_order_zero_is_equation(capsys):
    code, obj = run_json(capsys, ["jets", ELL, "--m", "0"])
    assert code == 0
    assert obj["equations"] == ["-x0^4 + x0*z0^2 + y0^3"]


def test_catalog_list_and_show(capsys):
    code, obj = run_json(capsys, ["catalog", "list"])
    assert code == 0
    names = [f["name"] for f in obj["families"]]
    assert "B-odd" in names and "ELLIPTIC-2" in names
    by_name = {f["name"]: f for f in obj["families"]}
    assert by_name["E60"]["fixtures"] == [{}]
    assert by_name["B-odd"]["fixtures"] == []

    code, obj = run_json(capsys, ["catalog", "show", "B-odd", "--r", "2", "--n", "2"])
    assert code == 0
    assert obj["equation"] == "x^7*z-x^2*y^2-y^2*z"
    assert len(obj["stated_maximal_cones"]) == 3
    assert [len(s) for s in obj["subprofiles"]] == [4, 2, 1]


def test_catalog_show_lists_subprofiles_per_cone(capsys):
    # ELLIPTIC-1 states subprofile data for cone 2 only
    code, obj = run_json(capsys, ["catalog", "show", "ELLIPTIC-1"])
    assert code == 0
    assert len(obj["stated_maximal_cones"]) == 3
    assert obj["subprofiles"] == [
        [], [], [{"equation": "8x-3y-3z+3", "recomputed": False}]
    ]
    code, obj = run_json(capsys, ["catalog", "show", "E60"])
    assert "stated_maximal_cones" not in obj and "subprofiles" not in obj


def test_catalog_show_builds_the_stated_record_once(capsys, monkeypatch):
    from torfan import catalog

    calls = []
    original = catalog._det_matrices_b_odd

    def counted(r, n):
        calls.append((r, n))
        return original(r, n)

    monkeypatch.setattr(catalog, "_det_matrices_b_odd", counted)
    assert cli.run(["catalog", "show", "B-odd", "--r", "2", "--n", "2"]) == 0
    capsys.readouterr()
    assert calls == [(2, 2)]


def test_verify_exit_codes(capsys):
    code, obj = run_json(capsys, ["verify", "B-odd", "--r", "2", "--n", "2"])
    assert code == 0 and obj["overall"] is True
    code, obj = run_json(capsys, ["verify", "ELLIPTIC-1"])
    assert code == 1 and obj["overall"] is False
    assert obj["stages"]["profile_containment"]["witnesses"] == [[1, 2, 2]]


def test_verify_text_lists_every_stage_in_order(capsys):
    assert cli.run(["verify", "B-odd", "--r", "2", "--n", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "family: B-odd  params: {'r': 2, 'n': 2}",
        "dual_fan: ok",
        "hilbert: ok",
        "refinement: ok",
        "profile_coverage: ok",
        "profile_containment: ok",
        "subprofile: ok",
        "valuations: ok",
        "groebner: ok",
        "fixture: skipped",
        "determinants: ok",
        "overall: True",
    ]


def test_render_svg(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    svg_path = tmp_path / "fan.svg"
    assert cli.run(["dnp", ELL, "--out", str(fan_path)]) == 0
    assert cli.run(["render", str(fan_path), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<polygon") == 3  # one polygon per maximal cone
    for label in ("e1", "e2", "e3", "(6,8,9)", "(3,1,0)"):
        assert f">{label}</text>" in svg


def test_render_octant_triangle(tmp_path):
    fan_path = tmp_path / "fan.json"
    fan_path.write_text('{"rays":[[1,0,0],[0,1,0],[0,0,1]],"cones":[{"rays":[0,1,2]}]}')
    svg_path = tmp_path / "oct.svg"
    assert cli.run(["render", str(fan_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().count("<polygon") == 1


def test_render_escapes_labels(tmp_path):
    from xml.dom import minidom

    label = "a&b</title><script>x</script>"
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps({
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "cones": [{"rays": [0, 1, 2], "label": label}],
    }))
    svg_path = tmp_path / "fan.svg"
    assert cli.run(["render", str(fan_path), "--out", str(svg_path)]) == 0
    doc = minidom.parse(str(svg_path))
    assert doc.getElementsByTagName("script") == []
    (title,) = doc.getElementsByTagName("title")
    assert title.firstChild.data == label


def test_render_rejects_empty_fan(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    fan_path.write_text('{"rays":[],"cones":[]}')
    assert cli.run(["render", str(fan_path), "--out", str(tmp_path / "x.svg")]) == 2
    assert "empty fan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{}", "fan 'rays' must be a list"),
        ("[1, 2]", "a fan must be an object"),
        ('{"rays": [5], "cones": []}', "fan rays must be 3-vectors"),
        ('{"rays": [[1, 0, 0]], "cones": [5]}', "fan cones must be objects"),
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ("{", "Expecting property name"),
        (
            '{"rays": [[1, 0, 0]], "cones": [{"rays": [0], "label": 5}]}',
            "fan cone labels must be strings",
        ),
        ('{"rays": [[true, 0, 0]], "cones": [{"rays": [0]}]}', "fan rays must be 3-vectors"),
        (
            '{"rays": [[1, 0, 0]], "cones": [{"rays": [false]}]}',
            "fan cones must be objects with a 'rays' index list",
        ),
        (
            '{"rays": [[1, 0, 0], [0, 1, 0]], "cones": [{"rays": [0, 0, 0, 1]}]}',
            "fan cone [0, 0, 0, 1] repeats a ray index",
        ),
        (
            '{"rays": [[1, 0, 0], [0, 1, 0], [1, 0, 0]], "cones": [{"rays": [0, 1]}]}',
            "fan rays must be distinct",
        ),
        (
            '{"rays": [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]],'
            ' "cones": [{"rays": [0, 2, 3]}, {"rays": [1, 2, 3]}]}',
            "fan rays must be primitive",
        ),
    ],
    ids=[
        "empty-object", "list", "non-list-ray", "non-object-cone", "deep", "truncated",
        "non-string-label", "bool-ray-coordinate", "bool-cone-index",
        "repeated-index", "repeated-ray", "non-primitive-ray",
    ],
)
def test_render_rejects_malformed_fans_with_a_reason(tmp_path, capsys, text, reason):
    fan_path = tmp_path / "fan.json"
    svg_path = tmp_path / "x.svg"
    fan_path.write_text(text)
    assert cli.run(["render", str(fan_path), "--out", str(svg_path)]) == 2
    assert reason in capsys.readouterr().err
    assert not svg_path.exists()


def test_byte_determinism(capsys):
    first = []
    for _ in range(2):
        assert cli.run(["verify", "E60"]) == 0
        first.append(capsys.readouterr().out)
    assert first[0] == first[1]
    for _ in range(2):
        assert cli.run(["dnp", B22]) == 0
        first.append(capsys.readouterr().out)
    assert first[2] == first[3]


def _schema_key(args):
    """The published schema's key for the JSON output of a CLI call."""
    if args[0] == "catalog":
        return f"catalog-{args[1]}"
    return "groebner-tropical" if "--tropical" in args else args[0]


def test_outputs_validate_against_shipped_schema(capsys, monkeypatch, tmp_path):
    # every JSON stdout of the benchmark's cli-mix calls, which name their
    # input files from the repo root
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(ROOT)
    keys = []
    for argv in importlib.import_module("workloads").CLI_CALLS:
        args = [str(tmp_path / "fan.svg") if a.endswith(".svg") else a for a in argv]
        code = cli.run(args)
        out = capsys.readouterr().out
        if code == 2 or args[0] == "render" or "--format" in args:
            continue
        validate_output(_schema_key(args), json.loads(out))
        keys.append(_schema_key(args))
    assert len(keys) == 14
    assert set(keys) == set(json.loads(CLI_SCHEMA.read_text())["verbs"])


def test_grid_verify_reports_validate_against_the_published_schema():
    grid = [(f, ps) for f in families() for ps in default_grid(f)]
    assert len(grid) == 45
    for family, params in grid:
        validate_output("verify", verify(family, params).to_obj())


def test_schema_validator_catches_mismatch():
    with pytest.raises(SchemaError):
        validate_output("hilbert", [[1, 2]])
    with pytest.raises(SchemaError):
        validate_output("jets", {"equation": "x", "m": "two", "variables": [], "equations": []})
    with pytest.raises(SchemaError):
        validate_output("dnp", {"equation": "x"})


def test_text_format(capsys):
    assert cli.run(["verify", "ELLIPTIC-1", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "overall: False" in out
    assert "profile_containment: fail" in out
    assert cli.run(["hilbert", "<(1,0,0),(0,1,0),(0,0,1)>", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == ["(0,0,1)", "(0,1,0)", "(1,0,0)"]


@pytest.mark.parametrize("verb", [
    ["dnp"], ["resolve"], ["profile"], ["groebner"], ["groebner", "--tropical"],
    ["jets", "--m", "2"],
])
def test_a_polynomial_printed_with_a_leading_minus_reads_back(capsys, verb):
    # torfan prints y^3+x*z^2-x^4 starting with its minus sign; argparse
    # would take that text for an option
    text = str(parse_polynomial(ELL))
    assert text.startswith("-")
    spaced = text.replace("+", " + ", 1)
    for tail in ([], ["--format", "text"]):
        assert cli.run([verb[0], spaced, *verb[1:], *tail]) == 0
        expected = capsys.readouterr()
        assert cli.run([verb[0], text, *verb[1:], *tail]) == 0
        assert capsys.readouterr() == expected
        assert cli.run([verb[0], *verb[1:], *tail, text]) == 0
        assert capsys.readouterr() == expected


def test_a_leading_minus_polynomial_error_counts_from_the_users_text(capsys):
    assert cli.run(["dnp", "-x^4+@", "--format", "text"]) == 2
    assert "position 5 in '-x^4+@'" in capsys.readouterr().err
    assert cli.run(["dnp", "-h"]) == 0  # still the help option
    assert capsys.readouterr().out.startswith("usage: torfan dnp")


def test_non_decimal_digit_is_a_positioned_input_error(capsys):
    # str.isdigit accepts the superscript two, int() does not
    assert cli.run(["jets", "x^2\u00b2", "--m", "1"]) == 2
    assert "position 3" in capsys.readouterr().err


def test_long_input_error_quotes_an_excerpt(capsys):
    # 5,000 nines overflow int(); the message quotes 80 characters, not 5,002
    assert cli.run(["jets", "x^" + "9" * 5000, "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert "position 2" in err and len(err) < 200


def test_usage_and_input_errors(capsys, tmp_path):
    assert cli.run(["dnp", "y^3 + $"]) == 2
    assert "position" in capsys.readouterr().err
    assert cli.run(["hilbert", "<(1,2)>"]) == 2
    capsys.readouterr()
    assert cli.run(["verify", "NOPE"]) == 2
    assert "unknown family" in capsys.readouterr().err
    assert cli.run(["verify", "B-odd", "--r", "0", "--n", "2"]) == 2
    capsys.readouterr()
    assert cli.run(["render", str(tmp_path / "missing.json"), "--out", "x.svg"]) == 2
    capsys.readouterr()
    assert cli.run(["no-such-verb"]) == 2
    assert cli.run(["jets", ELL]) == 2  # --m is required
    capsys.readouterr()


def test_an_order_past_the_index_range_is_an_input_error(capsys):
    # refused for its 3(m+1) variables before anything is allocated
    assert cli.run(["jets", "x", "--m", "100000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: order-100000000000000000000 jets have 300000000000000000003 variables,"
        " more than the bound of 1000000"
    ]


def test_jets_past_the_monomial_bound_are_an_input_error(capsys):
    # x^100 at m = 200 has over 10^13 jet monomials
    assert cli.run(["jets", "x^100", "--m", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: order-200 jets have at least 3095037 monomials, more than the bound of 1000000"
    ]


def test_jets_past_the_printable_digits_are_an_input_error(capsys):
    # a 4,290-digit coefficient parses, but its order-5 jets reach 4,303
    # digits, past what the interpreter converts to text
    assert cli.run(["jets", "9" * 4290 + "*x^1000", "--m", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: order-5 jets have a coefficient of 4303 digits,"
        " more than the 4300-digit limit for printing an integer"
    ]
    assert cli.run(["jets", "9" * 4280 + "*x^1000", "--m", "5"]) == 0
    capsys.readouterr()


def test_thin_height_one_cones_answer_at_once():
    # unimodular height-one simplices 10^8 wide across x: their polygon
    # holds three lattice points, and the walk of a unimodular simplex has
    # D = 1 point, so the cost follows the points, not the width
    code = (
        "import contextlib, io, json\n"
        "from torfan import cli\n"
        "for verb, x in (('hilbert', 1), ('profile', 1), ('profile', -1)):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.run([verb, '<(0,0,1),(1,0,1),(%d,1,1)>' % (x * 10**8)])\n"
        "    obj = json.loads(out.getvalue())\n"
        "    points = obj if verb == 'hilbert' else obj['profiles'][0]['lattice_points']\n"
        "    print(code, len(points))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 3"] * 3


def test_large_determinant_hilbert_basis_answers_in_time():
    # |det| 300,007 and not height-one, so the basis is the group walk's,
    # reduced first in each piece's own coordinates: about 2 s.  The limit
    # is 10 s because a reduction that runs every walked point through the
    # cone's facet heights takes 16-22 s, which 20 s would not catch
    code = (
        "import contextlib, io, json\n"
        "from torfan import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.run(['hilbert', '<(1,0,0),(0,1,0),(1000,1001,300007)>'])\n"
        "print(code, len(json.loads(out.getvalue())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1335"]


@pytest.mark.parametrize(
    "args",
    [["dnp", "x^2+y^3+z^5"], ["verify", "B-odd"], ["render", "FAN"]],
    ids=["dnp", "verify", "render"],
)
@pytest.mark.parametrize("target", ["missing-dir", "existing-dir"])
def test_an_unwritable_out_path_is_an_input_error(capsys, tmp_path, args, target):
    # the write sat outside the handler, so the OSError escaped as exit 1
    fan = tmp_path / "fan.json"
    fan.write_text('{"rays":[[1,0,0],[0,1,0],[0,0,1]],"cones":[{"rays":[0,1,2]}]}')
    out = tmp_path / "no-such-dir" / "x.out" if target == "missing-dir" else tmp_path
    argv = [str(fan) if a == "FAN" else a for a in args]
    assert cli.run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and str(out) in captured.err


LAZY = ("newton", "refine", "valuation", "catalog")


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a new interpreter that sees only the repo's src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED_BY_VERB = """
import contextlib, io, sys
import torfan.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    torfan.cli.main(sys.argv[1:])
print(" ".join(sorted(n[7:] for n in sys.modules if n.startswith("torfan."))))
"""


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["hilbert", "<(0,1,0),(0,0,1),(6,8,9)>"], ()),
        (["no-such-verb"], ()),
        (["dnp", ELL], ("newton",)),
        (["render", "FAN", "--out", "OUT"], ("newton",)),
        (["resolve", ELL], ("newton", "refine")),
        (["groebner", ELL], ("newton", "valuation")),
        (["jets", ELL, "--m", "1"], ("valuation",)),
        (["verify", "E60"], LAZY),
    ],
    ids=["hilbert", "usage-error", "dnp", "render", "resolve", "groebner", "jets", "verify"],
)
def test_each_verb_loads_only_the_modules_it_uses(tmp_path, args, loaded):
    fan = tmp_path / "fan.json"
    fan.write_text('{"rays":[[1,0,0],[0,1,0],[0,0,1]],"cones":[{"rays":[0,1,2]}]}')
    paths = {"FAN": str(fan), "OUT": str(tmp_path / "fan.svg")}
    modules = _fresh_python(_LOADED_BY_VERB, *(paths.get(a, a) for a in args)).split()
    assert [m for m in LAZY if m in modules] == [m for m in LAZY if m in loaded]


def test_cli_and_catalog_load_importlib_resources_only_to_read_data():
    # -S keeps site packages (and the modules their .pth files import) out
    code = (
        "import sys, torfan.cli, torfan.catalog\n"
        "before = 'importlib.resources' in sys.modules\n"
        "torfan.cli.load_schema()\n"
        "print(before, 'importlib.resources' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_cli_and_catalog_import_neither_dataclasses_nor_inspect():
    # -S keeps site packages (and the modules their .pth files import) out
    code = "import sys, torfan.cli, torfan.catalog; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert "torfan.catalog" in modules
    assert not {"dataclasses", "inspect"} & modules


PUBLIC_NAMES = """
ParseError Polynomial parse_polynomial
Cone HilbertBasis cross dot hilbert_basis is_irreducible parse_cone primitive
triangulate unimodular_det
Fan dual_newton_cones fan_consistency_report octant_solid_volume
AffineFunctional Profile contains_point facet_equation l_functional
profile profile_lattice_points
RefinementReport refine_fan regular_refinement
GroebnerCone JetSystem groebner_fan initial_form jet_equations tropical_variety
w_order
CatalogError default_grid entry families fixture_instances profile_discrepancy
verify
""".split()

_PUBLIC_API = """
import json, sys
import torfan
loaded_by_import = sorted(n for n in sys.modules if n.startswith("torfan."))
import torfan.profile, torfan.catalog, torfan.refine
star = {}
exec("from torfan import *", star)
try:
    torfan.no_such_name
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "all": torfan.__all__,
    "profile_is_function": torfan.profile is sys.modules["torfan.profile"].profile,
    "not_defining_binding": [
        n for n in torfan.__all__
        if getattr(sys.modules[getattr(torfan, n).__module__], n) is not getattr(torfan, n)
    ],
    "star_mismatch": [n for n in torfan.__all__ if star.get(n) is not getattr(torfan, n)],
    "all_in_dir": "__all__" in dir(torfan),
    "missing_raises": missing_raises,
}))
"""


def test_public_api_is_unchanged_and_resolved_on_first_use():
    facts = json.loads(_fresh_python(_PUBLIC_API))
    assert facts["loaded_by_import"] == ["torfan.cones", "torfan.polyparse", "torfan.profile"]
    assert facts["all"] == PUBLIC_NAMES
    assert facts["profile_is_function"]
    assert facts["not_defining_binding"] == []
    assert facts["star_mismatch"] == []
    assert facts["all_in_dir"]
    assert facts["missing_raises"]


def test_vectors_file_formats(tmp_path, capsys):
    vf = tmp_path / "plain.txt"
    vf.write_text("# comment\n1 1 1\n2, 3, 3\n")
    code, obj = run_json(capsys, ["profile", ELL, "--vectors", str(vf)])
    assert [row["vector"] for row in obj["vectors"]] == [[1, 1, 1], [2, 3, 3]]
    # literal and plain lines mix; a literal inside a comment is not read
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("(1,0,1)\n1 1 1  # not (2,3,3)\n")
    code, obj = run_json(capsys, ["profile", ELL, "--vectors", str(mixed)])
    assert [row["vector"] for row in obj["vectors"]] == [[1, 0, 1], [1, 1, 1]]
    for name, text, lineno in [
        ("bad.txt", "1 2\n", 1),
        ("broken-literal.txt", "(1,1,1)\n(1,0,1) (1,1,x)\n", 2),
        ("literal-and-plain.txt", "(1,0,1) 1 1 1\n", 1),
        ("words.txt", "(1,1,1)\n1 1 x\n", 2),
        ("long-digits.txt", "(1,1,1)\n(1,1," + "9" * 5000 + ")\n", 2),
    ]:
        bad = tmp_path / name
        bad.write_text(text)
        assert cli.run(["profile", ELL, "--vectors", str(bad)]) == 2
        assert f"{bad}:{lineno}:" in capsys.readouterr().err


def _term_text(coeff: int, exponents: tuple[int, int, int]) -> str:
    factors = [
        name if e == 1 else f"{name}^{e}" for name, e in zip("xyz", exponents) if e
    ]
    if abs(coeff) != 1 or not factors:
        factors.insert(0, str(abs(coeff)))
    return ("-" if coeff < 0 else "+") + "*".join(factors)


_POLY = st.lists(
    st.tuples(
        st.integers(-3, 3).filter(bool), st.tuples(*[st.integers(0, 5)] * 3)
    ),
    min_size=1,
    max_size=4,
).map(lambda terms: "".join(_term_text(c, e) for c, e in terms).lstrip("+"))
_VECTORS = st.lists(st.tuples(*[st.integers(-4, 6)] * 3), min_size=1, max_size=5)
_CONE = _VECTORS.map(lambda vs: "<" + ",".join("(%d,%d,%d)" % v for v in vs) + ">")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rays", "cones", "label"]), inner, max_size=3),
    max_leaves=12,
)
_FAN = _JSON | st.fixed_dictionaries(
    {
        "rays": st.lists(st.lists(st.integers(-2, 6), min_size=2, max_size=4), max_size=5),
        "cones": st.lists(
            st.fixed_dictionaries({"rays": st.lists(st.integers(-1, 5), max_size=4)}),
            max_size=4,
        ),
    }
)
_FAMILY = st.sampled_from([*families(), "NOPE"])
_PARAMS = st.dictionaries(st.sampled_from(cli.PARAM_FLAGS), st.integers(0, 4), max_size=3)
_VERBS = (
    "dnp", "hilbert", "resolve", "profile", "groebner", "jets", "catalog", "verify",
    "render",
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_verb_exits_0_1_or_2_on_random_input(tmp_path_factory, data):
    folder = tmp_path_factory.getbasetemp() / "fuzz"
    folder.mkdir(exist_ok=True)
    vectors = folder / "vectors.txt"
    vectors.write_text("".join("(%d,%d,%d)\n" % v for v in data.draw(_VECTORS)))
    fan = folder / "fan.json"
    fan.write_text(json.dumps(data.draw(_FAN)))
    verb = data.draw(st.sampled_from(_VERBS))
    if verb in ("dnp", "groebner", "resolve", "jets", "profile"):
        args = [verb, data.draw(_POLY)]
        if verb == "profile" and data.draw(st.booleans()):
            args = [verb, data.draw(_CONE)]
        if verb == "groebner" and data.draw(st.booleans()):
            args.append("--tropical")
        if verb == "jets":
            args += ["--m", str(data.draw(st.integers(-1, 3)))]
        if verb in ("resolve", "profile") and data.draw(st.booleans()):
            args += ["--rays" if verb == "resolve" else "--vectors", str(vectors)]
    elif verb == "hilbert":
        args = [verb, data.draw(_CONE)]
    elif verb == "render":
        args = [verb, str(fan), "--out", str(folder / "fan.svg")]
    elif verb == "catalog" and data.draw(st.booleans()):
        args = [verb, "list"]
    else:
        args = ([verb] if verb == "verify" else [verb, "show"]) + [data.draw(_FAMILY)]
        for flag, value in sorted(data.draw(_PARAMS).items()):
            args += [f"--{flag}", str(value)]
    if verb != "render" and data.draw(st.booleans()):
        args += ["--format", "text"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(args)
    assert code in (0, 1, 2), args
    if code != 2 and verb != "render" and "--format" not in args:
        validate_output(_schema_key(args), json.loads(out.getvalue()))


@pytest.mark.parametrize(
    "args",
    [["resolve", ELL], ["verify", "B-odd", "--r", "2", "--n", "2"]],
    ids=["resolve", "verify"],
)
def test_optimised_interpreter_gives_the_same_output(args):
    # python -O strips assert statements; no decision may rest on one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "torfan.cli", *args],
            env=env,
            capture_output=True,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimised = runs
    assert plain.stdout and plain.returncode in (0, 1), plain.stderr
    assert (optimised.stdout, optimised.returncode) == (plain.stdout, plain.returncode)
