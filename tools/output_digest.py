"""One sha256 per section of torfan's library output, plus a total, for
checking that a change keeps every output byte.

Usage:

    python3 tools/output_digest.py TREE

TREE is a checkout of the repository.  Its ``src`` is imported in a fresh
Python process, so two trees can be compared with the same copy of this
tool: run it on each and compare the lines.  ``tests/test_output_digest.py``
runs it on its own checkout against the committed
``tests/output_digest.txt``.  Every input is drawn from a
fixed seed, and a refusal (a ``ValueError`` and its message) is digested
like any other output.  Sections:

- ``octant``: seeded octant cones with 1-5 rays, planar ones included:
  Hilbert basis, ``refine_fan([c]).to_obj()``, profile forms and profile
  lattice points;
- ``refine``: ``refine_fan`` on dual fans, Hilbert-driven and at the
  Hilbert elements as prescribed rays;
- ``newton``: ``dual_newton_cones`` on the polynomials of ``groebner``:
  each cone's generators, facet normals and facets, and its vertex;
- ``groebner``: ``groebner_fan`` and ``tropical_variety`` on named and
  seeded random polynomials;
- ``jets``: ``jet_equations`` at m = 0..6;
- ``verify``: ``verify(...).to_obj()`` on the default grid of every family
  and a few instances off it;
- ``height-one``: seeded octant cones whose generators lie on one integral
  plane l = 1, two thin unimodular ones, and the dual cones of A2 at
  k < m <= 400: Hilbert basis, profile lattice points and
  ``refine_fan([c], c.hilbert).to_obj()``;
- ``cli``: every call of perfbench's ``CLI_CALLS``, and each of them again
  with ``--format text`` where its verb takes it, one ``torfan`` process
  per call run from TREE on ``TREE/src``: the exit code, stdout, and the
  file that ``render`` writes into a temporary directory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 20261020
NAMED = (
    "y^3+x*z^2-x^4",
    "x^7*z-x^2*y^2-y^2*z",
    "x^2+y^3+z^5",
    "x^3+y^4+z^5",
    "x^2+2*x*y+y^2+z^3",
    "x*y*z",
    "x-y",
)
# the verbs that take ``--format``
TEXT_VERBS = ("dnp", "hilbert", "resolve", "profile", "groebner", "jets", "catalog", "verify")
OFF_GRID = (
    ("A1", {"m": 7}),
    ("A2", {"k": 3, "m": 7}),
    ("B-odd", {"r": 1, "n": 3}),
    ("B-even", {"r": 2, "n": 3}),
    ("D", {"n": 3}),
    ("F", {"k": 4}),
)


def _attempt(thunk):
    """thunk(), or the refusal it raised as text."""
    try:
        return thunk()
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def _random_polynomial(rng: random.Random) -> str:
    text = ""
    for _ in range(rng.randint(1, 6)):
        mono = "*".join(f"{v}^{rng.randint(1, 7)}" for v in "xyz" if rng.random() < 0.6)
        c = rng.choice((-3, -2, -1, 1, 2, 5))
        text += ("-" if c < 0 else "+") + (f"{abs(c)}*{mono}" if mono else str(abs(c)))
    return text


def _random_octant_rays(rng: random.Random) -> list[tuple[int, int, int]]:
    k = rng.randint(1, 5)
    rays = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(k)]
    if k == 3 and rng.random() < 0.3:  # a planar cone: the third ray in the span
        a, b = rays[0], rays[1]
        rays[2] = tuple(x + y for x, y in zip(a, b))
    return rays


def _random_height_one_rays(rng: random.Random) -> list[tuple[int, int, int]]:
    """3-6 octant points of one plane l = 1, l primitive with entries in
    -4..4; fewer when the box holds fewer."""
    while True:
        l = [rng.randint(-4, 4) for _ in range(3)]
        on_plane = [
            v for v in itertools.product(range(7), repeat=3)
            if sum(a * x for a, x in zip(l, v)) == 1
        ]
        if len(on_plane) >= 3:
            return rng.sample(on_plane, min(len(on_plane), rng.randint(3, 6)))


def _sections(torfan) -> dict[str, list]:
    rng = random.Random(SEED)
    names = ("octant", "refine", "newton", "groebner", "jets", "verify", "height-one")
    out: dict[str, list] = {name: [] for name in names}

    def octant(rays):
        c = torfan.Cone.from_generators(rays)
        pr = torfan.profile(c)
        return [
            str(c),
            [list(v) for v in torfan.hilbert_basis(c)],
            torfan.refine_fan([c]).to_obj(),
            pr.kind,
            [str(f) for f in pr.bounding],
            [list(v) for v in torfan.profile_lattice_points(pr)],
        ]

    for _ in range(400):
        rays = _random_octant_rays(rng)
        out["octant"].append([rays, _attempt(lambda: octant(rays))])

    fans = NAMED[:5] + ("x^2+y^3+z^7", "y^3+x*z^2-x^5+x^2*y*z")
    for text in fans:
        cones = [c for c, _ in torfan.dual_newton_cones(torfan.parse_polynomial(text))]
        basis = sorted({v for c in cones for v in c.hilbert})
        for rays in (None, basis):
            report = _attempt(lambda: torfan.refine_fan(cones, rays).to_obj())
            out["refine"].append([text, rays is None, report])

    def groebner(p):
        return [[repr(g.cone), str(g.initial_form), list(g.initial_form)] for g in torfan.groebner_fan(p)]

    def newton(p):
        return [[c.generators, c.facet_normals, c.facets, s] for c, s in torfan.dual_newton_cones(p)]

    polys = list(NAMED) + [_random_polynomial(rng) for _ in range(600)]
    for text in polys:
        p = torfan.parse_polynomial(text)
        out["newton"].append([text, _attempt(lambda: newton(p))])
        trop = _attempt(lambda: torfan.tropical_variety(p).to_obj())
        out["groebner"].append([text, str(p), _attempt(lambda: groebner(p)), trop])

    for text in polys[:60]:
        p = torfan.parse_polynomial(text)
        out["jets"].extend([text, torfan.jet_equations(p, m).to_obj()] for m in range(7))

    instances = [(f, g) for f in torfan.families() for g in torfan.default_grid(f)]
    for family, params in instances + list(OFF_GRID):
        out["verify"].append(torfan.verify(family, params).to_obj())

    from torfan.catalog import instance

    def height_one(c):
        return [
            str(c),
            [list(v) for v in torfan.hilbert_basis(c)],
            [list(v) for v in torfan.profile_lattice_points(torfan.profile(c))],
            torfan.refine_fan([c], c.hilbert).to_obj(),
        ]

    for _ in range(150):
        rays = _random_height_one_rays(rng)
        out["height-one"].append([rays, _attempt(lambda: height_one(torfan.Cone.from_generators(rays)))])
    # unimodular and 10^8 wide across x: a handful of points in long rows
    thin = [(0, 0, 1), (1, 0, 1), (10**8, 1, 1)]
    for rays in (thin, [*thin, (10**8 + 1, 1, 1)]):
        out["height-one"].append(height_one(torfan.Cone.from_generators(rays)))
    for k, m in ((1, 50), (1, 100), (1, 200), (1, 400), (3, 100), (7, 200)):
        p = instance("A2", {"k": k, "m": m}).poly
        out["height-one"].extend(height_one(c) for c, _ in torfan.dual_newton_cones(p))
    return out


def _cli_section(tree: Path) -> list:
    """Exit code, stdout and written file of each CLI call, run from tree."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    calls = list(workloads.CLI_CALLS)
    calls += [(*argv, "--format", "text") for argv in calls
              if argv[0] in TEXT_VERBS and "--format" not in argv]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        svg = Path(tmp, "fan.svg")  # render's --out, in place of perfbench's path
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "torfan.cli",
                 *(str(svg) if a == workloads.SVG_OUT else a for a in argv)],
                cwd=tree, env=workloads.child_env(), capture_output=True, timeout=300,
            )
            written = hashlib.sha256(svg.read_bytes()).hexdigest() if svg.exists() else None
            svg.unlink(missing_ok=True)
            out.append([argv, proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), written])
    return out


def _child(src: str) -> None:
    sys.path.insert(0, src)
    import torfan

    if Path(torfan.__file__).resolve().parent != Path(src, "torfan").resolve():
        sys.exit(f"imported {torfan.__file__}, not the tree's own torfan")
    sections = _sections(torfan)
    sections["cli"] = _cli_section(Path(src).parent)
    total = hashlib.sha256()
    for name, items in sections.items():
        data = json.dumps(items, sort_keys=True, default=repr).encode()
        total.update(name.encode() + b"\0" + data)
        print(f"{name:<9} {len(items):>4} {hashlib.sha256(data).hexdigest()}")
    print(f"{'total':<14} {total.hexdigest()}")


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        _child(sys.argv[2])
        return
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    src = Path(sys.argv[1], "src").resolve()
    if not (src / "torfan").is_dir():
        sys.exit(f"{src / 'torfan'} is not a directory")
    sys.exit(subprocess.run([sys.executable, __file__, "--child", str(src)]).returncode)


if __name__ == "__main__":
    main()
