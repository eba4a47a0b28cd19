"""The four workloads: seeded inputs, one operation each, and output checks.

A workload is built once per process (``setup``) and then yields rounds:
``round(index, traced)`` is the list of operations of one pass over its
inputs, in an order drawn from the seed and the round index.  Each
operation is a timed call through names that ``torfan`` or ``torfan.cli``
export; its canonical output is digested and compared with the recorded
reference, and the in-process workloads also check what the returned
objects certify, with arithmetic of their own.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable

from tracer import TRACE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

# Pairwise-coprime exponents of growing product, for x^a+y^b+z^c.  Cost grows
# with the product; the top rungs take about 1 s each and hold most of a round.
LADDER = (
    (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 3, 11), (2, 5, 7),
    (2, 3, 13), (3, 4, 7), (2, 5, 9), (3, 5, 7), (2, 5, 11),
)
JET_ORDER = 3

# Octant cones: a pool of POOL_SIZE cones with 3-5 extremal rays and entries
# <= POOL_MAX_ENTRY, drawn once from POOL_SEED.  The run seed applies a fresh
# coordinate permutation to every cone in every round, so each seed runs
# different cones while the mix of cone sizes, and so the cost of a round,
# stays the same.  Drawing new random cones per seed instead gave ops_per_s
# a quartile spread of 12 % of the median between seeds.
POOL_SEED = 20230703
POOL_SIZE = 40
POOL_MAX_ENTRY = 9

ELL = "y^3+x*z^2-x^4"
B22 = "x^7*z-x^2*y^2-y^2*z"
SVG_OUT = ".perfbench-out/fan.svg"
# Every verb on small inputs, plus failures: exit 1 from a false flag and
# exit 2 from malformed input or usage.
CLI_CALLS = (
    ("dnp", ELL),
    ("dnp", B22, "--format", "text"),
    ("hilbert", "<(0,1,0),(0,0,1),(6,8,9)>"),
    ("hilbert", "<(1,0,0),(0,1,0),(0,0,1)>", "--format", "text"),
    ("resolve", ELL),
    ("resolve", "x^2+y^2+z^2", "--rays", "perfbench/inputs/rays.txt"),
    ("profile", ELL, "--vectors", "perfbench/inputs/vectors.txt"),
    ("profile", "<(0,0,1),(1,0,2),(0,1,2),(2,7,4)>"),
    ("groebner", B22),
    ("groebner", ELL, "--tropical"),
    ("jets", ELL, "--m", "3"),
    ("catalog", "list"),
    ("catalog", "show", "B-odd", "--r", "2", "--n", "2"),
    ("verify", "B-odd", "--r", "2", "--n", "2"),
    ("verify", "E60"),
    ("verify", "ELLIPTIC-1"),
    ("render", "perfbench/inputs/fan.json", "--out", SVG_OUT),
    ("dnp", "y^3 + $"),
    ("hilbert", "<(1,2)>"),
    ("verify", "NOPE"),
    ("verify", "B-odd", "--r", "0", "--n", "2"),
    ("jets", ELL),
    ("no-such-verb",),
)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``output`` and ``check`` are not."""

    key: str
    run: Callable[[], object]
    output: Callable[[object], object]
    check: Callable[[object], list[str]] = lambda result: []


@dataclass
class CliResult:
    code: int
    stdout: bytes
    file: bytes | None
    wall_s: float
    trace: dict | None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# independent checks of what a result certifies


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _supporting_normals(gens) -> list[tuple[int, int, int]]:
    """Normals of planes through two rays with every ray on one side."""
    out = []
    for a, b in combinations(gens, 2):
        n = _cross(a, b)
        if n == (0, 0, 0):
            continue
        values = [_dot(n, g) for g in gens]
        if all(v >= 0 for v in values):
            out.append(n)
        elif all(v <= 0 for v in values):
            out.append((-n[0], -n[1], -n[2]))
    return out


def _cone_problems(c, hilbert, prof, points) -> list[str]:
    """Hilbert basis in the cone and holding its rays; profile points inside."""
    normals = _supporting_normals(c.generators)
    inside = lambda v: all(_dot(n, v) >= 0 for n in normals)
    problems = []
    elements = set(hilbert.elements)
    if not all(inside(h) for h in elements):
        problems.append(f"{c}: Hilbert element outside the cone")
    if not set(c.generators) <= elements:
        problems.append(f"{c}: Hilbert basis misses an extremal ray")
    for v in points:
        if not (inside(v) and all(f(v) <= 0 for f in prof.bounding)):
            problems.append(f"{c}: profile point {v} outside the profile")
            break
    return problems


def _refinement_problems(report) -> list[str]:
    problems = []
    if not report.all_unimodular():
        problems.append("refinement not unimodular")
    if not report.covering_ok:
        problems.append("refinement covering_ok is false")
    if not report.face_fitting_ok:
        problems.append("refinement face_fitting_ok is false")
    rays = report.result.rays
    for fc in report.result.cones:
        a, b, c = (rays[i] for i in fc.rays)
        if abs(_dot(a, _cross(b, c))) != 1:
            problems.append(f"piece {fc.rays} has |det| != 1")
            break
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: every input once per round, in an order drawn from seed and round."""

    seed: int

    def variants(self, traced: bool = False) -> list[Op]:
        """Every operation any seed can draw; the reference covers them all."""
        raise NotImplementedError

    def round(self, index: int, traced: bool) -> list[Op]:
        ops = self.variants(traced)
        random.Random(f"{self.seed}/{index}").shuffle(ops)
        return ops


class CatalogGrid(Workload):
    """``verify(family, params)`` on each of the default-grid instances."""

    def setup(self, torfan, seed: int) -> None:
        self.torfan, self.seed = torfan, seed
        self.items = [(f, ps) for f in torfan.families() for ps in torfan.default_grid(f)]

    def variants(self, traced: bool = False) -> list[Op]:
        return [self._op(f, ps) for f, ps in self.items]

    def _op(self, family, params) -> Op:
        torfan = self.torfan
        return Op(
            f"{family} {json.dumps(params, sort_keys=True)}",
            lambda: torfan.verify(family, params),
            lambda report: report.to_obj(),
        )


class BrieskornLadder(Workload):
    """The resolve path on x^a+y^b+z^c, rung by rung."""

    def setup(self, torfan, seed: int) -> None:
        self.torfan, self.seed = torfan, seed

    def variants(self, traced: bool = False) -> list[Op]:
        return [self._op("x^%d+y^%d+z^%d" % t) for t in LADDER]

    def _op(self, text: str) -> Op:
        torfan = self.torfan

        def run():
            p = torfan.parse_polynomial(text)
            cones = [c for c, _ in torfan.dual_newton_cones(p)]
            per_cone = []
            for c in cones:
                prof = torfan.profile(c)
                per_cone.append(
                    (c, torfan.hilbert_basis(c), prof, torfan.profile_lattice_points(prof))
                )
            report = torfan.refine_fan(cones)
            return per_cone, report, torfan.groebner_fan(p), torfan.jet_equations(p, JET_ORDER)

        def output(result):
            per_cone, report, gfan, jets = result
            return {
                "cones": [
                    {
                        "rays": c.generators,
                        "hilbert": h.elements,
                        "profile": [str(f) for f in prof.bounding],
                        "points": pts,
                    }
                    for c, h, prof, pts in per_cone
                ],
                "refinement": report.to_obj(),
                "groebner": [
                    [g.cone.generators, g.cone.dim, str(g.initial_form)] for g in gfan
                ],
                "jets": jets.to_obj(),
            }

        def check(result):
            per_cone, report, _, _ = result
            problems = _refinement_problems(report)
            for c, h, prof, pts in per_cone:
                problems += _cone_problems(c, h, prof, pts)
            return problems

        return Op(text, run, output, check)


class OctantCones(Workload):
    """Hilbert basis, regular refinement and profile points of one cone."""

    def setup(self, torfan, seed: int) -> None:
        self.torfan, self.seed = torfan, seed
        rng = random.Random(POOL_SEED)
        self.pool = []
        while len(self.pool) < POOL_SIZE:
            k = rng.randint(3, 5)
            vs = [tuple(rng.randint(0, POOL_MAX_ENTRY) for _ in range(3)) for _ in range(k)]
            if (0, 0, 0) in vs:
                continue
            c = torfan.Cone.from_generators(vs)
            if c.dim == 3 and len(c.generators) == k:
                self.pool.append(c.generators)

    def variants(self, traced: bool = False) -> list[Op]:
        return [
            self._op(gens, perm)
            for gens in self.pool
            for perm in permutations(range(3))
        ]

    def round(self, index: int, traced: bool) -> list[Op]:
        rng = random.Random(f"{self.seed}/{index}")
        perms = list(permutations(range(3)))
        ops = [self._op(gens, rng.choice(perms)) for gens in self.pool]
        rng.shuffle(ops)
        return ops

    def _op(self, gens, perm) -> Op:
        torfan = self.torfan
        c = torfan.Cone.from_generators([tuple(g[i] for i in perm) for g in gens])

        def run():
            h = torfan.hilbert_basis(c)
            report = torfan.regular_refinement(c)
            prof = torfan.profile(c)
            return h, report, prof, torfan.profile_lattice_points(prof)

        def output(result):
            h, report, _, pts = result
            return {"hilbert": h.elements, "refinement": report.to_obj(), "points": pts}

        def check(result):
            h, report, prof, pts = result
            return _refinement_problems(report) + _cone_problems(c, h, prof, pts)

        return Op(str(c), run, output, check)


class CliMix(Workload):
    """One ``python -m torfan.cli`` process per operation, stdout captured."""

    def setup(self, torfan, seed: int) -> None:
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.env = child_env()

    def variants(self, traced: bool = False) -> list[Op]:
        return [self._op(argv, traced) for argv in CLI_CALLS]


    def _op(self, argv, traced: bool) -> Op:
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "torfan.cli", *argv]
        svg = ROOT / SVG_OUT if argv[0] == "render" else None

        def run():
            if svg is not None and svg.exists():
                svg.unlink()
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=120
            )
            wall = time.perf_counter() - start
            trace = None
            if traced:
                tail = proc.stderr.decode().rstrip("\n").rpartition("\n")[2]
                if tail.startswith(TRACE_MARK):
                    trace = json.loads(tail[len(TRACE_MARK):])
            file_bytes = svg.read_bytes() if svg is not None and svg.exists() else None
            return CliResult(proc.returncode, proc.stdout, file_bytes, wall, trace)

        def output(result):
            return {
                "exit": result.code,
                "stdout": hashlib.sha256(result.stdout).hexdigest(),
                "file": None if result.file is None else hashlib.sha256(result.file).hexdigest(),
            }

        def check(result):
            if traced and result.trace is None:
                return ["traced CLI child sent no trace summary"]
            return []

        return Op(" ".join(argv), run, output, check)


WORKLOADS = {
    "catalog-grid": CatalogGrid,
    "brieskorn-ladder": BrieskornLadder,
    "octant-cones": OctantCones,
    "cli-mix": CliMix,
}


def child_env() -> dict:
    """Environment of the worker and CLI processes: the repo's src, no knobs."""
    env = {k: v for k, v in os.environ.items() if k != "TORFAN_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
