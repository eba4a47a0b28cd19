"""End-to-end acceptance checks, one test per criterion.

Each criterion records a single PASS/FAIL line (echoed after the pytest
summary) and asserts the same condition, so a red criterion is a red
test.  All comparisons are exact; the only tolerances are wall-clock
budgets, checked with perf_counter.
"""

import time
from itertools import combinations

from oracle import (
    brute_force_hilbert_simplicial,
    det3,
    jets_match_oracle,
    random_simplicial_octant_cones,
    sympy_jet_oracle,
)
from torfan.catalog import (
    default_grid,
    families,
    fixture_instances,
    instance,
    profile_discrepancy,
    verify,
)
from torfan.cones import Cone, _height_one, hilbert_basis, is_irreducible
from torfan.newton import dual_newton_cones
from torfan.polyparse import parse_polynomial
from torfan.profile import contains_point, facet_equation, l_functional, profile, profile_lattice_points
from torfan.refine import refine_fan
from torfan.valuation import jet_equations, tropical_variety

REPORT: list[str] = []

B_GRID = {
    "B-odd": [(1, 2), (2, 2), (2, 3), (3, 4)],
    "B-even": [(1, 2), (2, 2), (3, 3)],
}


def _record(num: int, ok: bool, detail: str) -> bool:
    REPORT.append(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    print(REPORT[-1])
    return ok


def _b_instances():
    for fam, grid in B_GRID.items():
        for r, n in grid:
            yield fam, {"r": r, "n": n}


# the three per-cone Hilbert bases printed for y^3 + x*z^2 - x^4,
# keyed by the cone's extremal rays
ELLIPTIC_LISTS = {
    frozenset({(0, 0, 1), (1, 0, 0), (3, 1, 0), (6, 8, 9)}): {
        (0, 0, 1), (1, 0, 0), (1, 1, 1), (3, 1, 0), (3, 4, 5), (6, 8, 9),
    },
    frozenset({(0, 1, 0), (3, 1, 0), (6, 8, 9)}): {
        (0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 3, 3), (3, 1, 0), (6, 8, 9),
    },
    frozenset({(0, 0, 1), (0, 1, 0), (6, 8, 9)}): {
        (0, 0, 1), (0, 1, 0), (1, 2, 2), (2, 3, 3), (3, 4, 5), (6, 8, 9),
    },
}


def test_criterion_01_elliptic_dnp_and_hilbert():
    start = time.perf_counter()
    p = parse_polynomial("y^3+x*z^2-x^4")
    pairs = dual_newton_cones(p)
    rays = {g for c, _ in pairs for g in c.generators}
    bases = {
        frozenset(c.generators): set(hilbert_basis(c)) for c, _ in pairs
    }
    elapsed = time.perf_counter() - start
    ok = (
        len(pairs) == 3
        and rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 1, 0), (6, 8, 9)}
        and bases == ELLIPTIC_LISTS
        and elapsed < 1.0
    )
    assert _record(1, ok, f"elliptic dual fan + Hilbert bases ({elapsed:.3f}s)"), bases


def test_criterion_02_escape_witness():
    c = Cone.from_generators([(0, 1, 0), (0, 0, 1), (6, 8, 9)])
    in_h = (1, 2, 2) in set(hilbert_basis(c))
    lval = l_functional(c)((1, 2, 2))
    prof = profile(c)
    outside = not contains_point(prof, (1, 2, 2))
    facets = [facet_equation(f) for f in prof.bounding]
    ok = in_h and str(lval) == "4/3" and outside and facets == ["8x-3y-3z+3"]
    assert _record(2, ok, f"(1,2,2) escapes with l=4/3; facet {facets[0]}"), (
        in_h, lval, outside, facets,
    )


def test_criterion_03_b_families_end_to_end():
    worst = 0.0
    failures = []
    for fam, params in _b_instances():
        start = time.perf_counter()
        inst = instance(fam, params)
        cones = [c for c, _ in dual_newton_cones(inst.poly)]
        union = set()
        for c in cones:
            union.update(hilbert_basis(c))
        ev = set(inst.stated.valuations)
        report = refine_fan(cones, sorted(ev))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        good = (
            ev == union
            and report.all_unimodular()
            and report.covering_ok
            and report.face_fitting_ok
            and report.all_rays_irreducible
            and elapsed < 10.0
        )
        if not good:
            failures.append((fam, params))
    ok = not failures
    assert _record(
        3, ok, f"7 B instances: EV = union(H), regular refinement (worst {worst:.2f}s)"
    ), failures


def test_criterion_04_determinant_families():
    tuples = sorted({t for grid in B_GRID.values() for t in grid})
    checked = 0
    bad = []
    for r, n in tuples:
        for group in instance("B-odd", {"r": r, "n": n}).stated.determinants:
            for m in group["matrices"]:
                checked += 1
                if abs(det3(*m)) != 1:
                    bad.append((r, n, group["label"], m))
    ok = checked > 0 and not bad
    assert _record(4, ok, f"{checked} determinant certificates, all +-1"), bad


def test_criterion_05_subprofiles():
    failures = []
    for fam, params in _b_instances():
        rec = instance(fam, params).stated
        cones = rec.cones
        profiles = [profile(c) for c in cones]
        hyps = [rec.subprofiles[i] for i in range(len(cones))]
        for v in rec.valuations:
            containing = [i for i, c in enumerate(cones) if c.contains(v)]
            if not containing:
                failures.append((fam, tuple(params.items()), v, "outside fan"))
                continue
            if not all(contains_point(profiles[i], v) for i in containing):
                failures.append((fam, tuple(params.items()), v, "outside profile"))
            if not any(
                h.functional(v) == 0 for i in containing for h in hyps[i]
            ):
                failures.append((fam, tuple(params.items()), v, "reaches none"))
        if fam == "B-odd":
            report = profile_discrepancy(fam, params)
            if not (report["flagged"] and report["recomputed_facets"]):
                failures.append((fam, tuple(params.items()), None, "not flagged"))
    ok = not failures
    assert _record(
        5, ok, "EV vectors inside profiles, all reach a subprofile hyperplane"
    ), failures[:8]


def _shared_faces(cones):
    out = set()
    for c1, c2 in combinations(cones, 2):
        shared = [g for g in c1.generators if c2.contains(g)]
        shared += [g for g in c2.generators if c1.contains(g) and g not in shared]
        if shared:
            out.add(frozenset(shared))
    return out


def test_criterion_06_groebner_tropical():
    failures = []
    for fam, params in _b_instances():
        r, n = params["r"], params["n"]
        if fam == "B-odd":
            apex = (2, 2 * n + 3, 2 * r)
            wall_ends = [(0, 1, 2), (2, 2 * n + 3, 0), (1, 0, r)]
        else:
            apex = (2, 2 * n + 3, 2 * r + 1)
            wall_ends = [(0, 1, 1), (2, 2 * n + 3, 0), (1, 0, n + r + 2)]
        expected = {frozenset({apex})} | {
            frozenset({end, apex}) for end in wall_ends
        }
        p = instance(fam, params).poly
        trop = tropical_variety(p)
        trop_sets = {
            frozenset(trop.rays[i] for i in fc.rays) for fc in trop.cones
        }
        if trop_sets != expected:
            failures.append((fam, params, "ray sets", trop_sets))
            continue
        walls = _shared_faces([c for c, _ in dual_newton_cones(p)])
        trop_cones = [Cone.from_generators(sorted(s)) for s in trop_sets]
        skeleton_covered = all(
            any(all(t.contains(g) for g in face) for t in trop_cones)
            for face in walls
        )
        inside_skeleton = all(
            any(
                all(Cone.from_generators(sorted(face)).contains(g) for g in t.generators)
                for face in walls
            )
            for t in trop_cones
        )
        if not (skeleton_covered and inside_skeleton):
            failures.append((fam, params, "skeleton", walls))
    ok = not failures
    assert _record(
        6, ok, "tropical cone ray sets exact; support equals the fan 2-skeleton"
    ), failures


def test_criterion_07_appendix_fixtures():
    instances = fixture_instances()
    covered = {fam for fam, _ in instances}
    required = {"E60", "E07", "E70", "A1", "C", "D-appendix", "F", "H-3k"}
    failures = []
    for fam, params in instances:
        inst = instance(fam, params)
        fx = inst.fixture
        computed = {
            frozenset(c.generators): set(hilbert_basis(c))
            for c, _ in dual_newton_cones(inst.poly)
        }
        encoded = {frozenset(c.rays): set(c.hilbert) for c in fx.cones}
        if encoded != computed:
            failures.append((fam, params))
    ok = required <= covered and not failures
    assert _record(
        7, ok, f"{len(instances)} encoded instances match computed Hilbert bases"
    ), (sorted(covered), failures)


def test_criterion_08_hilbert_oracle():
    start = time.perf_counter()
    triples = random_simplicial_octant_cones(60, 6, seed=60411)
    bad = []
    for g1, g2, g3 in triples:
        mine = tuple(sorted(hilbert_basis(Cone.from_generators([g1, g2, g3]))))
        ref = tuple(sorted(brute_force_hilbert_simplicial(g1, g2, g3)))
        if mine != ref:
            bad.append((g1, g2, g3))
    elapsed = time.perf_counter() - start
    ok = len(triples) >= 50 and not bad and elapsed < 30.0
    assert _record(
        8, ok, f"{len(triples)} random cones vs brute-force oracle ({elapsed:.2f}s)"
    ), bad


def test_criterion_09_profile_points_in_hilbert_basis():
    scope = [(fam, params) for fam, params in _b_instances()]
    scope += fixture_instances()
    violations = {}
    for fam, params in scope:
        for c, vertex in dual_newton_cones(instance(fam, params).poly):
            h = set(hilbert_basis(c))
            extra = sorted(
                v for v in profile_lattice_points(profile(c)) if v not in h
            )
            if extra:
                key = (fam, tuple(sorted(params.items())))
                violations.setdefault(key, []).append((vertex, extra))
    ok = not violations
    detail = (
        "every nonzero profile lattice point is a Hilbert element"
        if ok
        else "reducible profile points outside H for "
        + ", ".join(
            f"{fam}{dict(ps) or ''}" for fam, ps in sorted(violations)
        )
    )
    # Red on purpose: the inclusion genuinely fails on these instances.
    # Every extra point is a sum of two Hilbert elements that stays inside
    # the profile hull, e.g. (2,2,4) = (1,0,2) + (1,2,2) sits on the hull
    # boundary of the cone over (1,0,0),(1,0,2),(1,4,0),(3,4,8).
    assert _record(9, ok, detail), violations


def test_criterion_09_holds_on_every_height_one_cone():
    # On a height-one cone the profile's nonzero lattice points are those
    # of the polygon at l = 1, which are the Hilbert basis, so criterion 9
    # can fail only off these cones (ROADMAP items 3 and 15).
    height_one = 0
    for fam in families():
        for params in default_grid(fam):
            for row in verify(fam, params).cones:
                if _height_one(Cone.from_generators(row["rays"])) is not None:
                    height_one += 1
                    assert row["uncovered"] == [], (fam, params, row["rays"])
    assert height_one == 92
    failing = [
        c
        for fam, params in [*_b_instances(), *fixture_instances()]
        for c, _ in dual_newton_cones(instance(fam, params).poly)
        if not set(profile_lattice_points(profile(c))) <= set(hilbert_basis(c))
    ]
    assert len(failing) == 8
    assert all(_height_one(c) is None for c in failing)


def test_criterion_10_jet_truncation():
    failures = []
    for fam in families():
        p = instance(fam).poly
        oracle = sympy_jet_oracle(p, 4)
        for m in range(5):
            system = jet_equations(p, m)
            if not jets_match_oracle(p, m, system, oracle=oracle):
                failures.append((fam, m))
        f0 = jet_equations(p, 0).equation_dicts()[0]
        expected_f0 = {(a, b, c): coeff for (a, b, c), coeff in p}
        if {t[:3]: c for t, c in f0.items()} != expected_f0:
            failures.append((fam, "F0"))
    ok = not failures
    assert _record(
        10, ok, f"jets of {len(families())} catalog equations match sympy expansion, m <= 4"
    ), failures
