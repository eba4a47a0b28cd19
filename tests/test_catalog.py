import copy
import itertools
import re

import pytest

from oracle import det3, subprofile_rows
from torfan.catalog import (
    CatalogError,
    CatalogHyperplane,
    _subprofile_stage,
    default_grid,
    entry,
    families,
    fixture_instances,
    instance,
    profile_discrepancy,
    verify,
)
from torfan.cones import Cone, hilbert_basis, is_irreducible
from torfan.newton import dual_newton_cones
from torfan.polyparse import parse_polynomial
from torfan.profile import AffineFunctional
from torfan.valuation import initial_form

B22 = {"r": 2, "n": 2}

ALL_FAMILIES = [
    "A1", "A2", "A3", "A4",
    "B-odd", "B-even",
    "C", "D", "D-appendix",
    "E60", "E07", "E70",
    "F",
    "H-3k-1", "H-3k", "H-3k+1",
    "ELLIPTIC-1", "ELLIPTIC-2",
]


def test_registry_names_and_flags():
    assert families() == ALL_FAMILIES
    assert entry("B-odd").rtp and entry("H-3k").rtp
    assert not entry("ELLIPTIC-1").rtp and not entry("ELLIPTIC-2").rtp
    with pytest.raises(CatalogError):
        entry("B-weird")


# the stated fields each family fills; every other field is None
STATED = {
    "B-odd": {
        "cones", "subprofiles", "valuations", "tropical", "determinants",
        "printed_profile",
    },
    "B-even": {"cones", "subprofiles", "valuations", "tropical"},
    "ELLIPTIC-1": {"cones", "subprofiles"},
}
# the cones each family states subprofile hyperplanes for
SUBPROFILE_CONES = {"B-odd": [0, 1, 2], "B-even": [0, 1, 2], "ELLIPTIC-1": [2]}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_registry_pins_which_lookups_answer(family):
    rec = instance(family).stated
    answered = {name for name in rec._fields if getattr(rec, name) is not None}
    assert answered == STATED.get(family, set())
    if rec.subprofiles is not None:
        assert sorted(rec.subprofiles) == SUBPROFILE_CONES[family]
    if "printed_profile" in answered:
        assert profile_discrepancy(family)["flagged"]
    else:
        with pytest.raises(CatalogError, match="printed profile"):
            profile_discrepancy(family)


def test_every_domain_holds_its_grid_and_refuses_zero():
    for fam in families():
        ent = entry(fam)
        for params in ent.grid:
            assert ent.domain(**params), (fam, params)
        if ent.parameters:
            with pytest.raises(CatalogError):
                instance(fam, dict.fromkeys(ent.parameters, 0)).poly


@pytest.mark.parametrize(
    "params, named",
    [
        ({"r": 2.7, "n": 2}, "'r'"),
        ({"r": True, "n": "2"}, "'r'"),
        ({"r": 2, "n": "2"}, "'n'"),
        ({"r": "two"}, "'r'"),
    ],
    ids=["float", "bool", "string", "word"],
)
def test_non_integer_parameters_are_refused(params, named):
    with pytest.raises(CatalogError, match=named):
        verify("B-odd", params)
    with pytest.raises(CatalogError, match=named):
        instance("B-odd", params)


def test_equations_instantiate():
    cases = {
        ("B-odd", (("r", 2), ("n", 2))): "x^7*z - x^2*y^2 - y^2*z",
        ("B-even", (("r", 1), ("n", 2))): "x^5*y - x^7*z + y^2*z",
        ("D", (("n", 1),)): "x^4*y^2 - x^4*z + y*z^2",
        ("D-appendix", (("n", 1),)): "x^4*y^2 - x^4*z + y*z^2",
        ("ELLIPTIC-1", ()): "y^3 + x*z^2 - x^4",
        ("ELLIPTIC-2", ()): "z^2 + y^3 + x^21",
    }
    for (fam, items), text in cases.items():
        assert instance(fam, dict(items)).poly.as_dict() == parse_polynomial(text).as_dict()


def _sympy_template(template: str):
    """The template as a sympy expression in x, y, z and the parameters."""
    from sympy.parsing.sympy_parser import (
        convert_xor,
        implicit_multiplication_application,
        parse_expr,
        standard_transformations,
    )

    return parse_expr(
        template,
        transformations=standard_transformations
        + (implicit_multiplication_application, convert_xor),
    )


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_equation_matches_a_sympy_expansion_of_the_template(family):
    sympy = pytest.importorskip("sympy")
    ent = entry(family)
    expr = _sympy_template(ent.template)
    x, y, z = sympy.symbols("x y z")
    tuples = [
        dict(zip(ent.parameters, vals))
        for vals in itertools.product(range(1, 7), repeat=len(ent.parameters))
    ]
    in_domain = [ps for ps in tuples if ent.domain(**ps)]
    for ps in [*ent.grid, *in_domain]:
        subs = {sympy.Symbol(k): v for k, v in ps.items()}
        expected = sympy.Poly(expr.subs(subs), x, y, z).as_dict()
        got = instance(family, ps).poly.as_dict()
        assert got == {e: int(c) for e, c in expected.items()}, (family, ps)


def test_a3_pure_y_terms_merge_where_the_exponents_coincide():
    # 3k = 2k+m+l-2 at (l, m, k) = (3, 4, 5): both pure-y terms are y^15
    assert (
        str(instance("A3", {"l": 3, "m": 4, "k": 5}).poly)
        == "2*y^15-2*y^8*z-x*y^5*z+y^4*z^2+x*z^2-z^3"
    )


@pytest.mark.parametrize(
    "family, params, exponent",
    [
        ("A4", {"l": 0, "m": 2, "k": 3}, "l"),
        ("A4", {"l": -1, "m": 1, "k": 2}, "l"),
        ("A3", {"l": -2, "m": 0, "k": 2}, "(2k+m+l-2)"),
    ],
)
def test_template_exponents_below_one_are_refused(family, params, exponent):
    assert entry(family).domain(**params)
    with pytest.raises(CatalogError, match=re.escape(f"exponent {exponent} of {family}")):
        instance(family, params).poly


def test_equation_defaults_to_first_grid_tuple():
    first = default_grid("B-odd")[0]
    assert instance("B-odd").poly.as_dict() == instance("B-odd", first).poly.as_dict()


def test_equation_rejects_out_of_domain():
    with pytest.raises(CatalogError):
        instance("B-odd", {"r": 0, "n": 2})
    with pytest.raises(CatalogError):
        instance("A3", {"l": 3, "m": 2, "k": 1})
    with pytest.raises(CatalogError):
        instance("B-odd", {"r": 1})  # missing n


def test_stated_cones_match_computed():
    for fam, params in (("B-odd", B22), ("B-even", {"r": 1, "n": 2}), ("ELLIPTIC-1", None)):
        inst = instance(fam, params)
        computed = {frozenset(c.generators) for c, _ in dual_newton_cones(inst.poly)}
        stated = {frozenset(c.generators) for c in inst.stated.cones}
        assert stated == computed


def test_embedded_valuations_equal_hilbert_union():
    for fam, params in (("B-odd", B22), ("B-even", {"r": 1, "n": 2})):
        inst = instance(fam, params)
        union = set()
        for c, _ in dual_newton_cones(inst.poly):
            union.update(hilbert_basis(c))
        assert set(inst.stated.valuations) == union


def test_subprofile_hyperplanes_pinned_at_2_2():
    by_cone = instance("B-odd", B22).stated.subprofiles
    assert [(str(h), h.recomputed) for h in by_cone[0]] == [
        ("x-z+1", False),
        ("2x-y+z-1", False),
        ("x+y-z+1", True),
        ("x+y-4z+7", True),
    ]
    assert [str(h) for h in by_cone[1]] == ["x-1", "4x-y-1"]
    assert [str(h) for h in by_cone[2]] == ["3x-y+1"]
    elliptic = instance("ELLIPTIC-1").stated.subprofiles
    assert [str(h) for h in elliptic[2]] == ["8x-3y-3z+3"]


# every instance the data tests below read: the B families at r <= 6 and
# 2 <= n <= 7, which hold both default grids, and ELLIPTIC-1
STATED_INSTANCES = [
    (fam, {"r": r, "n": n})
    for fam in ("B-odd", "B-even")
    for r in range(1, 7)
    for n in range(2, 8)
] + [("ELLIPTIC-1", {})]


def _int_plane(h: CatalogHyperplane) -> tuple[int, int, int, int]:
    parts = (*h.functional.coeffs, h.functional.constant)
    assert all(x.denominator == 1 for x in parts), str(h)
    return tuple(int(x) for x in parts)


def test_stated_hyperplanes_meet_two_generators_and_miss_the_origin():
    assert all(
        (fam, ps) in STATED_INSTANCES for fam in ("B-odd", "B-even") for ps in default_grid(fam)
    )
    for fam, params in STATED_INSTANCES:
        rec = instance(fam, params).stated
        for i, hyps in rec.subprofiles.items():
            for h in hyps:
                a, b, c, d = _int_plane(h)
                on = [g for g in rec.cones[i].generators if a * g[0] + b * g[1] + c * g[2] + d == 0]
                assert len(on) >= 2 and d != 0, (fam, params, i, str(h))


def test_subprofile_rows_match_an_independent_recount():
    recounted = 0
    for fam, params in STATED_INSTANCES:
        rec = instance(fam, params).stated
        stage = verify(fam, params).stages["subprofile"]
        if rec.valuations is None:
            assert "per_cone" not in stage, fam
            continue
        hyps = [rec.subprofiles[i] for i in range(len(rec.cones))]
        got = stage["per_cone"]
        assert [row["hyperplanes"] for row in got] == [
            [str(h.functional) for h in hs] for hs in hyps
        ]
        expected = subprofile_rows(
            [c.generators for c in rec.cones],
            [[_int_plane(h) for h in hs] for hs in hyps],
            rec.valuations,
        )
        assert [{"vectors": r["vectors"], "all_reach": r["all_reach"]} for r in got] == expected
        recounted += sum(len(r["vectors"]) for r in got)
    assert recounted > len(STATED_INSTANCES)


def test_subprofile_stage_fails_on_a_valuation_no_hyperplane_reaches():
    rec = instance("B-odd", B22).stated
    assert _subprofile_stage(rec)["status"] == "ok"
    # x-y+1 passes through (0,1,0) and (0,1,2) of cone 2, as the stated
    # 3x-y+1 does, but not through (1,4,0), which no other cone holds
    miss = CatalogHyperplane(AffineFunctional.from_integers(1, -1, 0, 1))
    stage = _subprofile_stage(rec._replace(subprofiles={**rec.subprofiles, 2: (miss,)}))
    assert stage["status"] == "fail"
    failure = next(f for f in stage["failures"] if f["vector"] == [1, 4, 0])
    assert failure["reaches"] is False and failure["containing"] == [2]
    row = next(e for e in stage["per_cone"][2]["vectors"] if e["vector"] == [1, 4, 0])
    assert row == {"vector": [1, 4, 0], "reaches": [], "in_region": False}
    assert stage["per_cone"][2]["all_reach"] is False


def test_report_objects_share_nothing_with_the_report():
    report = verify("B-odd", B22)
    first = report.to_obj()
    expected = copy.deepcopy(first)
    first["params"]["r"] = 99
    first["stages"]["hilbert"]["sizes"].append(0)
    first["stages"]["subprofile"]["per_cone"][0]["vectors"].clear()
    first["cones"][0]["hilbert"][0][0] = -1
    first["cones"].pop()
    assert report.to_obj() == expected
    assert report.params == B22


def test_profile_discrepancy_is_flagged():
    report = profile_discrepancy("B-odd", B22)
    assert report["flagged"] is True
    assert report["cone_index"] == 0
    assert report["recomputed_facets"] == ["x+y-z+1", "x+y-4z+7"]
    # the first stated hyperplane has no x term and cuts off a generator
    first = report["stated"][0]
    assert "x" not in first["hyperplane"]
    assert first["separates_generator"] is True
    with pytest.raises(CatalogError):
        profile_discrepancy("B-even")


@pytest.mark.parametrize("params", [(1, 2), (2, 2), (2, 3), (3, 4)])
def test_determinant_families_unimodular(params):
    r, n = params
    groups = instance("B-odd", {"r": r, "n": n}).stated.determinants
    labels = {g["label"] for g in groups}
    assert "cone0 ladder" in labels and len(groups) == 6
    for g in groups:
        assert g["matrices"], g["label"]
        for m in g["matrices"]:
            assert abs(det3(*m)) == 1, (g["label"], m)


def test_fixture_registry():
    inst = fixture_instances()
    assert len(inst) == 11
    assert ("E60", {}) in inst and ("F", {"k": 2}) in inst
    fx = instance("E60").fixture
    assert [(c.label, len(c.hilbert)) for c in fx.cones] == [
        ("sigma1", 12), ("sigma2", 9), ("sigma3", 9),
    ]
    assert instance("B-odd", B22).fixture is None
    assert instance("F", {"k": 5}).fixture is None


@pytest.mark.parametrize("family,params", [("E60", None), ("H-3k", {"k": 1})])
def test_fixture_tables_equal_computed(family, params):
    inst = instance(family, params)
    fx = inst.fixture
    computed = {
        frozenset(c.generators): set(hilbert_basis(c))
        for c, _ in dual_newton_cones(inst.poly)
    }
    for cone in fx.cones:
        key = frozenset(cone.rays)
        assert key in computed
        assert set(cone.hilbert) == computed[key]


def test_verify_b_odd_all_green():
    report = verify("B-odd", {"r": 1, "n": 2})
    assert report.overall
    status = {k: v["status"] for k, v in report.stages.items()}
    for stage in ("dual_fan", "hilbert", "refinement", "profile_coverage",
                  "profile_containment", "subprofile", "valuations",
                  "groebner", "determinants"):
        assert status[stage] == "ok", stage
    assert status["fixture"] == "skipped"


def test_verify_grid_b_even_all_green():
    reports = [verify("B-even", ps) for ps in default_grid("B-even")]
    assert len(reports) == 3
    assert all(r.overall for r in reports)


def test_verify_elliptic1_escape_witness():
    report = verify("ELLIPTIC-1").to_obj()
    assert report["overall"] is False
    stage = report["stages"]["profile_containment"]
    assert stage["status"] == "fail"
    assert stage["witnesses"] == [[1, 2, 2]]
    assert report["stages"]["fixture"]["status"] == "ok"
    assert report["stages"]["hilbert"]["status"] == "ok"
    assert report["stages"]["subprofile"]["status"] == "ok"


def test_verify_elliptic2_escapes_observational():
    report = verify("ELLIPTIC-2").to_obj()
    assert report["overall"] is True
    stage = report["stages"]["profile_containment"]
    assert stage["status"] == "ok" and stage["observational"] is True
    assert stage["witnesses"]  # escapes exist, recorded without failing


def test_verify_d_appendix_coverage_fails_on_reducible_points():
    # the refinement and fixture comparison succeed; what fails is the
    # claim that every nonzero profile lattice point is a Hilbert element
    report = verify("D-appendix", {"n": 1})
    assert not report.overall
    status = {k: v["status"] for k, v in report.stages.items()}
    assert status["profile_coverage"] == "fail"
    assert status["refinement"] == "ok" and status["fixture"] == "ok"
    for cone_report in report.cones:
        c = Cone.from_generators(cone_report["rays"])
        for v in cone_report["uncovered"]:
            assert not is_irreducible(c, tuple(v))
    uncovered = {tuple(v) for cr in report.cones for v in cr["uncovered"]}
    assert (2, 2, 4) in uncovered  # midpoint of generators (1,0,0) and (3,4,8)


@pytest.mark.parametrize("family, params", [("E60", None), ("B-odd", B22)])
def test_verify_computes_each_cone_basis_once(hilbert_calls, family, params):
    report = verify(family, params)
    assert sorted(c.generators for c in hilbert_calls) == sorted(
        tuple(tuple(r) for r in cr["rays"]) for cr in report.cones
    )


@pytest.mark.parametrize("family, params", [("E60", None), ("B-odd", {"r": 1, "n": 2})])
def test_verify_builds_each_cone_profile_once(profile_calls, family, params):
    verify(family, params)
    assert profile_calls
    # the list keeps every cone alive, so equal ids mean the same object
    assert len({id(c) for c in profile_calls}) == len(profile_calls)


def test_verify_unknown_family():
    with pytest.raises(CatalogError):
        verify("Z9")


def test_stated_valuations_with_a_non_monomial_initial_form():
    instances = [(f, ps) for f in ("B-odd", "B-even") for ps in default_grid(f)]
    assert len(instances) == 7
    non_monomial = total = 0
    for family, params in instances:
        inst = instance(family, params)
        p = inst.poly
        for v in inst.stated.valuations:
            total += 1
            non_monomial += not initial_form(p, v).is_monomial()
    assert (non_monomial, total) == (84, 225)
