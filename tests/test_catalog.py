import itertools
import re

import pytest

from oracle import det3
from torfan.catalog import (
    CatalogError,
    appendix_fixture,
    default_grid,
    determinant_families,
    embedded_valuations,
    entry,
    equation,
    families,
    fixture_instances,
    profile_discrepancy,
    stated_maximal_cones,
    subprofile_hyperplanes,
    verify,
)
from torfan.cones import Cone, hilbert_basis, is_irreducible
from torfan.newton import dual_newton_cones
from torfan.polyparse import parse_polynomial
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


# which lookups each family answers; every other (family, lookup) pair raises
STATED = {
    "B-odd": {"cones", "subprofiles", "valuations", "determinants", "discrepancy"},
    "B-even": {"cones", "subprofiles", "valuations"},
    "ELLIPTIC-1": {"cones", "subprofiles"},
}
LOOKUPS = {
    "cones": stated_maximal_cones,
    "subprofiles": lambda fam: subprofile_hyperplanes(fam, None, 2),
    "valuations": embedded_valuations,
    "determinants": determinant_families,
    "discrepancy": profile_discrepancy,
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_registry_pins_which_lookups_answer(family):
    answered = set()
    for name, lookup in LOOKUPS.items():
        try:
            lookup(family)
        except CatalogError:
            continue
        answered.add(name)
    assert answered == STATED.get(family, set())


def test_every_domain_holds_its_grid_and_refuses_zero():
    for fam in families():
        ent = entry(fam)
        for params in ent.grid:
            assert ent.domain(**params), (fam, params)
        if ent.parameters:
            with pytest.raises(CatalogError):
                equation(fam, dict.fromkeys(ent.parameters, 0))


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
        stated_maximal_cones("B-odd", params)


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
        assert equation(fam, dict(items)).as_dict() == parse_polynomial(text).as_dict()


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
        got = equation(family, ps).as_dict()
        assert got == {e: int(c) for e, c in expected.items()}, (family, ps)


def test_a3_pure_y_terms_merge_where_the_exponents_coincide():
    # 3k = 2k+m+l-2 at (l, m, k) = (3, 4, 5): both pure-y terms are y^15
    assert (
        str(equation("A3", {"l": 3, "m": 4, "k": 5}))
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
        equation(family, params)


def test_equation_defaults_to_first_grid_tuple():
    first = default_grid("B-odd")[0]
    assert equation("B-odd").as_dict() == equation("B-odd", first).as_dict()


def test_equation_rejects_out_of_domain():
    with pytest.raises(CatalogError):
        equation("B-odd", {"r": 0, "n": 2})
    with pytest.raises(CatalogError):
        equation("A3", {"l": 3, "m": 2, "k": 1})
    with pytest.raises(CatalogError):
        equation("B-odd", {"r": 1})  # missing n


def test_stated_cones_match_computed():
    for fam, params in (("B-odd", B22), ("B-even", {"r": 1, "n": 2}), ("ELLIPTIC-1", None)):
        computed = {frozenset(c.generators) for c, _ in dual_newton_cones(equation(fam, params))}
        stated = {frozenset(c.generators) for c in stated_maximal_cones(fam, params)}
        assert stated == computed
    with pytest.raises(CatalogError):
        stated_maximal_cones("A1")


def test_embedded_valuations_equal_hilbert_union():
    for fam, params in (("B-odd", B22), ("B-even", {"r": 1, "n": 2})):
        union = set()
        for c, _ in dual_newton_cones(equation(fam, params)):
            union.update(hilbert_basis(c))
        assert set(embedded_valuations(fam, params)) == union
    with pytest.raises(CatalogError):
        embedded_valuations("A1")


def test_subprofile_hyperplanes_pinned_at_2_2():
    c0 = subprofile_hyperplanes("B-odd", B22, 0)
    assert [(str(h), h.recomputed) for h in c0] == [
        ("x-z+1", False),
        ("2x-y+z-1", False),
        ("x+y-z+1", True),
        ("x+y-4z+7", True),
    ]
    assert [str(h) for h in subprofile_hyperplanes("B-odd", B22, 1)] == ["x-1", "4x-y-1"]
    assert [str(h) for h in subprofile_hyperplanes("B-odd", B22, 2)] == ["3x-y+1"]
    assert [str(h) for h in subprofile_hyperplanes("ELLIPTIC-1", None, 2)] == ["8x-3y-3z+3"]
    with pytest.raises(CatalogError):
        subprofile_hyperplanes("ELLIPTIC-1", None, 0)
    with pytest.raises(CatalogError):
        subprofile_hyperplanes("A1", None, 0)


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
    groups = determinant_families("B-odd", {"r": r, "n": n})
    labels = {g["label"] for g in groups}
    assert "cone0 ladder" in labels and len(groups) == 6
    for g in groups:
        assert g["matrices"], g["label"]
        for m in g["matrices"]:
            assert abs(det3(*m)) == 1, (g["label"], m)


def test_determinant_families_only_stated_for_odd():
    with pytest.raises(CatalogError):
        determinant_families("B-even", {"r": 1, "n": 2})


def test_fixture_registry():
    inst = fixture_instances()
    assert len(inst) == 11
    assert ("E60", {}) in inst and ("F", {"k": 2}) in inst
    fx = appendix_fixture("E60")
    assert [(c.label, len(c.hilbert)) for c in fx.cones] == [
        ("sigma1", 12), ("sigma2", 9), ("sigma3", 9),
    ]
    with pytest.raises(CatalogError):
        appendix_fixture("B-odd", B22)
    with pytest.raises(CatalogError):
        appendix_fixture("F", {"k": 5})


@pytest.mark.parametrize("family,params", [("E60", None), ("H-3k", {"k": 1})])
def test_fixture_tables_equal_computed(family, params):
    fx = appendix_fixture(family, params)
    computed = {
        frozenset(c.generators): set(hilbert_basis(c))
        for c, _ in dual_newton_cones(equation(family, params))
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
        p = equation(family, params)
        for v in embedded_valuations(family, params):
            total += 1
            non_monomial += not initial_form(p, v).is_monomial()
    assert (non_monomial, total) == (84, 225)
