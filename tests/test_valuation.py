import random
import re
import sys
import time
import tracemalloc
from math import comb

import pytest

from oracle import groebner_fan_oracle, jets_match_oracle, ray_sum, sympy_jet_oracle
from torfan.catalog import default_grid, families, instance
from torfan.cones import Cone, dot
from torfan.newton import dual_newton_cones
from torfan.polyparse import Polynomial, parse_polynomial
from torfan.valuation import (
    JET_BOUND,
    _jet_monomial_count,
    groebner_fan,
    initial_form,
    jet_equations,
    tropical_variety,
    w_order,
)

B22 = parse_polynomial("x^7*z-x^2*y^2-y^2*z")
ELL = parse_polynomial("y^3+x*z^2-x^4")


def test_w_order_values():
    assert w_order(B22, (2, 7, 4)) == 18
    assert w_order(B22, (0, 0, 0)) == 0
    assert w_order(B22, (1, 1, 1)) == 3


def test_w_order_empty_rejected():
    with pytest.raises(ValueError):
        w_order(Polynomial.from_dict({}), (1, 1, 1))


def test_initial_form_edge_and_full():
    assert dict(initial_form(B22, (0, 1, 2))) == dict(parse_polynomial("x^7*z-x^2*y^2"))
    assert dict(initial_form(B22, (2, 7, 4))) == dict(B22)
    assert dict(initial_form(B22, (1, 1, 1))) == dict(parse_polynomial("-y^2*z"))


def test_initial_form_interior_weight_is_vertex_monomial():
    for c, vertex in dual_newton_cones(B22):
        form = initial_form(B22, ray_sum(c.generators))
        assert form.is_monomial()
        assert dict(form) == dict(B22.restricted_to([vertex]))


def test_groebner_fan_monomial_input():
    p = parse_polynomial("x^2*y*z")
    cones = groebner_fan(p)
    assert len(cones) == 1
    assert cones[0].cone.generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert dict(cones[0].initial_form) == dict(p)


def test_groebner_fan_labels_constant_on_cones():
    for g in groebner_fan(B22):
        # second interior sample with distinct positive coefficients
        sample = tuple(
            sum((k + 2) * r[i] for k, r in enumerate(g.cone.generators))
            for i in range(3)
        )
        assert dict(initial_form(B22, sample)) == dict(g.initial_form)
        o = w_order(B22, ray_sum(g.cone.generators))
        assert all(
            dot(e, ray_sum(g.cone.generators)) == o
            for e in g.initial_form.support()
        )


def test_groebner_fan_matches_dual_fan_maximal_cones():
    maximal = {c.generators for c, _ in dual_newton_cones(B22)}
    from_fan = {g.cone.generators for g in groebner_fan(B22) if g.cone.dim == 3}
    assert maximal == from_fan


def test_b_family_nonmonomial_cones_and_tropical_skeleton():
    expected = {
        ((2, 7, 4),): "x^7*z-x^2*y^2-y^2*z",
        ((0, 1, 2), (2, 7, 4)): "x^7*z-x^2*y^2",
        ((2, 7, 0), (2, 7, 4)): "x^7*z-y^2*z",
        ((1, 0, 2), (2, 7, 4)): "-x^2*y^2-y^2*z",
    }
    nonmono = {
        g.cone.generators: str(g.initial_form)
        for g in groebner_fan(B22)
        if not g.initial_form.is_monomial()
    }
    assert nonmono == expected

    trop = tropical_variety(B22)
    trop_sets = {
        tuple(trop.rays[i] for i in fc.rays) for fc in trop.cones
    }
    assert trop_sets == set(expected)


def test_tropical_equals_compact_face_duals():
    # duals of bounded Newton-polyhedron edges and facets are the fan
    # faces of dimension <= 2 whose interior sample is strictly positive,
    # and those are exactly the tropical cones of this surface
    faces = set()
    for c, _ in dual_newton_cones(B22):
        faces.update(c.facets)
        faces.update((g,) for g in c.generators)
    compact_duals = set()
    for rays in faces:
        sample = tuple(sum(r[i] for r in rays) for i in range(3))
        if all(s > 0 for s in sample):
            compact_duals.add(rays)
    trop = tropical_variety(B22)
    trop_sets = {
        tuple(sorted(trop.rays[i] for i in fc.rays)) for fc in trop.cones
    }
    assert trop_sets == compact_duals


def _random_polynomial(rng: random.Random) -> Polynomial:
    terms = {
        tuple(rng.randint(0, 7) for _ in range(3)): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(1, 6))
    }
    return Polynomial.from_dict(terms)


def test_groebner_fan_matches_an_independent_oracle():
    # 240 seeded random polynomials and every default-grid equation
    rng = random.Random(28)
    polys = [_random_polynomial(rng) for _ in range(240)]
    polys += [instance(f, g).poly for f in families() for g in default_grid(f)]
    dims = set()
    for p in polys:
        maximal = [c.generators for c, _ in dual_newton_cones(p)]
        # the initial form as printed, read back
        got = [
            (g.cone.dim, g.cone.generators, dict(parse_polynomial(str(g.initial_form))))
            for g in groebner_fan(p)
        ]
        assert got == groebner_fan_oracle(dict(p), maximal), str(p)
        dims.update(d for d, _, _ in got)
    assert dims == {1, 2, 3}


def test_groebner_fan_builds_only_its_kept_lower_faces(monkeypatch):
    from torfan import newton

    pairs = dual_newton_cones(B22)
    built = []
    build = Cone.from_generators.__func__

    def counted(cls, vectors):
        built.append(tuple(vectors))
        return build(cls, vectors)

    monkeypatch.setattr(newton, "dual_newton_cones", lambda p: pairs)
    monkeypatch.setattr(Cone, "from_generators", classmethod(counted))
    monkeypatch.setattr(Cone, "contains", lambda self, v: pytest.fail("contains called"))
    fan = groebner_fan(B22)
    assert sorted(built) == sorted(g.cone.generators for g in fan if g.cone.dim < 3)
    assert all(g.cone is c for g, (c, _) in zip(fan[-3:], sorted(pairs)))


def test_groebner_cone_count_b22():
    # three vertex cones, three walls, one shared ray
    fan = groebner_fan(B22)
    assert [g.cone.dim for g in fan] == [1, 2, 2, 2, 3, 3, 3]


def test_tropical_binomial_half_plane():
    trop = tropical_variety(parse_polynomial("x-y"))
    sets = {tuple(trop.rays[i] for i in fc.rays) for fc in trop.cones}
    assert sets == {((0, 0, 1), (1, 1, 0))}


def test_tropical_elliptic_contains_interior_rays():
    trop = tropical_variety(ELL)
    assert (3, 1, 0) in trop.rays
    assert (6, 8, 9) in trop.rays


def test_tropical_rejects_monomial():
    with pytest.raises(ValueError):
        tropical_variety(parse_polynomial("x^2*y"))


def jet_index(m, axis, j):
    return 3 * j + axis


def test_jets_order_zero_is_the_equation():
    js = jet_equations(B22, 0)
    assert js.variables == ("x0", "y0", "z0")
    got = js.equation_dicts()[0]
    assert got == {(a, b, c): coeff for (a, b, c), coeff in B22}


def test_jets_product_rule():
    js = jet_equations(parse_polynomial("x*y"), 1)
    f0, f1 = js.equation_dicts()
    x0, y0, z0, x1, y1, z1 = range(6)
    def mono(*pairs):
        e = [0] * 6
        for idx in pairs:
            e[idx] += 1
        return tuple(e)
    assert f0 == {mono(x0, y0): 1}
    assert f1 == {mono(x0, y1): 1, mono(x1, y0): 1}
    assert js.equation_strings() == ["x0*y0", "x0*y1 + x1*y0"]


def test_jet_text_with_coefficients_and_negative_leading_term():
    p = parse_polynomial("3*z-2*x^2*y")
    assert str(p) == "-2*x^2*y+3*z"
    assert jet_equations(p, 1).equation_strings() == [
        "-2*x0^2*y0 + 3*z0",
        "-2*x0^2*y1 - 4*x0*x1*y0 + 3*z1",
    ]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jets_match_full_expansion(m):
    names, expected = sympy_jet_oracle(B22, m)
    js = jet_equations(B22, m)
    assert js.variables == names
    assert js.equation_dicts() == expected


def test_jets_t_degree_homogeneous():
    # a monomial of F_i built from variables x_j carries total t-degree i
    js = jet_equations(ELL, 3)
    for i, eq in enumerate(js.equation_dicts()):
        for term in eq:
            degree = sum(
                e * (k // 3) for k, e in enumerate(term)
            )
            assert degree == i


def test_jets_vanish_below_arc_order():
    # along x = t^2, y = t^7, z = t^4 the B equation has order 18, so all
    # F_i with i <= 4 vanish under that substitution
    m = 4
    js = jet_equations(B22, m)
    values = [0] * (3 * (m + 1))
    values[jet_index(m, 0, 2)] = 1  # x_2
    values[jet_index(m, 2, 4)] = 1  # z_4
    for eq in js.equation_dicts():
        total = 0
        for term, coeff in eq.items():
            prod = coeff
            for v, e in zip(values, term):
                if e:
                    prod *= v**e
            total += prod
        assert total == 0


def test_jets_json_shape():
    obj = jet_equations(parse_polynomial("x*y"), 1).to_obj()
    assert obj["m"] == 1
    assert obj["variables"] == ["x0", "y0", "z0", "x1", "y1", "z1"]
    assert obj["equations"] == ["x0*y0", "x0*y1 + x1*y0"]


@pytest.mark.parametrize("m", [True, False, 1.5, 2.0, "2", None])
def test_jet_order_must_be_an_int(m):
    # True gave a system with "m": true, and 1.5 a TypeError from (0,) * 7.5
    with pytest.raises(ValueError, match=f"jet order {re.escape(repr(m))} is not an int"):
        jet_equations(parse_polynomial("x*y"), m)


def _random_jet_polynomial(rng):
    # 1-4 terms with exponents 0-5 on each axis, so most terms are mixed
    # monomials such as x^2*y*z^3 and the axes' series meet in products
    return Polynomial.from_dict(
        {
            tuple(rng.randint(0, 5) for _ in range(3)): rng.choice((-3, -2, -1, 1, 2, 7))
            for _ in range(rng.randint(1, 4))
        }
    )


def test_jets_match_the_sympy_oracle_on_random_polynomials():
    rng = random.Random(20261020)
    polys = [_random_jet_polynomial(rng) for _ in range(60)]
    assert sum(sum(map(bool, e)) >= 2 for p in polys for e, _ in p) >= 60
    for p in polys:
        oracle = sympy_jet_oracle(p, 5)
        for m in range(6):
            system = jet_equations(p, m)
            assert jets_match_oracle(p, m, system, oracle=oracle), (str(p), m)
            # the count that the work bound reads is the number built
            assert _jet_monomial_count(p, m) == sum(map(len, system))


def test_jets_of_a_huge_exponent_are_a_few_monomials():
    # the dense ladder took 10^8 series products for x^100000000
    start = time.perf_counter()
    system = jet_equations(parse_polynomial("x^100000000+y^2+z^3"), 3)
    assert time.perf_counter() - start < 2
    f2 = dict(system[2])
    assert f2[((0, 99999998), (3, 2))] == 4999999950000000 == comb(10**8, 2)
    assert "4999999950000000*x0^99999998*x1^2" in system.equation_strings()[2]


def test_jets_memory_is_linear_in_the_order():
    # linear in m: dense keys of length 3m+4 took 192 MB at this order
    tracemalloc.start()
    try:
        system = jet_equations(parse_polynomial("x"), 1600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert system.equation_strings() == [f"x{j}" for j in range(1601)]


@pytest.mark.parametrize(
    "text, m, message",
    [
        (
            "x^100",
            200,
            f"order-200 jets have at least 3095037 monomials, more than the bound of {JET_BOUND}",
        ),
        (
            "x",
            10**20,
            "order-100000000000000000000 jets have 300000000000000000003 variables,"
            f" more than the bound of {JET_BOUND}",
        ),
        (
            # 10^4290 - 1 times C(1000, 5), a 13-digit number, at x0^995*x1^5
            "9" * 4290 + "*x^1000",
            5,
            "order-5 jets have a coefficient of 4303 digits,"
            " more than the 4300-digit limit for printing an integer",
        ),
    ],
    ids=["monomials", "variables", "digits"],
)
def test_jets_past_the_work_bound_are_refused(text, m, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        jet_equations(parse_polynomial(text), m)
    assert str(refusal.value) == message
    assert time.perf_counter() - start < 2


def test_jets_without_a_digit_limit_print_any_coefficient(monkeypatch):
    # interpreters before 3.10.7 have neither the str() limit nor its getter
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    system = jet_equations(parse_polynomial("9" * 4290 + "*x^1000"), 5)
    assert len(system) == 6


def test_the_jet_work_bound_is_a_count_of_monomials():
    # x^2 has floor(k/2) + 1 monomials at each t-degree k, so 1,000,000 in
    # all at m = 1998, the largest order the bound accepts for it
    m = 1998
    assert _jet_monomial_count(parse_polynomial("x^2"), m) == JET_BOUND
    assert _jet_monomial_count(parse_polynomial("x^2"), m + 1) > JET_BOUND
