"""Profiles, l functionals and bounding hyperplanes."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from oracle import box_profile_points, hull_facets_off_origin, random_simplicial_octant_cones
from torfan.catalog import instance, verify
from torfan.cones import Cone, cross, dot, hilbert_basis
from torfan.profile import (
    AffineFunctional,
    contains_point,
    facet_equation,
    l_functional,
    profile,
    profile_lattice_points,
)

SIGMA3 = Cone.from_generators([(0, 1, 0), (0, 0, 1), (6, 8, 9)])
OCTANT = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
B22_S1 = Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)])
B22_S2 = Cone.from_generators([(1, 0, 0), (1, 0, 2), (2, 7, 0), (2, 7, 4)])
B22_S3 = Cone.from_generators([(0, 1, 0), (0, 1, 2), (2, 7, 0), (2, 7, 4)])


def test_l_functional_sigma3():
    l = l_functional(SIGMA3)
    assert l == (-8, 3, 3, 0, 3)
    assert str(l) == "-8/3x+y+z"
    assert l((1, 2, 2)) == Fraction(4, 3)
    assert l((3, 4, 5)) == 1
    assert all(l(g) == 1 for g in SIGMA3.generators)


def test_l_functional_octant():
    l = l_functional(OCTANT)
    assert l == (1, 1, 1, 0, 1)
    assert str(l) == "x+y+z"


def test_l_functional_exact_solve():
    c = Cone.from_generators([(1, 0, 0), (2, 7, 0), (2, 7, 4)])
    l = l_functional(c)
    assert all(l(g) == 1 for g in c.generators)
    assert l == (7, -1, 0, 0, 7)
    assert str(l) == "x-1/7y"


def test_l_functional_rejects_non_simplicial_and_flat():
    with pytest.raises(ValueError):
        l_functional(B22_S1)
    with pytest.raises(ValueError):
        l_functional(Cone.from_generators([(1, 0, 0), (0, 1, 0)]))


def test_profile_simplicial_facet_equation():
    p = profile(SIGMA3)
    assert p.kind == "simplicial"
    assert len(p.bounding) == 1
    assert facet_equation(p.bounding[0]) == "8x-3y-3z+3"


def test_simplicial_profile_vanishes_on_generators_in_every_dimension():
    rng = random.Random(60)
    draw = lambda: tuple(rng.randint(-4, 7) for _ in range(3))
    cones = []
    for dim in (1, 2, 3):
        while sum(c.dim == dim for c in cones) < 20:
            try:
                c = Cone.from_generators([draw() for _ in range(dim)])
            except ValueError:
                continue
            if c.dim == dim:
                cones.append(c)
    for c in cones:
        p = profile(c)
        assert p.kind == "simplicial"
        (bound,) = p.bounding
        assert all(bound(g) == 0 for g in c.generators), c
        if c.dim == 2:
            assert dot(bound[:3], cross(*c.generators)) == 0, c


def test_profile_single_hull_facet():
    p = profile(B22_S2)
    assert p.kind == "convex-hull"
    assert [facet_equation(f) for f in p.bounding] == ["7x-y-7"]


def test_profile_two_hull_facets():
    p = profile(B22_S1)
    assert {facet_equation(f) for f in p.bounding} == {"x+y-z+1", "x+y-4z+7"}


def hull_cases(count, seed=22):
    """3-dimensional cones, about half with rays on one affine plane, so
    that three or more of them lie on one facet of the profile hull."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        if rng.random() < 0.5:
            d = rng.randint(1, 4)
            vs = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
            vs = rng.sample(vs, min(len(vs), rng.randint(3, 6)))
            vs += [tuple(rng.randint(-1, 5) for _ in range(3)) for _ in range(rng.randint(0, 2))]
        else:
            vs = [tuple(rng.randint(-2, 6) for _ in range(3)) for _ in range(rng.randint(3, 6))]
        try:
            c = Cone.from_generators(vs)
        except ValueError:
            continue
        if c.dim == 3:
            cones.append(c)
    return cones


def test_profile_hull_facets_match_the_triple_oracle():
    square = Cone.from_generators([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    five = Cone.from_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 2, -1), (2, -1, 1)])
    # a form in lowest terms with d = -q (simplicial) or q = 1 (hull) has a
    # primitive numerator a, b, c, d
    for cone in (B22_S1, B22_S2, square, five, *hull_cases(300)):
        bounding = profile(cone).bounding
        assert [f[:4] for f in bounding] == hull_facets_off_origin([(0, 0, 0), *cone.generators]), cone
        assert all((f.d == -f.q) if cone.is_simplicial() else (f.q == 1) for f in bounding), cone
        assert (profile(cone).kind == "simplicial") == cone.is_simplicial()


def test_profile_generators_on_hull():
    for cone in (SIGMA3, OCTANT, B22_S1, B22_S2, B22_S3):
        p = profile(cone)
        for g in cone.generators:
            values = [f(g) for f in p.bounding]
            assert all(v <= 0 for v in values)
            assert any(v == 0 for v in values)


def test_contains_point_sigma3():
    p = profile(SIGMA3)
    assert not contains_point(p, (1, 2, 2))
    assert contains_point(p, (6, 8, 9))
    assert contains_point(p, (3, 4, 5))
    assert contains_point(p, (2, 3, 3))


def test_contains_point_octant():
    p = profile(OCTANT)
    assert contains_point(p, (1, 0, 0))
    assert not contains_point(p, (1, 1, 0))


def test_profile_lattice_points_regular():
    assert profile_lattice_points(profile(OCTANT)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_profile_lattice_points_sigma3():
    assert profile_lattice_points(profile(SIGMA3)) == [
        (0, 0, 1),
        (0, 1, 0),
        (2, 3, 3),
        (3, 4, 5),
        (6, 8, 9),
    ]


def test_profile_lattice_points_subset_of_hilbert_b_cones():
    for cone in (B22_S1, B22_S2, B22_S3):
        points = set(profile_lattice_points(profile(cone)))
        assert points <= set(hilbert_basis(cone).elements)


def test_profile_lattice_points_outside_octant_keep_every_ray():
    # conv(0, e1, e2, (-1,-1,3)) holds (0,0,1) = the mean of its three rays;
    # a search over [0, max] per coordinate would miss the ray (-1,-1,3)
    c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (-1, -1, 3)])
    expected = [(-1, -1, 3), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert profile_lattice_points(profile(c)) == expected
    assert box_profile_points(c.generators) == expected


def test_profile_lattice_points_match_box_oracle():
    rng = random.Random(31337)
    cones = []
    while len(cones) < 60:
        k = rng.randint(3, 6)
        vectors = [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(k)]
        if (0, 0, 0) in vectors:
            continue
        c = Cone.from_generators(vectors)
        if c.dim == 3:
            cones.append(c)
    non_simplicial = sum(not c.is_simplicial() for c in cones)
    assert 20 <= non_simplicial <= 40
    planar = []
    while len(planar) < 30:
        vectors = [tuple(rng.randint(-6, 9) for _ in range(3)) for _ in range(2)]
        if any(cross(*vectors)):
            planar.append(Cone.from_generators(vectors))
    negative = []
    while len(negative) < 30:
        k = rng.randint(3, 5)
        vectors = [tuple(rng.randint(-4, 6) for _ in range(3)) for _ in range(k)]
        if (0, 0, 0) in vectors:
            continue
        try:
            c = Cone.from_generators(vectors)
        except ValueError:
            continue  # not pointed
        if c.dim == 3 and not c.in_octant():
            negative.append(c)
    assert 5 <= sum(not c.is_simplicial() for c in negative) <= 25
    for c in cones + planar + negative:
        assert profile_lattice_points(profile(c)) == box_profile_points(c.generators), c


def test_profile_level_is_the_l_functional_on_simplicial_cones():
    rng = random.Random(20261019)
    for gens in random_simplicial_octant_cones(30, 7, seed=424):
        c = Cone.from_generators(gens)
        l = l_functional(c)
        for _ in range(20):
            v = tuple(rng.randint(-5, 12) for _ in range(3))
            assert c.profile.level(v) == l(v), (c, v)


def test_profile_level_at_most_one_is_profile_membership():
    rng = random.Random(20261020)
    cones = []
    while len(cones) < 24:
        vectors = [
            tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(rng.randint(3, 6))
        ]
        if (0, 0, 0) not in vectors:
            c = Cone.from_generators(vectors)
            if c.dim == 3:
                cones.append(c)
    assert sum(not c.is_simplicial() for c in cones) >= 8
    for c in cones:
        top = 2 * max(max(g) for g in c.generators)
        inside = [
            v for v in product(range(top + 1), repeat=3) if v != (0, 0, 0) and c.contains(v)
        ]
        assert any(c.profile.level(v) > 1 for v in inside)
        for v in inside:
            assert (c.profile.level(v) <= 1) == contains_point(c.profile, v), (c, v)


def _fraction_str(parts):
    """a·x + b·y + c·z + d as printed from its four Fraction parts, written
    out apart from ``AffineFunctional.__str__``."""
    out = []
    for coeff, name in zip(parts[:3], "xyz"):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if out else "")
        mag = abs(coeff)
        out.append(sign + (name if mag == 1 else f"{mag}{name}"))
    if parts[3] != 0 or not out:
        out.append(("-" if parts[3] < 0 else ("+" if out else "")) + str(abs(parts[3])))
    return "".join(out)


def test_integer_profile_tests_match_their_fraction_definitions():
    # contains_point and level read the ints; rebuild both, and each form's
    # text, from the Fraction parts a/q, b/q, c/q, d/q on int and Fraction
    # vectors
    rng = random.Random(20261031)
    cones = [SIGMA3, OCTANT, B22_S1, B22_S2, B22_S3]
    while len(cones) < 40:
        vectors = [tuple(rng.randint(-3, 7) for _ in range(3)) for _ in range(rng.randint(3, 6))]
        try:
            c = Cone.from_generators(vectors)
        except ValueError:
            continue  # not pointed, or only zero vectors
        if c.dim == 3:
            cones.append(c)
    assert sum(not c.is_simplicial() for c in cones) >= 10
    for c in cones:
        p = profile(c)
        parts = [[Fraction(n, f.q) for n in f[:4]] for f in p.bounding]
        assert [str(f) for f in p.bounding] == [_fraction_str(fs) for fs in parts], c
        for _ in range(40):
            v = tuple(
                Fraction(rng.randint(-40, 90), rng.randint(1, 9)) if rng.random() < 0.5
                else rng.randint(-5, 12)
                for _ in range(3)
            )
            values = [sum(a * x for a, x in zip(fs, v)) for fs in parts]
            assert contains_point(p, v) == (
                c.contains(v) and all(y + fs[3] <= 0 for y, fs in zip(values, parts))
            ), (c, v)
            level = max(y / -fs[3] for y, fs in zip(values, parts))
            assert p.level(v) == level, (c, v)
            assert [f(v) for f in p.bounding] == [y + fs[3] for y, fs in zip(values, parts)]
            if all(isinstance(x, int) for x in v):
                assert p._level_numerator(v) == level * p._level_numerator(c.generators[0])


def test_profile_points_can_contain_reducible_vectors():
    # (2,2,2) = (1,1,1)+(1,1,1) sits in the profile (l-value 4/9) yet is
    # reducible, so profile points are not in general Hilbert elements
    c = Cone.from_generators([(0, 1, 0), (3, 1, 0), (6, 8, 9)])
    points = profile_lattice_points(profile(c))
    assert (2, 2, 2) in points
    assert (2, 2, 2) not in hilbert_basis(c).elements


def test_functional_str_and_primitive():
    f = AffineFunctional.from_integers(-8, 3, 3, -3, 3)
    assert f == (-8, 3, 3, -3, 3) and str(f) == "-8/3x+y+z-1"
    assert facet_equation(f) == "8x-3y-3z+3"
    assert facet_equation(AffineFunctional.from_integers(0, 0, 0, 2)) == "1"
    assert facet_equation(AffineFunctional.from_integers(0, 0, 0, 0)) == "0"
    assert str(AffineFunctional.from_integers(4, -1, 0, -1)) == "4x-y-1"
    assert str(AffineFunctional.from_integers(0, 0, 0, -3, 2)) == "-3/2"


def test_from_integers_keeps_one_lowest_terms_form():
    # equal functionals are equal records; the numerator alone is not made
    # primitive: (2, 4, 6, -4)/1 is already in lowest terms
    assert AffineFunctional.from_integers(2, 4, 6, -4, 4) == AffineFunctional.from_integers(1, 2, 3, -2, 2)
    assert AffineFunctional.from_integers(2, 4, 6, -4, 4) == (1, 2, 3, -2, 2)
    assert AffineFunctional.from_integers(2, 4, 6, -4) == (2, 4, 6, -4, 1)
    assert AffineFunctional.from_integers(3, 0, -6, 9, -3) == (-1, 0, 2, -3, 1)
    assert AffineFunctional.from_integers(0, 0, 0, 0, 5) == (0, 0, 0, 0, 1)
    assert not hasattr(AffineFunctional.from_integers(1, 2, 3), "__dict__")
    with pytest.raises(ValueError, match="nonzero denominator"):
        AffineFunctional.from_integers(1, 2, 3, 4, 0)


def test_integer_form_matches_fraction_arithmetic():
    rng = random.Random(20261018)

    def rational():
        return Fraction(rng.choice([0, rng.randint(-30, 30)]), rng.randint(1, 12))

    for _ in range(600):
        parts = [rational() for _ in range(4)]
        scale = rng.choice([1, -1]) * rng.randint(1, 3) * lcm(*(p.denominator for p in parts))
        f = AffineFunctional.from_integers(*(int(p * scale) for p in parts), scale)
        assert [Fraction(n, f.q) for n in f[:4]] == parts and f.q > 0
        assert gcd(*f) == 1
        v = tuple(rng.randint(-20, 20) for _ in range(3))
        assert f(v) == parts[0] * v[0] + parts[1] * v[1] + parts[2] * v[2] + parts[3]
        assert str(f) == _fraction_str(parts)

        ints = [int(p * scale) for p in parts]
        g = gcd(*ints) or 1
        sign = next((1 if x > 0 else -1 for x in ints if x), 1)
        assert facet_equation(f) == _fraction_str([Fraction(sign * x // g) for x in ints])


def _subprofile_row_at_2_2(index, cone):
    """Stated cone ``index`` of B-odd (2,2) and its row of verify's subprofile stage."""
    params = {"r": 2, "n": 2}
    assert instance("B-odd", params).stated.cones[index].generators == cone.generators
    per_cone = verify("B-odd", params).stages["subprofile"]["per_cone"]
    assert all(r["all_reach"] and all(e["in_region"] for e in r["vectors"]) for r in per_cone)
    row = per_cone[index]
    return row, {tuple(e["vector"]): e for e in row["vectors"]}


def test_subprofile_check_sigma2():
    row, entries = _subprofile_row_at_2_2(1, B22_S2)
    assert row["hyperplanes"] == ["x-1", "4x-y-1"]
    assert entries[(1, 1, 0)]["reaches"] == [0]
    assert entries[(2, 7, 1)]["reaches"] == [1]


def test_subprofile_check_sigma3():
    row, entries = _subprofile_row_at_2_2(2, B22_S3)
    assert row["hyperplanes"] == ["3x-y+1"]
    assert entries[(1, 4, 0)]["reaches"] == [0]
    assert entries[(0, 1, 1)]["reaches"] == [0]


def test_profile_lattice_points_match_barycentric_oracle():
    from itertools import product

    from torfan.cones import cross, dot, unimodular_det

    for gens in random_simplicial_octant_cones(12, 5, seed=77):
        cone = Cone.from_generators(gens)
        g1, g2, g3 = cone.generators
        det = unimodular_det(g1, g2, g3)
        normals = (cross(g2, g3), cross(g3, g1), cross(g1, g2))
        box = [max(g[i] for g in cone.generators) for i in range(3)]
        expected = []
        for v in product(*(range(b + 1) for b in box)):
            lam = [Fraction(dot(v, n), det) for n in normals]
            if v != (0, 0, 0) and all(x >= 0 for x in lam) and sum(lam) <= 1:
                expected.append(v)
        assert profile_lattice_points(profile(cone)) == expected
        for g in cone.generators:
            assert g in expected
