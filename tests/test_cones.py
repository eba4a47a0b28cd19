import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from torfan.cones import (
    Cone,
    _half_open_points,
    _height_one,
    _piece_minima,
    _supporting_normals,
    _walked_basis,
    cross,
    dot,
    hilbert_basis,
    is_irreducible,
    parse_cone,
    primitive,
    triangulate,
    unimodular_det,
    vadd,
)
from torfan.catalog import instance
from torfan.newton import dual_newton_cones
from torfan.profile import profile, profile_lattice_points

from oracle import (
    box_is_irreducible,
    _in_cone_span,
    box_parallelepiped_points,
    box_profile_points,
    brute_force_hilbert_planar,
    brute_force_hilbert_simplicial,
    caratheodory_extremal_rays,
    det3,
    random_simplicial_octant_cones,
    ray_sum,
    supporting_normals,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
SIGMA3 = Cone.from_generators([E2, E3, (6, 8, 9)])
SIGMA2 = Cone.from_generators([E2, (3, 1, 0), (6, 8, 9)])
OCTANT = Cone.from_generators([E1, E2, E3])


def test_primitive():
    assert primitive((6, 8, 9)) == (6, 8, 9)
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive([-4, 0, 6]) == (-2, 0, 3)
    with pytest.raises(ValueError):
        primitive((0, 0, 0))
    # read as (2,4,6), (1,2,4) and an IndexError before
    for v in [(2, 4, 6, 7), (True, 2, 4), (1, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"vector {v!r} needs three int coordinates")):
            primitive(v)


def test_unimodular_det_examples():
    assert unimodular_det((0, 0, 1), (1, 1, 2), (1, 2, 2)) == 1  # s=1, r=2 family
    assert unimodular_det((2, 7, 2), (2, 7, 3), (1, 3, 1)) == 1  # n=2, s=1 family
    assert unimodular_det(E1, E2, E3) == 1
    assert unimodular_det(E2, E3, (6, 8, 9)) == 6


def test_contains():
    assert SIGMA3.contains((1, 2, 2))
    assert not SIGMA3.contains((1, 1, 2))
    assert SIGMA3.contains((0, 0, 0))
    assert OCTANT.contains((5, 0, 7))
    assert not OCTANT.contains((-1, 0, 0))


def test_contains_low_dimensional():
    face = Cone.from_generators([(1, 0, 2), (2, 7, 4)])
    assert face.dim == 2
    assert face.contains((3, 7, 6))
    assert not face.contains((1, 1, 1))
    ray = Cone.from_generators([(0, 0, 2)])
    assert ray.dim == 1
    assert ray.contains((0, 0, 5))
    assert not ray.contains((0, 1, 0))
    # random planar cones and rays, at random points and at the lattice
    # points s*a + t*b of their span, against Cramer's rule
    rng = random.Random(20261019)
    draw = lambda: tuple(rng.randint(-6, 9) for _ in range(3))
    checked = 0
    while checked < 300:
        gens = [draw() for _ in range(rng.choice((1, 2)))]
        try:
            c = Cone.from_generators(gens)
        except ValueError:
            continue
        if c.dim != len(gens):
            continue
        checked += 1
        a, b = (*c.generators, (0, 0, 0))[:2]
        span = [
            tuple(s * x + t * y for x, y in zip(a, b))
            for s in range(-3, 4)
            for t in range(-3, 4)
        ]
        for v in [*span, *(draw() for _ in range(20))]:
            expected = v == (0, 0, 0) or _in_cone_span(v, c.generators)
            assert c.contains(v) == expected, (c, v)


def test_contains_decides_non_integer_points_exactly():
    # each coordinate is read as given, not truncated by int()
    assert not OCTANT.contains((-0.5, 1, 1))
    assert not OCTANT.contains((Fraction(-1, 2), 1, 1))
    assert OCTANT.contains((Fraction(1, 2), 1, 1))
    assert not Cone.from_generators([E1, E2]).contains((1, 1, 0.5))
    ray = Cone.from_generators([(1, 1, 1)])
    assert not ray.contains((1, 1, 1.9))
    assert ray.contains((Fraction(1, 2),) * 3)
    # irreducibility is a question about lattice points
    for v in [(1.7, 0, 0), (Fraction(2), 0, 0), (True, 0, 0), (1, 0), (1, 0, 0, 0)]:
        with pytest.raises(ValueError, match="needs three int coordinates"):
            is_irreducible(OCTANT, v)


def rays(vectors):
    return Cone.from_generators(vectors).generators


def test_extremal_rays():
    assert set(rays([E1, E2, (1, 1, 0)])) == {E1, E2}
    four = rays([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)])
    assert set(four) == {(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)}
    assert set(rays([(2, 0, 0), (0, 3, 0)])) == {E1, E2}


def test_extremal_rays_non_pointed():
    with pytest.raises(ValueError):
        rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        rays([(1, 1, 0), (-1, 1, 0), (0, -1, 0)])


def _random_generators(rng: random.Random) -> list[tuple[int, int, int]]:
    """1-7 vectors: 10 % on one line, 20 % in one plane, the rest with
    entries in [-3, 9]."""
    k = rng.randint(1, 7)
    draw = lambda: tuple(rng.randint(-3, 9) for _ in range(3))
    kind = rng.random()
    if kind < 0.1:
        d = draw()
        return [tuple(rng.randint(-1, 3) * x for x in d) for _ in range(k)]
    if kind < 0.3:
        a, b = draw(), draw()
        return [
            tuple(s * x + t * y for x, y in zip(a, b))
            for s, t in ((rng.randint(-1, 3), rng.randint(-1, 3)) for _ in range(k))
        ]
    return [draw() for _ in range(k)]


def _rays_or_error(f, vectors):
    try:
        return f(vectors)
    except ValueError as e:
        return str(e)


def test_extremal_rays_match_caratheodory_oracle():
    rng = random.Random(20261018)
    for _ in range(2000):
        vectors = _random_generators(rng)
        got = _rays_or_error(rays, vectors)
        expected = _rays_or_error(caratheodory_extremal_rays, vectors)
        if expected == ():  # no nonzero vector
            expected = "a cone needs at least one nonzero generator"
        assert got == expected, vectors
        if isinstance(got, tuple) and len(got) >= 3:
            c = Cone.from_generators(vectors)
            if c.dim == 3:
                assert set(c.facet_normals) == {
                    primitive(n) for n in supporting_normals(vectors)
                }, vectors


def is_regular(c):
    return c.is_simplicial() and c.multiplicity == 1


def test_is_regular():
    assert is_regular(OCTANT)
    assert is_regular(Cone.from_generators([(0, 0, 1), (1, 1, 2), (1, 2, 2)]))
    assert not is_regular(SIGMA3)  # det 6
    assert not is_regular(Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)]))
    assert is_regular(Cone.from_generators([E1, E2]))
    assert not is_regular(Cone.from_generators([(0, 1, 1), (2, 1, 1)]))  # minor gcd 2
    assert is_regular(Cone.from_generators([(0, 0, 7)]))


def _gcd_primitive(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return tuple(x // g for x in v)


def _minor_gcd(a, b):
    minors = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return gcd(gcd(abs(minors[0]), abs(minors[1])), abs(minors[2]))


def test_multiplicity_matches_determinant_and_minor_oracles():
    rng = random.Random(20261101)
    draw = lambda: tuple(rng.randint(-6, 6) for _ in range(3))
    counts = {1: 0, 2: 0, 3: 0}
    while min(counts.values()) < 40:
        k = rng.randint(1, 3)
        vs = [draw() for _ in range(k)]
        prims = [_gcd_primitive(v) for v in vs if v != (0, 0, 0)]
        if len(set(prims)) != k:
            continue
        if k == 3:
            expected = abs(det3(*prims))
        elif k == 2:
            expected = _minor_gcd(*prims)
        else:
            expected = 1
        if expected == 0:
            continue  # dependent vectors
        c = Cone.from_generators(vs)
        assert c.dim == k and c.is_simplicial()
        assert c.multiplicity == expected, vs
        counts[k] += 1


def test_multiplicity_refuses_non_simplicial_cones():
    quad = Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)])
    with pytest.raises(ValueError, match="simplicial"):
        quad.multiplicity


def test_is_regular_is_simplicial_with_multiplicity_one():
    rng = random.Random(20261102)
    seen = 0
    while seen < 40:
        vs = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(3, 5))]
        if (0, 0, 0) in vs:
            continue
        c = Cone.from_generators(vs)
        if c.dim == 3 and c.is_simplicial():
            assert is_regular(c) == (abs(det3(*c.generators)) == 1)
        seen += 1


def half_open(c):
    """The lattice points u of {sum t_i g_i : 0 <= t_i < 1}, sorted, after
    checking that the walk starts at zero, that its coordinates are
    distinct and below D, and D*point(q) = sum q_i g_i for each q."""
    gens = c.generators
    big, walk, point = _half_open_points(c)
    assert walk[0] == (0, 0, 0) and len(set(walk)) == len(walk)
    for q in walk:
        assert all(0 <= qi < big for qi in q) and (c.dim == 3 or q[2] == 0)
        assert tuple(big * x for x in point(q)) == tuple(
            sum(qi * g[i] for qi, g in zip(q, gens)) for i in range(3)
        )
    return tuple(sorted(map(point, walk)))


def box_half_open_points(gens):
    """The closed box oracle's points p with no p - g_i among them: t_i = 1
    exactly when p - g_i is in the closed parallelepiped too."""
    closed = set(box_parallelepiped_points(gens))
    return tuple(
        sorted(p for p in closed if all(tuple(map(sub, p, g)) not in closed for g in gens))
    )


def test_parallelepiped_octant():
    assert half_open(OCTANT) == ((0, 0, 0),) == box_half_open_points(OCTANT.generators)


def test_parallelepiped_contains_hilbert_candidates():
    pts = half_open(SIGMA3)
    assert len(pts) == SIGMA3.multiplicity == 6
    assert {(1, 2, 2), (2, 3, 3), (3, 4, 5)} <= set(pts)


def test_parallelepiped_interior_point():
    c = Cone.from_generators([E1, E2, (1, 1, 2)])
    assert half_open(c) == ((0, 0, 0), (1, 1, 1)) == box_half_open_points(c.generators)


def test_parallelepiped_two_dimensional():
    c = Cone.from_generators([E2, (6, 8, 9)])
    pts = half_open(c)
    assert len(pts) == c.multiplicity == 3
    assert pts == box_half_open_points(c.generators)
    for p in pts:
        assert dot(cross(E2, (6, 8, 9)), p) == 0


def test_parallelepiped_matches_box_oracle_with_negative_entries():
    rng = random.Random(20261017)
    counts = {2: 0, 3: 0}
    negative = 0
    while min(counts.values()) < 30:
        k = rng.choice((2, 3))
        vectors = [tuple(rng.randint(-6, 9) for _ in range(3)) for _ in range(k)]
        try:
            c = Cone.from_generators(vectors)
        except ValueError:
            continue
        if c.dim != k or not c.is_simplicial():
            continue
        counts[k] += 1
        negative += any(x < 0 for g in c.generators for x in g)
        assert half_open(c) == box_half_open_points(c.generators), c
    assert negative >= 30


def test_is_irreducible():
    assert is_irreducible(SIGMA3, (1, 2, 2))
    assert not is_irreducible(SIGMA3, (2, 4, 4))
    assert not is_irreducible(OCTANT, (1, 1, 0))
    with pytest.raises(ValueError):
        is_irreducible(SIGMA3, (1, 1, 2))  # outside
    with pytest.raises(ValueError):
        is_irreducible(SIGMA3, (0, 0, 0))


def test_is_irreducible_matches_box_oracle_on_every_candidate():
    rng = random.Random(4242)
    cones = []
    while len(cones) < 20:
        k = rng.randint(3, 5)
        vectors = [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(k)]
        if (0, 0, 0) in vectors:
            continue
        c = Cone.from_generators(vectors)
        if c.dim == 3:
            cones.append(c)
    cones.append(Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)]))
    assert sum(not c.is_simplicial() for c in cones) >= 5
    for c in cones:
        candidates = {
            v for piece in triangulate(c) for v in box_parallelepiped_points(piece.generators)
        }
        candidates.discard((0, 0, 0))
        for v in sorted(candidates):
            assert is_irreducible(c, v) == box_is_irreducible(c.generators, v), (c, v)


def test_hilbert_basis_sigma3():
    hb = hilbert_basis(SIGMA3)
    assert set(hb.elements) == {E2, E3, (6, 8, 9), (1, 2, 2), (2, 3, 3), (3, 4, 5)}


def test_hilbert_basis_sigma2():
    hb = hilbert_basis(SIGMA2)
    assert set(hb.elements) == {
        E2, (3, 1, 0), (6, 8, 9), (1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 3, 3),
    }


def test_hilbert_basis_regular_cone_is_generators():
    assert set(hilbert_basis(OCTANT).elements) == {E1, E2, E3}
    c = Cone.from_generators([(0, 0, 1), (1, 1, 2), (1, 2, 2)])
    assert set(hilbert_basis(c).elements) == set(c.generators)


def test_hilbert_basis_two_dimensional_face():
    c = Cone.from_generators([E2, (6, 8, 9)])
    hb = set(hilbert_basis(c).elements)
    assert E2 in hb and (6, 8, 9) in hb
    for v in hb:
        assert c.contains(v)


def test_planar_hilbert_basis_matches_box_oracle():
    rng = random.Random(20261018)
    checked = 0
    while checked < 40:
        g1, g2 = (tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(2))
        if cross(g1, g2) == (0, 0, 0):
            continue
        c = Cone.from_generators([g1, g2])
        assert c.dim == 2
        expected = brute_force_hilbert_planar(*c.generators)
        assert hilbert_basis(c).elements == expected, c
        checked += 1


def test_cone_hilbert_is_computed_once_per_cone(hilbert_calls):
    c = Cone.from_generators([E2, (3, 1, 0), (6, 8, 9)])
    assert c.hilbert is c.hilbert
    assert is_irreducible(c, (2, 3, 3))
    assert hilbert_basis(c) is c.hilbert  # the public function reads the cone's basis
    assert hilbert_calls == [c]


def test_cone_profile_is_computed_once_per_cone(profile_calls):
    c = Cone.from_generators([E2, (3, 1, 0), (6, 8, 9)])
    assert c.profile is c.profile
    assert profile(c) is c.profile  # the public function reads the cone's profile
    assert profile_calls == [c]


def test_hilbert_basis_requires_octant():
    c = Cone.from_generators([(1, -1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        hilbert_basis(c)
    with pytest.raises(ValueError):
        is_irreducible(c, (1, 0, 0))


signed = st.integers(min_value=-6, max_value=6)
signed_vec = st.tuples(signed, signed, signed)
signed_ray = signed_vec.filter(lambda v: v != (0, 0, 0)).map(_gcd_primitive)


@settings(max_examples=80, deadline=None)
@given(signed_ray, signed_ray, signed_ray, st.lists(signed_vec, max_size=25))
def test_simplex_matches_general_kernel_and_oracle(a, b, c, points):
    if det3(a, b, c) == 0:
        return
    simplex = Cone._simplex(a, b, c)
    for order in permutations((a, b, c)):
        assert Cone._simplex(*order) == simplex
        assert Cone.from_generators(order) == simplex
        # the builder records |det|, whatever the orientation of the order
        assert Cone._simplex(*order).multiplicity == abs(det3(a, b, c))
    for child in simplex.pulled(primitive(ray_sum(simplex.generators))):
        assert child.multiplicity == abs(det3(*child.generators))
    gens = simplex.generators
    assert gens == tuple(sorted((a, b, c)))
    # the simplex facets are those of the all-pairs kernel, in the same order
    assert tuple(zip(simplex.facet_normals, simplex.facets)) == tuple(
        (n, tuple(g for g in gens if dot(n, g) == 0)) for n in sorted(_supporting_normals(gens))
    )
    normals = [_gcd_primitive(n) for n in supporting_normals(gens)]
    assert sorted(simplex.facet_normals) == sorted(normals)
    inside = lambda v: all(sum(x * y for x, y in zip(n, v)) >= 0 for n in normals)
    for v in [*points, (0, 0, 0)]:
        assert simplex.contains(v) == inside(v), v
    for gi, gj in simplex.facets:
        (gk,) = set(gens) - {gi, gj}
        for s, t in ((1, 0), (0, 1), (1, 1), (2, 3)):
            on = tuple(s * x + t * y for x, y in zip(gi, gj))
            assert simplex.contains(on) and inside(on)
        off = tuple(x + y - z for x, y, z in zip(gi, gj, gk))
        assert not simplex.contains(off) and not inside(off)


@settings(max_examples=40, deadline=None)
@given(signed_ray, signed_ray, st.integers(-3, 3), st.integers(-3, 3))
def test_simplex_refuses_coplanar_rays(a, b, s, t):
    c = tuple(s * x + t * y for x, y in zip(a, b))
    if c == (0, 0, 0):
        return
    for order in permutations((a, b, _gcd_primitive(c))):
        with pytest.raises(ValueError):
            Cone._simplex(*order)


def test_triangulate_simplicial_identity():
    assert triangulate(OCTANT) == (OCTANT,)


def test_triangulate_four_ray_cone():
    c = Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)])
    pieces = triangulate(c)
    assert len(pieces) == 2
    assert all(p.is_simplicial() for p in pieces)
    # pieces tile the cone: spot-check memberships
    for v in [(1, 2, 2), (3, 8, 9), (0, 1, 2), (2, 7, 4)]:
        assert c.contains(v) == any(p.contains(v) for p in pieces)


def test_hilbert_basis_against_oracle_seeded():
    for g1, g2, g3 in random_simplicial_octant_cones(12, 6, seed=20260815):
        c = Cone.from_generators([g1, g2, g3])
        expected = brute_force_hilbert_simplicial(g1, g2, g3)
        got = hilbert_basis(c).elements
        assert got == expected, (g1, g2, g3)


def _non_simplicial_octant_cones(count: int, seed: int) -> list[Cone]:
    """Seeded octant cones, alternately of four and five rays, each ray
    extremal, with entries 0..6."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        size = 4 + len(cones) % 2
        rays = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(size)]
        if (0, 0, 0) in rays:
            continue
        c = Cone.from_generators(rays)  # pointed: the rays lie in the octant
        if len(c.generators) == len(rays):
            cones.append(c)
    return cones


def test_hilbert_basis_non_simplicial_against_triangulation_choice():
    # hilbert_basis fans out from the lexmin ray; rebuild the basis from the
    # fan out of the lexmax ray, with box-oracle points and irreducibility.
    # Only on the seeded cones, with four or five facets, do the reduction's
    # heights run over more than three normals.
    fixed = Cone.from_generators([(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)])
    for c in [fixed, *_non_simplicial_octant_cones(20, seed=27)]:
        top = max(c.generators)
        pieces = [(top, a, b) for a, b in c.facets if top not in (a, b)]
        assert len(pieces) == len(c.generators) - 2
        candidates = {v for gens in pieces for v in box_parallelepiped_points(gens)}
        candidates.discard((0, 0, 0))
        expected = {v for v in candidates if box_is_irreducible(c.generators, v)}
        assert set(hilbert_basis(c).elements) == expected, c


def test_piece_minima_and_generators_are_a_simplicial_cones_basis():
    # stage 1 of the walk: on a simplicial, planar or ray cone, the one
    # piece's minima in its own coordinates, with the generators, are the
    # basis that the brute-force oracles find
    rng = random.Random(35)
    cones = [Cone.from_generators(g) for g in random_simplicial_octant_cones(30, 5, seed=35)]
    while len(cones) < 60:
        g1, g2 = (tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(2))
        if cross(g1, g2) != (0, 0, 0):
            cones.append(Cone.from_generators([g1, g2]))
    for c in cones:
        oracle = brute_force_hilbert_simplicial if c.dim == 3 else brute_force_hilbert_planar
        expected = oracle(*c.generators)
        assert tuple(sorted([*c.generators, *_piece_minima(c)])) == expected, c
        assert tuple(_walked_basis(c)) == expected, c
    for v in [(0, 0, 1), (2, 4, 6), (3, 5, 7)]:
        assert _walked_basis(Cone.from_generators([v])) == [primitive(v)]


def test_walked_basis_keeps_the_piece_minima_irreducible_in_the_cone():
    # stage 2: a non-simplicial cone's basis is the union of its pieces'
    # minima, less those the box oracle finds reducible in the cone; on
    # most seeded cones that drops at least one piece minimum
    dropped = 0
    for c in _non_simplicial_octant_cones(60, seed=35):
        minima = set(c.generators).union(*(_piece_minima(p) for p in triangulate(c)))
        basis = _walked_basis(c)
        assert set(basis) <= minima, c
        for v in minima:
            assert (v in basis) == box_is_irreducible(c.generators, v), (c, v)
        dropped += len(minima) > len(basis)
    assert dropped >= 30


def test_walked_basis_holds_one_copy_of_the_walk():
    # a lattice point is built only for each piece minimum, and the walk's
    # coordinate list is sorted in place: about 2.1 MB here, while building
    # every walked point and sorting a copy of the walk takes 4.5 MB
    c = parse_cone("<(1,0,0),(0,1,0),(100,101,10007)>")
    tracemalloc.start()
    try:
        basis = hilbert_basis(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 210
    assert peak < 3_000_000, peak


def _height_one_cones(count: int, seed: int, low: int = 0) -> list[Cone]:
    """Seeded cones over 3-6 points of [low, 5]^3 on one plane l = 1, l
    primitive with entries in -4..4, each a 3-dimensional cone."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        l = [rng.randint(-4, 4) for _ in range(3)]
        plane = [v for v in product(range(low, 6), repeat=3) if dot(l, v) == 1]
        if len(plane) < 3:
            continue
        c = Cone.from_generators(rng.sample(plane, min(len(plane), rng.randint(3, 6))))
        if c.dim == 3:
            cones.append(c)
    return cones


def test_height_one_bases_match_the_oracles():
    # a simplex against the box oracle, any other cone against the group walk
    cones = _height_one_cones(60, seed=31)
    assert sum(c.is_simplicial() for c in cones) >= 15
    assert sum(not c.is_simplicial() for c in cones) >= 15
    for c in cones:
        l = _height_one(c)
        assert l is not None and all(dot(l, g) == 1 for g in c.generators), c
        expected = (
            brute_force_hilbert_simplicial(*c.generators) if c.is_simplicial()
            else tuple(_walked_basis(c))
        )
        assert hilbert_basis(c) == expected, c
        assert profile_lattice_points(profile(c)) == list(c.hilbert), c


def test_height_one_profile_points_off_the_octant_match_the_box_oracle():
    cones = [c for c in _height_one_cones(40, seed=32, low=-3) if not c.in_octant()]
    assert len(cones) >= 30
    for c in cones:
        assert _height_one(c) is not None, c
        assert profile_lattice_points(profile(c)) == box_profile_points(c.generators), c


def test_height_one_needs_one_integral_plane():
    assert _height_one(Cone.from_generators([E1, E2, E3])) == (1, 1, 1)
    assert _height_one(SIGMA3) is None  # l = -8x/3 + y + z
    assert _height_one(Cone.from_generators([E1, E2, (1, 1, 2)])) is None  # x + y - z/2
    quad = Cone.from_generators([E1, E2, (1, 1, 1), (2, 0, 1)])
    assert len(quad.generators) == 4 and _height_one(quad) == (1, 1, -1)
    # four rays on no common plane, and a planar cone
    off_plane = Cone.from_generators([E1, E2, (0, 1, 1), (2, 0, 1)])
    assert len(off_plane.generators) == 4 and _height_one(off_plane) is None
    assert _height_one(Cone.from_generators([E1, E2])) is None


def test_height_one_a2_bases_match_the_group_walk():
    for m in (50, 120, 200):
        for c, _ in dual_newton_cones(instance("A2", {"k": 1, "m": m}).poly):
            assert _height_one(c) is not None, (m, c)
            assert hilbert_basis(c) == tuple(_walked_basis(c)), (m, c)
            assert profile_lattice_points(profile(c)) == list(c.hilbert), (m, c)


def test_parse_cone_round_trip():
    text = "<(0,0,1),(1,0,2),(0,1,2),(2,7,4)>"
    c = parse_cone(text)
    assert set(c.generators) == {(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 7, 4)}
    assert parse_cone(str(c)) == c


def test_parse_cone_errors():
    with pytest.raises(ValueError):
        parse_cone("(1,0,0),(0,1,0)")
    with pytest.raises(ValueError):
        parse_cone("<(1,0),(0,1,0)>")
    with pytest.raises(ValueError):
        parse_cone("<>")
    # a coordinate past int()'s digit limit is refused at its offset
    with pytest.raises(ValueError, match=r"too many digits \(position 6 "):
        parse_cone("<(1,1," + "9" * 5000 + ")>")


entry = st.integers(min_value=0, max_value=5)
vec = st.tuples(entry, entry, entry).filter(lambda v: v != (0, 0, 0))


@settings(max_examples=30, deadline=None)
@given(vec, vec, vec)
def test_hilbert_in_parallelepiped_property(g1, g2, g3):
    if unimodular_det(g1, g2, g3) == 0:
        return
    c = Cone.from_generators([g1, g2, g3])
    if not c.is_simplicial() or c.dim != 3:
        return
    pts = set(half_open(c)) | set(c.generators)
    for v in hilbert_basis(c).elements:
        assert v in pts


@settings(max_examples=20, deadline=None)
@given(vec, vec, vec)
def test_hilbert_matches_oracle_property(g1, g2, g3):
    if unimodular_det(g1, g2, g3) == 0:
        return
    c = Cone.from_generators([g1, g2, g3])
    if len(c.generators) != 3 or set(c.generators) != {
        primitive(g1), primitive(g2), primitive(g3)
    }:
        return
    got = hilbert_basis(c).elements
    expected = brute_force_hilbert_simplicial(*c.generators)
    assert got == expected


@settings(max_examples=15, deadline=None)
@given(st.lists(vec, min_size=4, max_size=6))
def test_triangulation_independence_property(vectors):
    try:
        c = Cone.from_generators(vectors)
    except ValueError:
        return
    if c.dim != 3 or c.is_simplicial():
        return
    # covering: the pieces agree with the cone on sample memberships
    pieces = triangulate(c)
    samples = [ray_sum(p.generators) for p in pieces] + [ray_sum(c.generators)]
    samples += [vadd(a, b) for a in c.generators for b in c.generators]
    for v in samples:
        assert c.contains(v)
        assert any(p.contains(v) for p in pieces)


def _generates(target, basis, cone):
    # exact feasibility of target as a non-negative integer combination
    seen = set()
    stack = [target]
    while stack:
        u = stack.pop()
        if u == (0, 0, 0):
            return True
        if u in seen:
            continue
        seen.add(u)
        for h in basis:
            rest = tuple(map(sub, u, h))
            if all(c >= 0 for c in rest) and cone.contains(rest):
                stack.append(rest)
    return False


@settings(max_examples=12, deadline=None)
@given(vec, vec, vec)
def test_hilbert_generates_doubled_parallelepiped(g1, g2, g3):
    from itertools import product

    if unimodular_det(g1, g2, g3) == 0:
        return
    c = Cone.from_generators([g1, g2, g3])
    if not c.is_simplicial() or c.dim != 3:
        return
    basis = hilbert_basis(c).elements
    a, b, d3 = c.generators
    det = unimodular_det(a, b, d3)
    s = 1 if det > 0 else -1
    normals = [cross(b, d3), cross(d3, a), cross(a, b)]
    bounds = [2 * (a[i] + b[i] + d3[i]) for i in range(3)]
    for v in product(*(range(bd + 1) for bd in bounds)):
        if v == (0, 0, 0):
            continue
        if all(0 <= s * dot(n, v) <= 2 * s * det for n in normals):
            assert _generates(v, basis, c)
